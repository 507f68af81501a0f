"""All randomness of the package comes from the seeded streams of
``kwmix.rng``: no other module makes a generator of its own.

As in ``test_unused_imports``, this reads the modules with ``ast``. It
flags a call of ``Generator``, ``Philox``, ``SeedSequence`` or
``default_rng``, however it is reached, and any call through
``np.random`` (the global legacy generator included). Type annotations
such as ``np.random.Generator`` are not calls and stay allowed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in ROOT.glob("src/kwmix/*.py") if p.name != "rng.py")
MAKERS = {"Generator", "Philox", "SeedSequence", "default_rng"}


def _dotted(node: ast.expr) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _generator_calls(source: str) -> list[str]:
    calls = sorted((node.lineno, node.col_offset, _dotted(node.func))
                   for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call))
    return [f"line {line}: {name}" for line, _, name in calls
            if name.split(".")[-1] in MAKERS or name.startswith(("np.random.", "numpy.random."))]


def test_the_check_finds_a_generator_made_outside_rng():
    source = ("import numpy as np\nfrom numpy.random import default_rng\n"
              "def f(rng: np.random.Generator):\n"
              "    return default_rng(1), np.random.random(3), rng.random(3)\n"
              "g = np.random.Generator(np.random.PCG64(0))\n")
    assert _generator_calls(source) == [
        "line 4: default_rng", "line 4: np.random.random",
        "line 5: np.random.Generator", "line 5: np.random.PCG64"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_rng_makes_random_generators(path):
    assert _generator_calls(path.read_text()) == []
