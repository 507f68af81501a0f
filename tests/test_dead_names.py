"""Every public top-level function or class of the package is read by
other package code, or is kept in ``KEPT`` for the promise it names.

As in ``test_unused_imports``, this reads the modules with ``ast``. A
read is a name or attribute reference outside the definition itself.
``kwmix/__init__.py`` is not read: its imports are its exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in ROOT.glob("src/kwmix/*.py") if p.name != "__init__.py")

# Public names that no package code reads, each with the promise needing it.
KEPT = {
    "mixing_time_exact": "acceptance criterion 7 and the README library quick start",
    "tv_curve": "acceptance criterion 7",
    "pointwise_relative_error": "acceptance criterion 7",
    "verify_reversible": "acceptance criterion 1",
    "chain_rule_residual": "acceptance criterion 4",
}


def _unread_names(sources: dict[str, str]) -> list[str]:
    defined, read = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = node.name
                if not owner.startswith("_"):
                    defined[owner] = module
            for inner in ast.walk(node):
                name = (inner.id if isinstance(inner, ast.Name)
                        else inner.attr if isinstance(inner, ast.Attribute) else None)
                if name is not None and name != owner:
                    read.add(name)
    return [f"{module}.{name}" for name, module in defined.items() if name not in read]


def test_the_check_finds_an_unread_name():
    sources = {"a": "def used():\n    pass\n\ndef unread():\n    return unread()\n",
               "b": "from a import used\n\nclass Kept:\n    x = used\n"}
    assert _unread_names(sources) == ["a.unread", "b.Kept"]


def test_every_public_name_is_read_or_kept():
    # a kept name that package code comes to read leaves the list too
    unread = _unread_names({p.stem: p.read_text() for p in MODULES})
    assert sorted(name.split(".")[1] for name in unread) == sorted(KEPT), unread
