"""README's command-line examples and library quick start run as written."""

import re
import shlex
from pathlib import Path

import pytest

from kwmix import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block_after(marker: str) -> str:
    """The body of the first fenced block after the line `marker`."""
    match = re.search(rf"^{re.escape(marker)}\n.*?^```\w*\n(.*?)^```", README, re.M | re.S)
    assert match, f"README has no fenced block after {marker!r}"
    return match.group(1)


EXAMPLES = [line.split("#")[0].strip() for line in _block_after("Examples:").splitlines()
            if line.startswith("kwmix ")]


def test_readme_lists_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("line", EXAMPLES)
def test_readme_example_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0


def test_readme_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(_block_after("## Library quick start"), {})
