"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from calogero_ss.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block():
    text = README.read_text()
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_cli_examples_with_shown_output(capsys):
    # a "calogero-ss ..." line followed by "  -> <stdout>"
    examples = re.findall(r"^calogero-ss (.*)\n  -> (.*)$",
                          README.read_text(), re.M)
    assert any(argv.startswith("polys ") for argv, _ in examples)
    for argv, shown in examples:
        assert main(shlex.split(argv)) == EXIT_OK
        assert capsys.readouterr().out == shown + "\n"
