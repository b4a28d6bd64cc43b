"""The README's library example runs as published, and its command lines parse."""

import re
import shlex
from pathlib import Path

from commkit.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks, "README.md has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_command_lines_parse():
    text = README.read_text(encoding="utf-8")
    commands = [
        shlex.split(line, comments=True)
        for block in re.findall(r"```sh\n(.*?)```", text, re.DOTALL)
        for line in block.splitlines()
        if line.startswith("commkit ")
    ]
    assert commands, "README.md has no commkit command lines"
    for argv in commands:
        build_parser().parse_args(argv[1:])
