import pathlib
import re
import shlex

import pytest

from termnet import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_termnet_commands_parse():
    # an option removed from the CLI cannot stay documented
    commands = [
        argv
        for block in _blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
        if (argv := shlex.split(line, comments=True))[:1] == ["termnet"]
    ]
    assert {argv[1] for argv in commands} == set(cli._COMMANDS)
    parser = cli._build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
