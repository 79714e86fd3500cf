"""Module boundaries that the code itself must keep."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "termnet"
# public names of the standard library that start with one underscore: the exit of a child that `forked` forks
STDLIB_PUBLIC = {"os._exit"}


def test_no_module_reads_a_private_name_of_another_object():
    # `x._name` is private to the class or module that defines it: only
    # `self._name` and `cls._name` may read it, so no module leans on another's
    # caches or helpers.  Dunders are public protocol.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            if node.attr.startswith("__") and node.attr.endswith("__"):
                continue
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                continue
            if ast.unparse(node) in STDLIB_PUBLIC:
                continue
            offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert len(list(SRC.glob("*.py"))) > 5
    assert offenders == []


def test_only_forked_starts_and_ends_processes():
    # one fork mechanism: every stage with independent work runs it through `forked.fork_map`
    calls = {"os.fork", "os.waitpid", "os._exit", "os.kill"}
    users = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and ast.unparse(node) in calls:
                users.setdefault(ast.unparse(node), set()).add(path.name)
    assert users == dict.fromkeys(calls, {"forked.py"})
