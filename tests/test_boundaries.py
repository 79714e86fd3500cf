"""Module boundaries that the code itself must keep."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "termnet"


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
            offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert len(list(SRC.glob("*.py"))) > 5
    assert offenders == []
