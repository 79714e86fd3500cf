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


def test_only_the_stages_call_fork_map_and_ml_manages_no_process():
    # `ingest` and `pipeline` choose the work items; `ml` stays plain functions that one item's work calls
    callers = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "fork_map"
    }
    assert callers == {"ingest.py", "pipeline.py"}
    imported = set()
    for node in ast.walk(ast.parse((SRC / "ml.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0] if node.level == 0 else f".{node.module}")
    process_modules = {"os", "multiprocessing", "concurrent", "subprocess", "threading", "signal", ".forked"}
    assert imported and not imported & process_modules


def test_only_manifest_catches_a_decode_error():
    # one place turns a byte that is not UTF-8 into an InputError: `manifest.open_text`
    catchers = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler) and node.type and "UnicodeDecodeError" in ast.unparse(node.type)
    }
    assert catchers == {"manifest.py"}
