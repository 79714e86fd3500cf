import ast
import json
import pathlib

from termnet.manifest import RunManifest, json_text, read_csv, write_csv

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "termnet"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "ab12", ["name", "n"], iter([["x,y", 1], ['say "hi"', 2], ["# z", 3]]), notes=["k=v"])
    assert path.read_bytes() == b'# manifest_sha256=ab12\n# k=v\nname,n\n"x,y",1\n"say ""hi""",2\n# z,3\n'


def test_read_csv_skips_only_the_leading_comment_block(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# manifest_sha256=ab12\n# note\nname,n\n\n# z,3\n#tag,4\n", encoding="utf-8")
    assert list(read_csv(path)) == [["name", "n"], ["# z", "3"], ["#tag", "4"]]
    path.write_text("name,n\nx,1\n", encoding="utf-8")  # unstamped input files read the same way
    assert list(read_csv(path)) == [["name", "n"], ["x", "1"]]
    path.write_text("", encoding="utf-8")
    assert list(read_csv(path)) == []


def test_write_csv_quotes_only_rows_holding_a_carriage_return(tmp_path):
    path = tmp_path / "t.csv"
    rows = [["a\r", 1], ["b", 2], ["c\r\nd", 3]]
    write_csv(path, "ab12", ["name", "n"], rows)
    assert path.read_bytes() == b'# manifest_sha256=ab12\nname,n\n"a\r","1"\nb,2\n"c\r\nd","3"\n'
    assert list(read_csv(path)) == [["name", "n"], ["a\r", "1"], ["b", "2"], ["c\r\nd", "3"]]


def test_json_text_is_the_manifest_file_form(tmp_path):
    manifest = RunManifest(command="rank", tool_version="0", parameters={"threshold": 0.95})
    path = tmp_path / "m.json"
    manifest.write(path)
    text = path.read_text(encoding="utf-8")
    assert text == json_text(manifest.stamped()) and text.endswith("}\n")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    assert json.loads(text)["manifest_sha256"] == manifest.sha256


def test_only_manifest_owns_the_stamped_csv_format():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "manifest.py":
            continue
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names):
                offenders.append(f"{path.name} imports csv")
            if isinstance(node, ast.ImportFrom) and node.module == "csv":
                offenders.append(f"{path.name} imports from csv")
        if "manifest_sha256=" in source:
            offenders.append(f"{path.name} writes manifest_sha256=")
    assert len(list(SRC.glob("*.py"))) > 5
    assert offenders == []
