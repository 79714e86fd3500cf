import ast
import json
import pathlib

import pytest

from termnet.manifest import (
    InputError,
    RunManifest,
    count,
    csv_line,
    finite,
    json_text,
    one_of,
    read_csv,
    read_table,
    write_csv,
)

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


@pytest.mark.parametrize("rows", [1, 2000])
def test_read_csv_names_a_bad_byte_with_its_offset_in_the_file(tmp_path, rows):
    # past the decoder's first 8 KiB chunk too, and after a BOM, which counts
    path = tmp_path / "t.csv"
    head = b"\xef\xbb\xbf# manifest_sha256=ab12\nname,n\n" + b"caf\xc3\xa9,1\n" * rows
    path.write_bytes(head + b"x\xff,2\n")
    with pytest.raises(InputError) as info:
        list(read_csv(path))
    assert str(info.value) == f"{path}: not UTF-8 text: byte 0xff at offset {len(head) + 1}: invalid start byte"


@pytest.mark.parametrize("cut", [b"\xef", b"\xef\xbb"])
def test_read_csv_names_a_bom_cut_short_at_offset_0(tmp_path, cut):
    path = tmp_path / "t.csv"
    path.write_bytes(cut)
    with pytest.raises(InputError) as info:
        list(read_csv(path))
    assert str(info.value) == f"{path}: not UTF-8 text: byte 0xef at offset 0: unexpected end of data"
    path.write_bytes(b"\xef\xbb\xbf")  # a whole BOM alone is empty text
    assert list(read_csv(path)) == []


def test_write_csv_quotes_only_rows_holding_a_carriage_return(tmp_path):
    path = tmp_path / "t.csv"
    rows = [["a\r", 1], ["b", 2], ["c\r\nd", 3]]
    write_csv(path, "ab12", ["name", "n"], rows)
    assert path.read_bytes() == b'# manifest_sha256=ab12\nname,n\n"a\r","1"\nb,2\n"c\r\nd","3"\n'
    assert list(read_csv(path)) == [["name", "n"], ["a\r", "1"], ["b", "2"], ["c\r\nd", "3"]]


def test_csv_line_is_the_line_write_csv_writes_and_a_cr_row_reads_back_unchanged(tmp_path):
    # the one quoting rule: a row holding a CR comes out fully quoted, every other row minimally
    rows = [["a\rb", "x,y"], ["plain", 'say "hi"'], ["c\r\n", "d"]]
    assert [csv_line(row) for row in rows] == ['"a\rb","x,y"\n', 'plain,"say ""hi"""\n', '"c\r\n","d"\n']
    path = tmp_path / "t.csv"
    write_csv(path, "ab12", ["name", "value"], rows)
    assert path.read_bytes().decode("utf-8") == "# manifest_sha256=ab12\nname,value\n" + "".join(map(csv_line, rows))
    assert read_table(path, dict(name=str, value=str), "test", key=1) == rows


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
            if isinstance(node, ast.ImportFrom) and any(alias.name == "read_csv" for alias in node.names):
                offenders.append(f"{path.name} imports read_csv")
            if isinstance(node, ast.Attribute) and node.attr == "read_csv":
                offenders.append(f"{path.name} calls manifest.read_csv")
        if "manifest_sha256=" in source:
            offenders.append(f"{path.name} writes manifest_sha256=")
    assert len(list(SRC.glob("*.py"))) > 5
    assert offenders == []


# ---------------------------------------------------------------- read_table

COLUMNS = dict(name=str, n=count, x=finite, kind=one_of("a", "b"))


def _table(tmp_path, text: str, key: int = 1) -> list[list]:
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    return read_table(path, COLUMNS, "test", key)


def test_converters():
    assert count("12") == 12 and count("-3") == -3
    assert finite("0.1") == 0.1 and finite("-1e300") == -1e300
    assert one_of("a", "b")("b") == "b"
    assert finite("-0.0") == 0.0 and finite("1.5e-07") == 1.5e-07 and finite("7") == 7.0
    strict = [(count, c) for c in ("1_0", "\u0663", " 7 ", "+3", "7\n", "-", "0x1")]
    strict += [(finite, c) for c in ("1_0.5", "\u0663.0", " 1.0", "+1.0", ".5", "5.", "1E5", "1e", "-1e999")]
    for convert, cell in [(count, "1.5"), (count, ""), (finite, "abc"), (finite, "nan"), (finite, "inf")] + strict:
        with pytest.raises(ValueError):
            convert(cell)
    with pytest.raises(ValueError, match="'c' is not one of a, b"):
        one_of("a", "b")("c")


def test_read_table_converts_every_cell(tmp_path):
    rows = _table(tmp_path, "# manifest_sha256=ab12\nname,n,x,kind\nu,1,0.5,a\n# v,-2,1e3,b\n")
    assert rows == [["u", 1, 0.5, "a"], ["# v", -2, 1000.0, "b"]]
    assert _table(tmp_path, "name,n,x,kind\n") == []


@pytest.mark.parametrize("header", ["", "name,n,x", "name,n,x,kind,extra", "n,name,x,kind", "name,n,x,Kind"])
def test_read_table_needs_the_exact_header(tmp_path, header):
    with pytest.raises(InputError, match="t.csv: expected test header"):
        _table(tmp_path, f"# manifest_sha256=ab12\n{header}\nu,1,0.5,a\n")


@pytest.mark.parametrize("row", ["u,1,0.5", "u,1,0.5,a,", "u"])
def test_read_table_rejects_a_row_of_the_wrong_width(tmp_path, row):
    with pytest.raises(InputError, match=r"t.csv: bad row \['u'\]: \d cells, not 4"):
        _table(tmp_path, f"name,n,x,kind\nv,2,0.5,b\n{row}\n")


@pytest.mark.parametrize(
    "column, cell, problem",
    [
        ("n", "x", "non-integer count 'x'"),
        ("n", "1.5", "non-integer count"),
        ("n", "", "non-integer count"),
        ("n", "1_0", "non-integer count '1_0'"),
        ("n", "\u0663", "non-integer count"),
        ("n", " 7 ", "non-integer count ' 7 '"),
        ("n", "+3", "non-integer count '\\+3'"),
        ("x", "abc", "bad numeric cell 'abc'"),
        ("x", "nan", "bad numeric cell 'nan', not a finite number"),
        ("x", "-inf", "bad numeric cell '-inf', not a finite number"),
        ("x", "", "bad numeric cell"),
        ("x", "1_0.5", "bad numeric cell '1_0.5'"),
        ("x", "+0.5", "bad numeric cell '\\+0.5'"),
        ("x", ".5", "bad numeric cell '.5'"),
        ("kind", "c", "'c' is not one of a, b"),
        ("kind", "", "'' is not one of a, b"),
    ],
)
def test_read_table_rejects_a_cell_its_column_rejects(tmp_path, column, cell, problem):
    row = {"name": "u", "n": "1", "x": "0.5", "kind": "a", column: cell}
    with pytest.raises(InputError, match=f"t.csv: bad row \\['u'\\]: column '{column}': {problem}"):
        _table(tmp_path, "name,n,x,kind\n" + ",".join(row.values()) + "\n")


def test_read_table_rejects_a_repeated_key(tmp_path):
    text = "name,n,x,kind\nu,1,0.5,a\nu,2,0.5,a\n"
    with pytest.raises(InputError, match=r"t.csv: duplicate row \['u'\]"):
        _table(tmp_path, text, key=1)
    assert [row[1] for row in _table(tmp_path, text, key=2)] == [1, 2]  # ('u', 1) and ('u', 2) differ
    assert len(_table(tmp_path, text, key=0)) == 2  # no key: repeats pass
    with pytest.raises(InputError, match=r"duplicate row \['u', 1\]"):
        _table(tmp_path, text + "u,1,2.5,b\n", key=2)
