"""Every malformed input exits 1 with one `error:` line; none reaches exit 2 or a traceback.

The property starts from the valid files of a tiny corpus, applies one
mutation to one of them and runs the CLI in process.  The regression tests
below it pin one reproduced defect each.
"""

import contextlib
import gzip
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import termnet
from termnet.cli import main
from termnet.ingest import parse_records, read_corpus, read_records_file, read_terms_file
from termnet.manifest import FIELD_LIMIT, InputError, read_csv
from termnet.pipeline import FEATURES_COLUMNS, SUMMARY_COLUMNS, read_features_csv, read_summary
from termnet.ranking import LABELS_COLUMNS, RATINGS_COLUMNS, read_labels_csv, read_ratings_csv


def run(*argv) -> tuple[int, str]:
    """(exit code, stderr) of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


def assert_input_error(rc: int, err: str, name=None) -> None:
    """Exit 1 and stderr ending in its only `error:` line (naming `name` if given)."""
    lines = err.splitlines()
    assert rc == 1, err
    assert lines and lines[-1].startswith("error: "), err
    assert sum(line.startswith("error:") for line in lines) == 1, err
    assert name is None or str(name) in lines[-1], err


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> Path:
    """synth --terms 6 --records 20, its networks, features and labels."""
    root = tmp_path_factory.mktemp("valid")
    assert run("synth", "-o", root / "corpus", "--terms", 6, "--records", 20)[0] == 0
    records, terms = root / "corpus/records.jsonl", root / "corpus/terms.txt"
    assert run("networks", records, terms, "-o", root / "nets")[0] == 0
    assert run("features", root / "nets", "-o", root / "features.csv")[0] == 0
    assert run("rank", root / "corpus/ratings.csv", "-o", root / "labels.csv")[0] == 0
    return root


# input name -> (file under the corpus root, argv that reads it; `{}` is the root)
NETWORKS = ["networks", "{}/corpus/records.jsonl", "{}/corpus/terms.txt", "-o", "{}/out"]
FEATURES = ["features", "{}/nets", "-o", "{}/out.csv"]
CLASSIFY = ["classify", "{}/features.csv", "{}/labels.csv", "-o", "{}/out", "--folds", "2"]
INPUTS = {
    "records": ("corpus/records.jsonl", NETWORKS),
    "terms": ("corpus/terms.txt", NETWORKS),
    "ratings": ("corpus/ratings.csv", ["rank", "{}/corpus/ratings.csv", "-o", "{}/out.csv"]),
    "labels": ("labels.csv", CLASSIFY),
    "summary": ("nets/summary.csv", FEATURES),
    "edges": ("nets/tag-term000.mention.edges.csv", FEATURES),
    "features": ("features.csv", CLASSIFY),
}
# "\ud800" is a lone surrogate: an escape in a JSON record, bytes that are not UTF-8 elsewhere
CELL_VALUES = ("abc", "nan", "inf", "", "\ud800")


def _data_lines(lines: list[bytes]) -> list[int]:
    """Indices of the data rows: in a CSV, the lines after the `# ` block and the header."""
    if not lines[0].startswith(b"# "):
        return list(range(len(lines)))
    start = 0
    while start < len(lines) and lines[start].startswith(b"# "):
        start += 1
    return list(range(start + 1, len(lines)))


def _set_cell(line: bytes, pick: int, value: str) -> bytes:
    """`line` with one cell replaced: a CSV field, a JSON member's value, or a whole terms line."""
    if line.startswith(b"{"):
        obj = json.loads(line)
        obj[sorted(obj)[pick % len(obj)]] = value
        return json.dumps(obj).encode()
    cells = line.split(b",")
    cells[pick % len(cells)] = value.encode("utf-8", "surrogatepass")
    return b",".join(cells)


def mutate(data: bytes, kind: str, pos: int, pick: int, value: str) -> bytes:
    """`data` with one mutation of `kind`; `pos`, `pick` and `value` choose where and what."""
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "truncate":
        return data[: pos % len(data)]
    if kind == "xff":
        at = pos % (len(data) + 1)
        return data[:at] + b"\xff" + data[at:]
    lines = data.split(b"\n")[:-1]
    i = _data_lines(lines)[pos % len(_data_lines(lines))]
    if kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i] = _set_cell(lines[i], pick, value)
    return b"\n".join(lines) + b"\n"


def check_mutation(valid: Path, name: str, *mutation) -> None:
    """Mutate input `name` once and run the command that reads it: exit 0, or 1 and one `error:`."""
    rel, argv = INPUTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(valid, tmp, dirs_exist_ok=True)
        target = Path(tmp) / rel
        target.write_bytes(mutate(target.read_bytes(), *mutation))
        rc, err = run(*(a.format(tmp) for a in argv))
    assert rc in (0, 1), (mutation, err)
    assert "internal error:" not in err and "Traceback" not in err, (mutation, err)
    if rc == 1:
        assert_input_error(rc, err)


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("kind", ["truncate", "duplicate", "cell", "xff"])
@settings(
    max_examples=3, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    pos=st.integers(min_value=0, max_value=10**6),
    pick=st.integers(min_value=0, max_value=10**3),
    value=st.sampled_from(CELL_VALUES),
)
def test_mutated_input_exits_0_or_1(valid, name, kind, pos, pick, value):
    check_mutation(valid, name, kind, pos, pick, value)


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("kind", ["bom", "crlf"])
def test_bom_or_crlf_input_exits_0_or_1(valid, name, kind):
    check_mutation(valid, name, kind, 0, 0, "")


# ---------------------------------------------------------------- regressions


def _edit_row(path: Path, row: int, column: int, value: str) -> None:
    """Set one cell of data row `row` (0-based, after the `# ` block and header)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    i = _data_lines([line.encode() for line in lines])[row]
    cells = lines[i].split(",")
    cells[column] = value
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _duplicate_row(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    i = _data_lines([line.encode() for line in lines])[0]
    lines.insert(i, lines[i])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("mean", ["abc", "nan", "inf", ""])
def test_labels_mean_must_be_a_finite_number(valid, tmp_path, mean):
    labels = tmp_path / "labels.csv"
    shutil.copy(valid / "labels.csv", labels)
    _edit_row(labels, 0, 1, mean)
    rc, err = run("classify", valid / "features.csv", labels, "-o", tmp_path / "out", "--folds", 2)
    assert_input_error(rc, err, labels)
    assert "bad row" in err


@pytest.mark.parametrize("column, value", [(2, "x"), (3, "-"), (4, "1.5")])
def test_summary_counts_must_be_integers(valid, tmp_path, column, value):
    nets = tmp_path / "nets"
    shutil.copytree(valid / "nets", nets)
    _edit_row(nets / "summary.csv", 0, column, value)
    rc, err = run("features", nets, "-o", tmp_path / "f.csv")
    assert_input_error(rc, err, nets / "summary.csv")
    assert "non-integer count" in err


def test_networks_reuses_a_directory_whose_summary_has_a_bad_count(valid, tmp_path):
    # the clean-up before writing needs only the file names the old summary lists
    nets = tmp_path / "nets"
    shutil.copytree(valid / "nets", nets)
    _edit_row(nets / "summary.csv", 0, 2, "x")
    rc, err = run("networks", valid / "corpus/records.jsonl", valid / "corpus/terms.txt", "-o", nets)
    assert rc == 0, err
    files = {p.name: p.read_bytes() for p in nets.iterdir()}
    assert files == {p.name: p.read_bytes() for p in (valid / "nets").iterdir()}


def test_summary_duplicate_row_is_rejected(valid, tmp_path):
    nets = tmp_path / "nets"
    shutil.copytree(valid / "nets", nets)
    _duplicate_row(nets / "summary.csv")
    rc, err = run("features", nets, "-o", tmp_path / "f.csv")
    assert_input_error(rc, err, nets / "summary.csv")
    assert "duplicate row" in err and not (tmp_path / "f.csv").exists()


# a summary `file` cell that is no `<name>.edges.csv` file name; `{outside}` is an absolute path
BAD_FILE_CELLS = ["../outside.edges.csv", "{outside}", "a\x00b.edges.csv", "sub/x.edges.csv", "x.csv"]


def _summary_listing(valid: Path, tmp_path: Path, cell: str) -> Path:
    """A copy of the valid networks whose first summary row lists `cell`, next to
    `outside.edges.csv`, a readable copy of the edge file that row named."""
    nets = tmp_path / "nets"
    shutil.copytree(valid / "nets", nets)
    first = read_summary(nets)[0][-1]
    shutil.copy(nets / first, tmp_path / "outside.edges.csv")
    _edit_row(nets / "summary.csv", 0, 5, cell.format(outside=tmp_path / "outside.edges.csv"))
    return nets


@pytest.mark.parametrize("manifest", [False, True])
@pytest.mark.parametrize("cell", BAD_FILE_CELLS)
def test_summary_file_must_be_an_edge_file_name(valid, tmp_path, cell, manifest):
    # features read and hashed the file a path named, and a NUL byte exited 2
    nets = _summary_listing(valid, tmp_path, cell)
    rc, err = run("features", nets, "-o", tmp_path / "f.csv", *["--manifest"] * manifest)
    assert_input_error(rc, err, nets / "summary.csv")
    assert "column 'file'" in err and not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("manifest", [False, True])
def test_summary_file_listed_twice_is_rejected(valid, tmp_path, manifest):
    # term001's mention row named #term000's network, with its counts: features exited 0
    # with term001's features computed from #term000's network
    nets = tmp_path / "nets"
    shutil.copytree(valid / "nets", nets)
    rows = read_summary(nets)
    taken, row = rows[0], next(i for i, r in enumerate(rows) if r[:2] == ["term001", "mention"])
    for column in (2, 3, 5):  # nodes, edges, file
        _edit_row(nets / "summary.csv", row, column, str(taken[column]))
    rc, err = run("features", nets, "-o", tmp_path / "f.csv", *["--manifest"] * manifest)
    assert_input_error(rc, err, nets / "summary.csv")
    assert f"file {taken[5]} is listed twice" in err and not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("cell", BAD_FILE_CELLS)
def test_networks_rejects_a_reused_directory_whose_summary_lists_no_file_name(valid, tmp_path, cell):
    nets = _summary_listing(valid, tmp_path, cell)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    rc, err = run("networks", valid / "corpus/records.jsonl", valid / "corpus/terms.txt", "-o", nets)
    assert_input_error(rc, err, nets / "summary.csv")
    assert "column 'file'" in err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_features_duplicate_row_is_rejected(valid, tmp_path):
    features = tmp_path / "features.csv"
    shutil.copy(valid / "features.csv", features)
    _duplicate_row(features)
    with pytest.raises(InputError, match="duplicate row"):
        read_features_csv(features)
    rc, err = run("classify", features, valid / "labels.csv", "-o", tmp_path / "out", "--folds", 2)
    assert_input_error(rc, err, features)


@pytest.mark.parametrize("name", ["records", "terms", "ratings", "features"])
def test_non_utf8_file_fails_whole(valid, tmp_path, name):
    rel, argv = INPUTS[name]
    shutil.copytree(valid, tmp_path, dirs_exist_ok=True)
    target = tmp_path / rel
    data = target.read_bytes()
    target.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :])
    rc, err = run(*(a.format(tmp_path) for a in argv))
    assert_input_error(rc, err, target)
    assert "not UTF-8" in err


def _gzip_records(valid, tmp_path, damage) -> tuple[int, str, Path]:
    packed = bytearray(gzip.compress((valid / "corpus/records.jsonl").read_bytes(), mtime=0))
    records = tmp_path / "records.jsonl.gz"
    records.write_bytes(damage(packed))
    rc, err = run("networks", records, valid / "corpus/terms.txt", "-o", tmp_path / "nets")
    return rc, err, records


def test_truncated_gzip_records_is_an_input_error(valid, tmp_path):
    rc, err, records = _gzip_records(valid, tmp_path, lambda b: bytes(b[: len(b) // 2]))
    assert_input_error(rc, err, records)


def test_corrupt_gzip_records_is_an_input_error(valid, tmp_path):
    def damage(b):
        mid = len(b) // 2
        b[mid : mid + 8] = bytes(x ^ 0xFF for x in b[mid : mid + 8])
        return bytes(b)

    rc, err, records = _gzip_records(valid, tmp_path, damage)
    assert_input_error(rc, err, records)


def test_timestamp_out_of_range_is_malformed(valid, tmp_path):
    # the +05:00 offset moves the instant before year 1
    records = tmp_path / "records.jsonl"
    lines = (valid / "corpus/records.jsonl").read_text(encoding="utf-8").splitlines()
    bad = dict(json.loads(lines[0]), timestamp="0001-01-01T00:00:00+05:00")
    records.write_text("\n".join([json.dumps(bad)] + lines[1:]) + "\n", encoding="utf-8")
    rc, err = run("networks", records, valid / "corpus/terms.txt", "-o", tmp_path / "nets")
    assert rc == 0 and "bad timestamp" in err
    terms = valid / "corpus/terms.txt"
    rc, err = run("networks", records, terms, "-o", tmp_path / "n2", "--from", bad["timestamp"])
    assert_input_error(rc, err)


def test_lone_surrogate_in_a_record_is_a_malformed_line(valid, tmp_path):
    # json.loads keeps the escape "\ud800"; the UTF-8 edge files could not hold it
    records, terms = tmp_path / "records.jsonl", valid / "corpus/terms.txt"
    lines = (valid / "corpus/records.jsonl").read_text(encoding="utf-8").splitlines()
    bad = json.dumps(dict(json.loads(lines[0]), author="\ud800"))
    records.write_text("\n".join([bad] + lines[1:]) + "\n", encoding="utf-8")
    rc, err = run("networks", records, terms, "-o", tmp_path / "nets")
    assert rc == 0 and f"{records}:1: " in err and "surrogates not allowed" in err
    assert run("features", tmp_path / "nets", "-o", tmp_path / "f.csv")[0] == 0
    records.write_text(bad + "\n", encoding="utf-8")
    rc, err = run("networks", records, terms, "-o", tmp_path / "n2")
    assert_input_error(rc, err)


@pytest.mark.parametrize(
    "field, value",
    [("post_id", "p\udc00"), ("text", "\ud83d"), ("mentioned", ["\udfff"]), ("reply_to_author", "\ud800")],
)
def test_lone_surrogate_in_any_string_field_is_malformed(valid, field, value):
    lines = (valid / "corpus/records.jsonl").read_text(encoding="utf-8").splitlines()[:20]
    lines[3] = json.dumps(dict(json.loads(lines[3]), **{field: value}))
    result = parse_records("\n".join(lines))
    assert [lineno for lineno, _ in result.failures] == [4] and len(result.records) == 19


def _networks_with_bad_line(valid, tmp_path, bad: str) -> tuple[int, str, Path]:
    """networks over 20 good records and then `bad`: (exit code, stderr, records file)."""
    records = tmp_path / "records.jsonl"
    lines = (valid / "corpus/records.jsonl").read_text(encoding="utf-8").splitlines()[:20]
    records.write_text("\n".join(lines + [bad]) + "\n", encoding="utf-8")
    rc, err = run("networks", records, valid / "corpus/terms.txt", "-o", tmp_path / "nets")
    return rc, err, records


def test_json_nested_past_the_recursion_limit_is_a_malformed_line(valid, tmp_path):
    # json.loads raises RecursionError, not JSONDecodeError
    rc, err, records = _networks_with_bad_line(valid, tmp_path, "[" * 100_000 + "]" * 100_000)
    assert rc == 0 and f"{records}:21: invalid JSON: " in err, err


def test_json_int_past_the_digit_limit_is_a_malformed_line(valid, tmp_path):
    # json.loads raises ValueError("Exceeds the limit (4300 digits) ..."), not JSONDecodeError
    rc, err, records = _networks_with_bad_line(valid, tmp_path, '{"post_id": ' + "9" * 5000 + "}")
    assert rc == 0 and f"{records}:21: invalid JSON: " in err, err


def test_a_value_error_past_json_loads_is_a_bug(valid, tmp_path, monkeypatch):
    # only json.loads's errors make a malformed line: a ValueError from the record check is an internal error
    def broken(obj, line):
        raise ValueError("bug")

    monkeypatch.setattr("termnet.ingest._record_from_obj", broken)
    rc, err, _ = _networks_with_bad_line(valid, tmp_path, "{}")
    assert rc == 2 and err.splitlines()[-1] == "internal error: ValueError: bug", err


def test_failed_classify_leaves_no_manifest(valid, tmp_path):
    labels = tmp_path / "labels.csv"
    head = (valid / "labels.csv").read_text(encoding="utf-8").splitlines()[:2]
    labels.write_text("\n".join(head) + "\n", encoding="utf-8")
    rc, err = run("classify", valid / "features.csv", labels, "-o", tmp_path / "out", "--folds", 2)
    assert_input_error(rc, err)
    assert "no labeled terms" in err and not (tmp_path / "out/manifest.json").exists()


@pytest.mark.parametrize("command", ["classify", "synth"])
def test_negative_seed_is_an_input_error(valid, tmp_path, command):
    # numpy's SeedSequence rejects it with a ValueError, which exited 2 after
    # classify had made its output directory
    inputs = {"classify": [valid / "features.csv", valid / "labels.csv", "--folds", 2], "synth": []}[command]
    rc, err = run(command, *inputs, "-o", tmp_path / "out", "--seed", -1)
    assert_input_error(rc, err)
    assert "seed must be >= 0" in err and not (tmp_path / "out").exists()


def test_byte_order_mark_is_skipped(valid, tmp_path):
    terms = tmp_path / "terms.txt"
    terms.write_bytes(b"\xef\xbb\xbf" + (valid / "corpus/terms.txt").read_bytes())
    assert read_terms_file(terms) == read_terms_file(valid / "corpus/terms.txt")
    labels = tmp_path / "labels.csv"
    labels.write_bytes(b"\xef\xbb\xbf" + (valid / "labels.csv").read_bytes())
    assert read_labels_csv(labels) == read_labels_csv(valid / "labels.csv")


def test_csv_field_over_the_size_limit_is_an_input_error(tmp_path):
    path = tmp_path / "big.csv"
    big = "a" * 200_000
    path.write_text(f"# manifest_sha256=0\nsrc_handle,dst_handle\n{big},b\n", encoding="utf-8")
    with pytest.raises(InputError, match="big.csv"):
        list(read_csv(path))


# file under the corpus root -> (its column declaration, the reader that checks it)
READERS = {
    "features.csv": (FEATURES_COLUMNS, read_features_csv),
    "labels.csv": (LABELS_COLUMNS, read_labels_csv),
    "nets/summary.csv": (SUMMARY_COLUMNS, lambda path: read_summary(path.parent)),
    "corpus/ratings.csv": (RATINGS_COLUMNS, read_ratings_csv),
}
TYPED_COLUMNS = [(rel, name) for rel, (columns, _) in READERS.items() for name, conv in columns.items() if conv is not str]


def test_only_text_columns_are_declared_str():
    text = {rel: [name for name, conv in columns.items() if conv is str] for rel, (columns, _) in READERS.items()}
    assert text == {
        "features.csv": ["term"],
        "labels.csv": ["term"],
        "nets/summary.csv": ["term"],
        "corpus/ratings.csv": ["term", "participant"],
    }
    assert len(TYPED_COLUMNS) == 444 + 4 + 5 + 1


@pytest.mark.parametrize("rel, column", TYPED_COLUMNS)
def test_every_typed_cell_is_checked(valid, tmp_path, rel, column):
    columns, read = READERS[rel]
    lines = (valid / rel).read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("# ")) + 1  # after the header
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    for value in ("abc", ""):
        cells = lines[first].split(",")
        cells[list(columns).index(column)] = value
        target.write_text("\n".join(lines[:first] + [",".join(cells)] + lines[first + 1 :]) + "\n", encoding="utf-8")
        with pytest.raises(InputError) as info:
            read(target)
        assert str(info.value).startswith(f"{target}: bad row ") and f"column {column!r}" in str(info.value)


def test_labels_and_ratings_readers_reject_a_repeated_key(valid, tmp_path):
    for rel, read in [("labels.csv", read_labels_csv), ("corpus/ratings.csv", read_ratings_csv)]:
        lines = (valid / rel).read_text(encoding="utf-8").splitlines()
        target = tmp_path / rel.replace("/", "-")
        target.write_text("\n".join(lines + lines[-1:]) + "\n", encoding="utf-8")
        with pytest.raises(InputError, match="duplicate row") as info:
            read(target)
        assert str(info.value).startswith(f"{target}: ")


@pytest.mark.parametrize("name", ["records.jsonl", "records.jsonl.gz", "fifo"])
@pytest.mark.parametrize(
    "read", [read_records_file, lambda path: read_corpus(path, ["x"])], ids=["read_records_file", "read_corpus"]
)
def test_too_many_malformed_lines_names_the_records_file(read, name, tmp_path):
    records = tmp_path / name
    data = b"not json\n"
    if name == "fifo":  # a pipe, read in one part as a .gz file is
        os.mkfifo(records)
        writer = threading.Thread(target=records.write_bytes, args=(data,), daemon=True)
        writer.start()
    else:
        records.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
    with pytest.raises(InputError) as info:
        read(records)
    assert str(info.value).startswith(f"{records}: 1 of 1 lines malformed (limit 10%); first: line 1: ")
    if name == "fifo":
        writer.join(timeout=10)
        assert not writer.is_alive()


# a FIFO in place of one input of a stage; `{fifo}`, `{valid}` and `{tmp}` are filled in
FIFO_ARGV = {
    "networks records": ["networks", "{fifo}", "{valid}/corpus/terms.txt", "-o", "{tmp}/out"],
    "networks terms": ["networks", "{valid}/corpus/records.jsonl", "{fifo}", "-o", "{tmp}/out"],
    "rank ratings": ["rank", "{fifo}", "-o", "{tmp}/out"],
}


@pytest.mark.parametrize("manifest", [False, True])
@pytest.mark.parametrize("argv", FIFO_ARGV.values(), ids=FIFO_ARGV.keys())
def test_an_input_that_is_not_a_regular_file_is_an_input_error(valid, tmp_path, argv, manifest):
    # a stage hashes its inputs, then reads them: a pipe's hash uses up the bytes the stage would read, and
    # opening a FIFO with no writer blocks.  A fresh process with a timeout, so a stage that opens it fails here.
    fifo, out = tmp_path / "fifo", tmp_path / "out"
    os.mkfifo(fifo)
    if argv[0] == "networks":
        shutil.copytree(valid / "nets", out)
    else:
        shutil.copy(valid / "labels.csv", out)

    def files():
        return {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")}

    before = files()
    argv = [arg.format(fifo=fifo, valid=valid, tmp=tmp_path) for arg in argv] + ["--manifest"] * manifest
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(termnet.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "termnet.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert_input_error(proc.returncode, proc.stderr)
    assert (proc.stdout, proc.stderr) == ("", f"error: {fifo}: not a regular file\n")
    assert files() == before


def test_malformed_lines_at_the_end_leave_the_previous_networks(valid, tmp_path):
    # the 10 % rule is known only when the records run out, and still fails before -o is touched
    nets, terms = tmp_path / "nets", valid / "corpus/terms.txt"
    lines = (valid / "corpus/records.jsonl").read_text(encoding="utf-8").splitlines()
    assert run("networks", valid / "corpus/records.jsonl", terms, "-o", nets)[0] == 0
    before = {path.name: path.read_bytes() for path in nets.iterdir()}
    assert {"summary.csv", "manifest.json"} < set(before) and len(before) == 2 + 3 * 6
    records = tmp_path / "records.jsonl"
    bad = len(lines) // 9 + 1  # just over 10 % of all the lines
    records.write_text("\n".join(lines + ["junk"] * bad) + "\n", encoding="utf-8")
    rc, err = run("networks", records, terms, "-o", nets)
    assert_input_error(rc, err)
    assert err.splitlines() == [
        f"error: {records}: {bad} of {len(lines) + bad} lines malformed (limit 10%); "
        f"first: line {len(lines) + 1}: invalid JSON: Expecting value"
    ]
    assert {path.name: path.read_bytes() for path in nets.iterdir()} == before


def test_a_duplicate_term_is_reported_before_the_records_are_read(tmp_path):
    records, terms = tmp_path / "records.jsonl", tmp_path / "terms.txt"
    records.write_text("junk\n" * 5, encoding="utf-8")
    terms.write_text("Tag\ntag\n", encoding="utf-8")
    rc, err = run("networks", records, terms, "-o", tmp_path / "nets")
    assert_input_error(rc, err)
    assert err.splitlines() == ["error: duplicate term (case-insensitive): 'tag' equals 'Tag'"]
    assert not (tmp_path / "nets").exists()


def test_handle_over_the_csv_field_limit_is_a_malformed_line(valid, tmp_path):
    # csv reads no field over FIELD_LIMIT characters back, so networks writes no such handle
    records, terms = tmp_path / "records.jsonl", valid / "corpus/terms.txt"
    lines = (valid / "corpus/records.jsonl").read_text(encoding="utf-8").splitlines()
    longest = json.dumps(dict(json.loads(lines[0]), author="a" * FIELD_LIMIT, text=lines[0] + "x" * FIELD_LIMIT))
    over = json.dumps(dict(json.loads(lines[1]), mentioned=["m" * (FIELD_LIMIT + 1)]))
    records.write_text("\n".join([longest, over] + lines[2:]) + "\n", encoding="utf-8")
    rc, err = run("networks", records, terms, "-o", tmp_path / "nets")
    assert rc == 0 and f"{records}:2: a handle longer than {FIELD_LIMIT} characters" in err
    assert f"{records}:1: " not in err
    assert any("a" * FIELD_LIMIT in p.read_text(encoding="utf-8") for p in (tmp_path / "nets").glob("*.edges.csv"))
    assert run("features", tmp_path / "nets", "-o", tmp_path / "f.csv") == (0, "")


def test_term_over_the_csv_field_limit_is_an_input_error(tmp_path):
    terms = tmp_path / "terms.txt"
    terms.write_text("ok\n" + "t" * FIELD_LIMIT + "\n", encoding="utf-8")
    assert read_terms_file(terms) == ["ok", "t" * FIELD_LIMIT]
    terms.write_text("ok\n" + "t" * (FIELD_LIMIT + 1) + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"terms.txt: a term longer than {FIELD_LIMIT} characters"):
        read_terms_file(terms)


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("manifest", [False, True])
def test_rank_non_finite_threshold_is_an_input_error(valid, tmp_path, threshold, manifest):
    # nan labeled every term non-controversial and wrote `"threshold": NaN`, which is not JSON
    argv = ["rank", valid / "corpus/ratings.csv", "-o", tmp_path / "labels.csv", f"--threshold={threshold}"]
    rc, err = run(*argv, *["--manifest"] * manifest)
    assert_input_error(rc, err)
    assert "threshold must be finite" in err and not list(tmp_path.iterdir())


@pytest.mark.parametrize("manifest", [False, True])
def test_networks_reversed_window_is_an_input_error(tmp_path, manifest):
    # the window is checked before the records are hashed or read: they do not exist here
    out = tmp_path / "nets"
    argv = ["networks", tmp_path / "missing.jsonl", tmp_path / "terms.txt", "-o", out]
    rc, err = run(*argv, "--from", "2020-12-07", "--to", "2020-11-09", *["--manifest"] * manifest)
    assert_input_error(rc, err)
    assert "--from 2020-12-07 is later than --to 2020-11-09" in err and not out.exists()


def test_networks_equal_window_bounds_are_valid(valid, tmp_path):
    records, terms = valid / "corpus/records.jsonl", valid / "corpus/terms.txt"
    rc, err = run("networks", records, terms, "-o", tmp_path / "nets", "--from", "2020-11-09", "--to", "2020-11-09")
    assert rc == 0, err
