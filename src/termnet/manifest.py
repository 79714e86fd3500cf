"""Run manifests and the stamped files every stage writes.

A manifest captures everything that determines a command's outputs: the
subcommand, tool version, semantic parameters, content hashes of the inputs
and (when the census is involved) the class-table hash.  Worker counts and
file locations are deliberately excluded; equal manifests must mean
byte-identical outputs.  This module also owns the stamped file formats (`csv_line`, `write_lines`,
`write_csv`, `read_csv`, `read_table`, `json_text`) and `InputError`, the one error for a malformed input
(exit 1).
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import hashlib
import io
import itertools
import json
import math
import os
import re
import stat
import zlib
from dataclasses import dataclass, field

__all__ = [
    "FIELD_LIMIT", "InputError", "RunManifest", "count", "csv_line", "file_sha256", "finite", "json_text",
    "one_of", "open_text", "read_csv", "read_table", "write_csv", "write_json", "write_lines",
]

FIELD_LIMIT = csv.field_size_limit()  # the longest CSV field a reader accepts, in characters


class InputError(ValueError):
    """A malformed input file or parameter; the message names the file (and row) where it can."""


def _tell(stream) -> int | None:
    try:
        return stream.tell()
    except OSError:  # a pipe
        return None


@contextlib.contextmanager
def open_text(path, raw=None):
    """The lines of the binary stream `raw`, else of the file `path`, as UTF-8 text; a BOM is dropped where it
    starts at offset 0.  A non-UTF-8 byte (a BOM cut short too), a broken gzip stream or a CSV field over csv's
    size limit fails the whole file: an InputError naming it, and a bad byte's offset in the (decompressed)
    file, which a pipe cannot tell."""
    raw = io.FileIO(path) if raw is None else raw
    bom = "" if _tell(raw) else "\ufeff"  # at offset 0, or in a pipe
    # strict "utf-8", not "utf-8-sig": at the end of the text, that one drops one or two bytes of a BOM unread
    with raw, io.TextIOWrapper(raw, "utf-8", newline="") as fh:
        try:
            first = next(fh, "").removeprefix(bom)
            yield itertools.chain([first] if first else [], fh)
        except UnicodeDecodeError as exc:
            at = "" if (end := _tell(raw)) is None else f" at offset {end - len(exc.object) + exc.start}"
            raise InputError(f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x}{at}: {exc.reason}") from exc
        except (EOFError, zlib.error, gzip.BadGzipFile, csv.Error) as exc:
            raise InputError(f"{path}: cannot be read: {exc}") from exc


def file_sha256(path) -> str:
    """The sha256 of the regular file `path`; any other path is an InputError, before it is opened (a FIFO
    blocks the open, and its bytes, once hashed, are gone for the stage that reads them)."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise InputError(f"{path}: not a regular file")
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _Echo:
    """A file whose write returns the text: a csv writer's writerow then returns its line."""

    @staticmethod
    def write(text: str) -> str:
        return text


_PLAIN = csv.writer(_Echo(), lineterminator="\n")
_QUOTED = csv.writer(_Echo(), lineterminator="\n", quoting=csv.QUOTE_ALL)


def csv_line(row) -> str:
    """The one CSV text line, LF included, of every row a stage writes.

    csv quotes only the line terminator's characters, and an unquoted CR would
    end its row when read back: a row holding a CR is quoted in full.
    """
    has_cr = any("\r" in cell for cell in row if isinstance(cell, str))
    return (_QUOTED if has_cr else _PLAIN).writerow(row)


def write_lines(path, manifest_hash: str, header, lines, notes=()) -> None:
    """`# manifest_sha256=<hex>`, a `# <note>` line per note, the header and the `csv_line` lines; UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# manifest_sha256={manifest_hash}\n")
        for note in notes:
            fh.write(f"# {note}\n")
        fh.write(csv_line(header))
        fh.writelines(lines)


def write_csv(path, manifest_hash: str, header, rows, notes=()) -> None:
    """`write_lines` of the rows, each through `csv_line`."""
    write_lines(path, manifest_hash, header, map(csv_line, rows), notes)


def read_csv(path):
    """Yield the non-empty rows after the leading `# ` lines, header first; data may begin with `# `."""
    with open_text(path) as fh:
        yield from filter(None, csv.reader(itertools.dropwhile(lambda line: line.startswith("# "), fh)))


# The cell forms the writers produce: `str(int)`, and `repr(float)` without nan and inf (a
# missing exponent sign is also read).  int() and float() alone would also take `1_0`, ` 7`,
# `+3` and non-ASCII digits.
_COUNT = re.compile(r"-?[0-9]+")
_FINITE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?")


def count(cell: str) -> int:
    if not _COUNT.fullmatch(cell):
        raise ValueError(f"non-integer count {cell!r}")
    return int(cell)


def finite(cell: str) -> float:
    if _FINITE.fullmatch(cell) and math.isfinite(value := float(cell)):
        return value
    raise ValueError(f"bad numeric cell {cell!r}, not a finite number")


def one_of(*allowed: str):
    """A converter that keeps the cells in `allowed` and rejects any other."""
    def convert(cell: str) -> str:
        if cell not in allowed:
            raise ValueError(f"{cell!r} is not one of {', '.join(allowed)}")
        return cell

    return convert


def read_table(path, columns: dict, what: str, key: int) -> list[list]:
    """The rows of a `write_csv` file whose header is `columns`, each cell converted by its column's function.
    A wrong header or width, a rejected cell or two rows with equal first `key` cells is an InputError."""
    rows = read_csv(path)
    if (header := next(rows, None)) != list(columns):
        raise InputError(f"{path}: expected {what} header, got {','.join(header or [])[:80]!r}")
    checks = [(i, name, convert) for i, (name, convert) in enumerate(columns.items()) if convert is not str]
    table, seen = [], set()
    for row in rows:
        if len(row) != len(columns):
            raise InputError(f"{path}: bad row {row[: max(key, 1)]}: {len(row)} cells, not {len(columns)}")
        for i, name, convert in checks:
            try:
                row[i] = convert(row[i])
            except ValueError as exc:
                raise InputError(f"{path}: bad row {row[: max(key, 1)]}: column {name!r}: {exc}") from None
        if key:
            if tuple(row[:key]) in seen:
                raise InputError(f"{path}: duplicate row {row[:key]}")
            seen.add(tuple(row[:key]))
        table.append(row)
    return table


def json_text(obj) -> str:
    """The one JSON form of every file and printed manifest: sorted keys, indent 2, trailing LF."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_text(obj))


@dataclass(frozen=True)
class RunManifest:
    command: str
    tool_version: str
    parameters: dict = field(default_factory=dict)
    input_hashes: dict = field(default_factory=dict)
    class_table_hash: str | None = None

    def canonical_json(self) -> str:
        obj = {
            "command": self.command,
            "tool_version": self.tool_version,
            "parameters": self.parameters,
            "input_hashes": self.input_hashes,
            "class_table_hash": self.class_table_hash,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def stamped(self) -> dict:
        """The manifest with its own sha256 added, as written and printed."""
        return dict(json.loads(self.canonical_json()), manifest_sha256=self.sha256)

    def write(self, path) -> None:
        write_json(path, self.stamped())
