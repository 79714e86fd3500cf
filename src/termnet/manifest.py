"""Run manifests and the stamped files every stage writes.

A manifest captures everything that determines a command's outputs: the
subcommand, tool version, semantic parameters, content hashes of the inputs
and (when the census is involved) the class-table hash.  Worker counts and
file locations are deliberately excluded; equal manifests must mean
byte-identical outputs.  This module also owns the stamped file formats:
every CSV goes through `write_csv`/`read_csv`, every JSON text through `json_text`.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from dataclasses import dataclass, field

__all__ = ["RunManifest", "file_sha256", "json_text", "read_csv", "write_csv", "write_json"]


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_csv(path, manifest_hash: str, header, rows, notes=()) -> None:
    """`# manifest_sha256=<hex>`, a `# <note>` line per note, the header and rows; UTF-8, LF.

    csv quotes only the line terminator's characters, and an unquoted CR would
    end its row when read back: a row holding a CR is written fully quoted.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# manifest_sha256={manifest_hash}\n")
        for note in notes:
            fh.write(f"# {note}\n")
        writer = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for row in rows:
            has_cr = any("\r" in cell for cell in row if isinstance(cell, str))
            (quoted if has_cr else writer).writerow(row)


def read_csv(path):
    """Yield the non-empty rows after the leading `# ` lines, header first; data may begin with `# `."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line in fh:
            if not line.startswith("# "):
                yield from filter(None, csv.reader(itertools.chain((line,), fh)))
                return


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
