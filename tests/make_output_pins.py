"""Write tests/output_pins.json: the sha-256 of every file that synth,
networks, features, rank and classify write, run in process on the corpus of
acceptance criterion 9 (12 terms, 60 records per term, seed 4; classify at
seed 0 with 10 folds).  On a 2-core host the pipeline takes about 1 s
there, against about 2.4 s on the 60-term default corpus.

    PYTHONPATH=src python tests/make_output_pins.py

`test_output_pins.py` reruns the same pipeline and compares.  Regenerate only
for a change that means to alter output bytes, and say which bytes and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from termnet.cli import main as cli_main

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output_pins.json")
STAGES = ("corpus", "nets", "features.csv", "labels.csv", "classify")


def pipeline_hashes(workdir: str) -> dict[str, str]:
    """Run the five stages under `workdir`; sha-256 of each file written,
    keyed by its path relative to `workdir` with '/' separators."""
    corpus, nets, features, labels, outdir = (os.path.join(workdir, name) for name in STAGES)
    for argv in (
        ["synth", "-o", corpus, "--terms", "12", "--records", "60", "--seed", "4"],
        ["networks", os.path.join(corpus, "records.jsonl"), os.path.join(corpus, "terms.txt"), "-o", nets],
        ["features", nets, "-o", features],
        ["rank", os.path.join(corpus, "ratings.csv"), "-o", labels],
        ["classify", features, labels, "-o", outdir, "--seed", "0"],
    ):
        if cli_main(argv) != 0:
            raise RuntimeError(f"termnet {argv[0]} failed")
    hashes = {}
    for root, _, files in os.walk(workdir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, workdir).replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        hashes = pipeline_hashes(workdir)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(hashes, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(hashes)} pins to {PINS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
