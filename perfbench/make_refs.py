"""Write the stored references the output check compares against.

    python3 perfbench/make_refs.py

Runs each workload once per seed (untimed) and writes
perfbench/refs/<workload>-<seed>.json, plus refs/class-table.json.  Seed 0
is the default seed; seed 1 is held out, never used while tuning the
benchmark.  Rerun only when a change is meant to alter the outputs, and say
which bytes changed and why.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

import check
from run import WORK, WORKLOADS, Runner, stage_argvs

SEEDS = (0, 1)  # the default seed and the held-out one


def _write(stem: str, obj: dict) -> None:
    os.makedirs(check.REFS_DIR, exist_ok=True)
    with open(os.path.join(check.REFS_DIR, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _run(runner: Runner, argv: list[str]) -> None:
    if runner.stage(argv).code != 0:
        raise SystemExit(f"termnet {argv[0]} failed; see {runner.log_path}")


def main() -> None:
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="refs-", dir=WORK)
    runner = Runner(workdir, float("inf"), os.path.join(workdir, "stages.log"))
    try:
        _run(runner, ["class-table", "-o", os.path.join(workdir, "classes.csv")])
        _write("class-table", check.class_table_digests(os.path.join(workdir, "classes.csv")))
        for workload in WORKLOADS.values():
            for seed in SEEDS:
                start = time.monotonic()
                indir, outdir = (os.path.join(workdir, f"{workload.name}-{seed}-{d}") for d in ("in", "out"))
                workload.make_inputs(indir, seed, runner)
                for _, argv in stage_argvs(workload, indir, outdir):
                    _run(runner, argv)
                ref = check.networks_digests(os.path.join(outdir, "nets"), workload.n_terms)
                ref.update(check.features_digests(os.path.join(outdir, "features.csv"), workload.n_terms))
                ref.update(check.labels_digests(os.path.join(outdir, "labels.csv"), workload.n_terms))
                _, values = check.report_digests(os.path.join(outdir, "results"), workload.n_terms, workload.folds)
                ref["report_values"] = check.rounded(values)
                _write(f"{workload.name}-{seed}", ref)
                print(f"{workload.name} seed {seed}: {time.monotonic() - start:.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
