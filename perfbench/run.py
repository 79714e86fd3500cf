"""End-to-end benchmark of the termnet batch pipeline.

    python3 perfbench/run.py --workload paper|hubs --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is the checkout's own
`src/termnet`, started as `python3 -m termnet.cli` with PYTHONPATH=src.

With --trace 0 each stage runs as its own process, one after another, with a
fresh, empty TERMNET_CACHE directory.  Wall time is taken around the process
and peak RSS from os.wait4, which covers the pool workers it forks (the
largest process of the tree).  The pipeline runs once, then stages are
rerun until S seconds of stage time are measured (see timed()); each stage
metric is the mean of its samples and `pipeline_s` is the sum of the stage
means.  `setup_s` is the median wall time of
`termnet class-table` with an empty cache (interpreter start, imports and the
212-class table build), run before every stage run.

This host's speed changes by up to 1.7x, every few seconds and over minutes,
and moves every stage alike.  So a fixed calibration workload (calibrate.py,
independent of termnet) also runs before every stage run, and all times are
scaled by CALIBRATION_REF_S / (mean calibration time of the run): they read
as wall seconds at a fixed reference speed.  The raw samples, calibration
included, are kept in the results file.

With --trace 1 the pipeline runs once untraced as above (raw wall times, no
reruns), then the same stages run in this process with spans around the
calls into each module (see spans.py); the per-layer metrics come from those
spans.  Tracing overhead is the traced stage time minus the untraced one;
the traced run also skips interpreter start-up, so the overhead can be
negative.

Every stage output is checked (check.py).  A stage that exits nonzero or
fails a check counts in `failed`; any failure makes `correct` false and the
exit code 1.  The last stdout line is the JSON result.  Scratch files live in
.bench_work/ under the checkout; timed and traced results and the stage logs
are written to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import check
import hubs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
FEATURE_WORKERS = 2  # explicit: the CLI default is os.cpu_count()
STAGES = ("networks", "features", "rank", "classify")
TIMED_STAGES = ("networks", "features", "classify")  # the stages with a metric of their own
CALIBRATE = os.path.join(HERE, "calibrate.py")
CALIBRATION_REF_S = 0.25  # calibrate.py's wall time at the reference host speed
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot run here (no program, inputs not generated)."""


@dataclass(frozen=True)
class Workload:
    name: str
    n_terms: int
    folds: int
    make_inputs: Callable[[str, int, "Runner"], None]


def _synth_inputs(terms: int, records: int) -> Callable:
    def make(indir: str, seed: int, runner: "Runner") -> None:
        argv = ["synth", "-o", indir, "--terms", str(terms), "--records", str(records), "--signal", "1.0", "--seed", str(seed)]
        if runner.stage(argv).code != 0:
            raise BenchError(f"termnet synth failed; see {runner.log_path}")

    return make


def _hubs_inputs(indir: str, seed: int, runner: "Runner") -> None:
    # a child process: the inputs must not grow this process, whose peak RSS
    # every stage process inherits as a floor on its own ru_maxrss
    if subprocess.run([sys.executable, os.path.join(HERE, "hubs.py"), indir, "--seed", str(seed)]).returncode:
        raise BenchError("the hubs input generator failed")


WORKLOADS = {
    # the paper's corpus shape (400 records per term, planted hub-and-spoke
    # signal, 10 folds) at 100 of its 199 terms: at 199 terms one pipeline
    # takes ~40 s, so a run in the time budget samples each stage once, and
    # single samples spread 24-33 % across runs on this host
    "paper": Workload("paper", 100, 10, _synth_inputs(100, 400)),
    "hubs": Workload("hubs", len(hubs.term_names()), 4, _hubs_inputs),  # 8 terms: too few for 10 folds
}


def stage_argvs(workload: Workload, indir: str, outdir: str) -> list[tuple[str, list[str]]]:
    nets, features, labels = (os.path.join(outdir, n) for n in ("nets", "features.csv", "labels.csv"))
    return [
        ("networks", ["networks", os.path.join(indir, "records.jsonl"), os.path.join(indir, "terms.txt"), "-o", nets]),
        ("features", ["features", nets, "-o", features, "--workers", str(FEATURE_WORKERS)]),
        ("rank", ["rank", os.path.join(indir, "ratings.csv"), "-o", labels]),
        ("classify", ["classify", features, labels, "-o", os.path.join(outdir, "results"), "--folds", str(workload.folds)]),
    ]


# ---------------------------------------------------------------- processes


@dataclass
class StageRun:
    seconds: float
    cpu_s: float
    rss_mb: float
    code: int


@dataclass
class Runner:
    """Starts termnet stage processes, each with a fresh cache directory."""

    workdir: str
    deadline: float
    log_path: str

    def remaining(self) -> float:
        return min(max(0.001, self.deadline - time.monotonic()), 86400.0)

    def env(self, cache_dir: str) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "TERMNET_CACHE"}
        env.update(PYTHONPATH=SRC, PYTHONNOUSERSITE="1", TERMNET_CACHE=cache_dir, TMPDIR=self.workdir)
        return env

    def stage(self, argv: list[str]) -> StageRun:
        """Run `termnet <argv>` as one process."""
        return self._run([sys.executable, "-m", "termnet.cli", *argv])

    def calibrate(self) -> StageRun:
        """One run of the fixed calibration workload, isolated (-I) from PYTHONPATH=src."""
        run = self._run([sys.executable, "-I", CALIBRATE])
        if run.code != 0:
            raise BenchError(f"the calibration workload failed; see {self.log_path}")
        return run

    def _run(self, cmd: list[str]) -> StageRun:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        with open(self.log_path, "ab") as log:
            log.write(f"$ {' '.join(cmd)}\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.workdir, env=self.env(cache_dir), stdout=log, stderr=log, start_new_session=True,
            )
            # kill the whole process group (pool workers too) at the deadline
            timer = threading.Timer(self.remaining(), os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        shutil.rmtree(cache_dir, ignore_errors=True)
        return StageRun(seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


# ---------------------------------------------------------------- checks


def code_hash() -> str:
    """Digest of the program's sources and this benchmark's code."""
    digest = hashlib.sha256()
    for top in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()[:16]


class Checker:
    """Counts stage runs and checks each one's outputs; keeps the failures."""

    def __init__(self, workload: Workload, reference: dict | None, store_path: str):
        self.workload = workload
        self.reference = reference
        self.table_reference = check.load_reference("class-table")
        self.store_path = store_path
        self.expected: dict = {}  # digests of earlier runs of this code, then of this run
        if os.path.exists(store_path):
            with open(store_path, encoding="utf-8") as fh:
                self.expected = json.load(fh)
        self.stored = bool(self.expected)
        self.attempted = 0
        self.failures: list[str] = []

    def describe(self) -> str:
        if self.reference is not None:
            return "stored reference, cross-run digests and invariants"
        return "no reference for this seed: cross-run digests and structural invariants only"

    def _digests(self, outdir: str, stage: str) -> dict:
        wl = self.workload
        if stage == "networks":
            return check.networks_digests(os.path.join(outdir, "nets"), wl.n_terms)
        if stage == "features":
            return check.features_digests(os.path.join(outdir, "features.csv"), wl.n_terms)
        if stage == "rank":
            return check.labels_digests(os.path.join(outdir, "labels.csv"), wl.n_terms)
        digests, values = check.report_digests(os.path.join(outdir, "results"), wl.n_terms, wl.folds)
        if self.reference is not None:
            check.compare_report(values, self.reference["report_values"])
        return digests

    def stage(self, stage: str, code: int, outdir: str) -> bool:
        """Count one run of `stage` that exited with `code`; check what it wrote to `outdir`."""
        self.attempted += 1
        if code != 0:
            self.failures.append(f"{stage}: exit code {code}")
            return False
        try:
            digests = self._digests(outdir, stage)
            if self.reference is not None:
                check.compare_digests(digests, self.reference, "reference")
            check.compare_digests(digests, self.expected, "an earlier run of this code")
        except (check.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            self.failures.append(f"{stage}: {exc}")
            return False
        self.expected.update(digests)
        if not self.stored and len(self.expected) == len(STAGES):
            os.makedirs(os.path.dirname(self.store_path), exist_ok=True)
            with open(self.store_path, "w", encoding="utf-8") as fh:
                json.dump(self.expected, fh, indent=1, sort_keys=True)
            self.stored = True
        return True

    def class_table(self, code: int, path: str) -> bool:
        self.attempted += 1
        try:
            if code != 0:
                raise check.CheckError(f"exit code {code}")
            got = check.class_table_digests(path)
            if self.table_reference is not None:
                check.compare_digests(got, self.table_reference, "reference")
        except (check.CheckError, OSError) as exc:
            self.failures.append(f"class-table: {exc}")
            return False
        return True


# ---------------------------------------------------------------- runs


def timed(workload, runner, checker, indir, seconds) -> tuple[dict, dict]:
    """Sampled runs: {"calibration": [...], "setup": [...], stage: [...]}.

    The pipeline runs once; then, until `seconds` of stage time are
    measured, the stage with a metric of its own that has the least sampled
    time so far runs again on the first pass's inputs.  So each stage is
    sampled at several points of the run, short ones more often.  Every
    stage run is preceded by a calibration run and a `class-table` setup run,
    and one more calibration run closes the run.
    """
    outdir = os.path.join(runner.workdir, "out")
    table_csv = os.path.join(runner.workdir, "classes.csv")
    samples: dict[str, list[StageRun]] = {"calibration": [], "setup": []}
    runner.stage(["class-table", "-o", table_csv])  # warm-up: compiles bytecode once

    def sample(name: str, argv: list[str]) -> bool:
        samples["calibration"].append(runner.calibrate())
        setup = runner.stage(["class-table", "-o", table_csv])
        samples["setup"].append(setup)
        run = runner.stage(argv)
        samples.setdefault(name, []).append(run)
        return checker.class_table(setup.code, table_csv) and checker.stage(name, run.code, outdir)

    argvs = dict(stage_argvs(workload, indir, outdir))
    if not all(sample(name, argv) for name, argv in argvs.items()):
        return {}, samples
    while sum(r.seconds for name in STAGES for r in samples[name]) < seconds:
        name = min(TIMED_STAGES, key=lambda n: sum(r.seconds for r in samples[n]))
        if time.monotonic() + 2 * max(r.seconds for r in samples[name]) > runner.deadline:
            break
        if not sample(name, argvs[name]):
            return {}, samples
    samples["calibration"].append(runner.calibrate())
    return end_to_end(samples), samples


def end_to_end(samples: dict[str, list[StageRun]]) -> dict[str, tuple[float, str]]:
    """Stage times scaled to the reference host speed, and peak RSS.

    The host flips between a fast and a slow speed every few seconds, so a
    stage's samples and the calibration runs are averaged over the run (a
    median would pick one of the two speeds); `setup_s` is the median of
    its runs.
    """
    scale = CALIBRATION_REF_S / statistics.fmean(r.seconds for r in samples["calibration"])
    seconds = {name: scale * statistics.fmean(r.seconds for r in runs) for name, runs in samples.items()}
    metrics = {"pipeline_s": (sum(seconds[name] for name in STAGES), "s")}
    for stage in TIMED_STAGES:
        metrics[f"{stage}_s"] = (seconds[stage], "s")
    for stage in TIMED_STAGES:
        metrics[f"{stage}_rss_mb"] = (statistics.median(r.rss_mb for r in samples[stage]), "MB")
    metrics["setup_s"] = (scale * statistics.median(r.seconds for r in samples["setup"]), "s")
    return metrics


def traced(workload, runner, checker, indir) -> tuple[dict, dict]:
    import spans

    outdir = os.path.join(runner.workdir, "untraced")
    untraced = {}
    for name, argv in stage_argvs(workload, indir, outdir):
        untraced[name] = runner.stage(argv)
        if not checker.stage(name, untraced[name].code, outdir):
            return {}, {}
    outdir = os.path.join(runner.workdir, "traced")
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=runner.workdir)

    def out_of_time(signum, frame):
        raise TimeoutError("traced run passed the deadline")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, runner.remaining())
    try:
        stage_s, metrics, tracer = spans.traced_pipeline(SRC, stage_argvs(workload, indir, outdir), cache_dir, runner.log_path)
    except Exception as exc:  # the program under test failed in-process: report, do not crash
        with open(runner.log_path, "a", encoding="utf-8") as log:
            traceback.print_exc(file=log)
        checker.attempted += 1
        checker.failures.append(f"traced run: {exc!r}; see {runner.log_path}")
        return {}, {}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    for name in stage_s:
        checker.stage(name, 0, outdir)
    metrics["trace.pipeline_s"] = sum(stage_s.values())
    metrics["trace.untraced_pipeline_s"] = sum(r.seconds for r in untraced.values())
    metrics["trace.overhead_s"] = metrics["trace.pipeline_s"] - metrics["trace.untraced_pipeline_s"]
    for stage in TIMED_STAGES:
        metrics[f"trace.{stage}.overhead_s"] = stage_s[stage] - untraced[stage].seconds
    units = spans.metric_units()
    return {name: (metrics[name], units[name]) for name in units}, tracer.to_json()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="termnet pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "termnet", "cli.py")):
        print(f"error: no termnet sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so a running stage's process group is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK)
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{workload.name}-{args.seed}-trace{args.trace}")
    runner = Runner(workdir, deadline, stem + ".log")
    store = os.path.join(WORK, "digests", f"{workload.name}-{args.seed}-{code_hash()}.json")
    checker = Checker(workload, check.load_reference(f"{workload.name}-{args.seed}"), store)
    try:
        indir = os.path.join(workdir, "inputs")
        workload.make_inputs(indir, args.seed, runner)
        print(f"check: {checker.describe()}")
        if args.trace:
            metrics, extra = traced(workload, runner, checker, indir)
        else:
            metrics, samples = timed(workload, runner, checker, indir, args.seconds)
            extra = {"samples": {name: [vars(r) for r in runs] for name, runs in samples.items()}}
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            json.dump({"metrics": metrics, "failures": checker.failures, "bench_rss_mb": own_rss_mb, **extra}, fh)
        for failure in checker.failures:
            print(f"FAILED {failure}", file=sys.stderr)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = not checker.failures and bool(metrics)
    print(json.dumps({
        "correct": ok,
        "attempted": max(checker.attempted, 1),
        "failed": len(checker.failures) if checker.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
