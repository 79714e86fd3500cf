"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

They run a tiny synthetic corpus through the same code paths as a real run,
so they take about half a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import hubs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = run.Workload("tiny", 12, 4, run._synth_inputs(12, 40))


@pytest.fixture()
def workdir():
    os.makedirs(run.WORK, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _runner(workdir):
    return run.Runner(workdir, float("inf"), os.path.join(workdir, "stages.log"))


def _declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


def test_hubs_generator_is_byte_deterministic():
    first = hubs.generate(3)
    assert first == hubs.generate(3)
    assert first["records.jsonl"] != hubs.generate(4)["records.jsonl"]
    assert first["terms.txt"].split() == hubs.term_names()


@pytest.mark.parametrize("seed", [50, 55])
def test_hubs_generator_truncates_an_already_truncated_line(seed):
    # these seeds pick a malformed line of one or two characters to truncate again
    lines = hubs.generate(seed)["records.jsonl"].splitlines()
    assert all(lines)
    assert min(len(line) for line in lines) == 1


def test_hubs_graphs_straddle_the_parallel_census_threshold():
    nodes = []
    for i in range(len(hubs.term_names())):
        mention = hubs.term_graphs(i)["mention"]
        nodes.append(len({user for edge in mention for user in edge}))
    threshold = 800  # termnet.pipeline.PARALLEL_CENSUS_MIN_NODES
    assert sum(n >= threshold for n in nodes) >= 2
    assert sum(n < threshold for n in nodes) >= 2


@pytest.fixture()
def tiny_features(workdir):
    """features.csv of the tiny corpus, written by the real CLI."""
    runner = _runner(workdir)
    indir, outdir = os.path.join(workdir, "in"), os.path.join(workdir, "out")
    TINY.make_inputs(indir, 0, runner)
    for name, argv in run.stage_argvs(TINY, indir, outdir)[:2]:
        assert runner.stage(argv).code == 0, name
    return outdir, os.path.join(outdir, "features.csv")


def _edit_row(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    header, row = lines[1].split(","), lines[2].split(",")
    edit(header, row)
    lines[2] = ",".join(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def test_check_rejects_one_byte_change_in_features(workdir, tiny_features):
    outdir, path = tiny_features
    checker = run.Checker(TINY, check.features_digests(path, TINY.n_terms), os.path.join(workdir, "digests.json"))
    assert checker.stage("features", 0, outdir)

    def change_one_digit(header, row):
        density = row[header.index("density")]
        row[header.index("density")] = density[:-1] + ("1" if density[-1] != "1" else "2")

    _edit_row(path, change_one_digit)
    assert not checker.stage("features", 0, outdir)
    assert "differs from reference" in checker.failures[-1]


def test_invariants_reject_census_count_change_without_reference(tiny_features):
    _, path = tiny_features

    def add_one_subgraph(header, row):
        row[header.index("c000")] = str(int(row[header.index("c000")]) + 1)

    _edit_row(path, add_one_subgraph)
    with pytest.raises(check.CheckError):
        check.features_digests(path, TINY.n_terms)


def test_every_printed_metric_is_declared(workdir):
    end_to_end, per_layer = _declared()
    assert set(per_layer) == set(spans.metric_units())
    runner = _runner(workdir)
    checker = run.Checker(TINY, None, os.path.join(workdir, "digests.json"))
    indir = os.path.join(workdir, "in")
    TINY.make_inputs(indir, 0, runner)

    timed, samples = run.timed(TINY, runner, checker, indir, seconds=8)
    traced, _ = run.traced(TINY, runner, checker, indir)
    assert checker.failures == []
    assert len(samples["features"]) >= 2  # the least-sampled stage runs again
    for metrics, declared in ((timed, end_to_end), (traced, per_layer)):
        assert {name: unit for name, (_, unit) in metrics.items()} == declared
        assert all(isinstance(v, (int, float)) and math.isfinite(v) for v, _ in metrics.values())
    assert all(timed[name][0] > 0 for name in end_to_end)


def test_traced_run_fails_when_a_traced_function_is_missing(workdir, monkeypatch):
    monkeypatch.setattr(spans, "TRACED", spans.TRACED + (("ingest", "no_such_function"),))
    runner = _runner(workdir)
    checker = run.Checker(TINY, None, os.path.join(workdir, "digests.json"))
    indir = os.path.join(workdir, "in")
    TINY.make_inputs(indir, 0, runner)
    metrics, _ = run.traced(TINY, runner, checker, indir)
    assert metrics == {}
    assert "termnet.ingest.no_such_function" in checker.failures[-1]
