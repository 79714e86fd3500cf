"""`forked.fork_map` and the stages that run through it: `networks`, `features` and `classify`."""

import contextlib
import functools
import importlib
import io
import os
import time

import numpy as np
import pytest

from termnet import forked, ingest, ml, pipeline
from termnet.cli import main
from termnet.forked import fork_map, usable_cores
from termnet.manifest import InputError
from termnet.ranking import CONTROVERSIAL, NON_CONTROVERSIAL, TermLabel

from oracles import assert_no_child_is_left, cores

census = importlib.import_module("termnet.census")  # `termnet.census` is also the package's census function
SLOW_S = 0.5  # how long item 0 takes where the other processes must take the later items meanwhile


def square(x):
    return x * x


def pid_of(x):
    if x == 0:
        time.sleep(SLOW_S)
    return os.getpid()


@pytest.mark.parametrize("n", [1, 2, 4])
def test_results_come_in_item_order(n):
    with cores(n), fork_map(square, range(50)) as results:
        assert list(results) == [x * x for x in range(50)]
    assert_no_child_is_left()


def test_more_items_than_one_claim_each_fits_in_the_claim_pipe():
    with cores(3), fork_map(square, range(10_000)) as results:
        assert list(results) == [x * x for x in range(10_000)]


def test_this_process_computes_item_0_and_the_others_take_the_rest_meanwhile():
    with cores(3), fork_map(pid_of, range(10)) as results:
        pids = list(results)
    assert pids[0] == os.getpid()
    assert os.getpid() not in pids[1:]
    assert_no_child_is_left()


def test_without_fork_every_item_is_computed_in_this_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with cores(4), fork_map(pid_of, range(5)) as results:
        assert list(results) == [os.getpid()] * 5


def test_usable_cores_without_sched_getaffinity_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # cannot tell
    assert usable_cores() == 1


def fails_at_3_and_7(x):
    if x == 0:
        time.sleep(SLOW_S)
    if x in (3, 7):
        raise InputError(f"item {x}")
    return x


@pytest.mark.parametrize("n", [1, 2, 4])
def test_the_first_error_in_item_order_is_raised(n):
    with cores(n), pytest.raises(InputError, match="^item 3$"):
        with fork_map(fails_at_3_and_7, range(12)) as results:
            list(results)
    assert_no_child_is_left()


def slow_str(x):
    if x == 10:
        time.sleep(SLOW_S)
    return str(x)


def test_a_child_sends_its_pieces_and_the_caller_may_leave_some_unread():
    with cores(3), fork_map(slow_str, [10, 2345, 678, 90], pieces=iter) as results:
        first = next(results)
        assert first == "10"  # computed here: given whole
        rest = list(results)  # the pieces of each are left unread
    assert all(not isinstance(part, str) for part in rest)  # the later items were computed by the children
    with cores(3), fork_map(slow_str, [10, 2345, 678, 90], pieces=iter) as results:
        assert [part if isinstance(part, str) else next(part) for part in results] == ["10", "2", "6", "9"]
    assert_no_child_is_left()


def test_a_caller_that_stops_early_leaves_no_child():
    with cores(3), fork_map(lambda x: bytes(1 << 20), range(8)) as results:  # a child blocks on a full pipe
        next(results)
    assert_no_child_is_left()


def test_a_child_that_exits_without_its_results_is_an_error(monkeypatch):
    monkeypatch.setattr(forked, "_send", lambda *args: os._exit(3))
    with cores(2), pytest.raises(RuntimeError, match="exited with code 3 before its results"):
        with fork_map(square, range(4)) as results:
            list(results)
    assert_no_child_is_left()


# ---------------------------------------------------------------- the stages


def run(*argv) -> tuple[int, str]:
    """One CLI run: its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def run_pipeline(corpus, out) -> dict[str, bytes]:
    """networks, features, rank and classify of `corpus` into `out`: every file they wrote, by path."""
    for argv in (
        ["networks", corpus / "records.jsonl", corpus / "terms.txt", "-o", out / "nets"],
        ["features", out / "nets", "-o", out / "features.csv"],
        ["rank", corpus / "ratings.csv", "-o", out / "labels.csv"],
        ["classify", out / "features.csv", out / "labels.csv", "-o", out / "results", "--folds", 3],
    ):
        assert run(*argv) == (0, "")
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("corpus")
    assert run("synth", "-o", corpus, "--terms", 12, "--records", 30, "--seed", 3)[0] == 0
    assert (corpus / "records.jsonl").stat().st_size > 4 * (1 << 12)  # more than 4 parts' worth
    return corpus


@pytest.fixture(scope="module")
def serial(corpus, tmp_path_factory):
    """The outputs of a run on one core, and its directory."""
    out = tmp_path_factory.mktemp("serial")
    with cores(1):
        return run_pipeline(corpus, out), out


@pytest.mark.parametrize("n", [2, 4])
def test_outputs_are_byte_identical_at_any_core_count(corpus, serial, tmp_path, n):
    with cores(n):
        outputs = run_pipeline(corpus, tmp_path)
    assert outputs == serial[0]
    assert {"features.csv", "results/report.json", "results/pca-local-combined-loadings.csv"} <= set(outputs)
    assert_no_child_is_left()


@pytest.mark.parametrize("name", ["sched_getaffinity", "fork", "pread"])
def test_a_platform_without_os_name_gives_the_same_outputs(corpus, serial, tmp_path, monkeypatch, name):
    monkeypatch.setattr(ingest, "_PART_BYTES", 1 << 12)
    monkeypatch.delattr(os, name)
    assert run_pipeline(corpus, tmp_path) == serial[0]


def test_features_builds_the_census_table_once_before_it_forks(serial, tmp_path, monkeypatch):
    # the forked processes inherit the table; the class-table command never builds it
    build, builds = census.term_deltas.__wrapped__, tmp_path / "builds"

    @functools.cache
    def counted():
        with open(builds, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return build()

    monkeypatch.setattr(census, "term_deltas", counted)
    monkeypatch.setattr(pipeline, "term_deltas", counted)
    assert run("class-table", "-o", tmp_path / "classes.csv") == (0, "")
    assert not builds.exists()
    with cores(4):
        assert run("features", serial[1] / "nets", "-o", tmp_path / "features.csv") == (0, "")
    assert builds.read_text() == f"{os.getpid()}\n"
    assert (tmp_path / "features.csv").read_bytes() == serial[0]["features.csv"]
    assert_no_child_is_left()


@pytest.fixture()
def failing_entries(monkeypatch, tmp_path):
    """train_problem with the first problem slow, and the problems of the later entries 4 and 10 failing; each
    failure notes its pid."""
    train_problem, noted = ml.train_problem, tmp_path / "pids"

    def failing(plan, problem):
        entry = pipeline.FEATURE_SET_ORDER.index(plan.dataset.name) * 3
        entry += pipeline.CLASSIFIER_ORDER.index(plan.classifier)
        if entry == 0 and problem == plan.problems[0]:
            time.sleep(SLOW_S)
        if entry in (4, 10):
            with open(noted, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise (InputError if entry == 4 else ValueError)(f"entry {entry} fails")
        return train_problem(plan, problem)

    monkeypatch.setattr(ml, "train_problem", failing)
    return noted


def test_a_later_entry_that_fails_in_a_child_fails_classify_as_in_one_process(serial, tmp_path, failing_entries):
    argv = ["classify", serial[1] / "features.csv", serial[1] / "labels.csv", "-o", tmp_path / "out", "--folds", 3]
    with cores(1):
        assert run(*argv) == (1, "error: entry 4 fails\n")
    failing_entries.unlink()
    with cores(4):
        assert run(*argv) == (1, "error: entry 4 fails\n")
    assert str(os.getpid()) not in failing_entries.read_text().split()  # the children computed them
    assert not (tmp_path / "out" / "report.json").exists()
    assert_no_child_is_left()


def test_classify_of_unconverged_and_skipped_folds_is_byte_identical_at_any_core_count(tmp_path):
    # shaped like the `hubs` benchmark: 8 terms and 4 folds; one positive term, so the fold that holds it
    # trains on one class, and that term a near copy of a negative one, so the BLR folds that train on
    # both (6 rows, separable by a thin margin) run out of iterations
    rng = np.random.default_rng(1)
    terms = [f"t{i}" for i in range(8)]
    labels = [TermLabel(t, CONTROVERSIAL if t == "t3" else NON_CONTROVERSIAL, 0.0) for t in terms]
    global_vecs, local_vecs = {}, {}
    for kind in pipeline.KINDS:
        for t in terms:
            global_vecs[t, kind] = rng.normal(size=9)
            local_vecs[t, kind] = rng.dirichlet(np.ones(census.TOTAL_CLASSES))
        global_vecs["t3", kind] = global_vecs["t2", kind] + 0.01 * rng.normal(size=9)
        local_vecs["t3", kind] = local_vecs["t2", kind] + 1e-4 * rng.normal(size=census.TOTAL_CLASSES)
    outputs = []
    for n in (1, 2, 4):
        out = tmp_path / str(n)
        with cores(n):
            report = pipeline.classify_datasets(global_vecs, local_vecs, labels, out, "ab12", seed=0, folds=4)
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert_no_child_is_left()
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert len(outputs[0]) == 1 + 2 * len(pipeline.FEATURE_SET_ORDER)
    blr = [entry for entry in report["entries"] if entry["classifier"] == "blr"]
    assert all(len(entry["skipped_folds"]) == 1 for entry in blr)
    assert sum(entry["convergence_warnings"] for entry in blr) >= len(blr)


def test_a_network_that_fails_in_a_child_fails_features_as_in_one_process(serial, tmp_path, monkeypatch):
    census = pipeline.census

    def failing(graph):
        if graph.node_count == first_nodes:
            time.sleep(SLOW_S)
        if graph.edge_count == failing_edges:
            raise ValueError(f"a census of {graph.edge_count} edges fails")
        return census(graph)

    refs = pipeline.read_networks(serial[1] / "nets")  # in summary order, the order of features' items
    first_nodes, failing_edges = refs[0].graph.node_count, max(ref.graph.edge_count for ref in refs[1:])
    monkeypatch.setattr(pipeline, "census", failing)
    want = (2, f"internal error: ValueError: a census of {failing_edges} edges fails\n")
    for n in (1, 4):
        with cores(n):
            assert run("features", serial[1] / "nets", "-o", tmp_path / "features.csv") == want
        assert_no_child_is_left()
    assert not (tmp_path / "features.csv").exists()
