"""What the benchmark harness in perfbench/ calls in termnet.

The traced run wraps the functions listed in `perfbench/spans.TRACED` and
fails when one is missing; the timed run starts each stage with an argv from
`perfbench/run.stage_argvs`.  These tests keep both working without running
the benchmark.
"""

import importlib
import os

import pytest

from termnet.census import TOTAL_CLASSES, build_class_table, get_class_table
from termnet.cli import _build_parser

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module


def test_every_traced_function_exists(perfbench):
    traced = perfbench("spans").TRACED
    assert traced
    modules = {m: importlib.import_module(f"termnet.{m}") for m, _ in traced}
    assert [f"termnet.{m}.{f}" for m, f in traced if not callable(getattr(modules[m], f, None))] == []


def test_class_table_builds_without_a_cache():
    table = build_class_table(None)
    assert table.content_hash == get_class_table().content_hash
    assert table.class_count_3 + table.class_count_4 == TOTAL_CLASSES


def test_every_benchmark_stage_argv_parses(perfbench):
    run = perfbench("run")
    for workload in run.WORKLOADS.values():
        for name, argv in run.stage_argvs(workload, "in", "out"):
            assert _build_parser().parse_args(argv).command == name  # features passes --workers 2
