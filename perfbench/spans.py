"""Traced, in-process pipeline run: spans around the calls into each termnet
module's public functions, and the per-layer metrics derived from them.

Every span records name, start, end and parent; spans stay in memory and are
written out when the run ends.  Wrappers are installed by function identity
in every loaded `termnet.*` module, so a name imported with `from .x import f`
is traced as well.  A traced function the program no longer has fails the
traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import sys
import time

from check import CLASSIFIERS, FEATURE_SETS

# (module, function): the layer boundaries that get spans
TRACED = (
    ("ingest", "read_records_file"),
    ("ingest", "build_corpus"),
    ("pipeline", "write_networks"),
    ("pipeline", "read_networks"),
    ("pipeline", "compute_features"),
    ("pipeline", "write_features_csv"),
    ("pipeline", "read_features_csv"),
    ("pipeline", "classify_datasets"),
    ("metrics", "global_feature_vector"),
    ("census", "census"),
    ("census", "census_parallel"),
    ("census", "build_class_table"),
    ("ranking", "read_ratings_csv"),
    ("ranking", "aggregate_ratings"),
    ("ranking", "partition_terms"),
    ("ranking", "write_labels_csv"),
    ("ranking", "read_labels_csv"),
    ("ml", "assemble_feature_sets"),
    ("ml", "cross_validate"),
    ("ml", "pca2"),
    ("manifest", "file_sha256"),
)
LAYERS = ("cli", "ingest", "pipeline", "census", "metrics", "ml", "ranking", "manifest")
CENSUS_SPANS = ("census.census", "census.census_parallel")
HUB_DEGREE_RATIO = 4.0  # a graph is hub-shaped when max degree >= 4 x mean degree
TABLE_BUILDS = 5


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "ingest.parse_s": "s",
        "ingest.build_corpus_s": "s",
        "ingest.records": "count",
        "ingest.malformed": "count",
        "ingest.matched_records": "count",
        "ingest.scan_pairs": "count",
        "pipeline.write_networks_s": "s",
        "pipeline.read_networks_s": "s",
        "pipeline.write_features_csv_s": "s",
        "pipeline.read_features_csv_s": "s",
        "manifest.input_hash_s": "s",
        "graphs.networks": "count",
        "graphs.nodes": "count",
        "graphs.edges": "count",
        "graphs.max_degree": "count",
        "census.s": "s",
        "census.subsets": "count",
        "census.subsets_per_s": "1/s",
        "census.hub.subsets_per_s": "1/s",
        "census.uniform.subsets_per_s": "1/s",
        "census.max_graph_s": "s",
        "census.table_build_s": "s",
        "metrics.global_s": "s",
        "ml.pca2_s": "s",
    }
    units.update({f"ml.pca2.{name}_s": "s" for name in FEATURE_SETS})
    units.update({f"ml.cv.{name}.{clf}_s": "s" for name in FEATURE_SETS for clf in CLASSIFIERS})
    units.update({f"ml.cv.{clf}_s": "s" for clf in CLASSIFIERS})
    units.update({"ml.blr_convergence_warnings": "count", "ml.skipped_folds": "count", "ranking.s": "s"})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.pipeline_s": "s", "trace.untraced_pipeline_s": "s", "trace.overhead_s": "s"})
    units.update({f"trace.{stage}.overhead_s": "s" for stage in ("networks", "features", "classify")})
    return units


class Tracer:
    """Spans as [name, start, end, parent index]; the stack holds open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.graphs: dict[int, str] = {}  # census span index -> "hub" | "uniform"
        self.originals: dict[str, object] = {}
        self._pca_pending: list[tuple[str, int]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        try:
            yield index
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            self._observe(name, index, args, result)
            return result

        return traced

    def _observe(self, name: str, index: int, args, result) -> None:
        if name == "ingest.read_records_file":
            self.count("ingest.records", len(result.records))
            self.count("ingest.malformed", len(result.failures))
        elif name == "ingest.build_corpus":
            self.count("ingest.matched_records", sum(ts.matched_records for ts in result))
            self.count("ingest.scan_pairs", len(args[0]) * len(args[1]))
        elif name == "pipeline.read_networks":
            degrees = [len(nbrs) for ref in result for nbrs in ref.graph.skeleton_adjacency]
            self.count("graphs.networks", len(result))
            self.count("graphs.nodes", sum(ref.graph.node_count for ref in result))
            self.count("graphs.edges", sum(ref.graph.edge_count for ref in result))
            self.counts["graphs.max_degree"] = max([self.counts.get("graphs.max_degree", 0)] + degrees)
        elif name in CENSUS_SPANS:
            degrees = [len(nbrs) for nbrs in args[0].skeleton_adjacency]
            mean = sum(degrees) / len(degrees) if degrees else 0.0
            self.graphs[index] = "hub" if degrees and max(degrees) >= HUB_DEGREE_RATIO * mean else "uniform"
            self.count(f"census.{self.graphs[index]}.subsets", result.total)
        elif name == "ml.assemble_feature_sets":
            self._pca_pending = [(n, result[n].X.shape[1]) for n in FEATURE_SETS if n in result]
        elif name == "ml.cross_validate":
            self.spans[index][0] = f"ml.cv.{result.feature_set_name}.{result.classifier_name}"
            self.count("ml.blr_convergence_warnings", result.convergence_warnings)
            self.count("ml.skipped_folds", len(result.skipped_folds))
        elif name == "ml.pca2":
            # pca2 gets only the matrix: name it after the next feature set of its width
            width = args[0].shape[1]
            match = next((p for p in self._pca_pending if p[1] == width), None)
            if match is not None:
                self._pca_pending.remove(match)
                self.spans[index][0] = f"ml.pca2.{match[0]}"

    def install(self) -> None:
        """Wrap every TRACED function; LookupError if the program lacks one."""
        missing = [f"termnet.{m}.{f}" for m, f in TRACED if not hasattr(importlib.import_module(f"termnet.{m}"), f)]
        if missing:
            raise LookupError(f"traced functions not found: {', '.join(missing)}")
        modules = [m for n, m in list(sys.modules.items()) if n == "termnet" or n.startswith("termnet.")]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"termnet.{module_name}"], fn_name)
            self.originals[f"{module_name}.{fn_name}"] = original
            traced = self.wrap(f"{module_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def uninstall(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "termnet" or n.startswith("termnet.")]
        for original in self.originals.values():
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if getattr(value, "__wrapped__", None) is original:
                        setattr(mod, attr, original)

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _duration(span) -> float:
    return span[2] - span[1]


def _outermost(spans, prefix: str):
    """Spans named with `prefix` that are not nested in another such span."""
    out = []
    for i, span in enumerate(spans):
        if not span[0].startswith(prefix):
            continue
        parent = span[3]
        while parent >= 0 and not spans[parent][0].startswith(prefix):
            parent = spans[parent][3]
        if parent < 0:
            out.append((i, span))
    return out


def layer_metrics(tracer: Tracer, table_build_s: float) -> dict[str, float]:
    spans = tracer.spans
    total = {}
    for span in spans:
        total[span[0]] = total.get(span[0], 0.0) + _duration(span)
    metrics = {name: 0.0 for name in metric_units()}
    metrics.update(tracer.counts)
    metrics["ingest.parse_s"] = total.get("ingest.read_records_file", 0.0)
    metrics["ingest.build_corpus_s"] = total.get("ingest.build_corpus", 0.0)
    for fn in ("write_networks", "read_networks", "write_features_csv", "read_features_csv"):
        metrics[f"pipeline.{fn}_s"] = total.get(f"pipeline.{fn}", 0.0)
    metrics["manifest.input_hash_s"] = total.get("manifest.file_sha256", 0.0)
    metrics["metrics.global_s"] = total.get("metrics.global_feature_vector", 0.0)
    metrics["ranking.s"] = sum(_duration(s) for _, s in _outermost(spans, "ranking."))

    census_spans = [(i, s) for i, s in _outermost(spans, "census.census") if s[0] in CENSUS_SPANS]
    metrics["census.s"] = sum(_duration(s) for _, s in census_spans)
    metrics["census.max_graph_s"] = max((_duration(s) for _, s in census_spans), default=0.0)
    for shape in ("hub", "uniform"):
        seconds = sum(_duration(s) for i, s in census_spans if tracer.graphs.get(i) == shape)
        subsets = metrics.pop(f"census.{shape}.subsets", 0)
        metrics["census.subsets"] += subsets
        metrics[f"census.{shape}.subsets_per_s"] = subsets / seconds if seconds else 0.0
    metrics["census.subsets_per_s"] = metrics["census.subsets"] / metrics["census.s"] if metrics["census.s"] else 0.0
    metrics["census.table_build_s"] = table_build_s

    metrics["ml.pca2_s"] = sum(v for k, v in total.items() if k.startswith("ml.pca2"))
    for name in FEATURE_SETS:
        metrics[f"ml.pca2.{name}_s"] = total.get(f"ml.pca2.{name}", 0.0)
        for clf in CLASSIFIERS:
            metrics[f"ml.cv.{name}.{clf}_s"] = total.get(f"ml.cv.{name}.{clf}", 0.0)
    for clf in CLASSIFIERS:
        metrics[f"ml.cv.{clf}_s"] = sum(metrics[f"ml.cv.{name}.{clf}_s"] for name in FEATURE_SETS)

    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += _duration(span)
    for i, span in enumerate(spans):
        layer = "cli" if span[0].startswith("stage.") else span[0].split(".")[0]
        if layer in LAYERS:
            metrics[f"{layer}.self_s"] += _duration(span) - child_time[i]
    return metrics


def _build_table_seconds(tracer: Tracer) -> float:
    """Median wall time of building the class table without its disk cache."""
    build = tracer.originals["census.build_class_table"]
    times = []
    for _ in range(TABLE_BUILDS):
        start = time.perf_counter()
        build(None)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_pipeline(src_dir: str, stages, cache_dir: str, log_path: str) -> tuple[dict, dict, Tracer]:
    """Run `stages` ([(name, argv)]) through termnet.cli.main in this process.

    Returns (stage seconds, per-layer metrics, tracer).  A stage that exits
    nonzero raises RuntimeError, a missing traced function LookupError.
    """
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    previous_cache = os.environ.get("TERMNET_CACHE")
    os.environ["TERMNET_CACHE"] = cache_dir
    tracer = Tracer()
    stage_seconds = {}
    try:
        cli = importlib.import_module("termnet.cli")
        tracer.install()
        with open(log_path, "a", encoding="utf-8") as log, contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for name, argv in stages:
                with tracer.span(f"stage.{name}") as index:
                    code = cli.main(list(argv))
                stage_seconds[name] = _duration(tracer.spans[index])
                if code != 0:
                    raise RuntimeError(f"traced stage {name} exited with {code}; see {log_path}")
        table_build_s = _build_table_seconds(tracer)
    finally:
        tracer.uninstall()
        if previous_cache is None:
            os.environ.pop("TERMNET_CACHE", None)
        else:
            os.environ["TERMNET_CACHE"] = previous_cache
    return stage_seconds, layer_metrics(tracer, table_build_s), tracer
