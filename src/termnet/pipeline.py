"""File-backed pipeline stages: network directories, feature tables, and the
classification report.

Stages communicate through documented CSV/JSON formats so each one is
independently runnable and resumable.  Every file starts with (or contains) the
sha256 of the run manifest that produced it.  Floats serialize with repr(),
the shortest round-trip form, so equal runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass
from datetime import datetime

from . import ml
from .census import TOTAL_CLASSES, CensusVector, census, census_parallel
from .graphs import DirectedGraph, read_edge_csv, write_edge_csv
from .ingest import InteractionKind, TermNetworkSet, parse_timestamp
from .metrics import METRIC_NAMES, GlobalFeatures, global_feature_vector
from .ranking import CONTROVERSIAL, NON_CONTROVERSIAL, TermLabel

__all__ = [
    "CLASSIFIER_ORDER",
    "FEATURE_SET_ORDER",
    "KINDS",
    "NetworkRef",
    "PipelineError",
    "classify_datasets",
    "compute_features",
    "filter_records_window",
    "parse_window_bound",
    "read_features_csv",
    "read_networks",
    "slugify_terms",
    "write_features_csv",
    "write_networks",
]

KINDS = tuple(k.value for k in InteractionKind)
FEATURE_SET_ORDER = tuple(f"{family}-{part}" for family in ("global", "local") for part in KINDS + ("combined",))
CLASSIFIER_ORDER = ("blr", "svm", "rfc")

SUMMARY_NAME = "summary.csv"
PARALLEL_CENSUS_MIN_NODES = 800  # below this, fork overhead beats root sharding


class PipelineError(ValueError):
    pass


def parse_window_bound(value: str, end_of_day: bool) -> datetime:
    """ISO-8601 instant; a bare date means start (or end) of that UTC day."""
    if re.fullmatch(r"\d{4}-\d{2}-\d{2}", value):
        value = value + ("T23:59:59Z" if end_of_day else "T00:00:00Z")
    return parse_timestamp(value)


def filter_records_window(records, window_from: datetime | None, window_to: datetime | None):
    """Keep records with window_from <= timestamp <= window_to (inclusive)."""
    if window_from is None and window_to is None:
        return list(records)
    kept = []
    for rec in records:
        t = parse_timestamp(rec.timestamp)
        if window_from is not None and t < window_from:
            continue
        if window_to is not None and t > window_to:
            continue
        kept.append(rec)
    return kept


# ---------------------------------------------------------------- networks


def slugify_terms(terms: list[str]) -> dict[str, str]:
    """Filesystem-safe unique slug per term ('#' becomes a 'tag-' prefix)."""
    slugs: dict[str, str] = {}
    taken: set[str] = set()
    for term in terms:
        base = term.lower()
        if base.startswith("#"):
            base = "tag-" + base[1:]
        base = re.sub(r"[^a-z0-9_-]+", "-", base).strip("-") or "term"
        slug = base
        k = 2
        while slug in taken:
            slug = f"{base}-{k}"
            k += 1
        taken.add(slug)
        slugs[term] = slug
    return slugs


@dataclass(frozen=True)
class NetworkRef:
    term: str
    kind: str
    graph: DirectedGraph
    matched_records: int


def write_networks(corpus: list[TermNetworkSet], outdir, manifest_hash: str) -> list[dict]:
    """Per-(term, kind) edge CSVs plus summary.csv; returns the summary rows."""
    os.makedirs(outdir, exist_ok=True)
    slugs = slugify_terms([ts.term for ts in corpus])
    rows = []
    for ts in corpus:
        for kind in InteractionKind:
            g = ts.graphs[kind]
            fname = f"{slugs[ts.term]}.{kind.value}.edges.csv"
            write_edge_csv(g, os.path.join(str(outdir), fname), manifest_hash=manifest_hash)
            rows.append(
                {
                    "term": ts.term,
                    "interaction": kind.value,
                    "nodes": g.node_count,
                    "edges": g.edge_count,
                    "matched_records": ts.matched_records,
                    "file": fname,
                }
            )
    with open(os.path.join(str(outdir), SUMMARY_NAME), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# manifest_sha256={manifest_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["term", "interaction", "nodes", "edges", "matched_records", "file"])
        for row in rows:
            writer.writerow([row[c] for c in ("term", "interaction", "nodes", "edges", "matched_records", "file")])
    return rows


def read_networks(networks_dir) -> list[NetworkRef]:
    summary = os.path.join(str(networks_dir), SUMMARY_NAME)
    if not os.path.exists(summary):
        raise PipelineError(f"{networks_dir}: no {SUMMARY_NAME}; not a networks directory?")
    refs = []
    with open(summary, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("# "))
        header = next(reader, None)
        if header != ["term", "interaction", "nodes", "edges", "matched_records", "file"]:
            raise PipelineError(f"{summary}: unexpected header {header!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != 6 or row[1] not in KINDS:
                raise PipelineError(f"{summary}: malformed row {row!r}")
            term, kind, nodes, edges, matched, fname = row
            path = os.path.join(str(networks_dir), fname)
            try:
                g = read_edge_csv(path)
            except (OSError, ValueError) as exc:
                raise PipelineError(f"network file {fname}: {exc}") from exc
            if g.node_count != int(nodes) or g.edge_count != int(edges):
                raise PipelineError(
                    f"network file {fname}: has {g.node_count} nodes / {g.edge_count} edges, "
                    f"summary says {nodes}/{edges}"
                )
            refs.append(NetworkRef(term=term, kind=kind, graph=g, matched_records=int(matched)))
    return refs


# ---------------------------------------------------------------- features

_FEATURES_HEADER = (
    ["term", "interaction"]
    + list(METRIC_NAMES)
    + [f"{m}_defined" for m in METRIC_NAMES]
    + ["total"]
    + [f"c{i:03d}" for i in range(TOTAL_CLASSES)]
    + [f"n{i:03d}" for i in range(TOTAL_CLASSES)]
)


@dataclass(frozen=True)
class FeatureRow:
    term: str
    kind: str
    global_features: GlobalFeatures
    census: CensusVector


def compute_features(refs: list[NetworkRef], workers: int = 1) -> list[FeatureRow]:
    """Feature rows ordered term-ascending, interaction in fixed kind order."""
    ordered = sorted(refs, key=lambda r: (r.term, KINDS.index(r.kind)))
    rows = []
    for ref in ordered:
        gf = global_feature_vector(ref.graph)
        if workers > 1 and ref.graph.node_count >= PARALLEL_CENSUS_MIN_NODES:
            cv = census_parallel(ref.graph, workers)
        else:
            cv = census(ref.graph)
        rows.append(FeatureRow(term=ref.term, kind=ref.kind, global_features=gf, census=cv))
    return rows


def write_features_csv(rows: list[FeatureRow], path, manifest_hash: str) -> None:
    if not rows:
        raise PipelineError("no feature rows to write")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# manifest_sha256={manifest_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_FEATURES_HEADER)
        for row in rows:
            gf, cv = row.global_features, row.census
            writer.writerow(
                [row.term, row.kind]
                + [repr(v) for v in gf.as_vector()]
                + [int(flag) for flag in gf.defined]
                + [cv.total]
                + [str(c) for c in cv.counts]
                + [repr(v) for v in cv.normalized]
            )


def read_features_csv(path):
    """Returns (global_vecs, local_vecs): dicts keyed by (term, kind).

    global_vecs values are the 9 metrics; local_vecs values are the 212
    normalized census frequencies.  The file must hold both blocks.
    """
    metrics_end = 2 + len(METRIC_NAMES)
    normalized_start = len(_FEATURES_HEADER) - TOTAL_CLASSES
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("# "))
        if next(reader, None) != _FEATURES_HEADER:
            raise PipelineError(f"{path}: not a features file with both the global and the census block")
        global_vecs: dict[tuple[str, str], list[float]] = {}
        local_vecs: dict[tuple[str, str], list[float]] = {}
        for row in reader:
            if not row:
                continue
            if len(row) != len(_FEATURES_HEADER) or row[1] not in KINDS:
                raise PipelineError(f"{path}: malformed row starting {row[:2]!r}")
            key = (row[0], row[1])
            try:
                global_vecs[key] = [float(v) for v in row[2:metrics_end]]
                local_vecs[key] = [float(v) for v in row[normalized_start:]]
            except ValueError as exc:
                raise PipelineError(f"{path}: bad numeric cell in row for {key}: {exc}") from exc
    return global_vecs, local_vecs


# ---------------------------------------------------------------- classify


def classify_datasets(
    global_vecs,
    local_vecs,
    labels: list[TermLabel],
    outdir,
    manifest_hash: str,
    seed: int = 0,
    folds: int = 10,
    swap_positive: bool = False,
) -> dict:
    """Run the 3-classifier x 8-feature-set grid and write report + PCA files.

    The positive class is the controversial one unless swapped.  Outputs
    depend only on the inputs and manifest parameters, never on worker count.
    """
    try:
        datasets = ml.assemble_feature_sets(global_vecs, local_vecs, labels)
    except ml.MlError as exc:
        raise PipelineError(str(exc)) from exc
    os.makedirs(outdir, exist_ok=True)

    positive_label = 0 if swap_positive else 1
    entries = []
    for set_name in FEATURE_SET_ORDER:
        for clf in CLASSIFIER_ORDER:
            report = ml.cross_validate(
                datasets[set_name], clf, folds=folds, seed=seed, positive_label=positive_label
            )
            entries.append(report.to_json_obj())

    pca_info: dict[str, dict] = {}
    label_of = {lab.term: lab.label for lab in labels}
    for set_name in FEATURE_SET_ORDER:
        ds = datasets[set_name]
        try:
            X_std, _, _ = ml.standardize(ds.X)
            res = ml.pca2(X_std)
        except ml.MlError as exc:
            pca_info[set_name] = {"error": str(exc)}
            continue
        pca_info[set_name] = {
            "error": None,
            "explained_variance": [float(v) for v in res.explained_variance],
        }
        proj_path = os.path.join(str(outdir), f"pca-{set_name}-projection.csv")
        with open(proj_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# manifest_sha256={manifest_hash}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["term", "label", "pc1", "pc2"])
            for i, term in enumerate(ds.row_terms):
                writer.writerow([term, label_of[term], repr(float(res.projected[i, 0])), repr(float(res.projected[i, 1]))])
        load_path = os.path.join(str(outdir), f"pca-{set_name}-loadings.csv")
        with open(load_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# manifest_sha256={manifest_hash}\n")
            fh.write(f"# explained_variance_pc1={float(res.explained_variance[0])!r}\n")
            fh.write(f"# explained_variance_pc2={float(res.explained_variance[1])!r}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["feature", "pc1", "pc2"])
            for j, name in enumerate(ds.col_names):
                writer.writerow([name, repr(float(res.components[0, j])), repr(float(res.components[1, j]))])

    report_obj = {
        "manifest_sha256": manifest_hash,
        "positive_class": NON_CONTROVERSIAL if swap_positive else CONTROVERSIAL,
        "seed": seed,
        "folds": folds,
        "entries": entries,
        "pca": pca_info,
    }
    with open(os.path.join(str(outdir), "report.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report_obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return report_obj
