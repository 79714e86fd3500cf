"""File-backed pipeline stages: network directories, feature tables, and the
classification report.

Stages communicate through documented CSV/JSON formats so each one is
independently runnable and resumable.  Every file starts with (or contains) the
sha256 of the run manifest that produced it.  csv writes a float as its repr(),
the shortest round-trip form, so equal runs are byte-identical.  `features`
reads each network in the forked item that computes its line, so no process
holds every graph, and it writes features.csv only once every line is done.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import islice

from .census import TOTAL_CLASSES, census, term_deltas
from .forked import fork_map
from .graphs import DirectedGraph, read_edge_csv, write_edge_csv
from .ingest import InteractionKind, TermNetworkSet
from .manifest import InputError, count, csv_line, finite, one_of, read_table, write_csv, write_json, write_lines
from .metrics import METRIC_NAMES, global_feature_vector
from .ranking import CONTROVERSIAL, TermLabel

__all__ = [
    "CLASSIFIER_ORDER",
    "FEATURES_COLUMNS",
    "FEATURE_SET_ORDER",
    "KINDS",
    "NetworkRef",
    "SUMMARY_COLUMNS",
    "SUMMARY_NAME",
    "classify_datasets",
    "compute_features",
    "read_features_csv",
    "read_network",
    "read_networks",
    "read_summary",
    "slugify_terms",
    "write_features_csv",
    "write_networks",
]

KINDS = tuple(k.value for k in InteractionKind)
FEATURE_SET_ORDER = tuple(f"{family}-{part}" for family in ("global", "local") for part in KINDS + ("combined",))
CLASSIFIER_ORDER = ("blr", "svm", "rfc")

SUMMARY_NAME = "summary.csv"


def _edge_file(cell: str) -> str:
    """A `<name>.edges.csv` file name inside the networks directory: no `/` and no NUL."""
    if not re.fullmatch(r"[^/\x00]+\.edges\.csv", cell):
        raise ValueError(f"{cell!r} is not a <name>.edges.csv file name")
    return cell


SUMMARY_COLUMNS = dict(
    term=str, interaction=one_of(*KINDS), nodes=count, edges=count, matched_records=count, file=_edge_file
)


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


def write_networks(corpus: list[TermNetworkSet], outdir, manifest_hash: str) -> list[list]:
    """Per-(term, kind) edge CSVs plus summary.csv; returns the summary rows.

    The edge files that the directory's existing summary.csv lists are deleted
    first, so the directory holds one run's networks.
    """
    os.makedirs(outdir, exist_ok=True)
    summary = os.path.join(str(outdir), SUMMARY_NAME)
    if os.path.exists(summary):  # only the file names are needed: counts stay unread, repeats pass
        uncounted = dict(SUMMARY_COLUMNS, nodes=str, edges=str, matched_records=str)
        for *_, fname in read_table(summary, uncounted, "summary", key=0):
            old = os.path.join(str(outdir), fname)
            if os.path.isfile(old):
                os.remove(old)
    slugs = slugify_terms([ts.term for ts in corpus])
    rows = []
    for ts in corpus:
        for kind in InteractionKind:
            g = ts.graphs[kind]
            fname = f"{slugs[ts.term]}.{kind.value}.edges.csv"
            write_edge_csv(g, os.path.join(str(outdir), fname), manifest_hash)
            rows.append([ts.term, kind.value, g.node_count, g.edge_count, ts.matched_records, fname])
    write_csv(summary, manifest_hash, SUMMARY_COLUMNS, rows)
    return rows


def read_summary(networks_dir) -> list[list]:
    """The rows of a networks directory's summary.csv, in file order; no (term, interaction) and no
    file twice."""
    path = os.path.join(str(networks_dir), SUMMARY_NAME)
    rows = read_table(path, SUMMARY_COLUMNS, "summary", key=2)
    files = set()
    for *_, fname in rows:
        if fname in files:
            raise InputError(f"{path}: file {fname} is listed twice")
        files.add(fname)
    return rows


def read_network(networks_dir, row: list) -> NetworkRef:
    """The network of one `read_summary` row: its edge file, checked against the row's counts."""
    term, kind, nodes, edges, matched, fname = row
    g = read_edge_csv(os.path.join(str(networks_dir), fname))
    if g.node_count != nodes or g.edge_count != edges:
        raise InputError(
            f"network file {fname}: has {g.node_count} nodes / {g.edge_count} edges, "
            f"summary says {nodes}/{edges}"
        )
    return NetworkRef(term=term, kind=kind, graph=g, matched_records=matched)


def read_networks(networks_dir) -> list[NetworkRef]:
    """Every network summary.csv lists, in file order, each read by `read_network`."""
    return [read_network(networks_dir, row) for row in read_summary(networks_dir)]


# ---------------------------------------------------------------- features

FEATURES_COLUMNS = {
    "term": str,
    "interaction": one_of(*KINDS),
    **dict.fromkeys(METRIC_NAMES, finite),
    **dict.fromkeys([f"{m}_defined" for m in METRIC_NAMES], one_of("0", "1")),
    "total": count,
    **dict.fromkeys([f"c{i:03d}" for i in range(TOTAL_CLASSES)], count),
    **dict.fromkeys([f"n{i:03d}" for i in range(TOTAL_CLASSES)], finite),
}


def _feature_line(networks_dir, row: list) -> str:
    """The `csv_line` of the FEATURES_COLUMNS row of the network a summary row lists."""
    ref = read_network(networks_dir, row)
    values, defined = global_feature_vector(ref.graph)
    c = census(ref.graph)
    return csv_line([ref.term, ref.kind, *values, *map(int, defined), c.total, *c.counts, *c.normalized])


def compute_features(networks_dir, summary: list[list]) -> list[str]:
    """The features.csv data lines of the networks that `summary`, the directory's `read_summary` rows,
    lists, ordered term-ascending, interaction in fixed kind order.

    The summary rows are the items of `fork_map`, in summary order: each reads
    and checks its own edge file (`read_network`) and returns its finished
    line, so no process holds more than one network's graph, and of several
    bad files the first listed is the one named.  Call this from a
    single-threaded process.
    """
    term_deltas()  # the census's table, built here once, not again in each forked process
    with fork_map(lambda row: _feature_line(networks_dir, row), summary) as lines:
        keyed = sorted(zip([(row[0], KINDS.index(row[1])) for row in summary], lines, strict=True))
    return [line for _, line in keyed]


def write_features_csv(lines: list[str], path, manifest_hash: str) -> None:
    """The stamped features.csv of `compute_features`'s lines, written as given."""
    if not lines:
        raise InputError("no feature rows to write")
    write_lines(path, manifest_hash, FEATURES_COLUMNS, lines)


def read_features_csv(path):
    """(global_vecs, local_vecs) keyed by (term, kind): each row's 9 metrics and its 212 normalized
    census frequencies.  The file must hold both blocks."""
    rows = read_table(path, FEATURES_COLUMNS, "features (both the global and the census block)", key=2)
    global_vecs = {(row[0], row[1]): row[2 : 2 + len(METRIC_NAMES)] for row in rows}
    local_vecs = {(row[0], row[1]): row[-TOTAL_CLASSES:] for row in rows}
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
) -> dict:
    """Run the 3-classifier x 8-feature-set grid and write report + PCA files.

    The controversial class is always positive; the report states it once as
    `positive_class`.  Outputs depend only on the inputs and manifest
    parameters.  Each grid entry is the dict `ml.cross_validate` returns,
    laid out as a fold plan first (a bad argument fails here, before any
    fork); the training problems of all 24 plans, a BLR or forest fold or one
    entry's SVM, are the items of `fork_map`, and `ml.pool_folds` builds each
    entry from its own.  Call this from a single-threaded process.
    """
    from . import ml  # here, not at the top: only classify and synth load numpy

    datasets = ml.assemble_feature_sets(global_vecs, local_vecs, labels)
    os.makedirs(outdir, exist_ok=True)
    plans = [ml.plan_folds(datasets[s], clf, folds, seed) for s in FEATURE_SET_ORDER for clf in CLASSIFIER_ORDER]
    problems = [(plan, problem) for plan in plans for problem in plan.problems]
    with fork_map(lambda item: ml.train_problem(*item), problems) as solved:
        entries = [ml.pool_folds(plan, islice(solved, len(plan.problems))) for plan in plans]

    pca_info: dict[str, dict] = {}
    label_of = {lab.term: lab.label for lab in labels}
    for set_name in FEATURE_SET_ORDER:
        ds = datasets[set_name]
        try:
            X_std, _, _ = ml.standardize(ds.X)
            res = ml.pca2(X_std)
        except InputError as exc:
            pca_info[set_name] = {"error": str(exc)}
            continue
        variance = [float(v) for v in res.explained_variance]
        pca_info[set_name] = {"error": None, "explained_variance": variance}
        write_csv(
            os.path.join(str(outdir), f"pca-{set_name}-projection.csv"),
            manifest_hash,
            ["term", "label", "pc1", "pc2"],
            ([t, label_of[t], float(x), float(y)] for t, (x, y) in zip(ds.row_terms, res.projected)),
        )
        pc1, pc2 = res.components
        write_csv(
            os.path.join(str(outdir), f"pca-{set_name}-loadings.csv"),
            manifest_hash,
            ["feature", "pc1", "pc2"],
            ([name, float(a), float(b)] for name, a, b in zip(ds.col_names, pc1, pc2)),
            notes=[f"explained_variance_pc{k}={v!r}" for k, v in enumerate(variance, 1)],
        )

    report_obj = {
        "manifest_sha256": manifest_hash,
        "positive_class": CONTROVERSIAL,
        "seed": seed,
        "folds": folds,
        "entries": entries,
        "pca": pca_info,
    }
    write_json(os.path.join(str(outdir), "report.json"), report_obj)
    return report_obj
