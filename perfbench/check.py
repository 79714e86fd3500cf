"""Output checks for one pipeline run.

Digests drop the `# manifest_sha256=` lines (and the manifest JSON files), so
they name what a stage computed, not how it was invoked.  A run is checked
three ways:

* against a stored reference when one exists for the workload and seed
  (`refs/<workload>-<seed>.json`): exact digests for the networks directory,
  features.csv and labels.csv; for report.json exact confusion counts and
  fold accuracies, PCA variances within 1e-8 relative and PCA loadings and
  projections within 1e-6, up to the sign of each component;
* against every earlier run of the same code, workload and seed: all digests
  must be identical;
* by structural invariants that hold for any seed: row counts, census block
  sums, 24 grid entries, one PCA block per feature set.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

FEATURE_SETS = tuple(f"{fam}-{part}" for fam in ("global", "local") for part in ("mention", "reply", "quote", "combined"))
CLASSIFIERS = ("blr", "svm", "rfc")
KINDS = ("mention", "reply", "quote")
CENSUS_CLASSES = 212
VARIANCE_RTOL = 1e-8
LOADING_ATOL = 1e-6


class CheckError(Exception):
    """An output differs from its reference or breaks an invariant."""


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"# manifest_sha256="):
                digest.update(line)
    return digest.hexdigest()


def dir_digest(path: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name.endswith(".json"):
            continue
        digest.update(name.encode() + b"\0" + file_digest(os.path.join(path, name)).encode() + b"\n")
    return digest.hexdigest()


def _data_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(line for line in fh if not line.startswith("# ")) if row]


# ---------------------------------------------------------------- per stage


def networks_digests(nets_dir: str, n_terms: int) -> dict:
    rows = _data_rows(os.path.join(nets_dir, "summary.csv"))
    header, body = rows[0], rows[1:]
    if len(body) != len(KINDS) * n_terms:
        raise CheckError(f"networks: {len(body)} summary rows for {n_terms} terms")
    col = {name: i for i, name in enumerate(header)}
    for row in body:
        edges = _data_rows(os.path.join(nets_dir, row[col["file"]]))
        if len(edges) - 1 != int(row[col["edges"]]):
            raise CheckError(f"networks: {row[col['file']]} has {len(edges) - 1} edges, summary says {row[col['edges']]}")
    return {"networks": dir_digest(nets_dir)}


def features_digests(path: str, n_terms: int) -> dict:
    n_rows = 0
    with open(path, encoding="utf-8", newline="") as fh:  # streamed: the file can be large
        rows = (row for row in csv.reader(line for line in fh if not line.startswith("# ")) if row)
        col = {name: i for i, name in enumerate(next(rows))}
        counts = [col[f"c{i:03d}"] for i in range(CENSUS_CLASSES)]
        freqs = [col[f"n{i:03d}"] for i in range(CENSUS_CLASSES)]
        for row in rows:
            n_rows += 1
            total = int(row[col["total"]])
            if sum(int(row[i]) for i in counts) != total:
                raise CheckError(f"features: census counts of {row[:2]} do not sum to total {total}")
            freq_sum = sum(float(row[i]) for i in freqs)
            if abs(freq_sum - (1.0 if total else 0.0)) > 1e-9:
                raise CheckError(f"features: frequencies of {row[:2]} sum to {freq_sum!r}")
    if n_rows != len(KINDS) * n_terms:
        raise CheckError(f"features: {n_rows} rows for {n_terms} terms")
    return {"features": file_digest(path)}


def labels_digests(path: str, n_terms: int) -> dict:
    body = _data_rows(path)[1:]
    if len(body) != n_terms:
        raise CheckError(f"labels: {len(body)} rows for {n_terms} terms")
    return {"labels": file_digest(path)}


def class_table_digests(path: str) -> dict:
    body = _data_rows(path)[1:]
    if len(body) != CENSUS_CLASSES:
        raise CheckError(f"class table: {len(body)} classes")
    return {"class_table": file_digest(path)}


def read_report(results_dir: str) -> dict:
    """The checked part of a classify run: grid entries and PCA blocks."""
    with open(os.path.join(results_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    entries = [
        [e["feature_set"], e["classifier"], [e["confusion"][k] for k in ("tp", "fp", "tn", "fn")], e["fold_accuracies"]]
        for e in report["entries"]
    ]
    pca = {}
    for name in FEATURE_SETS:
        info = report["pca"].get(name, {})
        if info.get("error"):
            pca[name] = {"error": info["error"]}
            continue
        loadings = _data_rows(os.path.join(results_dir, f"pca-{name}-loadings.csv"))[1:]
        projection = _data_rows(os.path.join(results_dir, f"pca-{name}-projection.csv"))[1:]
        pca[name] = {
            "variance": info["explained_variance"],
            "loadings": [[float(r[1]) for r in loadings], [float(r[2]) for r in loadings]],
            "projection": [[float(r[2]) for r in projection], [float(r[3]) for r in projection]],
        }
    return {"entries": entries, "pca": pca}


def report_digests(results_dir: str, n_terms: int, folds: int) -> tuple[dict, dict]:
    """(digests, report values); checks the grid shape on any seed."""
    values = read_report(results_dir)
    grid = [(e[0], e[1]) for e in values["entries"]]
    if grid != [(s, c) for s in FEATURE_SETS for c in CLASSIFIERS]:
        raise CheckError(f"report: grid is {grid}, expected 24 entries in fixed order")
    for name, confusion, accs in ((f"{e[0]}.{e[1]}", e[2], e[3]) for e in values["entries"]):
        if sum(confusion) > n_terms or len(accs) > folds or not accs:
            raise CheckError(f"report: {name} scores {sum(confusion)} rows over {len(accs)} folds")
    for name, block in values["pca"].items():
        if "error" not in block and len(block["projection"][0]) != n_terms:
            raise CheckError(f"pca {name}: projection has {len(block['projection'][0])} rows for {n_terms} terms")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(results_dir)):
        if name != "manifest.json":
            digest.update(name.encode() + b"\0" + file_digest(os.path.join(results_dir, name)).encode() + b"\n")
    return {"report": digest.hexdigest()}, values


# ---------------------------------------------------------------- comparisons


def _close_vectors(name: str, got: list, want: list) -> None:
    for i, (g_vec, w_vec) in enumerate(zip(got, want)):
        if len(g_vec) != len(w_vec):
            raise CheckError(f"{name}: component {i + 1} has {len(g_vec)} values, reference {len(w_vec)}")
        sign = -1.0 if sum(g * w for g, w in zip(g_vec, w_vec)) < 0 else 1.0
        worst = max((abs(sign * g - w) for g, w in zip(g_vec, w_vec)), default=0.0)
        if not worst <= LOADING_ATOL:
            raise CheckError(f"{name}: component {i + 1} differs by {worst:.3g} (tolerance {LOADING_ATOL})")


def compare_report(got: dict, want: dict) -> None:
    if got["entries"] != want["entries"]:
        bad = [f"{g[0]}.{g[1]}" for g, w in zip(got["entries"], want["entries"]) if g != w]
        raise CheckError(f"report: confusion counts or fold accuracies differ from reference in {bad or 'grid shape'}")
    for name in FEATURE_SETS:
        g, w = got["pca"][name], want["pca"][name]
        if "error" in g or "error" in w:
            if g != w:
                raise CheckError(f"pca {name}: {g.get('error')!r} vs reference {w.get('error')!r}")
            continue
        for gv, wv in zip(g["variance"], w["variance"]):
            if not abs(gv - wv) <= VARIANCE_RTOL * max(abs(wv), 1e-300):
                raise CheckError(f"pca {name}: variance {gv!r} vs reference {wv!r}")
        _close_vectors(f"pca {name} loadings", g["loadings"], w["loadings"])
        _close_vectors(f"pca {name} projection", g["projection"], w["projection"])


def load_reference(stem: str) -> dict | None:
    path = os.path.join(REFS_DIR, f"{stem}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare_digests(got: dict, want: dict, source: str) -> None:
    for key, value in got.items():
        if key in want and want[key] != value:
            raise CheckError(f"{key}: digest {value[:12]} differs from {source} {want[key][:12]}")


def rounded(values: dict) -> dict:
    """Report values as stored in a reference file: PCA loadings and
    projections to 12 significant digits, far inside their tolerance."""
    pca = {}
    for name, block in values["pca"].items():
        pca[name] = dict(block)
        for key in ("loadings", "projection"):
            if key in block:
                pca[name][key] = [[float(f"{x:.12g}") for x in vec] for vec in block[key]]
    return {"entries": values["entries"], "pca": pca}
