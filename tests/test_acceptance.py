"""Release acceptance gate.

Each test prints one `ACCEPTANCE <n>: PASS|FAIL` line (kept visible even
under pytest's capture) and then asserts the same condition, so a failing
criterion is both reported and enforced.  Numbers and tolerances are pinned;
runtime bounds are wall-clock on a single host.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import oracles
from oracles import gen_random_digraph, gen_random_digraph_m
from termnet import ml
from termnet.census import build_class_table, census
from termnet.cli import main as cli_main
from termnet.ingest import build_corpus, parse_records
from termnet.metrics import global_feature_vector
from termnet.ranking import RatingRow, aggregate_ratings, partition_terms
from termnet.synth import SynthSpec, generate_corpus


def announce(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------- 1


def test_acceptance_1_class_universe(capsys):
    t0 = time.perf_counter()
    table = build_class_table()
    elapsed = time.perf_counter() - t0

    classes3, classes4 = oracles.class_universe()
    counts_ok = (table.class_count_3, table.class_count_4) == (13, 199)
    oracle_ok = (
        len(classes3) == 13
        and len(classes4) == 199
        and list(table.canonical_codes3) == sorted(classes3)
        and list(table.canonical_codes4) == sorted(classes4)
    )
    ok = counts_ok and oracle_ok and elapsed < 1.0
    announce(capsys, 1, ok, f"13 + 199 classes, exhaustive 64+4096 codes, built in {elapsed:.3f}s")
    assert counts_ok and oracle_ok
    assert elapsed < 1.0


# ---------------------------------------------------------------- 2


def test_acceptance_2_census_oracle(capsys):
    t0 = time.perf_counter()
    mismatches = 0
    sizes, probs = set(), set()
    for i in range(100):
        n = 5 + (i % 21)  # 5..25
        p = 0.05 * (1 + i % 10)  # 0.05..0.50
        sizes.add(n)
        probs.add(round(p, 2))
        g = gen_random_digraph(n, p, seed=1000 + i)
        if list(census(g).counts) != list(oracles.brute_census(g)):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0 and max(sizes) == 25 and len(probs) == 10
    announce(
        capsys, 2, ok, f"100 digraphs (n 5..25, p 0.05..0.5) exact vs brute force in {elapsed:.1f}s"
    )
    assert mismatches == 0
    assert max(sizes) == 25 and len(probs) == 10
    assert elapsed < 120.0


# ---------------------------------------------------------------- 3


def test_acceptance_3_census_performance(capsys):
    g = gen_random_digraph_m(2000, 10000, seed=42)
    t0 = time.perf_counter()
    census(g)
    t_serial = time.perf_counter() - t0
    ok = t_serial < 120.0
    announce(capsys, 3, ok, f"n=2000 |E|=10000: serial census {t_serial:.2f}s (<120)")
    assert t_serial < 120.0


# ---------------------------------------------------------------- 4


def test_acceptance_4_global_metrics_oracle(capsys):
    worst = 0.0
    flags_ok = True
    for i in range(100):
        n = 1 + (i % 50)  # 1..50
        p = 0.02 + 0.46 * ((i * 13) % 25) / 24
        g = gen_random_digraph(n, p, seed=2000 + i)
        got_vals, got_defined = global_feature_vector(g)
        vals, defined = oracles.brute_global_metrics(g)
        worst = max(worst, max(abs(a - b) for a, b in zip(got_vals, vals)))
        flags_ok = flags_ok and defined == got_defined
    ok = worst <= 1e-12 and flags_ok
    announce(capsys, 4, ok, f"100 graphs (n 1..50): max |delta| = {worst:.2e} (tol 1e-12), flags exact={flags_ok}")
    assert flags_ok
    assert worst <= 1e-12


# ---------------------------------------------------------------- 5


def _corpus_datasets(seed: int, signal: float):
    corpus = generate_corpus(SynthSpec(n_terms=60, records_per_term=150, seed=seed, signal=signal))
    records = parse_records(corpus.records_jsonl).records
    terms = corpus.terms_txt.splitlines()
    gv, lv = {}, {}
    for ts in build_corpus(records, terms):
        for kind, g in ts.graphs.items():
            gv[(ts.term, kind.value)] = global_feature_vector(g)[0]
            lv[(ts.term, kind.value)] = list(census(g).normalized)
    rows = [
        RatingRow(*line.rsplit(",", 2)[:2], int(line.rsplit(",", 2)[2]))
        for line in corpus.ratings_csv.splitlines()[1:]
    ]
    labels = partition_terms(aggregate_ratings(rows))
    return ml.assemble_feature_sets(gv, lv, labels)


def test_acceptance_5_planted_signal_classification(capsys):
    t0 = time.perf_counter()

    # strong signal: hub-routed vs community-clustered regimes, corpus seed 0
    ds1 = _corpus_datasets(seed=0, signal=1.0)
    rfc_acc = {
        kind: ml.cross_validate(ds1[f"global-{kind}"], "rfc", folds=10, seed=0)["metrics"]["accuracy"]
        for kind in ("mention", "reply", "quote", "combined")
    }
    combined_ok = rfc_acc["combined"] >= 0.85 and all(
        rfc_acc["combined"] >= rfc_acc[k] for k in ("mention", "reply", "quote")
    )

    # zero signal: every grid entry must sit inside the chance band
    ds0 = _corpus_datasets(seed=3, signal=0.0)
    out_of_band = []
    for fam in ("global", "local"):
        for kind in ("mention", "reply", "quote", "combined"):
            for clf in ("blr", "svm", "rfc"):
                acc = ml.cross_validate(ds0[f"{fam}-{kind}"], clf, folds=10, seed=0)["metrics"]["accuracy"]
                if not 0.35 <= acc <= 0.65:
                    out_of_band.append((f"{fam}-{kind}", clf, round(acc, 3)))
    elapsed = time.perf_counter() - t0

    ok = combined_ok and not out_of_band and elapsed < 300.0
    announce(
        capsys,
        5,
        ok,
        "signal=1: combined-global RFC "
        f"{rfc_acc['combined']:.3f} >= 0.85 and >= singles "
        f"({rfc_acc['mention']:.3f}/{rfc_acc['reply']:.3f}/{rfc_acc['quote']:.3f}); "
        f"signal=0: 24/24 entries in [0.35,0.65] (violations: {out_of_band or 'none'}); {elapsed:.0f}s",
    )
    assert combined_ok, rfc_acc
    assert not out_of_band, out_of_band
    assert elapsed < 300.0


# ---------------------------------------------------------------- 6


def test_acceptance_6_ranking_partition(capsys):
    rows = []
    # 115 terms with mean > 0.95
    for j in range(115):
        term = f"hot{j:03d}"
        scores = [1, 1, 1, 1, 1] if j % 3 else [2, 1, 1, 0, 1]  # means 1.0
        rows += [RatingRow(term, f"p{i}", s) for i, s in enumerate(scores)]
    # 84 terms with mean <= 0.95, including exact-threshold cases
    for j in range(84):
        term = f"cold{j:03d}"
        if j < 10:
            scores = [1] * 19 + [0]  # mean exactly 0.95: strict threshold keeps it out
        else:
            scores = [1, 1, 0, 0, 0]  # mean 0.4
        rows += [RatingRow(term, f"p{i}", s) for i, s in enumerate(scores)]

    labels = partition_terms(aggregate_ratings(rows), threshold=0.95)
    n_hot = sum(1 for lab in labels if lab.label == "controversial")
    n_cold = sum(1 for lab in labels if lab.label == "non-controversial")
    exhaustive = n_hot + n_cold == len(labels) == 199
    correct = all(
        (lab.label == "controversial") == lab.term.startswith("hot") for lab in labels
    )
    ok = (n_hot, n_cold) == (115, 84) and exhaustive and correct
    announce(capsys, 6, ok, f"strict 0.95 split: {n_hot}/{n_cold} (want 115/84), exhaustive and exclusive")
    assert (n_hot, n_cold) == (115, 84)
    assert exhaustive and correct


# ---------------------------------------------------------------- 7


def test_acceptance_7_pca_oracle(capsys):
    rng = np.random.default_rng(7)
    shapes = [
        (50, 636), (50, 9), (10, 212), (49, 3), (5, 636), (50, 2), (25, 25),
        (12, 400), (30, 27), (50, 100), (8, 8), (40, 636), (20, 5), (50, 50),
        (6, 300), (33, 7), (50, 212), (15, 2), (9, 636), (44, 60),
    ]
    worst_load, worst_var = 0.0, 0.0
    for n, d in shapes:
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d)
        res = ml.pca2(X)
        comps, vals, _ = oracles.svd_pca2(X)
        for i in range(2):
            delta = min(
                float(np.abs(res.components[i] - comps[i]).max()),
                float(np.abs(res.components[i] + comps[i]).max()),
            )
            worst_load = max(worst_load, delta)
        worst_var = max(worst_var, float(np.abs(res.explained_variance - vals).max()))
    ok = worst_load <= 1e-6 and worst_var <= 1e-8
    announce(
        capsys, 7,
        ok,
        f"20 matrices up to 50x636: max loading delta {worst_load:.2e} (tol 1e-6), "
        f"max variance delta {worst_var:.2e} (tol 1e-8)",
    )
    assert worst_load <= 1e-6
    assert worst_var <= 1e-8


# ---------------------------------------------------------------- 8


def test_acceptance_8_classifier_sanity(capsys):
    rng = np.random.default_rng(8)
    n = 200
    # two uniform slabs separated by a unit gap along the first axis
    x1_pos = rng.uniform(0.5, 2.5, size=n // 2)
    x1_neg = rng.uniform(-2.5, -0.5, size=n // 2)
    x2 = rng.uniform(-2.0, 2.0, size=n)
    X = np.column_stack([np.concatenate([x1_pos, x1_neg]), x2])
    y = np.array([1] * (n // 2) + [0] * (n // 2))
    ds = ml.Dataset(
        name="slabs", X=X, y=y, row_terms=tuple(map(str, range(n))), col_names=("x1", "x2")
    )
    accs = {clf: ml.cross_validate(ds, clf, folds=10, seed=0)["metrics"]["accuracy"] for clf in ("blr", "svm", "rfc")}
    sep_ok = all(a >= 0.98 for a in accs.values())

    identity_failures = 0
    for _ in range(1000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 40, size=4))
        values, flags = ml.confusion_metrics(tp, fp, tn, fn)
        checks = [values["ppv"] == values["precision"], values["sensitivity"] == values["recall"]]
        if flags["precision"]:
            checks.append(values["precision"] == tp / (tp + fp))
        if flags["f1"]:
            p, r = values["precision"], values["recall"]
            checks.append(values["f1"] == 2.0 * p * r / (p + r))
        if flags["accuracy"]:
            checks.append(values["accuracy"] == (tp + tn) / (tp + fp + tn + fn))
        for key in ("precision", "recall", "f1", "specificity", "npv"):
            if not flags[key]:
                checks.append(values[key] == 0.0)
        if not all(checks):
            identity_failures += 1
    ok = sep_ok and identity_failures == 0
    announce(
        capsys, 8,
        ok,
        f"separable n=200 margin 1: blr {accs['blr']:.3f} svm {accs['svm']:.3f} rfc {accs['rfc']:.3f} "
        f"(all >= 0.98); identities exact on 1000 random confusions ({identity_failures} failures)",
    )
    assert sep_ok, accs
    assert identity_failures == 0


# ---------------------------------------------------------------- 9


def test_acceptance_9_classify_determinism(capsys, tmp_path):
    def cli(cores, *argv):  # as on a host of `cores` usable cores
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: range(cores))
            assert cli_main([str(a) for a in argv]) == 0

    corpus = tmp_path / "corpus"
    nets = tmp_path / "nets"
    labels = tmp_path / "labels.csv"
    f_c1 = tmp_path / "features-c1.csv"
    f_c3 = tmp_path / "features-c3.csv"
    cli(1, "synth", "-o", corpus, "--terms", 12, "--records", 60, "--seed", 4)
    cli(1, "networks", corpus / "records.jsonl", corpus / "terms.txt", "-o", nets)
    cli(1, "features", nets, "-o", f_c1)
    cli(3, "features", nets, "-o", f_c3)
    cli(1, "rank", corpus / "ratings.csv", "-o", labels)

    runs = {}
    for name, cores, feats in (("a", 1, f_c1), ("b", 1, f_c1), ("c", 3, f_c3)):
        outdir = tmp_path / f"cls-{name}"
        cli(cores, "classify", feats, labels, "-o", outdir, "--seed", 0, "--folds", 10)
        runs[name] = {
            fname: (outdir / fname).read_bytes() for fname in sorted(os.listdir(outdir))
        }

    same_names = set(runs["a"]) == set(runs["b"]) == set(runs["c"])
    rerun_identical = runs["a"] == runs["b"]
    cores_identical = runs["a"] == runs["c"] and f_c1.read_bytes() == f_c3.read_bytes()
    n_files = len(runs["a"])
    report = json.loads(runs["a"]["report.json"].decode())
    grid_ok = len(report["entries"]) == 24
    ok = same_names and rerun_identical and cores_identical and grid_ok
    announce(
        capsys, 9,
        ok,
        f"features and classify outputs ({n_files} classify files incl. report.json, 24-entry grid) "
        f"byte-identical across reruns and across 1 vs 3 usable cores",
    )
    assert rerun_identical
    assert cores_identical
    assert grid_ok
