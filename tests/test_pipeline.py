import csv
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import termnet
from termnet import ml, pipeline
from termnet.census import census, get_class_table
from termnet.cli import main
from termnet.graphs import build_graph, write_edge_csv
from termnet.ingest import (
    InteractionKind,
    TermNetworkSet,
    build_corpus,
    parse_records,
    parse_timestamp,
    parse_window_bound,
    read_terms_file,
)
from termnet.manifest import InputError, write_csv
from termnet.metrics import global_feature_vector
from termnet.pipeline import (
    CLASSIFIER_ORDER,
    FEATURE_SET_ORDER,
    compute_features,
    read_features_csv,
    read_networks,
    read_summary,
    slugify_terms,
    write_features_csv,
    write_networks,
)
from termnet.ranking import read_labels_csv, write_labels_csv
from termnet.synth import SynthSpec, generate_corpus, write_corpus

import oracles
from oracles import assert_no_child_is_left, cores, gen_random_digraph_m


# ---------------------------------------------------------------- helpers


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture()
def corpus_dir(tmp_path):
    """A small synthetic corpus on disk (6 terms, strong signal)."""
    d = tmp_path / "corpus"
    write_corpus(SynthSpec(n_terms=6, records_per_term=40, seed=21, signal=1.0), d)
    return d


# ---------------------------------------------------------------- windowing


def test_parse_window_bound():
    # every bare-date form date.fromisoformat reads: extended, basic and ISO week date
    for day in ("2020-11-09", "20201109", "2020-W46-1"):
        assert parse_window_bound(day, end_of_day=False).isoformat() == "2020-11-09T00:00:00+00:00", day
        assert parse_window_bound(day, end_of_day=True).isoformat() == "2020-11-09T23:59:59.999999+00:00", day
    assert parse_window_bound("2020-11-09T05:06:07Z", end_of_day=True).isoformat() == "2020-11-09T05:06:07+00:00"


def test_timestamp_forms_python_3_10_rejects(tmp_path, capsys):
    # a fractional second of one digit and the basic format parse only from Python 3.11 on,
    # which is why the package requires it: otherwise equal manifests could give other edges
    assert parse_timestamp("2021-01-01T00:00:00.5Z").isoformat() == "2021-01-01T00:00:00.500000+00:00"
    assert parse_timestamp("20210101T000000Z").isoformat() == "2021-01-01T00:00:00+00:00"
    records, terms, nets = tmp_path / "records.jsonl", tmp_path / "terms.txt", tmp_path / "nets"
    lines = [
        {"post_id": "1", "author": "a", "text": "#vax", "timestamp": "2021-01-01T00:00:00.5Z", "mentioned": ["b"]},
        {"post_id": "2", "author": "c", "text": "#vax", "timestamp": "20210101T000000Z", "mentioned": ["d"]},
    ]
    records.write_text("".join(json.dumps(line) + "\n" for line in lines))
    terms.write_text("#vax\n")
    assert run_cli("networks", records, terms, "-o", nets, "--from", "20210101") == 0
    capsys.readouterr()
    edges = (nets / "tag-vax.mention.edges.csv").read_text().splitlines()[2:]
    assert edges == ["a,b", "c,d"]


def test_filter_records_window_inclusive():
    lines = [
        json.dumps({"post_id": str(i), "author": "a", "text": str(i), "timestamp": f"2020-11-{9 + i:02d}T12:00:00Z"})
        for i in range(5)
    ]
    text = "\n".join(lines)
    lo = parse_window_bound("2020-11-10T12:00:00Z", False)
    hi = parse_window_bound("2020-11-12T12:00:00Z", True)
    assert [r.text for r in parse_records(text, lo, hi).records] == ["1", "2", "3"]
    assert [r.text for r in parse_records(text).records] == ["0", "1", "2", "3", "4"]
    assert [r.text for r in parse_records(text, lo).records] == ["1", "2", "3", "4"]


def test_bare_to_date_keeps_the_whole_last_second():
    stamps = ["2020-12-07T23:59:59.500Z", "2020-12-07T23:59:59.999999Z", "2020-12-08T00:00:00Z"]
    lines = [json.dumps({"post_id": str(i), "author": "a", "text": str(i), "timestamp": t}) for i, t in enumerate(stamps)]
    kept = parse_records("\n".join(lines), None, parse_window_bound("2020-12-07", end_of_day=True)).records
    assert [r.text for r in kept] == ["0", "1"]


# ---------------------------------------------------------------- slugs


def test_slugify_terms():
    slugs = slugify_terms(["#Great Reset", "great reset", "tag-great-reset", "Терм"])
    assert slugs["#Great Reset"] == "tag-great-reset"
    assert slugs["great reset"] == "great-reset"
    assert slugs["tag-great-reset"] == "tag-great-reset-2"  # collision
    assert slugs["Терм"] == "term"  # nothing survives -> fallback
    assert len(set(slugs.values())) == 4


# ---------------------------------------------------------------- networks io


def test_write_read_networks_round_trip(tmp_path, corpus_dir):
    records = parse_records((corpus_dir / "records.jsonl").read_text()).records
    terms = read_terms_file(corpus_dir / "terms.txt")
    corpus = build_corpus(records, terms)
    outdir = tmp_path / "nets"
    rows = write_networks(corpus, outdir, manifest_hash="f" * 64)
    assert len(rows) == len(terms) * 3

    refs = read_networks(outdir)
    assert len(refs) == len(rows)
    by_key = {(r.term, r.kind): r for r in refs}
    for ts in corpus:
        for kind, g in ts.graphs.items():
            ref = by_key[(ts.term, kind.value)]
            assert ref.graph.node_count == g.node_count
            assert ref.graph.edge_count == g.edge_count
            want = {(g.handle(u), g.handle(v)) for u, v in g.edges}
            got = {(ref.graph.handle(u), ref.graph.handle(v)) for u, v in ref.graph.edges}
            assert got == want
            assert ref.matched_records == ts.matched_records


def test_read_networks_detects_tampering(tmp_path, corpus_dir):
    records = parse_records((corpus_dir / "records.jsonl").read_text()).records
    corpus = build_corpus(records, read_terms_file(corpus_dir / "terms.txt"))
    outdir = tmp_path / "nets"
    write_networks(corpus, outdir, manifest_hash="f" * 64)
    summary = outdir / "summary.csv"
    text = summary.read_text()
    # corrupt one edge count in the summary
    lines = text.splitlines()
    parts = lines[2].split(",")
    parts[3] = str(int(parts[3]) + 1)
    lines[2] = ",".join(parts)
    summary.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="edge"):
        read_networks(outdir)


# ---------------------------------------------------------------- features io


def test_features_csv_round_trip(tmp_path, corpus_dir):
    records = parse_records((corpus_dir / "records.jsonl").read_text()).records
    corpus = build_corpus(records, read_terms_file(corpus_dir / "terms.txt"))
    outdir = tmp_path / "nets"
    write_networks(corpus, outdir, manifest_hash="e" * 64)
    lines = compute_features(outdir, read_summary(outdir))
    path = tmp_path / "features.csv"
    write_features_csv(lines, path, manifest_hash="e" * 64)

    rows = list(csv.reader(lines))
    global_vecs, local_vecs = read_features_csv(path)
    assert set(global_vecs) == set(local_vecs) == {(row[0], row[1]) for row in rows}
    for ref in read_networks(outdir):
        key = (ref.term, ref.kind)
        # repr round trip is exact, not approximate: the floats read back are the floats computed
        assert global_vecs[key] == global_feature_vector(ref.graph)[0]
        assert local_vecs[key] == list(census(ref.graph).normalized)
        assert len(local_vecs[key]) == 212


def test_features_csv_header_layout(tmp_path, corpus_dir):
    records = parse_records((corpus_dir / "records.jsonl").read_text()).records
    corpus = build_corpus(records, read_terms_file(corpus_dir / "terms.txt"))
    outdir = tmp_path / "nets"
    write_networks(corpus, outdir, manifest_hash="d" * 64)
    lines = compute_features(outdir, read_summary(outdir))
    path = tmp_path / "features.csv"
    write_features_csv(lines, path, manifest_hash="d" * 64)
    lines = path.read_text().splitlines()
    assert lines[0] == "# manifest_sha256=" + "d" * 64
    header = lines[1].split(",")
    assert header[:2] == ["term", "interaction"]
    assert header[2:11] == [
        "density",
        "reciprocity",
        "transitivity",
        "in_mean",
        "in_max",
        "in_min",
        "out_mean",
        "out_max",
        "out_min",
    ]
    assert header[11:20] == [m + "_defined" for m in header[2:11]]
    assert header[20] == "total"
    assert header[21] == "c000" and header[232] == "c211"
    assert header[233] == "n000" and header[-1] == "n211"
    assert len(header) == 2 + 9 + 9 + 1 + 212 + 212


def test_read_features_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("nope,really\n1,2\n")
    with pytest.raises(InputError):
        read_features_csv(p)
    p.write_text("term,interaction,other\nfoo,mention,1\n")
    with pytest.raises(InputError, match="both the global and the census block"):
        read_features_csv(p)


def test_read_features_rejects_bad_cell(tmp_path, corpus_dir):
    records = parse_records((corpus_dir / "records.jsonl").read_text()).records
    corpus = build_corpus(records, read_terms_file(corpus_dir / "terms.txt"))
    outdir = tmp_path / "nets"
    write_networks(corpus, outdir, manifest_hash="a" * 64)
    lines = compute_features(outdir, read_summary(outdir))
    path = tmp_path / "features.csv"
    write_features_csv(lines, path, manifest_hash="a" * 64)
    text = path.read_text().splitlines()
    text[2] = text[2].replace(text[2].split(",")[2], "not-a-number", 1)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(InputError, match="bad numeric cell"):
        read_features_csv(path)


# ---------------------------------------------------------------- cli flows


def test_cli_version_and_usage(capsys):
    assert run_cli("--version") == 0
    assert "termnet" in capsys.readouterr().out
    assert run_cli() == 1  # missing subcommand
    assert run_cli("networks") == 1  # missing positionals
    assert run_cli("no-such-command") == 1


def test_cli_missing_input_is_exit_1(tmp_path, capsys):
    rc = run_cli("networks", tmp_path / "absent.jsonl", tmp_path / "absent.txt", "-o", tmp_path / "out")
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_full_flow(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    nets = tmp_path / "nets"
    outdir = tmp_path / "cls"
    features = tmp_path / "features.csv"
    labels = tmp_path / "labels.csv"

    assert run_cli("synth", "-o", corpus, "--terms", 6, "--records", 40, "--seed", 21) == 0
    assert run_cli("networks", corpus / "records.jsonl", corpus / "terms.txt", "-o", nets) == 0
    assert run_cli("features", nets, "-o", features, "--workers", 1) == 0
    assert run_cli("rank", corpus / "ratings.csv", "-o", labels) == 0
    assert run_cli("classify", features, labels, "-o", outdir, "--folds", 3) == 0
    capsys.readouterr()

    # network artifacts
    assert (nets / "summary.csv").exists() and (nets / "manifest.json").exists()
    edge_files = [f for f in os.listdir(nets) if f.endswith(".edges.csv")]
    assert len(edge_files) == 18

    # labels match the generator's ground truth
    truth = dict(
        line.split(",") for line in (corpus / "ground_truth.csv").read_text().splitlines()[1:]
    )
    got = {lab.term: lab.label for lab in read_labels_csv(labels)}
    assert got == truth

    # classification report: full grid in fixed order
    report = json.loads((outdir / "report.json").read_text())
    assert len(report["entries"]) == 24
    grid = [(e["feature_set"], e["classifier"]) for e in report["entries"]]
    assert grid == [(s, c) for s in FEATURE_SET_ORDER for c in CLASSIFIER_ORDER]
    assert report["positive_class"] == "controversial"
    assert report["folds"] == 3
    for e in report["entries"]:
        assert sum(e["confusion"].values()) == 6
    # PCA exports for every feature set
    for set_name in FEATURE_SET_ORDER:
        assert (outdir / f"pca-{set_name}-projection.csv").exists()
        assert report["pca"][set_name]["error"] is None
        # the variance header holds bare floats, whatever the numpy version prints
        header = (outdir / f"pca-{set_name}-loadings.csv").read_text().splitlines()[1:3]
        assert [line.split("=")[0] for line in header] == [
            "# explained_variance_pc1",
            "# explained_variance_pc2",
        ]
        variances = [float(line.split("=")[1]) for line in header]
        assert variances == report["pca"][set_name]["explained_variance"]


def test_cli_classify_matches_library(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    nets = tmp_path / "nets"
    features = tmp_path / "features.csv"
    labels = tmp_path / "labels.csv"
    outdir = tmp_path / "cls"
    for argv in (
        ("synth", "-o", corpus, "--terms", 8, "--records", 30, "--seed", 5),
        ("networks", corpus / "records.jsonl", corpus / "terms.txt", "-o", nets),
        ("features", nets, "-o", features),
        ("rank", corpus / "ratings.csv", "-o", labels),
        ("classify", features, labels, "-o", outdir, "--folds", 4, "--seed", 3),
    ):
        assert run_cli(*argv) == 0
    capsys.readouterr()
    report = json.loads((outdir / "report.json").read_text())

    global_vecs, local_vecs = read_features_csv(features)
    datasets = ml.assemble_feature_sets(global_vecs, local_vecs, read_labels_csv(labels))
    assert len(report["entries"]) == 24
    for entry in report["entries"]:
        # the whole entry: confusion, metrics, fold accuracies and mean, skipped folds, warnings, hyperparameters
        assert entry == ml.cross_validate(datasets[entry["feature_set"]], entry["classifier"], folds=4, seed=3)


def test_stages_do_not_depend_on_how_sum_rounds(tmp_path, monkeypatch, capsys):
    # the same four stages run twice, the second time with every termnet module's `sum` rounding floats
    # exactly, as the builtin does from Python 3.12 on; on this corpus, a builtin float sum in
    # `aggregate_ratings` (2 terms' std) or in `pool_folds` (3 entries' accuracy_fold_mean) changes a byte
    corpus = tmp_path / "corpus"
    assert run_cli("synth", "-o", corpus, "--terms", 20, "--records", 30, "--seed", 0) == 0
    stages = (
        ("networks", corpus / "records.jsonl", corpus / "terms.txt", "-o", "nets"),
        ("features", "nets", "-o", "features.csv"),
        ("rank", corpus / "ratings.csv", "-o", "labels.csv"),
        ("classify", "features.csv", "labels.csv", "-o", "cls", "--folds", 6),
    )

    def run(name):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        capsys.readouterr()
        for argv in stages:
            assert run_cli(*argv) == 0
        files = {p.relative_to(tmp_path / name): p.read_bytes() for p in (tmp_path / name).rglob("*") if p.is_file()}
        return capsys.readouterr(), files

    want = run("builtin")
    assert len(want[1]) > 50
    for module in [m for name, m in sys.modules.items() if name == "termnet" or name.startswith("termnet.")]:
        monkeypatch.setattr(module, "sum", oracles.compensated_sum, raising=False)
    assert run("compensated") == want


@pytest.fixture()
def big_nets(tmp_path, capsys):
    """Small synthetic networks plus one mention network of 900 nodes, so that one
    network's census outweighs all the others'."""
    corpus = tmp_path / "corpus"
    nets = tmp_path / "nets"
    run_cli("synth", "-o", corpus, "--terms", 3, "--records", 25, "--seed", 2)
    capsys.readouterr()
    records = parse_records((corpus / "records.jsonl").read_text()).records
    networks = build_corpus(records, read_terms_file(corpus / "terms.txt"))
    big = gen_random_digraph_m(900, 3000, seed=4)
    graphs = {kind: build_graph([]) for kind in InteractionKind}
    graphs[InteractionKind.MENTION] = build_graph((f"u{u}", f"u{v}") for u, v in big.sorted_edges())
    networks.append(TermNetworkSet(term="#big", graphs=graphs, matched_records=3000))
    write_networks(networks, nets, manifest_hash="c" * 64)
    assert max(ref.graph.node_count for ref in read_networks(nets)) >= 800
    return nets


def test_cli_features_byte_identical_across_workers(tmp_path, capsys, monkeypatch, big_nets):
    # --workers is still parsed but ignored: features forks per network on the usable cores, so the bytes
    # are the same at 1 and 2 usable cores, whatever --workers says
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    threads = threading.active_count()
    outputs = []
    for n in (1, 2):
        forks.clear()
        for workers in (1, 3):
            out = tmp_path / f"f{n}-{workers}.csv"
            with cores(n):
                assert run_cli("features", big_nets, "-o", out, "--workers", workers) == 0
            outputs.append((out.read_bytes(), json.loads((tmp_path / f"{out.name}.manifest.json").read_text())))
        assert len(forks) == 2 * (n - 1)  # one child per extra usable core, in each run
        capsys.readouterr()
        assert_no_child_is_left()
        assert threading.active_count() == threads
    assert outputs[0][0].count(b"\n") == 2 + 3 * 4
    assert all(output == outputs[0] for output in outputs)  # worker count must not enter the manifest
    assert outputs[0][1]["parameters"] == {} and len(outputs[0][1]["class_table_hash"]) == 64


@pytest.mark.parametrize("n", [1, 2])
def test_cli_features_names_the_first_listed_bad_network_and_writes_nothing(
    tmp_path, capsys, monkeypatch, corpus_dir, n
):
    # two edge files disagree with summary.csv; it lists them in the reverse of features.csv's order, and
    # the error names the one it lists first, as read_networks does.  The first failing item in summary
    # order is the one reported: a census that fails on a network listed before both bad files wins
    nets = tmp_path / "nets"
    records = parse_records((corpus_dir / "records.jsonl").read_text()).records
    rows = write_networks(build_corpus(records, read_terms_file(corpus_dir / "terms.txt")), nets, "f" * 64)
    rows.sort(key=lambda row: (row[0], pipeline.KINDS.index(row[1])), reverse=True)
    for row in rows[1], rows[-2]:
        row[3] += 1  # its edge count
    write_csv(nets / pipeline.SUMMARY_NAME, "f" * 64, pipeline.SUMMARY_COLUMNS, rows)
    with pytest.raises(InputError) as info:
        read_networks(nets)
    assert rows[1][-1] in str(info.value)
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "features.csv").write_bytes(b"an older features.csv\n")
    capsys.readouterr()
    with cores(n):
        assert run_cli("features", nets, "-o", outdir / "features.csv") == 1
    assert capsys.readouterr() == ("", f"error: {info.value}\n")
    first = pipeline.read_network(nets, rows[0]).graph

    def failing(graph):
        if graph == first:
            raise ValueError("the first listed census fails")
        return census(graph)

    monkeypatch.setattr(pipeline, "census", failing)
    with cores(n):
        assert run_cli("features", nets, "-o", outdir / "features.csv") == 2
    assert capsys.readouterr() == ("", "internal error: ValueError: the first listed census fails\n")
    assert os.listdir(outdir) == ["features.csv"]
    assert (outdir / "features.csv").read_bytes() == b"an older features.csv\n"
    assert_no_child_is_left()


def test_compute_features_holds_one_network_at_a_time(tmp_path):
    # at 1 usable core every network is computed in this process; 24 more networks must add less to its
    # memory peak than one network's graph does
    graph = build_graph(pair for t in range(1500) for pair in ((f"a{t}", f"b{t}"), (f"b{t}", f"a{t}")))
    assert graph.edge_count == 3000  # 1500 reciprocated pairs: many objects, and a census with nothing to count

    def networks(n):
        nets = tmp_path / f"nets{n}"
        nets.mkdir()
        rows = []
        for t in range(n):
            rows.append([f"t{t:02d}", "mention", graph.node_count, graph.edge_count, 3000, f"t{t:02d}.mention.edges.csv"])
            write_edge_csv(graph, nets / rows[-1][-1], "f" * 64)
        write_csv(nets / pipeline.SUMMARY_NAME, "f" * 64, pipeline.SUMMARY_COLUMNS, rows)
        return nets

    def peak(nets):
        tracemalloc.start()
        try:
            with cores(1):
                compute_features(nets, read_summary(nets))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = networks(8), networks(32)
    with cores(1):
        compute_features(few, read_summary(few))  # the census table and every other cache are built before measuring
    row = read_summary(few)[0]
    tracemalloc.start()
    try:
        one = pipeline.read_network(few, row)
        graph_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert one.graph == graph and graph_bytes > 500_000
    assert peak(many) - peak(few) < graph_bytes


def test_cli_features_has_no_block_options(tmp_path, capsys, corpus_dir):
    nets = tmp_path / "nets"
    assert run_cli("networks", corpus_dir / "records.jsonl", corpus_dir / "terms.txt", "-o", nets) == 0
    for option in ("--global", "--local"):
        assert run_cli("features", nets, "-o", tmp_path / "features.csv", option) == 1
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not (tmp_path / "features.csv").exists()


def test_cli_classify_has_no_swap_positive(tmp_path, capsys):
    # the controversial class is always the positive one
    out = tmp_path / "results"
    assert run_cli("classify", tmp_path / "f.csv", tmp_path / "l.csv", "-o", out, "--swap-positive") == 1
    assert "unrecognized arguments: --swap-positive" in capsys.readouterr().err
    assert not out.exists()


def test_cli_window_excludes_everything(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    nets = tmp_path / "nets"
    run_cli("synth", "-o", corpus, "--terms", 2, "--records", 10, "--seed", 1)
    rc = run_cli(
        "networks", corpus / "records.jsonl", corpus / "terms.txt", "-o", nets, "--from", "2030-01-01"
    )
    capsys.readouterr()
    assert rc == 0
    refs = read_networks(nets)
    assert all(r.graph.node_count == 0 and r.matched_records == 0 for r in refs)


def test_cli_networks_reports_first_malformed_lines_and_total(tmp_path, capsys):
    good = json.dumps({"post_id": "1", "author": "a", "text": "topic", "mentioned": ["b"], "timestamp": "2020-11-09T00:00:00Z"})
    records = tmp_path / "records.jsonl"
    records.write_text("\n".join(["junk"] * 21 + [good] * 189) + "\n", encoding="utf-8")  # 10 % malformed
    terms = tmp_path / "terms.txt"
    terms.write_text("topic\n", encoding="utf-8")
    assert run_cli("networks", records, terms, "-o", tmp_path / "nets") == 0
    warnings = capsys.readouterr().err.splitlines()
    assert warnings[:20] == [f"warning: {records}:{n}: invalid JSON: Expecting value" for n in range(1, 21)]
    assert warnings[20:] == [f"warning: {records}: 21 malformed lines skipped"]


def test_cli_networks_window_matches_per_term_scan(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    nets = tmp_path / "nets"
    run_cli("synth", "-o", corpus, "--terms", 8, "--records", 60, "--seed", 3)
    window = ("--from", "2020-11-15", "--to", "2020-11-30")
    assert run_cli("networks", corpus / "records.jsonl", corpus / "terms.txt", "-o", nets, *window) == 0
    capsys.readouterr()

    lines = (corpus / "records.jsonl").read_text().splitlines()
    records = parse_records(lines).records
    stamps = [parse_timestamp(json.loads(line)["timestamp"]) for line in lines]
    assert len(records) == len(stamps)
    lo, hi = parse_window_bound(window[1], end_of_day=False), parse_window_bound(window[3], end_of_day=True)
    kept = [r for r, stamp in zip(records, stamps) if lo <= stamp <= hi]
    assert 0 < len(kept) < len(records)
    want = tmp_path / "want"
    manifest_hash = json.loads((nets / "manifest.json").read_text())["manifest_sha256"]
    write_networks(oracles.scan_corpus(kept, read_terms_file(corpus / "terms.txt")), want, manifest_hash)
    names = sorted(os.listdir(want))
    assert sorted(os.listdir(nets)) == sorted(names + ["manifest.json"])
    for name in names:
        assert (nets / name).read_bytes() == (want / name).read_bytes(), name


def test_cli_classify_rejects_one_fold(tmp_path, capsys):
    rc = run_cli("classify", tmp_path / "f.csv", tmp_path / "l.csv", "-o", tmp_path / "out", "--folds", 1, "--manifest")
    assert rc == 1
    assert "--folds must be >= 2" in capsys.readouterr().err


def test_cli_manifest_dry_run(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    run_cli("synth", "-o", corpus, "--terms", 2, "--records", 5, "--seed", 0)
    capsys.readouterr()
    out = tmp_path / "never"
    rc = run_cli("networks", corpus / "records.jsonl", corpus / "terms.txt", "-o", out, "--manifest")
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["command"] == "networks"
    assert len(printed["manifest_sha256"]) == 64
    assert set(printed["input_hashes"]) == {"records", "terms"}
    assert not out.exists()  # dry run writes nothing


def test_cli_manifest_tracks_content_not_path(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_cli("synth", "-o", a, "--terms", 2, "--records", 5, "--seed", 0)
    run_cli("synth", "-o", b, "--terms", 2, "--records", 5, "--seed", 0)
    capsys.readouterr()
    run_cli("networks", a / "records.jsonl", a / "terms.txt", "-o", tmp_path / "oa", "--manifest")
    out_a = capsys.readouterr().out
    run_cli("networks", b / "records.jsonl", b / "terms.txt", "-o", tmp_path / "ob", "--manifest")
    out_b = capsys.readouterr().out
    assert json.loads(out_a) == json.loads(out_b)


def test_cli_classify_deterministic_bytes(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    nets = tmp_path / "nets"
    features = tmp_path / "features.csv"
    labels = tmp_path / "labels.csv"
    run_cli("synth", "-o", corpus, "--terms", 6, "--records", 30, "--seed", 8)
    run_cli("networks", corpus / "records.jsonl", corpus / "terms.txt", "-o", nets)
    run_cli("features", nets, "-o", features)
    run_cli("rank", corpus / "ratings.csv", "-o", labels)
    d1, d2 = tmp_path / "c1", tmp_path / "c2"
    assert run_cli("classify", features, labels, "-o", d1, "--folds", 3) == 0
    assert run_cli("classify", features, labels, "-o", d2, "--folds", 3) == 0
    capsys.readouterr()
    for name in sorted(os.listdir(d1)):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_cli_classify_leaves_no_thread_or_process(tmp_path, capsys, monkeypatch, corpus_dir):
    # at 2 usable cores classify forks a child for its training problems; it must
    # wait for that child and leave no thread behind
    nets, features, labels = tmp_path / "nets", tmp_path / "features.csv", tmp_path / "labels.csv"
    assert run_cli("networks", corpus_dir / "records.jsonl", corpus_dir / "terms.txt", "-o", nets) == 0
    assert run_cli("features", nets, "-o", features) == 0
    assert run_cli("rank", corpus_dir / "ratings.csv", "-o", labels) == 0
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(2))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    threads = threading.active_count()
    assert run_cli("classify", features, labels, "-o", tmp_path / "out", "--folds", 2) == 0
    capsys.readouterr()
    assert forks
    assert_no_child_is_left()
    assert threading.active_count() == threads


def test_cli_classify_bytes_do_not_depend_on_blas_threads(tmp_path, capsys):
    # at 100 terms the PCA's Gram matrix is large enough for a threaded
    # OpenBLAS to split its sums, which changed the last bits of pca-local-*
    corpus, nets = tmp_path / "corpus", tmp_path / "nets"
    features, labels = tmp_path / "features.csv", tmp_path / "labels.csv"
    run_cli("synth", "-o", corpus, "--terms", 100, "--records", 5, "--seed", 0)
    run_cli("networks", corpus / "records.jsonl", corpus / "terms.txt", "-o", nets)
    run_cli("features", nets, "-o", features)
    run_cli("rank", corpus / "ratings.csv", "-o", labels)
    capsys.readouterr()
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(termnet.__file__))
    runs = {}
    for threads in (None, "1", "2"):
        outdir = tmp_path / f"classify-{threads}"
        argv = [sys.executable, "-m", "termnet.cli", "classify", features, labels, "-o", outdir, "--folds", "2"]
        run_env = env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)
        runs[outdir] = subprocess.Popen([str(a) for a in argv], env=run_env, stdout=subprocess.DEVNULL)
    for outdir, proc in runs.items():
        assert proc.wait(timeout=120) == 0, outdir
    first, *others = runs
    names = sorted(os.listdir(first))
    assert any(name.startswith("pca-local-") for name in names)
    for outdir in others:
        assert sorted(os.listdir(outdir)) == names
        for name in names:
            assert (outdir / name).read_bytes() == (first / name).read_bytes(), (outdir.name, name)


def test_cli_features_manifest_hashes_only_listed_networks(tmp_path, capsys, corpus_dir):
    # a networks directory rewritten for fewer terms loses the old terms' files
    few_terms = tmp_path / "terms.txt"
    few_terms.write_text("\n".join(read_terms_file(corpus_dir / "terms.txt")[:3]) + "\n", encoding="utf-8")
    records = corpus_dir / "records.jsonl"
    stale, fresh = tmp_path / "stale", tmp_path / "fresh"
    assert run_cli("networks", records, corpus_dir / "terms.txt", "-o", stale) == 0
    assert run_cli("networks", records, few_terms, "-o", stale) == 0
    assert run_cli("networks", records, few_terms, "-o", fresh) == 0
    assert sorted(os.listdir(stale)) == sorted(os.listdir(fresh)) and len(os.listdir(fresh)) == 11
    # a CSV that summary.csv does not list is not hashed
    (stale / "stray.edges.csv").write_text("src_handle,dst_handle\na,b\n", encoding="utf-8")
    assert run_cli("features", stale, "-o", tmp_path / "stale.csv") == 0
    assert run_cli("features", fresh, "-o", tmp_path / "fresh.csv") == 0
    capsys.readouterr()
    assert (tmp_path / "stale.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    manifest = json.loads((tmp_path / "fresh.csv.manifest.json").read_text())
    assert manifest == json.loads((tmp_path / "stale.csv.manifest.json").read_text())
    # a fresh directory hashes every CSV in it, as it did before
    assert sorted(manifest["input_hashes"]) == sorted(f for f in os.listdir(fresh) if f.endswith(".csv"))


def test_write_networks_removes_only_the_listed_edge_files(tmp_path, corpus_dir):
    records = parse_records((corpus_dir / "records.jsonl").read_text()).records
    terms = read_terms_file(corpus_dir / "terms.txt")
    outdir = tmp_path / "nets"
    first = write_networks(build_corpus(records, terms), outdir, manifest_hash="a" * 64)
    (outdir / first[-1][-1]).unlink()  # a listed file that is already gone
    (outdir / "notes.edges.csv").write_text("not listed\n", encoding="utf-8")
    outside = tmp_path / "outside.edges.csv"
    outside.write_text("listed with a path\n", encoding="utf-8")
    summary = (outdir / "summary.csv").read_text(encoding="utf-8")
    before = set(os.listdir(outdir))
    for listed in (f"../{outside.name}", str(outside)):  # a path is no file name: nothing is removed
        (outdir / "summary.csv").write_text(summary + f"x,mention,0,0,0,{listed}\n", encoding="utf-8")
        with pytest.raises(InputError, match="column 'file'"):
            write_networks(build_corpus(records, terms[:3]), outdir, manifest_hash="b" * 64)
        assert set(os.listdir(outdir)) == before
    (outdir / "summary.csv").write_text(summary, encoding="utf-8")
    second = write_networks(build_corpus(records, terms[:3]), outdir, manifest_hash="b" * 64)
    assert len(first) == 18 and [row[-1] for row in second] == [row[-1] for row in first[:9]]
    assert set(os.listdir(outdir)) == {row[-1] for row in second} | {"summary.csv", "notes.edges.csv"}
    assert outside.read_text(encoding="utf-8") == "listed with a path\n"


@pytest.mark.parametrize("handle", ["# eve", "a\r", "x\r\ny"])
def test_cli_features_reads_back_every_handle(tmp_path, capsys, handle):
    stamp = "2020-11-09T00:00:00Z"
    records = tmp_path / "records.jsonl"
    records.write_text(
        json.dumps({"post_id": "1", "author": handle, "text": "topic", "mentioned": ["bob"], "timestamp": stamp})
        + "\n"
        + json.dumps({"post_id": "2", "author": "bob", "text": "topic", "mentioned": ["carol"], "timestamp": stamp})
        + "\n",
        encoding="utf-8",
    )
    terms = tmp_path / "terms.txt"
    terms.write_text("topic\n", encoding="utf-8")
    nets = tmp_path / "nets"
    assert run_cli("networks", records, terms, "-o", nets) == 0
    assert run_cli("features", nets, "-o", tmp_path / "features.csv") == 0
    assert capsys.readouterr().err == ""
    (mention,) = [ref.graph for ref in read_networks(nets) if ref.kind == "mention"]
    assert {(mention.handle(u), mention.handle(v)) for u, v in mention.edges} == {(handle, "bob"), ("bob", "carol")}


def test_cli_rank_rejects_ratings_without_rows(tmp_path, capsys):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("term,participant,score\n", encoding="utf-8")
    assert run_cli("rank", ratings, "-o", tmp_path / "labels.csv") == 1
    assert capsys.readouterr().err.splitlines() == [f"error: ratings file {ratings}: no ratings"]
    assert not (tmp_path / "labels.csv").exists()


def test_cli_classify_rejects_labels_without_terms(tmp_path, capsys, corpus_dir):
    nets, features, labels = tmp_path / "nets", tmp_path / "features.csv", tmp_path / "labels.csv"
    assert run_cli("networks", corpus_dir / "records.jsonl", corpus_dir / "terms.txt", "-o", nets) == 0
    assert run_cli("features", nets, "-o", features) == 0
    write_labels_csv(labels, [], [], manifest_hash="c" * 64)
    capsys.readouterr()
    assert run_cli("classify", features, labels, "-o", tmp_path / "cls", "--folds", 2) == 1
    assert capsys.readouterr().err.splitlines() == ["error: no labeled terms"]


def test_cli_classify_needs_both_blocks(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    nets = tmp_path / "nets"
    features = tmp_path / "features.csv"
    labels = tmp_path / "labels.csv"
    run_cli("synth", "-o", corpus, "--terms", 4, "--records", 20, "--seed", 3)
    run_cli("networks", corpus / "records.jsonl", corpus / "terms.txt", "-o", nets)
    assert run_cli("features", nets, "-o", features) == 0
    run_cli("rank", corpus / "ratings.csv", "-o", labels)
    # the census block (`total` onward) cut out of a full features file
    with open(features, encoding="utf-8", newline="") as fh:
        manifest_line = fh.readline()
        rows = list(csv.reader(fh))
    cut = rows[0].index("total")
    global_only = tmp_path / "global-only.csv"
    with open(global_only, "w", encoding="utf-8", newline="") as fh:
        fh.write(manifest_line)
        csv.writer(fh, lineterminator="\n").writerows(row[:cut] for row in rows)
    capsys.readouterr()
    rc = run_cli("classify", global_only, labels, "-o", tmp_path / "cls", "--folds", 2)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(global_only) in err


@pytest.mark.parametrize("error", [ValueError, KeyError, RuntimeError])
def test_cli_internal_error_is_exit_2(tmp_path, capsys, monkeypatch, error):
    corpus = tmp_path / "corpus"
    run_cli("synth", "-o", corpus, "--terms", 2, "--records", 5, "--seed", 0)
    capsys.readouterr()
    import termnet.cli as cli_mod

    def boom(*a, **kw):
        raise error("invariant violated")

    monkeypatch.setattr(cli_mod, "read_corpus", boom)
    rc = run_cli("networks", corpus / "records.jsonl", corpus / "terms.txt", "-o", tmp_path / "out")
    assert rc == 2
    assert capsys.readouterr().err == f"internal error: {error.__name__}: {error('invariant violated')}\n"


def test_cli_rank_threshold_flag(tmp_path, capsys):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("term,participant,score\nhot,p1,2\nhot,p2,2\nmild,p1,1\nmild,p2,1\n")
    labels = tmp_path / "labels.csv"
    assert run_cli("rank", ratings, "-o", labels, "--threshold", "1.5") == 0
    capsys.readouterr()
    got = {lab.term: lab.label for lab in read_labels_csv(labels)}
    assert got == {"hot": "controversial", "mild": "non-controversial"}


def test_cli_class_table(tmp_path, capsys):
    out = tmp_path / "classes.csv"
    assert run_cli("class-table", "-o", out) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("# ")]
    assert data[0] == "class_id,k,canonical_code_hex,edge_list"
    assert len(data) == 1 + 212
    assert (tmp_path / "classes.csv.manifest.json").exists()


def test_cli_writes_nothing_outside_its_outputs(tmp_path, capsys, monkeypatch, corpus_dir):
    nets = tmp_path / "nets"
    assert run_cli("networks", corpus_dir / "records.jsonl", corpus_dir / "terms.txt", "-o", nets) == 0
    home = tmp_path / "home"
    home.mkdir()
    # HOME is the only variable, so every default location a stage could write to is inside it
    monkeypatch.setattr(os, "environ", {"HOME": str(home)})
    get_class_table.cache_clear()  # build the table in this process, as a fresh CLI run does
    assert run_cli("class-table", "-o", tmp_path / "classes.csv") == 0
    assert run_cli("features", nets, "-o", tmp_path / "features.csv") == 0
    capsys.readouterr()
    assert list(home.iterdir()) == []


def test_cli_synth_rejects_bad_params(tmp_path, capsys):
    assert run_cli("synth", "-o", tmp_path / "x", "--terms", 0) == 1
    assert "error" in capsys.readouterr().err


def test_compute_features_order(tmp_path, corpus_dir):
    records = parse_records((corpus_dir / "records.jsonl").read_text()).records
    corpus = build_corpus(records, read_terms_file(corpus_dir / "terms.txt"))
    outdir = tmp_path / "nets"
    write_networks(corpus, outdir, manifest_hash="b" * 64)
    rows = list(csv.reader(compute_features(outdir, read_summary(outdir))))
    keys = [(row[0], row[1]) for row in rows]
    terms = sorted({row[0] for row in rows})
    assert keys == [(t, k) for t in terms for k in ("mention", "reply", "quote")]
