import json

import numpy as np
import pytest

from oracles import gen_random_digraph, gen_random_digraph_m, term_matches
from termnet.ingest import build_corpus, parse_records, parse_timestamp, read_terms_file
from termnet.ranking import (
    CONTROVERSIAL,
    NON_CONTROVERSIAL,
    aggregate_ratings,
    partition_terms,
    read_ratings_csv,
)
from termnet.synth import SynthSpec, generate_corpus, write_corpus


def test_gen_random_digraph_bounds():
    g = gen_random_digraph(10, 0.0, seed=1)
    assert g.node_count == 10 and g.edge_count == 0
    g = gen_random_digraph(5, 1.0, seed=1)
    assert g.edge_count == 20  # all ordered pairs
    assert all(u != v for u, v in g.edges)
    with pytest.raises(ValueError):
        gen_random_digraph(5, 1.5, seed=0)
    with pytest.raises(ValueError):
        gen_random_digraph(-1, 0.5, seed=0)


def test_gen_random_digraph_edge_count_concentrates():
    n, p = 60, 0.2
    g = gen_random_digraph(n, p, seed=99)
    mean = p * n * (n - 1)
    sd = (n * (n - 1) * p * (1 - p)) ** 0.5
    assert abs(g.edge_count - mean) < 4 * sd


def test_gen_random_digraph_deterministic():
    a = gen_random_digraph(20, 0.3, seed=7)
    b = gen_random_digraph(20, 0.3, seed=7)
    assert a.edges == b.edges
    c = gen_random_digraph(20, 0.3, seed=8)
    assert a.edges != c.edges


def test_gen_random_digraph_m_exact():
    for m in (0, 1, 17, 90):
        g = gen_random_digraph_m(10, m, seed=m)
        assert g.edge_count == m
        assert g.node_count == 10
        assert all(u != v for u, v in g.edges)
    with pytest.raises(ValueError):
        gen_random_digraph_m(10, 91, seed=0)


def test_synth_spec_rejects_bad_params():
    with pytest.raises(ValueError):
        SynthSpec(n_terms=0)
    with pytest.raises(ValueError):
        SynthSpec(n_terms=1000)
    with pytest.raises(ValueError):
        SynthSpec(records_per_term=0)
    with pytest.raises(ValueError):
        SynthSpec(signal=1.0001)


def test_corpus_byte_deterministic():
    a = generate_corpus(SynthSpec(n_terms=6, records_per_term=20, seed=5, signal=0.7))
    b = generate_corpus(SynthSpec(n_terms=6, records_per_term=20, seed=5, signal=0.7))
    assert a == b
    c = generate_corpus(SynthSpec(n_terms=6, records_per_term=20, seed=6, signal=0.7))
    assert a.records_jsonl != c.records_jsonl


def test_corpus_term_surfaces():
    corpus = generate_corpus(SynthSpec(n_terms=7, records_per_term=1, seed=0))
    terms = corpus.terms_txt.splitlines()
    assert terms == ["#term000", "term001", "term002", "#term003", "term004", "term005", "#term006"]


def test_corpus_parses_cleanly():
    spec = SynthSpec(n_terms=4, records_per_term=30, seed=2)
    corpus = generate_corpus(spec)
    result = parse_records(corpus.records_jsonl)
    assert result.failures == []
    assert len(result.records) == 4 * 30
    # authors never target themselves
    for rec in result.records:
        assert rec.author not in rec.mentioned
        assert rec.reply_to_author != rec.author
        assert rec.quoted_author != rec.author


def test_corpus_records_match_their_own_term_only():
    spec = SynthSpec(n_terms=6, records_per_term=10, seed=3)
    corpus = generate_corpus(spec)
    records = parse_records(corpus.records_jsonl).records
    terms = corpus.terms_txt.splitlines()
    for term in terms:
        matching = [r for r in records if term_matches(r.text, term)]
        assert len(matching) == 10
        assert all(r.text.startswith(f"{term} take ") for r in matching)


def test_ratings_recover_ground_truth_exactly(tmp_path):
    spec = SynthSpec(n_terms=21, records_per_term=1, seed=11)
    paths = write_corpus(spec, tmp_path)
    rows = read_ratings_csv(paths["ratings.csv"])
    labels = partition_terms(aggregate_ratings(rows))
    got = {lab.term: lab.label for lab in labels}
    truth = {}
    for line in (tmp_path / "ground_truth.csv").read_text().splitlines()[1:]:
        term, label = line.split(",")
        truth[term] = label
    assert got == truth
    n_contr = sum(1 for v in truth.values() if v == CONTROVERSIAL)
    assert n_contr == 11  # even indices of 21
    assert sum(1 for v in truth.values() if v == NON_CONTROVERSIAL) == 10


def test_rating_score_regimes():
    corpus = generate_corpus(SynthSpec(n_terms=10, records_per_term=1, seed=4))
    by_term: dict[str, list[int]] = {}
    for line in corpus.ratings_csv.splitlines()[1:]:
        term, _, score = line.rsplit(",", 2)
        by_term.setdefault(term, []).append(int(score))
    for i, (term, scores) in enumerate(sorted(by_term.items(), key=lambda kv: kv[0].lstrip("#"))):
        assert len(scores) == 5
        if i % 2 == 0:
            assert min(scores) >= 2  # mean >= 2 > 0.95
        else:
            assert sum(scores) <= 2  # mean <= 0.4 < 0.95


def test_corpus_round_trips_through_ingest(tmp_path):
    spec = SynthSpec(n_terms=3, records_per_term=40, seed=9)
    paths = write_corpus(spec, tmp_path)
    terms = read_terms_file(paths["terms.txt"])
    records = parse_records((tmp_path / "records.jsonl").read_text()).records
    corpus = build_corpus(records, terms)
    assert [ts.term for ts in corpus] == terms
    for ts in corpus:
        assert ts.matched_records == 40
        assert all(g.node_count > 0 for g in ts.graphs.values())


def test_signal_separates_hub_usage():
    # signal=1: controversial terms route essentially every event through the
    # three hubs; non-controversial terms stay inside the 12-user community
    corpus = generate_corpus(SynthSpec(n_terms=2, records_per_term=80, seed=13, signal=1.0))
    records = parse_records(corpus.records_jsonl).records
    contr_term, non_term = corpus.terms_txt.split()
    contr = [r for r in records if r.text.startswith(f"{contr_term} take ")]
    non = [r for r in records if r.text.startswith(f"{non_term} take ")]
    assert len(contr) == len(non) == 80
    hub_names = {f"u{i:03d}x{j:02d}" for i in (0, 1) for j in range(3)}
    contr_targets = [m for r in contr for m in r.mentioned]
    non_targets = [m for r in non for m in r.mentioned]
    assert contr_targets and all(t in hub_names for t in contr_targets)
    assert non_targets and all(t not in hub_names for t in non_targets)


def test_zero_signal_mixes_regimes():
    corpus = generate_corpus(SynthSpec(n_terms=2, records_per_term=200, seed=17, signal=0.0))
    records = parse_records(corpus.records_jsonl).records
    for i, term in enumerate(corpus.terms_txt.split()):
        subset = [r for r in records if r.text.startswith(f"{term} take ")]
        assert len(subset) == 200
        hub_names = {f"u{i:03d}x{j:02d}" for j in range(3)}
        hub_hits = sum(1 for r in subset for m in r.mentioned if m in hub_names)
        total = sum(len(r.mentioned) for r in subset)
        assert 0.25 < hub_hits / total < 0.75  # q_hub = 0.5 either way


def test_write_corpus_files(tmp_path):
    paths = write_corpus(SynthSpec(n_terms=2, records_per_term=3, seed=1), tmp_path / "out")
    assert set(paths) == {"records.jsonl", "terms.txt", "ratings.csv", "ground_truth.csv"}
    for p in paths.values():
        assert (len(open(p, "rb").read())) > 0


def test_timestamps_inside_window():
    corpus = generate_corpus(SynthSpec(n_terms=2, records_per_term=50, seed=8))
    lines = corpus.records_jsonl.splitlines()
    assert len(parse_records(lines).records) == len(lines)
    stamps = sorted(parse_timestamp(json.loads(line)["timestamp"]) for line in lines)
    assert stamps[0].isoformat() >= "2020-11-09T00:00:00+00:00"
    assert stamps[-1].isoformat() < "2020-12-08T00:00:00+00:00"
