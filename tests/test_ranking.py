import math
import random

import pytest

from termnet import ranking
from termnet.manifest import InputError
from termnet.ranking import (
    CONTROVERSIAL,
    NON_CONTROVERSIAL,
    RatingRow,
    aggregate_ratings,
    partition_terms,
    read_labels_csv,
    read_ratings_csv,
    write_labels_csv,
)

from oracles import LIKERT_NAMES, compensated_sum, label_distribution


def rows_for(term, scores):
    return [RatingRow(term=term, participant=f"p{i}", score=s) for i, s in enumerate(scores)]


def test_std_does_not_depend_on_how_sum_rounds(monkeypatch):
    # squared deviations 2.5600000000000005 and 4 x 0.15999999999999992: a left fold and an exact
    # sum round them to different variances, so std must not come from the version's builtin sum
    rows = rows_for("x", [0, 2, 2, 2, 2])
    (want,) = aggregate_ratings(rows)
    assert (want.total, want.mean, want.std) == (8, 1.6, 0.8000000000000002)
    monkeypatch.setattr(ranking, "sum", compensated_sum, raising=False)
    assert aggregate_ratings(rows) == [want]


def test_aggregate_example():
    aggs = aggregate_ratings(rows_for("x", [0, 1, 2, 1, 0]))
    (a,) = aggs
    assert a.total == 4
    assert a.mean == pytest.approx(0.8)
    assert a.std == pytest.approx(math.sqrt(0.56))
    assert a.n_raters == 5


def test_aggregate_constant_scores():
    (a,) = aggregate_ratings(rows_for("y", [4, 4, 4, 4, 4]))
    assert a.total == 20
    assert a.mean == 4.0
    assert a.std == 0.0


def test_aggregate_sorts_by_mean_then_term():
    rows = rows_for("low", [0, 1]) + rows_for("high", [2, 2]) + rows_for("alpha", [1, 1]) + rows_for("beta", [1, 1])
    aggs = aggregate_ratings(rows)
    assert [a.term for a in aggs] == ["high", "alpha", "beta", "low"]


def test_aggregate_rejects_duplicates_and_bad_scores():
    with pytest.raises(InputError):
        aggregate_ratings([RatingRow("t", "p", 2), RatingRow("t", "p", 3)])
    with pytest.raises(InputError):
        aggregate_ratings([RatingRow("t", "p", 5)])
    with pytest.raises(InputError):
        aggregate_ratings([RatingRow("t", "p", -1)])


def test_aggregate_shuffle_invariant():
    rows = rows_for("a", [0, 2, 4]) + rows_for("b", [1, 1, 3])
    shuffled = rows[:]
    random.Random(5).shuffle(shuffled)
    assert aggregate_ratings(rows) == aggregate_ratings(shuffled)


def test_shift_property():
    rows = rows_for("a", [0, 1, 2]) + rows_for("b", [1, 2, 3])
    shifted = [RatingRow(r.term, r.participant, r.score + 1) for r in rows]
    base = aggregate_ratings(rows)
    moved = aggregate_ratings(shifted)
    assert [a.term for a in base] == [a.term for a in moved]
    for a, b in zip(base, moved):
        assert b.mean == pytest.approx(a.mean + 1)
        assert b.std == pytest.approx(a.std)


def test_partition_strict_threshold():
    rows = rows_for("a", [0, 1, 1, 1, 1]) + rows_for("b", [1, 1, 1, 1, 0]) + rows_for("c", [1, 1, 1, 1, 1])
    aggs = aggregate_ratings(rows)
    by_term = {lab.term: lab.label for lab in partition_terms(aggs, 0.95)}
    # means: a 0.8, b 0.8, c 1.0; only c exceeds 0.95
    assert by_term == {"a": NON_CONTROVERSIAL, "b": NON_CONTROVERSIAL, "c": CONTROVERSIAL}


def test_partition_exact_threshold_is_non_controversial():
    aggs = aggregate_ratings(rows_for("edge", [1, 1, 1, 1, 0]))  # mean 0.8
    assert partition_terms(aggs, 0.8)[0].label == NON_CONTROVERSIAL


def test_partition_exhaustive_exclusive():
    rows = []
    for i in range(30):
        rows += rows_for(f"t{i:02d}", [i % 5, (i * 3) % 5, 1])
    labels = partition_terms(aggregate_ratings(rows), 0.95)
    assert len(labels) == 30
    n_pos = sum(1 for lab in labels if lab.label == CONTROVERSIAL)
    n_neg = sum(1 for lab in labels if lab.label == NON_CONTROVERSIAL)
    assert n_pos + n_neg == 30


def test_partition_all_zero():
    rows = rows_for("a", [0, 0]) + rows_for("b", [0, 0])
    labels = partition_terms(aggregate_ratings(rows), 0.95)
    assert all(lab.label == NON_CONTROVERSIAL for lab in labels)


def test_partition_rejects_negative_threshold():
    for threshold in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            partition_terms([], threshold)


def test_label_distribution_examples():
    dist = label_distribution(rows_for("t", [0, 0, 4]))
    assert dist["Neutral"] == pytest.approx(200 / 3)
    assert dist["Highly Controversial"] == pytest.approx(100 / 3)
    assert dist["Somewhat Controversial"] == 0.0
    assert sum(dist.values()) == pytest.approx(100.0, abs=1e-9)

    dist2 = label_distribution(rows_for("t", [2]))
    assert dist2["Controversial"] == 100.0

    with pytest.raises(InputError):
        label_distribution([])


def test_likert_names():
    assert LIKERT_NAMES == (
        "Neutral",
        "Somewhat Controversial",
        "Controversial",
        "Very Controversial",
        "Highly Controversial",
    )


def test_ratings_csv_reader(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("term,participant,score\n#tag1,p1,3\nсловарь,p1,0\n", encoding="utf-8")
    rows = read_ratings_csv(path)
    assert rows[0] == RatingRow("#tag1", "p1", 3)
    assert rows[1].term == "словарь"

    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n")
    with pytest.raises(InputError):
        read_ratings_csv(bad)

    nonint = tmp_path / "nonint.csv"
    nonint.write_text("term,participant,score\nt,p,high\n")
    with pytest.raises(InputError):
        read_ratings_csv(nonint)


def test_labels_csv_round_trip(tmp_path):
    rows = rows_for("#hot", [2, 3, 4]) + rows_for("mild", [0, 1, 0])
    aggs = aggregate_ratings(rows)
    labels = partition_terms(aggs, 0.95)
    path = tmp_path / "labels.csv"
    write_labels_csv(path, labels, aggs, manifest_hash="beef")
    text = path.read_text()
    assert text.startswith("# manifest_sha256=beef\nterm,mean,std,total,label\n")
    back = read_labels_csv(path)
    assert [(lab.term, lab.label) for lab in back] == [(lab.term, lab.label) for lab in labels]
    assert back[0].mean == labels[0].mean
