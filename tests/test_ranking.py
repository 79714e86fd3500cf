import math
import random

import pytest

from termnet import ranking
from termnet.cli import main
from termnet.manifest import InputError, read_table
from termnet.ranking import (
    CONTROVERSIAL,
    LABELS_COLUMNS,
    NON_CONTROVERSIAL,
    aggregate_ratings,
    partition_terms,
    read_labels_csv,
    read_ratings_csv,
    write_labels_csv,
)

from oracles import LIKERT_NAMES, compensated_sum, label_distribution


def rows_for(term, scores):
    return [[term, f"p{i}", s] for i, s in enumerate(scores)]


def test_std_does_not_depend_on_how_sum_rounds(monkeypatch):
    # squared deviations 2.5600000000000005 and 4 x 0.15999999999999992: a left fold and an exact
    # sum round them to different variances, so std must not come from the version's builtin sum
    rows = rows_for("x", [0, 2, 2, 2, 2])
    (want,) = aggregate_ratings(rows)
    assert want == ["x", 1.6, 0.8000000000000002, 8]
    monkeypatch.setattr(ranking, "sum", compensated_sum, raising=False)
    assert aggregate_ratings(rows) == [want]


def test_aggregate_example():
    aggs = aggregate_ratings(rows_for("x", [0, 1, 2, 1, 0]))
    ((term, mean, std, total),) = aggs
    assert term == "x"
    assert total == 4
    assert mean == pytest.approx(0.8)
    assert std == pytest.approx(math.sqrt(0.56))


def test_aggregate_constant_scores():
    assert aggregate_ratings(rows_for("y", [4, 4, 4, 4, 4])) == [["y", 4.0, 0.0, 20]]


def test_aggregate_sorts_by_mean_then_term():
    rows = rows_for("low", [0, 1]) + rows_for("high", [2, 2]) + rows_for("alpha", [1, 1]) + rows_for("beta", [1, 1])
    aggs = aggregate_ratings(rows)
    assert [a[0] for a in aggs] == ["high", "alpha", "beta", "low"]


def test_ratings_reader_rejects_duplicates_and_bad_scores(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("term,participant,score\nt,p,2\nt,p,3\n")
    with pytest.raises(InputError) as info:
        read_ratings_csv(path)
    assert str(info.value) == f"{path}: duplicate row ['t', 'p']"
    for score in (5, -1):
        path.write_text(f"term,participant,score\nt,p,{score}\n")
        with pytest.raises(InputError) as info:
            read_ratings_csv(path)
        assert str(info.value) == f"{path}: bad row ['t', 'p']: column 'score': score {score} outside 0..4"


def test_aggregate_shuffle_invariant():
    rows = rows_for("a", [0, 2, 4]) + rows_for("b", [1, 1, 3])
    shuffled = rows[:]
    random.Random(5).shuffle(shuffled)
    assert aggregate_ratings(rows) == aggregate_ratings(shuffled)


def test_shift_property():
    rows = rows_for("a", [0, 1, 2]) + rows_for("b", [1, 2, 3])
    shifted = [[term, participant, score + 1] for term, participant, score in rows]
    base = aggregate_ratings(rows)
    moved = aggregate_ratings(shifted)
    assert [a[0] for a in base] == [b[0] for b in moved]
    for (_, mean, std, _), (_, moved_mean, moved_std, _) in zip(base, moved):
        assert moved_mean == pytest.approx(mean + 1)
        assert moved_std == pytest.approx(std)


def test_partition_strict_threshold():
    rows = rows_for("a", [0, 1, 1, 1, 1]) + rows_for("b", [1, 1, 1, 1, 0]) + rows_for("c", [1, 1, 1, 1, 1])
    aggs = aggregate_ratings(rows)
    by_term = {row[0]: row[-1] for row in partition_terms(aggs, 0.95)}
    # means: a 0.8, b 0.8, c 1.0; only c exceeds 0.95
    assert by_term == {"a": NON_CONTROVERSIAL, "b": NON_CONTROVERSIAL, "c": CONTROVERSIAL}


def test_partition_exact_threshold_is_non_controversial():
    aggs = aggregate_ratings(rows_for("edge", [1, 1, 1, 1, 0]))  # mean 0.8
    assert partition_terms(aggs, 0.8)[0][-1] == NON_CONTROVERSIAL


def test_partition_exhaustive_exclusive():
    rows = []
    for i in range(30):
        rows += rows_for(f"t{i:02d}", [i % 5, (i * 3) % 5, 1])
    labels = partition_terms(aggregate_ratings(rows), 0.95)
    assert len(labels) == 30
    n_pos = sum(1 for row in labels if row[-1] == CONTROVERSIAL)
    n_neg = sum(1 for row in labels if row[-1] == NON_CONTROVERSIAL)
    assert n_pos + n_neg == 30


def test_partition_all_zero():
    rows = rows_for("a", [0, 0]) + rows_for("b", [0, 0])
    labels = partition_terms(aggregate_ratings(rows), 0.95)
    assert all(row[-1] == NON_CONTROVERSIAL for row in labels)


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
    assert rows[0] == ["#tag1", "p1", 3]
    assert rows[1][0] == "словарь"

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
    labels = partition_terms(aggregate_ratings(rows), 0.95)
    path = tmp_path / "labels.csv"
    write_labels_csv(path, labels, manifest_hash="beef")
    text = path.read_text()
    assert text.startswith("# manifest_sha256=beef\nterm,mean,std,total,label\n")
    back = read_labels_csv(path)
    assert list(back.items()) == [(row[0], row[-1]) for row in labels]
    assert read_table(path, LABELS_COLUMNS, "labels", key=1) == labels


def test_labels_reader_keeps_file_order(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "# manifest_sha256=0\nterm,mean,std,total,label\n"
        "zeta,0.5,0.5,1,non-controversial\nalpha,2.0,0.0,4,controversial\nmid,1.0,0.0,2,controversial\n"
    )
    assert list(read_labels_csv(path).items()) == [
        ("zeta", NON_CONTROVERSIAL),
        ("alpha", CONTROVERSIAL),
        ("mid", CONTROVERSIAL),
    ]


def test_rank_writes_the_rows_the_library_builds(tmp_path, capsys):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text(
        "term,participant,score\nmild,p1,0\n#hot,p1,4\nmild,p2,2\n#hot,p2,3\nedge,p1,1\nedge,p2,1\n"
    )
    labels = tmp_path / "labels.csv"
    assert main(["rank", str(ratings), "-o", str(labels), "--threshold", "1.0"]) == 0
    assert capsys.readouterr().out == "labeled 3 terms: 1 controversial, 2 non-controversial\n"
    want = partition_terms(aggregate_ratings(read_ratings_csv(ratings)), 1.0)
    assert read_table(labels, LABELS_COLUMNS, "labels", key=1) == want
    assert want == [
        ["#hot", 3.5, 0.5, 7, CONTROVERSIAL],
        ["edge", 1.0, 0.0, 2, NON_CONTROVERSIAL],
        ["mild", 1.0, 1.0, 2, NON_CONTROVERSIAL],
    ]
