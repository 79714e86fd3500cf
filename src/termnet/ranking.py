"""Likert rating aggregation and the controversial / non-controversial split.

Scores are integers 0..4.  Per-term aggregates carry total, mean and the
population standard deviation; terms rank by descending mean.  A term is
controversial when its mean strictly exceeds the threshold (default 0.95).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .manifest import InputError, count, finite, one_of, read_table, write_csv

__all__ = [
    "CONTROVERSIAL",
    "DEFAULT_THRESHOLD",
    "LABELS_COLUMNS",
    "LIKERT_NAMES",
    "NON_CONTROVERSIAL",
    "RATINGS_COLUMNS",
    "RatingAggregate",
    "RatingRow",
    "TermLabel",
    "aggregate_ratings",
    "label_distribution",
    "partition_terms",
    "read_ratings_csv",
    "read_labels_csv",
    "write_labels_csv",
]

LIKERT_NAMES = (
    "Neutral",
    "Somewhat Controversial",
    "Controversial",
    "Very Controversial",
    "Highly Controversial",
)

CONTROVERSIAL = "controversial"
NON_CONTROVERSIAL = "non-controversial"
DEFAULT_THRESHOLD = 0.95

RATINGS_COLUMNS = dict(term=str, participant=str, score=count)
LABELS_COLUMNS = dict(
    term=str, mean=finite, std=finite, total=count, label=one_of(CONTROVERSIAL, NON_CONTROVERSIAL)
)


@dataclass(frozen=True)
class RatingRow:
    term: str
    participant: str
    score: int


@dataclass(frozen=True)
class RatingAggregate:
    term: str
    total: int
    mean: float
    std: float
    n_raters: int


@dataclass(frozen=True)
class TermLabel:
    term: str
    label: str
    mean: float


def aggregate_ratings(rows: list[RatingRow]) -> list[RatingAggregate]:
    """One aggregate per term, sorted by descending mean then ascending term.

    Rejects scores outside 0..4 and duplicate (term, participant) pairs.
    std is the population standard deviation.
    """
    seen: set[tuple[str, str]] = set()
    scores: dict[str, list[int]] = {}
    for row in rows:
        if not 0 <= row.score <= 4:
            raise InputError(f"score {row.score} for term {row.term!r} outside 0..4")
        key = (row.term, row.participant)
        if key in seen:
            raise InputError(f"duplicate rating: term {row.term!r}, participant {row.participant!r}")
        seen.add(key)
        scores.setdefault(row.term, []).append(row.score)

    aggs = []
    for term, vals in scores.items():
        n = len(vals)
        total = sum(vals)
        mean = total / n
        var = sum((v - mean) ** 2 for v in vals) / n
        aggs.append(RatingAggregate(term=term, total=total, mean=mean, std=math.sqrt(var), n_raters=n))
    aggs.sort(key=lambda a: (-a.mean, a.term))
    return aggs


def partition_terms(aggs: list[RatingAggregate], threshold: float = DEFAULT_THRESHOLD) -> list[TermLabel]:
    """Label each aggregate; controversial iff mean > threshold (strict)."""
    if not math.isfinite(threshold) or threshold < 0:
        raise InputError(f"threshold must be finite and >= 0, got {threshold}")
    return [
        TermLabel(
            term=a.term,
            label=CONTROVERSIAL if a.mean > threshold else NON_CONTROVERSIAL,
            mean=a.mean,
        )
        for a in aggs
    ]


def label_distribution(rows: list[RatingRow]) -> dict[str, float]:
    """Percentage of all ratings at each Likert level, keyed by level name."""
    if not rows:
        raise InputError("label_distribution requires at least one rating")
    counts = [0] * 5
    for row in rows:
        if not 0 <= row.score <= 4:
            raise InputError(f"score {row.score} outside 0..4")
        counts[row.score] += 1
    n = len(rows)
    return {LIKERT_NAMES[i]: 100.0 * counts[i] / n for i in range(5)}


def read_ratings_csv(path) -> list[RatingRow]:
    rows = [RatingRow(*rec) for rec in read_table(path, RATINGS_COLUMNS, "ratings", key=2)]
    if not rows:
        raise InputError(f"ratings file {path}: no ratings")
    return rows


def write_labels_csv(path, labels: list[TermLabel], aggs: list[RatingAggregate], manifest_hash: str) -> None:
    """`term,mean,std,total,label` rows in the given label order."""
    by_term = {a.term: a for a in aggs}
    rows = []
    for lab in labels:
        agg = by_term[lab.term]
        rows.append([lab.term, agg.mean, agg.std, agg.total, lab.label])
    write_csv(path, manifest_hash, LABELS_COLUMNS, rows)


def read_labels_csv(path) -> list[TermLabel]:
    rows = read_table(path, LABELS_COLUMNS, "labels", key=1)
    return [TermLabel(term=term, label=label, mean=mean) for term, mean, _, _, label in rows]
