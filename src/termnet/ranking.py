"""Likert rating aggregation and the controversial / non-controversial split.

Scores are integers 0..4.  Per-term aggregates carry total, mean and the
population standard deviation; terms rank by descending mean.  A term is
controversial when its mean strictly exceeds the threshold (default 0.95).
"""

from __future__ import annotations

import math

from .manifest import InputError, count, finite, one_of, read_table, write_csv

__all__ = [
    "CONTROVERSIAL",
    "DEFAULT_THRESHOLD",
    "LABELS_COLUMNS",
    "NON_CONTROVERSIAL",
    "RATINGS_COLUMNS",
    "aggregate_ratings",
    "partition_terms",
    "read_ratings_csv",
    "read_labels_csv",
    "write_labels_csv",
]

CONTROVERSIAL = "controversial"
NON_CONTROVERSIAL = "non-controversial"
DEFAULT_THRESHOLD = 0.95


def _score(cell: str) -> int:
    if not 0 <= (value := count(cell)) <= 4:
        raise ValueError(f"score {value} outside 0..4")
    return value


RATINGS_COLUMNS = dict(term=str, participant=str, score=_score)
LABELS_COLUMNS = dict(
    term=str, mean=finite, std=finite, total=count, label=one_of(CONTROVERSIAL, NON_CONTROVERSIAL)
)


def aggregate_ratings(rows: list[list]) -> list[list]:
    """One `[term, mean, std, total]` per term of the `[term, participant, score]` rows, sorted by
    descending mean then ascending term.  std is the population standard deviation."""
    scores: dict[str, list[int]] = {}
    for term, _, score in rows:
        scores.setdefault(term, []).append(score)

    aggs = []
    for term, vals in scores.items():
        n = len(vals)
        total = sum(vals)
        mean = total / n
        squares = 0.0  # a left fold: from 3.12 on, the builtin sum of floats rounds differently
        for v in vals:
            squares += (v - mean) ** 2
        aggs.append([term, mean, math.sqrt(squares / n), total])
    aggs.sort(key=lambda a: (-a[1], a[0]))
    return aggs


def partition_terms(aggs: list[list], threshold: float = DEFAULT_THRESHOLD) -> list[list]:
    """Each aggregate with its label appended, a `LABELS_COLUMNS` row; controversial iff mean > threshold
    (strict)."""
    if not math.isfinite(threshold) or threshold < 0:
        raise InputError(f"threshold must be finite and >= 0, got {threshold}")
    return [[*a, CONTROVERSIAL if a[1] > threshold else NON_CONTROVERSIAL] for a in aggs]


def read_ratings_csv(path) -> list[list]:
    """The `[term, participant, score]` rows; a score outside 0..4 or a repeated (term, participant) pair
    is an InputError naming the file."""
    rows = read_table(path, RATINGS_COLUMNS, "ratings", key=2)
    if not rows:
        raise InputError(f"ratings file {path}: no ratings")
    return rows


def write_labels_csv(path, rows: list[list], manifest_hash: str) -> None:
    """The `partition_terms` rows, `term,mean,std,total,label`, in the given order."""
    write_csv(path, manifest_hash, LABELS_COLUMNS, rows)


def read_labels_csv(path) -> dict[str, str]:
    """`{term: label}` in file order."""
    return {row[0]: row[-1] for row in read_table(path, LABELS_COLUMNS, "labels", key=1)}
