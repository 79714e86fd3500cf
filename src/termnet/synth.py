"""Deterministic synthetic corpora for tests and end-to-end experiments.

The corpus generator plants two structural regimes.  "Hub" terms funnel
interactions into a handful of high in-degree accounts that never respond, so
their networks are star-like with near-zero reciprocity.  "Community" terms
draw interacting triples from a small pool, which accumulates mutual edges
and closed 2-paths.  The `signal` knob mixes the two: at signal=1 planted
controversial terms are purely hub-style and non-controversial ones purely
community-style; at signal=0 both classes sample the same 50/50 mixture and
carry no structural label information.  Ratings encode the planted label so
the ranking stage reconstructs it exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .manifest import InputError
from .ranking import RATINGS_COLUMNS

__all__ = [
    "SynthCorpus",
    "SynthSpec",
    "generate_corpus",
    "write_corpus",
]

_WINDOW_START = datetime(2020, 11, 9, tzinfo=timezone.utc)
_WINDOW_SECONDS = 29 * 86400

_POOL = 40  # users per term
_HUBS = 3
_COMMUNITY = 12  # community users are users[_HUBS : _HUBS + _COMMUNITY]

_P_MENTION = 0.8
_P_SECOND_HUB = 0.3
_P_REPLY = 0.55
_P_QUOTE = 0.45


@dataclass(frozen=True)
class SynthSpec:
    n_terms: int = 60
    records_per_term: int = 150
    seed: int = 0
    signal: float = 1.0

    def __post_init__(self):
        if self.n_terms < 1 or self.n_terms > 999:
            raise InputError("n_terms must be in 1..999")
        if self.records_per_term < 1:
            raise InputError("records_per_term must be >= 1")
        if not 0.0 <= self.signal <= 1.0:
            raise InputError("signal must be in [0,1]")
        if self.seed < 0:
            raise InputError("seed must be >= 0")


@dataclass(frozen=True)
class SynthCorpus:
    records_jsonl: str
    terms_txt: str
    ratings_csv: str
    ground_truth_csv: str


def _term_surface(i: int) -> str:
    # every third term is a hashtag so both matchers get exercised
    name = f"term{i:03d}"
    return f"#{name}" if i % 3 == 0 else name


def _controversial(i: int) -> bool:
    return i % 2 == 0


def generate_corpus(spec: SynthSpec) -> SynthCorpus:
    """Build the four corpus files in memory; byte-identical under one spec."""
    master = np.random.SeedSequence(spec.seed)
    term_seeds = master.spawn(spec.n_terms)

    record_lines: list[str] = []
    term_lines: list[str] = []
    rating_lines: list[str] = [",".join(RATINGS_COLUMNS)]
    truth_lines: list[str] = ["term,label"]

    for i in range(spec.n_terms):
        surface = _term_surface(i)
        controversial = _controversial(i)
        rng = np.random.default_rng(term_seeds[i])
        sigma = 1.0 if controversial else -1.0
        q_hub = 0.5 + 0.5 * spec.signal * sigma

        users = [f"u{i:03d}x{j:02d}" for j in range(_POOL)]
        hubs = users[:_HUBS]
        community = users[_HUBS : _HUBS + _COMMUNITY]
        outsiders = users[_HUBS + _COMMUNITY :]

        for j in range(spec.records_per_term):
            if rng.random() < q_hub:
                author = outsiders[int(rng.integers(len(outsiders)))]
                targets = [hubs[int(rng.integers(_HUBS))] for _ in range(3)]
            else:
                picks = rng.choice(_COMMUNITY, size=3, replace=False)
                author = community[int(picks[0])]
                targets = [community[int(picks[1])], community[int(picks[2])], community[int(picks[1])]]

            mentioned: list[str] = []
            if rng.random() < _P_MENTION:
                mentioned.append(targets[0])
                if rng.random() < _P_SECOND_HUB and targets[1] != targets[0]:
                    mentioned.append(targets[1])
            reply_to = targets[2] if rng.random() < _P_REPLY else None
            quoted = targets[1] if rng.random() < _P_QUOTE else None

            stamp = _WINDOW_START + timedelta(seconds=int(rng.integers(_WINDOW_SECONDS)))
            obj = {
                "post_id": f"p{i:03d}-{j:05d}",
                "author": author,
                "text": f"{surface} take {j} by {author}",
                "mentioned": mentioned,
                "timestamp": stamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
            }
            if reply_to is not None:
                obj["reply_to_author"] = reply_to
            if quoted is not None:
                obj["quoted_author"] = quoted
            record_lines.append(json.dumps(obj, sort_keys=True))

        term_lines.append(surface)
        if controversial:
            scores = [int(rng.integers(2, 5)) for _ in range(5)]
        else:
            scores = [0] * 5
            for pos in rng.choice(5, size=int(rng.integers(0, 3)), replace=False):
                scores[int(pos)] = 1
        for p_idx, score in enumerate(scores, start=1):
            rating_lines.append(f"{surface},p{p_idx},{score}")
        truth_lines.append(f"{surface},{'controversial' if controversial else 'non-controversial'}")

    return SynthCorpus(
        records_jsonl="\n".join(record_lines) + "\n",
        terms_txt="\n".join(term_lines) + "\n",
        ratings_csv="\n".join(rating_lines) + "\n",
        ground_truth_csv="\n".join(truth_lines) + "\n",
    )


def write_corpus(spec: SynthSpec, outdir) -> dict[str, str]:
    """Write records.jsonl, terms.txt, ratings.csv, ground_truth.csv."""
    corpus = generate_corpus(spec)
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for fname, content in (
        ("records.jsonl", corpus.records_jsonl),
        ("terms.txt", corpus.terms_txt),
        ("ratings.csv", corpus.ratings_csv),
        ("ground_truth.csv", corpus.ground_truth_csv),
    ):
        path = os.path.join(str(outdir), fname)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
        paths[fname] = path
    return paths
