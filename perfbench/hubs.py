"""Seeded generator for the `hubs` workload: few terms, many records, and
mention graphs whose census cost is dominated by high-degree hubs.

    python3 perfbench/hubs.py OUTDIR --seed N

writes OUTDIR/records.jsonl, OUTDIR/terms.txt and OUTDIR/ratings.csv.  Equal
seeds give byte-identical files.

Shape (8 terms, about 200k record lines):

* six hub terms.  Each mention graph has 3 hubs that mention each other;
  every hub has a fixed number of leaves (100 to 280) whose dyad with
  the hub is out (leaf -> hub), in (hub -> leaf) or mutual, plus a few
  leaf-leaf edges and a few leaves shared with a second hub.  Census cost is
  about sum_h C(deg_h, 3) claws.
* two uniform terms whose mention graph is G(2000, 10000).  These graphs have
  at least PARALLEL_CENSUS_MIN_NODES (800) nodes, so `features --workers 2`
  shards their ESU roots over a pool, while most hub graphs stay below it
  and run serially.
* every interaction is repeated in many records (records far outnumber
  edges), 10 % of records match no term, and 0.5 % of lines are malformed,
  so `networks` spends its time parsing rather than matching.

The graphs are fixed (TOPOLOGY_SEED); the seed draws the record stream: which
interactions repeat, record order, texts, timestamps, malformed lines and
ratings.  So every seed gives the stages the same census and classifier work
(the classifiers' cost on 8 terms swings by 2x with the feature values),
while the input bytes differ.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from datetime import datetime, timedelta, timezone

HUB_LEAVES = (
    (100, 120, 140),
    (120, 140, 160),
    (140, 170, 200),
    (170, 190, 210),
    (200, 220, 240),
    (260, 270, 280),
)
UNIFORM_TERMS = 2
UNIFORM_NODES = 2000
UNIFORM_EDGES = 10000
RECORDS_PER_TERM = 22500
UNMATCHED_SHARE = 0.10
MALFORMED_SHARE = 0.005
LEAF_LEAF_SHARE = 0.02  # leaf-leaf edges per leaf
SHARED_LEAF_SHARE = 0.03  # leaves also tied to a second hub
TOPOLOGY_SEED = 20201109

_WINDOW_START = datetime(2020, 11, 9, tzinfo=timezone.utc)
_WINDOW_SECONDS = 29 * 86400
_FILLER = ("today", "again", "news", "thread", "look", "update", "why", "live", "vote", "more")


def term_names() -> list[str]:
    hub_terms = [("#" if i % 2 == 0 else "") + f"hub{i}" for i in range(len(HUB_LEAVES))]
    flat_terms = [("#" if i % 2 == 0 else "") + f"flat{i}" for i in range(UNIFORM_TERMS)]
    return hub_terms + flat_terms


def _random_edges(rng: random.Random, users: list[str], m: int) -> set[tuple[str, str]]:
    edges: set[tuple[str, str]] = set()
    while len(edges) < m:
        u, v = rng.sample(users, 2)
        edges.add((u, v))
    return edges


def _hub_mention_edges(rng: random.Random, prefix: str, leaves_per_hub) -> tuple[set, list[str]]:
    hubs = [f"{prefix}h{h}" for h in range(len(leaves_per_hub))]
    edges = {(a, b) for a in hubs for b in hubs if a != b}
    all_leaves: list[str] = []
    own_hub: dict[str, int] = {}
    for h, n_leaves in enumerate(leaves_per_hub):
        leaves = [f"{prefix}h{h}l{j:03d}" for j in range(n_leaves)]
        # fixed mix of dyad types: half out, a quarter in, a quarter mutual
        kinds = ["out"] * (n_leaves // 2) + ["in"] * (n_leaves // 4)
        kinds += ["mutual"] * (n_leaves - len(kinds))
        rng.shuffle(kinds)
        for leaf, kind in zip(leaves, kinds):
            if kind in ("out", "mutual"):
                edges.add((leaf, hubs[h]))
            if kind in ("in", "mutual"):
                edges.add((hubs[h], leaf))
            own_hub[leaf] = h
        all_leaves += leaves
    for leaf in rng.sample(all_leaves, round(SHARED_LEAF_SHARE * len(all_leaves))):
        other = hubs[(own_hub[leaf] + 1 + rng.randrange(len(hubs) - 1)) % len(hubs)]
        edges.add((leaf, other))
    edges |= _random_edges(rng, all_leaves, round(LEAF_LEAF_SHARE * len(all_leaves)))
    return edges, hubs + all_leaves


def term_graphs(index: int) -> dict[str, set[tuple[str, str]]]:
    """The three interaction graphs of term `index`; the same for every seed."""
    rng = random.Random(TOPOLOGY_SEED + index)
    prefix = f"t{index}"
    if index < len(HUB_LEAVES):
        mention, users = _hub_mention_edges(rng, prefix, HUB_LEAVES[index])
        leaves = users[len(HUB_LEAVES[index]) :]
        reply = _random_edges(rng, leaves, 300)
        quote = {(leaf, users[0]) for leaf in rng.sample(leaves, 80)} | _random_edges(rng, leaves, 20)
    else:
        users = [f"{prefix}u{j:04d}" for j in range(UNIFORM_NODES)]
        mention = _random_edges(rng, users, UNIFORM_EDGES)
        reply = _random_edges(rng, users[:500], 1500)
        quote = _random_edges(rng, users[500:800], 600)
    return {"mention": mention, "reply": reply, "quote": quote}


def _text(rng: random.Random, term: str | None) -> str:
    words = rng.sample(_FILLER, 4)
    if term is not None:
        words.insert(rng.randrange(5), term)
    return " ".join(words)


def generate(seed: int) -> dict[str, str]:
    """File name -> content for one seed."""
    rng = random.Random(seed)
    terms = term_names()
    records: list[dict] = []
    for i, term in enumerate(terms):
        graphs = term_graphs(i)
        # one record per interaction, then repeats drawn from those records
        base = [(u, "mentioned", v) for u, v in sorted(graphs["mention"])]
        base += [(u, "reply_to_author", v) for u, v in sorted(graphs["reply"])]
        base += [(u, "quoted_author", v) for u, v in sorted(graphs["quote"])]
        picks = base + [rng.choice(base) for _ in range(RECORDS_PER_TERM - len(base))]
        for author, field, target in picks:
            rec = {"author": author, "text": _text(rng, term)}
            rec[field] = [target] if field == "mentioned" else target
            records.append(rec)
    n_unmatched = round(UNMATCHED_SHARE * len(records))
    for j in range(n_unmatched):
        records.append({"author": f"x{j % 997}", "text": _text(rng, None), "mentioned": [f"x{(j + 1) % 997}"]})
    rng.shuffle(records)

    lines = []
    for n, rec in enumerate(records):
        rec["post_id"] = f"p{n:07d}"
        stamp = _WINDOW_START + timedelta(seconds=rng.randrange(_WINDOW_SECONDS))
        rec["timestamp"] = stamp.strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(json.dumps(rec, sort_keys=True))
    for _ in range(round(MALFORMED_SHARE * len(lines))):
        at = rng.randrange(len(lines))
        line = lines[at]  # may itself be a line truncated before, as short as one character
        bad = line[: rng.randrange(1, max(2, len(line) - 1))]  # truncated JSON, never empty
        lines.insert(at, bad)

    ratings = ["term,participant,score"]
    for i, term in enumerate(terms):
        # controversial means a mean rating above 0.95: 2..4 versus at most two 1s
        if i % 2 == 0:
            scores = [rng.randrange(2, 5) for _ in range(5)]
        else:
            scores = [0] * 5
            for p in rng.sample(range(5), rng.randrange(3)):
                scores[p] = 1
        ratings += [f"{term},p{p},{score}" for p, score in enumerate(scores, start=1)]
    return {
        "records.jsonl": "\n".join(lines) + "\n",
        "terms.txt": "\n".join(terms) + "\n",
        "ratings.csv": "\n".join(ratings) + "\n",
    }


def write(outdir: str, seed: int) -> None:
    os.makedirs(outdir, exist_ok=True)
    for name, content in generate(seed).items():
        with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    write(args.outdir, args.seed)


if __name__ == "__main__":
    main()
