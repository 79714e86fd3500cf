"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (explicit
permutation minimization, triple loops, dense SVD, a forest that grows one
tree at a time, scores one feature and walks one row at a time, a logistic
ascent on boolean masks, a primal SVM that trains one fold at a time) and
shares no code with the package beyond the documented bit layout.  The one exception is the
term scan, which calls the package's `_term_pattern` (through `term_matches`)
and `build_graph`: the term pattern is the definition of a match, and what the
scan checks is the package's single-pass candidate index, not the pattern.
`reference_class_table` builds the class table array-wise with numpy, a
second route beside the package's orbit enumeration.  `label_distribution`
tabulates ratings as the paper does; no stage writes that table.  The
random digraph generators at the end make inputs, not answers,
`assert_no_child_is_left` checks a process, not an answer, and `cores` sets
the core count the forked stages see.
"""

import contextlib
import itertools
import math
import os

import numpy as np
import pytest

from termnet import ingest
from termnet.graphs import DirectedGraph, build_graph
from termnet.ingest import TermNetworkSet, _term_pattern
from termnet.manifest import InputError

# row-major ordered pairs (i, j), i != j; bit 0 of the code is the LAST pair
def ordered_pairs(k):
    return [(i, j) for i in range(k) for j in range(k) if i != j]


def subgraph_code(edge_set, nodes):
    """MSB-first adjacency code of the induced subgraph, by membership tests."""
    k = len(nodes)
    code = 0
    for i, j in ordered_pairs(k):
        code = (code << 1) | (1 if (nodes[i], nodes[j]) in edge_set else 0)
    return code


def canonical_code(code, k):
    """Minimum code over all k! relabelings, from the code's own bits."""
    pairs = ordered_pairs(k)
    m = len(pairs)
    bits = {pairs[p]: (code >> (m - 1 - p)) & 1 for p in range(m)}
    best = None
    for perm in itertools.permutations(range(k)):
        c = 0
        for i, j in pairs:
            c = (c << 1) | bits[(perm[i], perm[j])]
        if best is None or c < best:
            best = c
    return best


def skeleton_connected(code, k):
    pairs = ordered_pairs(k)
    m = len(pairs)
    adj = [set() for _ in range(k)]
    for p, (i, j) in enumerate(pairs):
        if (code >> (m - 1 - p)) & 1:
            adj[i].add(j)
            adj[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == k


def class_universe():
    """(classes3, classes4): sorted canonical codes of connected classes."""
    out = []
    for k in (3, 4):
        m = k * (k - 1)
        canon = set()
        for code in range(1 << m):
            if skeleton_connected(code, k):
                canon.add(canonical_code(code, k))
        out.append(sorted(canon))
    return out[0], out[1]


_CANON_MAPS = {}


def _canon_map(k):
    # memoized full code -> canonical code map for the oracle route
    if k not in _CANON_MAPS:
        m = k * (k - 1)
        _CANON_MAPS[k] = [canonical_code(code, k) for code in range(1 << m)]
    return _CANON_MAPS[k]


_CLASS_LOOKUP = []


def _class_lookup():
    """(class3, class4, class count): code -> class id, -1 for a disconnected code.

    Classes are indexed by ascending canonical code, size 3 first; the only
    convention shared with the library is the bit layout.
    """
    if not _CLASS_LOOKUP:
        classes3, classes4 = class_universe()
        index = {(3, c): i for i, c in enumerate(classes3)}
        index.update({(4, c): len(classes3) + i for i, c in enumerate(classes4)})
        lookups = [[index.get((k, c), -1) for c in _canon_map(k)] for k in (3, 4)]
        _CLASS_LOOKUP.extend(lookups + [len(index)])
    return _CLASS_LOOKUP


def reference_class_table():
    """(class_of_code3, class_of_code4, canonical_codes3, canonical_codes4), built array-wise.

    Every code's relabeling under a permutation is a bit gather, taken for all
    codes at once as a matmul of the bit matrix with the permuted bit weights;
    the canonical code is the elementwise minimum.
    """
    tables, canonical, base = [], [], 0
    for k in (3, 4):
        pairs = ordered_pairs(k)
        m = len(pairs)
        pos = {pair: p for p, pair in enumerate(pairs)}
        codes = np.arange(1 << m, dtype=np.int64)
        # column p of `bits` is the bit of ordered pair pairs[p] (MSB-first layout)
        bits = (codes[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1
        canon = codes.copy()
        for perm in itertools.permutations(range(k)):
            weights = np.array([1 << (m - 1 - pos[(perm[i], perm[j])]) for i, j in pairs], dtype=np.int64)
            np.minimum(canon, bits @ weights, out=canon)
        connected = np.array([skeleton_connected(code, k) for code in range(1 << m)])
        classes = np.unique(canon[connected])
        tables.append(np.where(connected, base + np.searchsorted(classes, canon), -1).tolist())
        canonical.append(classes.tolist())
        base += len(classes)
    return tables[0], tables[1], canonical[0], canonical[1]


def brute_census(g):
    """212-vector by iterating every 3- and 4-node subset of g.

    Uses the oracle's own canonicalization and class indexing; the only shared
    convention is the bit layout.
    """
    class3, class4, total = _class_lookup()
    edge_set = set(g.edges)
    counts = [0] * total
    for k, lookup in ((3, class3), (4, class4)):
        for nodes in itertools.combinations(range(g.node_count), k):
            cid = lookup[subgraph_code(edge_set, nodes)]
            if cid >= 0:
                counts[cid] += 1
    return counts


def enumerate_connected_subsets(g, k):
    """Yield every k-node subset with weakly-connected skeleton exactly once.

    ESU scheme: root at each node v, extend through exclusive neighbors with
    index greater than v (an exclusive neighbor of the partial subset is one
    not in the subset and not adjacent to it).
    """
    if k not in (3, 4):
        raise ValueError(f"subgraph size must be 3 or 4, got {k}")
    adj = g.skeleton_adjacency

    def extend(sub, ext, seen, root):
        if len(sub) == k:
            yield tuple(sorted(sub))
            return
        while ext:
            w = ext.pop()
            nb_w = adj[w]
            new_ext = ext + [u for u in nb_w if u > root and u not in seen]
            yield from extend(sub + [w], new_ext, seen | set(nb_w), root)

    for v in range(g.node_count):
        nb = adj[v]
        ext0 = [u for u in nb if u > v]
        yield from extend([v], ext0, set(nb) | {v}, v)


def esu_census(g):
    """212-vector by ESU: every connected 3- and 4-subset visited once.

    The depth-4 traversal is unrolled into nested loops over per-level
    extension stacks; each subset is classified with the oracle's own
    canonical-code lookup.  Cost grows with the number of connected subsets,
    so use it on graphs without large hubs.
    """
    class3, class4, total = _class_lookup()
    adj = g.skeleton_adjacency
    outs = [set(ns) for ns in g.out_adjacency]
    counts = [0] * total
    for v in range(g.node_count):
        nb_v = adj[v]
        if not nb_v:
            continue
        ov = outs[v]
        seen0 = set(nb_v)
        seen0.add(v)
        ext0 = [u for u in nb_v if u > v]
        while ext0:
            b = ext0.pop()
            nb_b = adj[b]
            ext1 = ext0 + [u for u in nb_b if u > v and u not in seen0]
            if not ext1:
                continue
            seen1 = seen0.union(nb_b)
            ob = outs[b]
            vb = b in ov
            bv = v in ob
            while ext1:
                c = ext1.pop()
                oc = outs[c]
                counts[
                    class3[
                        (vb << 5)
                        | ((c in ov) << 4)
                        | (bv << 3)
                        | ((c in ob) << 2)
                        | ((v in oc) << 1)
                        | (b in oc)
                    ]
                ] += 1
                ext2 = ext1 + [u for u in adj[c] if u > v and u not in seen1]
                if not ext2:
                    continue
                base = (
                    (vb << 11)
                    | ((c in ov) << 10)
                    | (bv << 8)
                    | ((c in ob) << 7)
                    | ((v in oc) << 5)
                    | ((b in oc) << 4)
                )
                while ext2:
                    d = ext2.pop()
                    od = outs[d]
                    counts[
                        class4[
                            base
                            | ((d in ov) << 9)
                            | ((d in ob) << 6)
                            | ((d in oc) << 3)
                            | ((v in od) << 2)
                            | ((b in od) << 1)
                            | (c in od)
                        ]
                    ] += 1
    return counts


def brute_global_metrics(g):
    """The nine metrics by explicit loops over nodes/edges/ordered triples.

    Returns (values, defined) in the documented metric order.
    """
    n = g.node_count
    edge_set = set(g.edges)
    m = len(edge_set)

    dens_ok = n >= 2
    dens = m / (n * (n - 1)) if dens_ok else 0.0

    rec_ok = m > 0
    rec = sum(1 for (u, v) in edge_set if (v, u) in edge_set) / m if rec_ok else 0.0

    paths = 0
    closed = 0
    for u in range(n):
        for v in range(n):
            if u == v or (u, v) not in edge_set:
                continue
            for w in range(n):
                if w == u or w == v or (v, w) not in edge_set:
                    continue
                paths += 1
                if (u, w) in edge_set:
                    closed += 1
    trans_ok = paths > 0
    trans = closed / paths if trans_ok else 0.0

    indeg = [0] * n
    outdeg = [0] * n
    for u, v in edge_set:
        outdeg[u] += 1
        indeg[v] += 1
    deg_ok = n > 0
    if deg_ok:
        stats = [
            sum(indeg) / n, float(max(indeg)), float(min(indeg)),
            sum(outdeg) / n, float(max(outdeg)), float(min(outdeg)),
        ]
    else:
        stats = [0.0] * 6

    values = [dens, rec, trans] + stats
    defined = [dens_ok, rec_ok, trans_ok] + [deg_ok] * 6
    return values, defined


def compensated_sum(values, start=0):
    """`math.fsum` on floats, and the exact int on ints.

    Patched over a module's builtin `sum`, it stands in for a `sum` that rounds floats
    otherwise than a left fold, as the builtin does from Python 3.12 on.
    """
    values = [start, *values]
    if all(isinstance(v, int) for v in values):
        return sum(values)
    return math.fsum(values)


def svd_pca2(X):
    """Top-2 PCA via numpy's dense SVD of the centered matrix.

    Same conventions as the library: center, n-1 divisor, sign fixed by the
    largest-magnitude loading.
    """
    X = np.asarray(X, dtype=np.float64)
    Xc = X - X.mean(axis=0)
    _, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    vals = s**2 / (X.shape[0] - 1)
    comps = []
    for w in Vt[:2]:
        i = int(np.argmax(np.abs(w)))
        comps.append(-w if w[i] < 0 else w)
    return np.vstack(comps), vals[:2], float(vals.sum())


def loglik_and_grad(w, X, y):
    """Mean Bernoulli log-likelihood and gradient for finite-difference checks."""
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    z = Xa @ w
    ll = float(np.mean(y * z - np.logaddexp(0.0, z)))
    p = 1.0 / (1.0 + np.exp(-z))
    grad = Xa.T @ (y - p) / X.shape[0]
    return ll, grad


def reference_confusion_metrics(tp, fp, tn, fn):
    """The eight pooled metrics plus per-metric defined flags (0.0 when the
    denominator is empty)."""

    def ratio(num, den):
        return (num / den, True) if den > 0 else (0.0, False)

    acc, acc_ok = ratio(tp + tn, tp + fp + tn + fn)
    prec, prec_ok = ratio(tp, tp + fp)
    rec, rec_ok = ratio(tp, tp + fn)
    spec, spec_ok = ratio(tn, tn + fp)
    npv, npv_ok = ratio(tn, tn + fn)
    if prec_ok and rec_ok and prec + rec > 0:
        f1, f1_ok = 2.0 * prec * rec / (prec + rec), True
    else:
        f1, f1_ok = 0.0, False
    values = {
        "accuracy": acc,
        "f1": f1,
        "precision": prec,
        "recall": rec,
        "sensitivity": rec,
        "specificity": spec,
        "ppv": prec,
        "npv": npv,
    }
    flags = {
        "accuracy": acc_ok,
        "f1": f1_ok,
        "precision": prec_ok,
        "recall": rec_ok,
        "sensitivity": rec_ok,
        "specificity": spec_ok,
        "ppv": prec_ok,
        "npv": npv_ok,
    }
    return values, flags


def reference_sigmoid(z):
    """The logistic function with boolean masks: 1 / (1 + exp(-z)) where
    z >= 0, exp(z) / (1 + exp(z)) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_blr(X, y, tol, max_iter):
    """The library's logistic ascent, written with np.mean and masked
    sigmoid halves: Armijo backtracking from twice the last accepted step,
    stop when the gradient 2-norm drops below tol.  Returns (weights,
    converged, iterations)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    Xa = np.hstack([X, np.ones((n, 1))])
    w = np.zeros(Xa.shape[1])
    z = Xa @ w
    ll = float(np.mean(y * z - np.logaddexp(0.0, z)))
    step = 1.0
    for it in range(1, max_iter + 1):
        grad = Xa.T @ (y - reference_sigmoid(z)) / n
        gnorm2 = float(grad @ grad)
        if math.sqrt(gnorm2) < tol:
            return w, True, it - 1
        t = step * 2.0
        improved = False
        while t > 1e-14:
            w_new = w + t * grad
            z_new = Xa @ w_new
            ll_new = float(np.mean(y * z_new - np.logaddexp(0.0, z_new)))
            if ll_new >= ll + 1e-4 * t * gnorm2:
                improved = True
                break
            t *= 0.5
        if not improved:
            return w, False, it
        w, z, ll, step = w_new, z_new, ll_new, t
    return w, False, max_iter


def reference_svm(X, y, C, iterations):
    """The library's Pegasos schedule in the primal, one problem at a time:
    w moves against the subgradient of lambda/2 ||w||^2 + mean hinge loss
    with lambda = 1/(C n) and step 1/(lambda t), then is projected onto the
    ball of radius 1/sqrt(lambda).  The bias is an augmented constant
    feature.  Returns the (d+1,) weights."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    s = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
    Xa = np.hstack([X, np.ones((n, 1))])
    lam = 1.0 / (C * n)
    radius = 1.0 / math.sqrt(lam)
    w = np.zeros(Xa.shape[1])
    for t in range(1, iterations + 1):
        margins = s * (Xa @ w)
        viol = margins < 1.0
        grad = lam * w - (Xa[viol].T @ s[viol]) / n
        w = w - grad / (lam * t)
        norm = math.sqrt(float(w @ w))
        if norm > radius:
            w *= radius / norm
    return w


class ReferenceTree:
    """CART classification tree stored as parallel lists, grown node by node."""

    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(-1)
        return len(self.feature) - 1

    def predict_one(self, x):
        nid = 0
        while self.feature[nid] >= 0:
            nid = self.left[nid] if x[self.feature[nid]] <= self.threshold[nid] else self.right[nid]
        return self.value[nid]


def reference_best_split(X, y, idx, feats):
    """Lowest weighted-Gini (score, feature, threshold), one feature at a time.

    A later feature replaces the best only on a strictly lower score, so ties
    go to the earliest candidate feature and, within it, the earliest position.
    """
    n = idx.shape[0]
    best = (float("inf"), -1, 0.0)
    ys = y[idx]
    for f in feats:
        x = X[idx, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        valid = xs[1:] > xs[:-1]
        if not valid.any():
            continue
        cum1 = np.cumsum(ys[order])[:-1].astype(np.float64)
        nl = np.arange(1, n, dtype=np.float64)
        nr = n - nl
        l1 = cum1
        r1 = float(ys.sum()) - cum1
        gini_l = 1.0 - (l1 / nl) ** 2 - ((nl - l1) / nl) ** 2
        gini_r = 1.0 - (r1 / nr) ** 2 - ((nr - r1) / nr) ** 2
        score = (nl * gini_l + nr * gini_r) / n
        score[~valid] = float("inf")
        k = int(np.argmin(score))
        if score[k] < best[0]:
            mid = float((xs[k] + xs[k + 1]) / 2.0)
            best = (float(score[k]), int(f), mid if mid < xs[k + 1] else float(xs[k]))
    return best


def reference_tree(X, y, rng, mtry):
    n, d = X.shape
    boot = rng.integers(0, n, size=n)
    tree = ReferenceTree()
    stack = [(boot, tree.new_node())]
    while stack:
        idx, nid = stack.pop()
        ones = int(y[idx].sum())
        if ones == 0 or ones == idx.shape[0]:
            tree.value[nid] = 1 if ones else 0
            continue
        feats = rng.choice(d, size=mtry, replace=False)
        _, f, thr = reference_best_split(X, y, idx, feats)
        if f < 0:
            tree.value[nid] = 1 if 2 * ones > idx.shape[0] else 0
            continue
        go_left = X[idx, f] <= thr
        left = tree.new_node()
        right = tree.new_node()
        tree.feature[nid] = f
        tree.threshold[nid] = thr
        tree.left[nid] = left
        tree.right[nid] = right
        stack.append((idx[go_left], left))
        stack.append((idx[~go_left], right))
    return tree


def reference_forest(X, y, seed, n_trees):
    """The library's forest recipe with per-feature split search: tree i
    draws from SeedSequence(seed).spawn(n_trees)[i]; mtry = max(1, isqrt(d))."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    mtry = max(1, math.isqrt(X.shape[1]))
    children = np.random.SeedSequence(seed).spawn(n_trees)
    return [reference_tree(X, y, np.random.default_rng(child), mtry) for child in children]


def reference_forest_predict(trees, X):
    """Majority vote, each row walked down each tree on its own."""
    votes = [sum(tree.predict_one(row) for tree in trees) for row in np.asarray(X, dtype=np.float64)]
    return np.array([1 if 2 * v > len(trees) else 0 for v in votes], dtype=np.int64)


def term_matches(text: str, term: str) -> bool:
    """Whether the term's pattern finds it in `text`: the definition of a match."""
    if not term:
        raise InputError("term must be non-empty")
    return _term_pattern(term).search(text) is not None


def scan_corpus(records, terms):
    """Per term, every record's text searched with that term's pattern.

    Returns one TermNetworkSet per term, in term order; pairs are collected
    in record order, as the package does.
    """
    corpus = []
    for term in terms:
        pairs = {"mention": [], "reply": [], "quote": []}
        matched = 0
        for rec in records:
            if not term_matches(rec.text, term):
                continue
            matched += 1
            for m in rec.mentioned:
                pairs["mention"].append((rec.author, m))
            if rec.reply_to_author is not None:
                pairs["reply"].append((rec.author, rec.reply_to_author))
            if rec.quoted_author is not None:
                pairs["quote"].append((rec.author, rec.quoted_author))
        graphs = {kind: build_graph(p) for kind, p in pairs.items()}
        corpus.append(TermNetworkSet(term=term, graphs=graphs, matched_records=matched))
    return corpus


# The classify grid, (feature set, classifier), in report.json's order
GRID = [
    ("global-mention", "blr"), ("global-mention", "svm"), ("global-mention", "rfc"),
    ("global-reply", "blr"), ("global-reply", "svm"), ("global-reply", "rfc"),
    ("global-quote", "blr"), ("global-quote", "svm"), ("global-quote", "rfc"),
    ("global-combined", "blr"), ("global-combined", "svm"), ("global-combined", "rfc"),
    ("local-mention", "blr"), ("local-mention", "svm"), ("local-mention", "rfc"),
    ("local-reply", "blr"), ("local-reply", "svm"), ("local-reply", "rfc"),
    ("local-quote", "blr"), ("local-quote", "svm"), ("local-quote", "rfc"),
    ("local-combined", "blr"), ("local-combined", "svm"), ("local-combined", "rfc"),
]


LIKERT_NAMES = (
    "Neutral",
    "Somewhat Controversial",
    "Controversial",
    "Very Controversial",
    "Highly Controversial",
)


def label_distribution(rows) -> dict[str, float]:
    """Percentage of all `[term, participant, score]` ratings at each Likert level, keyed by level name."""
    if not rows:
        raise InputError("label_distribution requires at least one rating")
    counts = [0] * 5
    for _, _, score in rows:
        if not 0 <= score <= 4:
            raise InputError(f"score {score} outside 0..4")
        counts[score] += 1
    n = len(rows)
    return {LIKERT_NAMES[i]: 100.0 * counts[i] / n for i in range(5)}


def gen_random_digraph(n: int, p: float, seed: int) -> DirectedGraph:
    """G(n, p): every ordered pair (u, v), u != v, kept with probability p.

    node_count is n even when some nodes end up isolated.
    """
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError(f"need n >= 0 and p in [0,1], got n={n}, p={p}")
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return DirectedGraph(n, list(zip(src.tolist(), dst.tolist())))


def gen_random_digraph_m(n: int, m: int, seed: int) -> DirectedGraph:
    """Uniform digraph with exactly m distinct edges (no self-loops)."""
    slots = n * (n - 1)
    if not 0 <= m <= slots:
        raise ValueError(f"m={m} outside 0..{slots} for n={n}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(slots, size=m, replace=False)
    u = idx // (n - 1)
    r = idx % (n - 1)
    v = np.where(r >= u, r + 1, r)
    return DirectedGraph(n, list(zip(u.tolist(), v.tolist())))


def assert_no_child_is_left():
    """This process has no child left, not even one `os.fork` started and nothing waited for."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process is left")


@contextlib.contextmanager
def cores(n: int):
    """As on a host of `n` usable cores; `networks` cuts a records file into parts of 4 KiB or more."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: range(n))
        patch.setattr(ingest, "_PART_BYTES", 1 << 12)
        yield
