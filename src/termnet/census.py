"""Exact census of weakly-connected induced directed subgraphs on 3 and 4 nodes.

The class universe is built once, in pure Python, by canonicalizing every
labeled adjacency code (64 for k=3, 4096 for k=4): the canonical form of a
code is the minimum code over all node permutations, found by orbit
enumeration in ascending code order, and codes whose
undirected skeleton is connected are grouped into isomorphism classes.  That
yields 13 size-3 and 199 size-4 classes, 212 in total, indexed by ascending
canonical code with the size-3 block first.

Counting does not enumerate subsets.  Every connected 3- or 4-node subgraph
has one of eight skeleton shapes (wedge, triangle, 3-path, claw, 4-cycle,
paw, diamond, K4), and its class is fixed by the dyad types (out, in or
mutual) of its edges.  Nodes are ranked by descending degree.

* Triangles, K4s and induced 4-cycles are listed, each once from its
  lowest-ranked node; only each one's labeled code is tallied.
* The other shapes are counted from per-node dyad-type tallies: wedges and
  claws from products of a center's out, in and mutual neighbor counts;
  induced 3-paths through an edge (b, c) as typed |N(b) - N[c]| times typed
  |N(c) - N[b]|; diamonds from pairs of an edge's common neighbors; and paws
  per triangle vertex x as deg_t(x) - common_t(x, y) - common_t(x, z).
* Those counts include larger shapes, so corrections follow: triangles fix
  the wedges, 4-cycles the 3-paths, K4s the diamonds and paws, and paws,
  diamonds and K4s the claws.  A table built on the first census call maps
  each tally slot to its class plus the corrections it implies.

A hub with D leaves therefore costs O(D), not the C(D, 3) claws that
enumerating subsets would visit.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from array import array
from dataclasses import dataclass
from typing import Sequence

from . import manifest
from .graphs import DirectedGraph, pair_order

__all__ = [
    "CLASS_COUNT_3",
    "CLASS_COUNT_4",
    "TOTAL_CLASSES",
    "CanonicalClassTable",
    "CensusVector",
    "build_class_table",
    "census",
    "get_class_table",
]

CLASS_COUNT_3 = 13
CLASS_COUNT_4 = 199
TOTAL_CLASSES = CLASS_COUNT_3 + CLASS_COUNT_4

_TABLE_FORMAT = "termnet-class-table-v1"


@dataclass(frozen=True)
class CensusVector:
    """Raw counts over the 212 classes plus their single-pool normalization."""

    counts: tuple[int, ...]
    normalized: tuple[float, ...]
    total: int

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "CensusVector":
        counts = tuple(int(c) for c in counts)
        if len(counts) != TOTAL_CLASSES:
            raise ValueError(f"expected {TOTAL_CLASSES} counts, got {len(counts)}")
        total = sum(counts)
        if total > 0:
            normalized = tuple(c / total for c in counts)
        else:
            normalized = (0.0,) * TOTAL_CLASSES
        return cls(counts=counts, normalized=normalized, total=total)


@dataclass(frozen=True)
class CanonicalClassTable:
    """Lookup tables mapping every labeled subgraph code to its class id.

    `class_of_code3[code]` / `class_of_code4[code]` give the class id
    (0..12 for k=3, 13..211 for k=4) or -1 when the code's skeleton is
    disconnected.  `canonical_codes3/4` list each class's canonical
    (permutation-minimal) code in class-id order.
    """

    class_of_code3: tuple[int, ...]
    class_of_code4: tuple[int, ...]
    canonical_codes3: tuple[int, ...]
    canonical_codes4: tuple[int, ...]
    content_hash: str

    @property
    def class_count_3(self) -> int:
        return len(self.canonical_codes3)

    @property
    def class_count_4(self) -> int:
        return len(self.canonical_codes4)

    def class_size(self, class_id: int) -> int:
        return 3 if class_id < CLASS_COUNT_3 else 4

    def canonical_code(self, class_id: int) -> int:
        if class_id < CLASS_COUNT_3:
            return self.canonical_codes3[class_id]
        return self.canonical_codes4[class_id - CLASS_COUNT_3]

    def class_edges(self, class_id: int) -> list[tuple[int, int]]:
        """Edge list of the class's canonical representative."""
        k = self.class_size(class_id)
        code = self.canonical_code(class_id)
        pairs = pair_order(k)
        m = len(pairs)
        return [pairs[p] for p in range(m) if (code >> (m - 1 - p)) & 1]

    def write_csv(self, path, manifest_hash: str) -> None:
        """Export `class_id,k,canonical_code_hex,edge_list` (edges as i->j;...)."""
        rows = []
        for cid in range(TOTAL_CLASSES):
            edges = ";".join(f"{u}->{v}" for u, v in self.class_edges(cid))
            rows.append([cid, self.class_size(cid), f"{self.canonical_code(cid):#05x}", edges])
        manifest.write_csv(path, manifest_hash, ["class_id", "k", "canonical_code_hex", "edge_list"], rows)


def _bit_image(m: int, image: list[int]):
    """code -> the OR of image[s] over the set bits s (shifts) of an m-bit code, m even.

    Two lookups, one per half of the code, each table built one bit at a time.
    """
    h = m // 2

    def half(offset: int) -> list[int]:
        out = [0] * (1 << h)
        for c in range(1, 1 << h):
            out[c] = out[c & (c - 1)] | image[offset + (c & -c).bit_length() - 1]
        return out

    low, high, mask = half(0), half(h), (1 << h) - 1
    return lambda code: low[code & mask] | high[code >> h]


def _canonicalize_all(k: int) -> tuple[list[int], list[bool]]:
    """(canonical code, skeleton-connected flag) for every labeled k-node code.

    Orbit enumeration: the codes are walked in ascending order, and each code
    not yet reached is relabeled under all k! node permutations, which marks
    every code of its orbit with it, the orbit's smallest member.
    """
    pairs = pair_order(k)
    m = len(pairs)
    shift = {pair: m - 1 - p for p, pair in enumerate(pairs)}
    at = [pairs[m - 1 - s] for s in range(m)]  # the ordered pair of each bit shift
    relabelings = [
        _bit_image(m, [1 << shift[(perm[i], perm[j])] for i, j in at]) for perm in itertools.permutations(range(k))
    ]
    canon = [-1] * (1 << m)
    for code in range(1 << m):
        if canon[code] < 0:
            for relabel in relabelings:
                canon[relabel(code)] = code

    # on k <= 4 nodes a skeleton is connected iff it touches every node and has k - 1
    # edges or more: that rules out two disjoint edges and a triangle beside a lone node
    und = {(i, j): p for p, (i, j) in enumerate(itertools.combinations(range(k), 2))}
    skeleton = _bit_image(m, [1 << und[(min(i, j), max(i, j))] for i, j in at])
    touched = _bit_image(m, [(1 << i) | (1 << j) for i, j in at])
    return canon, [touched(c) == (1 << k) - 1 and skeleton(c).bit_count() >= k - 1 for c in range(1 << m)]


def build_class_table(unused=None, /) -> CanonicalClassTable:
    """Build the 212-class canonical table in memory.

    The one positional parameter is ignored; it remains only because the
    benchmark harness calls `build_class_table(None)`.
    """
    tables: dict[int, list[int]] = {}
    canonical: dict[int, list[int]] = {}
    base = 0
    for k, expected in ((3, CLASS_COUNT_3), (4, CLASS_COUNT_4)):
        canon, connected = _canonicalize_all(k)
        classes = sorted({c for c, conn in zip(canon, connected) if conn})  # class ids ascend with canonical code
        if len(classes) != expected:
            raise RuntimeError(
                f"k={k}: found {len(classes)} weakly-connected classes, expected "
                f"{expected}; canonical codes: {classes}"
            )
        class_id = {c: base + i for i, c in enumerate(classes)}
        table = [class_id[c] if conn else -1 for c, conn in zip(canon, connected)]
        # soundness: a code and its canonical form share one class; isomorphic
        # relabelings never change skeleton connectivity
        for code, c in enumerate(canon):
            if connected[code] != connected[c] or table[code] != table[c]:
                raise RuntimeError(f"k={k}: code {code:#x} inconsistent with canonical {c:#x}")
        tables[k], canonical[k] = table, classes
        base += expected

    digest = hashlib.sha256()
    digest.update(_TABLE_FORMAT.encode())
    digest.update(array("q", tables[3]).tobytes())
    digest.update(array("q", tables[4]).tobytes())
    return CanonicalClassTable(
        class_of_code3=tuple(tables[3]),
        class_of_code4=tuple(tables[4]),
        canonical_codes3=tuple(canonical[3]),
        canonical_codes4=tuple(canonical[4]),
        content_hash=digest.hexdigest(),
    )


@functools.cache
def get_class_table() -> CanonicalClassTable:
    """The process's one class table, built on first use."""
    return build_class_table()


# Dyad types, seen from the first node of a pair: bit 0 is u->v, bit 1 is v->u,
# so 1 = out, 2 = in, 3 = mutual.
_WEDGES = tuple(itertools.combinations_with_replacement((1, 2, 3), 2))
_CLAWS = tuple(itertools.combinations_with_replacement((1, 2, 3), 3))

# Offsets of the term sections in one flat tally list.  A signature s = 3a + b - 4
# (0..8) packs the types a = (x, z) and b = (y, z) of a common neighbor z of the
# edge (x, y); tau is the type of (x, y) itself.
_WEDGE = 0  # 6 type pairs at a center
_CLAW = _WEDGE + len(_WEDGES)  # 10 type triples at a center
_PATH = _CLAW + len(_CLAWS)  # (tau, x-end type, y-end type): 27
_TRI = _PATH + 27  # (tau, s): 27
_PAW = _TRI + 27  # (tau, s, triangle vertex holding the pendant, pendant type): 243
_DIAMOND = _PAW + 243  # (tau, s, s2), s <= s2: 243
_K4 = _DIAMOND + 243  # (tau, s, s2, type of the apex pair): 729
_C4 = _K4 + 729  # types around the cycle a-b-c-d-a: 81
_TALLY_SIZE = _C4 + 81


@functools.cache
def term_deltas() -> list[array]:
    """Per tally slot, the flat (class, coefficient, ...) change one unit makes.

    Every counted shape carries the corrections its count implies: each induced
    paw or diamond removes the claws it contains from the star products, and
    each listed triangle, C4 and K4 removes what the products over-counted.
    Shapes are built as labeled codes (see `graphs`), so dropping an edge or
    keeping only the edges at one node is a bit mask.  Built once per process
    from `get_class_table()`; `compute_features` builds it before it forks, so
    the items that read and count each network inherit it.
    """
    table = get_class_table()
    shift = {k: {pair: k * (k - 1) - 1 - p for p, pair in enumerate(pair_order(k))} for k in (3, 4)}

    def dyad(k, i, j, t):  # code bits of a type-t dyad from i to j
        return ((t & 1) << shift[k][(i, j)]) | ((t >> 1) << shift[k][(j, i)])

    pair = {(i, j): dyad(4, i, j, 3) for i, j in itertools.combinations(range(4), 2)}
    star = [sum(m for p, m in pair.items() if v in p) for v in range(4)]
    # a K4 holds a paw at v for each other node w: cut w's edges to the remaining two
    paw_cuts = [
        (v, sum(m for p, m in pair.items() if w in p and v not in p))
        for w, v in itertools.permutations(range(4), 2)
    ]
    deltas = [array("h")] * _TALLY_SIZE  # slots no count reaches stay empty

    def put(key, shapes, k=4):  # shapes: (labeled code, coefficient) pairs
        classes = table.class_of_code3 if k == 3 else table.class_of_code4
        merged: dict[int, int] = {}
        for code, coeff in shapes:
            merged[classes[code]] = merged.get(classes[code], 0) + coeff
        deltas[key] = array("h", itertools.chain.from_iterable((c, n) for c, n in merged.items() if n))

    def paw(code, v):  # v: the vertex of degree 3
        return [(code, 1), (code & star[v], -1)]

    def diamond(code, x, y, coeff=1):  # (x, y): the shared edge
        return [(code, coeff), (code & star[x], -coeff), (code & star[y], -coeff)]

    for j, (t1, t2) in enumerate(_WEDGES):
        put(_WEDGE + j, [(dyad(3, 0, 1, t1) | dyad(3, 0, 2, t2), 1)], k=3)
    for j, (t1, t2, t3) in enumerate(_CLAWS):
        put(_CLAW + j, [(dyad(4, 0, 1, t1) | dyad(4, 0, 2, t2) | dyad(4, 0, 3, t3), 1)])
    for tau, t1, t2 in itertools.product((1, 2, 3), repeat=3):
        path = dyad(4, 0, 1, tau) | dyad(4, 0, 2, t1) | dyad(4, 1, 3, t2)
        put(_PATH + 9 * (tau - 1) + 3 * (t1 - 1) + t2 - 1, [(path, 1)])
    for tau, s in itertools.product((1, 2, 3), range(9)):
        a, b = s // 3 + 1, s % 3 + 1
        tri = dyad(3, 0, 1, tau) | dyad(3, 0, 2, a) | dyad(3, 1, 2, b)
        wedges = [(tri & ~dyad(3, i, j, 3), -1) for i, j in ((0, 1), (0, 2), (1, 2))]
        put(_TRI + 9 * (tau - 1) + s, [(tri, 1)] + wedges, k=3)
        tri = dyad(4, 0, 1, tau) | dyad(4, 0, 2, a) | dyad(4, 1, 2, b)
        for v, t in itertools.product(range(3), (1, 2, 3)):
            put(_PAW + 81 * (tau - 1) + 9 * s + 3 * v + t - 1, paw(tri | dyad(4, v, 3, t), v))
        for s2 in range(9):
            apexes = tri | dyad(4, 0, 3, s2 // 3 + 1) | dyad(4, 1, 3, s2 % 3 + 1)
            if s <= s2:
                put(_DIAMOND + 81 * (tau - 1) + 9 * s + s2, diamond(apexes, 0, 1))
            for e in (1, 2, 3):
                k4 = apexes | dyad(4, 2, 3, e)
                shapes = [(k4, 1)] + [(k4 & star[v], -1) for v in range(4)]
                for (x, y), (z, w) in zip(pair, reversed(pair)):  # each edge with its opposite
                    shapes += diamond(k4 & ~pair[(z, w)], x, y, -1)
                for v, cut in paw_cuts:
                    shapes += paw(k4 & ~cut, v)
                put(_K4 + 243 * (tau - 1) + 27 * s + 3 * s2 + e - 1, shapes)
    edges = ((0, 1), (1, 2), (2, 3), (0, 3))
    for types in itertools.product((1, 2, 3), repeat=4):
        cycle = sum(dyad(4, i, j, t) for (i, j), t in zip(edges, types))
        paths = [(cycle & ~pair[e], -1) for e in edges]
        key = _C4 + 27 * (types[0] - 1) + 9 * (types[1] - 1) + 3 * (types[2] - 1) + types[3] - 1
        put(key, [(cycle, 1)] + paths)
    return deltas


def _count_from_roots(g: DirectedGraph) -> list[int]:
    """The 212 class counts of g, from one pass over its nodes as roots.

    Nodes are ranked by descending skeleton degree (ties by id).  A root owns
    its own star products, every edge to a higher-ranked neighbor, and every
    listed triangle, K4 and induced C4 whose lowest-ranked node it is, so each
    piece of work is done exactly once.
    """
    adj = g.skeleton_adjacency
    outs = [set(ns) for ns in g.out_adjacency]  # the hot membership test for dyad types
    n = g.node_count
    # typed degrees: out-only, in-only and mutual neighbors
    deg_out = [0] * n
    deg_in = [0] * n
    deg_mut = [0] * n
    for v in range(n):
        nv, no, ni = len(adj[v]), len(g.out_adjacency[v]), len(g.in_adjacency[v])
        deg_out[v], deg_in[v], deg_mut[v] = nv - ni, nv - no, no + ni - nv
    rank = [0] * n
    for r, v in enumerate(sorted(range(n), key=lambda v: -len(adj[v]))):  # stable: ties by id
        rank[v] = r

    tally = [0] * _TALLY_SIZE
    for x in range(n):
        nx = adj[x]
        if len(nx) < 2:
            continue  # centers nothing; its one edge is its neighbor's or counts nothing
        # star products: wedges, then claws, in `_WEDGES` and `_CLAWS` order
        d1, d2, d3 = deg_out[x], deg_in[x], deg_mut[x]
        p1, p2, p3 = d1 * (d1 - 1) // 2, d2 * (d2 - 1) // 2, d3 * (d3 - 1) // 2
        tally[0] += p1
        tally[1] += d1 * d2
        tally[2] += d1 * d3
        tally[3] += p2
        tally[4] += d2 * d3
        tally[5] += p3
        tally[6] += p1 * (d1 - 2) // 3
        tally[7] += p1 * d2
        tally[8] += p1 * d3
        tally[9] += d1 * p2
        tally[10] += d1 * d2 * d3
        tally[11] += d1 * p3
        tally[12] += p2 * (d2 - 2) // 3
        tally[13] += p2 * d3
        tally[14] += d2 * p3
        tally[15] += p3 * (d3 - 2) // 3

        rx = rank[x]
        ox = outs[x]
        sx = set(nx)
        for y in nx:
            ny = adj[y]
            if rank[y] < rx or len(ny) < 2:
                continue  # owned by y, or a pendant edge on no path, triangle or C4
            oy = outs[y]
            tau = (y in ox) + 2 * (x in oy)
            common = sx.intersection(ny)
            cx1 = cx2 = cx3 = cy1 = cy2 = cy3 = 0
            if common:
                # each common neighbor z closes a triangle x-y-z.  Paws on it start
                # from deg_t(z); this edge subtracts common_t(x, y) from the paws
                # hanging on x and common_t(y, x) from those hanging on y.
                ry = rank[y]
                sig = [0] * 9
                later = []
                apex = _PAW + 81 * tau - 75  # the pendant hangs on the common neighbor
                for z in common:
                    oz = outs[z]
                    s = 3 * ((z in ox) + 2 * (x in oz)) + (z in oy) + 2 * (y in oz) - 4
                    sig[s] += 1
                    k = apex + 9 * s
                    tally[k] += deg_out[z]
                    tally[k + 1] += deg_in[z]
                    tally[k + 2] += deg_mut[z]
                    if rank[z] > ry:
                        later.append((z, oz, s))
                cx1, cx2, cx3 = sig[0] + sig[1] + sig[2], sig[3] + sig[4] + sig[5], sig[6] + sig[7] + sig[8]
                cy1, cy2, cy3 = sig[0] + sig[3] + sig[6], sig[1] + sig[4] + sig[7], sig[2] + sig[5] + sig[8]
                present = [s for s in range(9) if sig[s]]
                paw = _PAW + 81 * tau - 81
                diamond = _DIAMOND + 81 * tau - 81
                for i, s in enumerate(present):
                    c = sig[s]
                    k = paw + 9 * s
                    tally[k] -= c * cx1
                    tally[k + 1] -= c * cx2
                    tally[k + 2] -= c * cx3
                    tally[k + 3] -= c * cy1
                    tally[k + 4] -= c * cy2
                    tally[k + 5] -= c * cy3
                    # diamonds on this edge: pairs of common neighbors (an adjacent
                    # pair is a K4, which the K4 listing corrects)
                    k = diamond + 9 * s
                    tally[k + s] += c * (c - 1) // 2
                    for s2 in present[i + 1 :]:
                        tally[k + s2] += c * sig[s2]
                # triangles and K4s are listed from their two lowest-ranked nodes
                tri = _TRI + 9 * tau - 9
                k4 = _K4 + 243 * tau - 244
                for i, (z, oz, s) in enumerate(later):
                    tally[tri + s] += 1
                    k = k4 + 27 * s
                    for w, ow, s2 in later[i + 1 :]:
                        e = (w in oz) + 2 * (z in ow)
                        if e:
                            tally[k + 3 * s2 + e] += 1
            # induced 3-paths a-x-y-d through the edge: a in N(x) minus N[y], d in N(y) minus N[x]
            a1 = d1 - cx1 - (tau == 1)
            a2 = d2 - cx2 - (tau == 2)
            a3 = d3 - cx3 - (tau == 3)
            b1 = deg_out[y] - cy1 - (tau == 2)
            b2 = deg_in[y] - cy2 - (tau == 1)
            b3 = deg_mut[y] - cy3 - (tau == 3)
            if (a1 or a2 or a3) and (b1 or b2 or b3):
                k = _PATH + 9 * tau - 9
                tally[k] += a1 * b1
                tally[k + 1] += a1 * b2
                tally[k + 2] += a1 * b3
                tally[k + 3] += a2 * b1
                tally[k + 4] += a2 * b2
                tally[k + 5] += a2 * b3
                tally[k + 6] += a3 * b1
                tally[k + 7] += a3 * b2
                tally[k + 8] += a3 * b3

        # induced 4-cycles x-b-c-d-x with x lowest-ranked: 2-paths x-b-c grouped by c
        ends: dict[int, list[int]] = {}
        for b in nx:
            if rank[b] > rx:
                for c in adj[b]:
                    if rank[c] > rx and c not in sx:
                        if c in ends:
                            ends[c].append(b)
                        else:
                            ends[c] = [b]
        for c, mids in ends.items():
            if len(mids) < 2:
                continue
            oc = outs[c]
            for i, b in enumerate(mids):
                ob = outs[b]
                k = _C4 - 40 + 27 * ((b in ox) + 2 * (x in ob)) + 9 * ((c in ob) + 2 * (b in oc))
                for d in mids[i + 1 :]:
                    od = outs[d]
                    if d in ob or b in od:
                        continue  # chord b-d: a diamond, counted per edge
                    tally[k + 3 * ((d in oc) + 2 * (c in od)) + (d in ox) + 2 * (x in od)] += 1

    counts = [0] * TOTAL_CLASSES
    deltas = term_deltas()
    for key, units in enumerate(tally):
        if units:
            delta = deltas[key]
            for i in range(0, len(delta), 2):
                counts[delta[i]] += delta[i + 1] * units
    return counts


def census(g: DirectedGraph) -> CensusVector:
    """Exact 212-class census of g; graphs with under 3 nodes yield zeros."""
    return CensusVector.from_counts(_count_from_roots(g))


def census_parallel(g: DirectedGraph, workers: int) -> CensusVector:
    """census(g), counted in this process whatever `workers` (>= 1) is.

    Kept only because perfbench traces this name (ROADMAP item 3).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return census(g)

