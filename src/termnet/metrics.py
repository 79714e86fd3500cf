"""Nine global metrics per network: density, reciprocity, transitivity,
and in/out degree statistics.

Ratios with a zero denominator are reported as 0.0 with the matching entry of
`defined` cleared, so downstream feature matrices stay rectangular while
degenerate networks remain auditable.
"""

from __future__ import annotations

from .graphs import DirectedGraph

__all__ = [
    "METRIC_NAMES",
    "degree_stats",
    "density",
    "global_feature_vector",
    "reciprocity",
    "transitivity",
]

METRIC_NAMES = (
    "density",
    "reciprocity",
    "transitivity",
    "in_mean",
    "in_max",
    "in_min",
    "out_mean",
    "out_max",
    "out_min",
)


def density(g: DirectedGraph) -> tuple[float, bool]:
    """|E| / (|V|(|V|-1)); undefined for graphs with fewer than 2 nodes."""
    n = g.node_count
    if n < 2:
        return 0.0, False
    return g.edge_count / (n * (n - 1)), True


def _reciprocated(g: DirectedGraph) -> int:
    """Edges (u, v) whose reverse (v, u) is an edge too: summed over u, the
    mutual neighbors |out(u) & in(u)| = |out(u)| + |in(u)| - |skeleton(u)|."""
    return sum(len(o) + len(i) - len(s) for o, i, s in zip(g.out_adjacency, g.in_adjacency, g.skeleton_adjacency))


def reciprocity(g: DirectedGraph) -> tuple[float, bool]:
    """Fraction of edges whose reverse edge also exists; undefined when |E|=0."""
    if g.edge_count == 0:
        return 0.0, False
    return _reciprocated(g) / g.edge_count, True


def transitivity(g: DirectedGraph) -> tuple[float, bool]:
    """Fraction of directed 2-paths u->v->w (u != w) closed by edge u->w.

    Total 2-paths through middle node v is in(v)*out(v) minus v's mutual
    neighbors (those give u->v->u, excluded by u != w).  Closed paths are
    counted per closing edge (u,w) as |out(u) & in(w)|; the common neighbor v
    is distinct from u and w automatically since self-loops cannot exist.
    """
    total = sum(len(i) * len(o) for o, i in zip(g.out_adjacency, g.in_adjacency)) - _reciprocated(g)
    if total == 0:
        return 0.0, False

    outs = [set(ns) for ns in g.out_adjacency]
    ins = [set(ns) for ns in g.in_adjacency]
    closed = sum(len(outs[u] & ins[w]) for u, ws in enumerate(g.out_adjacency) for w in ws)
    return closed / total, True


def degree_stats(adjacency: tuple[tuple[int, ...], ...]) -> tuple[tuple[float, float, float], bool]:
    """(mean, max, min) of the degrees in `g.in_adjacency` or `g.out_adjacency`; undefined if empty."""
    if not adjacency:
        return (0.0, 0.0, 0.0), False
    seq = list(map(len, adjacency))
    return (sum(seq) / len(seq), float(max(seq)), float(min(seq))), True


def global_feature_vector(g: DirectedGraph) -> tuple[list[float], list[bool]]:
    """(values, defined), each in METRIC_NAMES order."""
    d, d_ok = density(g)
    r, r_ok = reciprocity(g)
    t, t_ok = transitivity(g)
    in_stats, in_ok = degree_stats(g.in_adjacency)
    out_stats, out_ok = degree_stats(g.out_adjacency)
    return [d, r, t, *in_stats, *out_stats], [d_ok, r_ok, t_ok, *[in_ok] * 3, *[out_ok] * 3]
