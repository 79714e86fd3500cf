"""Directed graph container and small-subgraph primitives.

Every feature extractor shares this representation: a simple directed graph
(no self-loops, no parallel edges) over dense integer node ids, with
sorted out/in/skeleton adjacency tuples.  Graphs are immutable after
construction.

Subgraph bit layout (shared by all modules): for k ordered nodes, the code is
the adjacency matrix read row by row with the diagonal skipped, most
significant bit first.  For k=3 and nodes (a, b, c) the bit positions are

    bit 5   4   3   2   1   0
        a>b a>c b>a b>c c>a c>b

and analogously 12 bits for k=4.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .manifest import read_table, write_csv

__all__ = [
    "DirectedGraph",
    "EDGE_COLUMNS",
    "build_graph",
    "pair_order",
    "write_edge_csv",
]

EDGE_COLUMNS = dict(src_handle=str, dst_handle=str)


def pair_order(k: int) -> list[tuple[int, int]]:
    """Row-major ordered pairs (i, j), i != j: position p maps to bit k*(k-1)-1-p."""
    return [(i, j) for i in range(k) for j in range(k) if i != j]


class DirectedGraph:
    """Simple directed graph over node ids 0..node_count-1.

    The sorted out-adjacency is the one stored copy of the edge set; the
    sorted in- and skeleton adjacencies are derived from it once.  `handles`
    optionally maps each id back to the original user handle; synthetic
    graphs may leave it as None.
    """

    __slots__ = ("node_count", "edge_count", "out_adjacency", "in_adjacency", "skeleton_adjacency", "handles")

    def __init__(
        self,
        node_count: int,
        edges: Iterable[tuple[int, int]],
        handles: Sequence[str] | None = None,
    ):
        if node_count < 0:
            raise ValueError("node_count must be >= 0")
        out_nbrs = [[] for _ in range(node_count)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u},{v}) outside node range 0..{node_count - 1}")
            out_nbrs[u].append(v)
        if handles is not None and len(handles) != node_count:
            raise ValueError("handles length must equal node_count")

        self.node_count = node_count
        self.out_adjacency = tuple(tuple(sorted(set(ns))) for ns in out_nbrs)  # repeats collapse
        self.edge_count = sum(map(len, self.out_adjacency))
        in_nbrs = [[] for _ in range(node_count)]
        for u, ns in enumerate(self.out_adjacency):
            for v in ns:
                in_nbrs[v].append(u)  # u ascends, so each list is sorted
        self.in_adjacency = tuple(map(tuple, in_nbrs))
        self.skeleton_adjacency = tuple(tuple(sorted({*o, *i})) for o, i in zip(self.out_adjacency, in_nbrs))
        self.handles = tuple(handles) if handles is not None else None

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set, rebuilt from `out_adjacency` on each access."""
        return frozenset(self.sorted_edges())

    def handle(self, node: int) -> str:
        if self.handles is None:
            return str(node)
        return self.handles[node]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, ns in enumerate(self.out_adjacency) for v in ns]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        # the out-adjacency fixes the node count and the other two adjacencies
        return self.out_adjacency == other.out_adjacency and self.handles == other.handles

    def __hash__(self):
        return hash(self.out_adjacency)

    def __repr__(self) -> str:
        return f"DirectedGraph(nodes={self.node_count}, edges={self.edge_count})"


def build_graph(pairs: Iterable[tuple[str, str]]) -> DirectedGraph:
    """Build a graph from (source handle, target handle) pairs.

    Self-pairs are dropped and duplicates collapsed; handles are interned in
    first-appearance order among the surviving pairs, so the node set is
    exactly the users incident to at least one edge.
    """
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for src, dst in pairs:  # a repeat interns nothing new, and DirectedGraph collapses its edge
        if src == dst:
            continue
        u = index.setdefault(src, len(index))
        v = index.setdefault(dst, len(index))
        edges.append((u, v))
    handles = list(index)
    return DirectedGraph(len(handles), edges, handles)


def write_edge_csv(g: DirectedGraph, path, manifest_hash: str) -> None:
    """Stamped edge list: `src_handle,dst_handle`, one row per edge in sorted order."""
    rows = ([g.handle(u), g.handle(v)] for u, v in g.sorted_edges())
    write_csv(path, manifest_hash, EDGE_COLUMNS, rows)


def read_edge_csv(path) -> DirectedGraph:
    """Rebuild a graph from a `write_edge_csv` file."""
    return build_graph(map(tuple, read_table(path, EDGE_COLUMNS, "edge-list", key=0)))
