"""Directed graph container and small-subgraph primitives.

Every feature extractor shares this representation: a simple directed graph
(no self-loops, no parallel edges) over dense integer node ids, with
precomputed out/in/skeleton adjacency lists.  Graphs are immutable after
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
    "degree_sequence",
    "pair_order",
    "write_edge_csv",
]

EDGE_COLUMNS = dict(src_handle=str, dst_handle=str)


def pair_order(k: int) -> list[tuple[int, int]]:
    """Row-major ordered pairs (i, j), i != j: position p maps to bit k*(k-1)-1-p."""
    return [(i, j) for i in range(k) for j in range(k) if i != j]


class DirectedGraph:
    """Simple directed graph over node ids 0..node_count-1.

    `handles` optionally maps each id back to the original user handle;
    synthetic graphs may leave it as None.
    """

    __slots__ = (
        "node_count",
        "edges",
        "out_adjacency",
        "in_adjacency",
        "skeleton_adjacency",
        "handles",
        "_out_sets",
    )

    def __init__(
        self,
        node_count: int,
        edges: Iterable[tuple[int, int]],
        handles: Sequence[str] | None = None,
    ):
        if node_count < 0:
            raise ValueError("node_count must be >= 0")
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u},{v}) outside node range 0..{node_count - 1}")
            edge_set.add((u, v))
        if handles is not None and len(handles) != node_count:
            raise ValueError("handles length must equal node_count")

        out_nbrs = [[] for _ in range(node_count)]
        in_nbrs = [[] for _ in range(node_count)]
        for u, v in edge_set:
            out_nbrs[u].append(v)
            in_nbrs[v].append(u)

        self.node_count = node_count
        self.edges = frozenset(edge_set)
        self.out_adjacency = tuple(tuple(sorted(ns)) for ns in out_nbrs)
        self.in_adjacency = tuple(tuple(sorted(ns)) for ns in in_nbrs)
        self.skeleton_adjacency = tuple(
            tuple(sorted(set(out_nbrs[i]) | set(in_nbrs[i]))) for i in range(node_count)
        )
        self.handles = tuple(handles) if handles is not None else None
        # set-based out-neighborhoods: the hot membership test for subgraph codes
        self._out_sets = [set(ns) for ns in self.out_adjacency]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def handle(self, node: int) -> str:
        if self.handles is None:
            return str(node)
        return self.handles[node]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.edges == other.edges
            and self.handles == other.handles
        )

    def __hash__(self):
        return hash((self.node_count, self.edges))

    def __repr__(self) -> str:
        return f"DirectedGraph(nodes={self.node_count}, edges={len(self.edges)})"


def build_graph(pairs: Iterable[tuple[str, str]]) -> DirectedGraph:
    """Build a graph from (source handle, target handle) pairs.

    Self-pairs are dropped and duplicates collapsed; handles are interned in
    first-appearance order among the surviving pairs, so the node set is
    exactly the users incident to at least one edge.
    """
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for src, dst in dict.fromkeys(pairs):  # repeats dropped before interning, first appearance kept
        if src == dst:
            continue
        u = index.setdefault(src, len(index))
        v = index.setdefault(dst, len(index))
        edges.append((u, v))
    handles = list(index)
    return DirectedGraph(len(handles), edges, handles)


def degree_sequence(g: DirectedGraph, direction: str) -> list[int]:
    """Per-node degree list; `direction` is "in" or "out"."""
    if direction == "in":
        return [len(ns) for ns in g.in_adjacency]
    if direction == "out":
        return [len(ns) for ns in g.out_adjacency]
    raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")


def write_edge_csv(g: DirectedGraph, path, manifest_hash: str) -> None:
    """Stamped edge list: `src_handle,dst_handle`, one row per edge in sorted order."""
    rows = ([g.handle(u), g.handle(v)] for u, v in g.sorted_edges())
    write_csv(path, manifest_hash, EDGE_COLUMNS, rows)


def read_edge_csv(path) -> DirectedGraph:
    """Rebuild a graph from a `write_edge_csv` file."""
    return build_graph(map(tuple, read_table(path, EDGE_COLUMNS, "edge-list", key=0)))
