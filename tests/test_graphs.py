import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termnet.graphs import (
    DirectedGraph,
    build_graph,
    pair_order,
    read_edge_csv,
    write_edge_csv,
)
from termnet.manifest import InputError


def test_build_graph_dedup_and_direction():
    g = build_graph([("a", "b"), ("a", "b"), ("b", "a")])
    assert g.node_count == 2
    assert g.edges == {(0, 1), (1, 0)}


def test_build_graph_drops_self_pairs():
    g = build_graph([("a", "a")])
    assert g.node_count == 0
    assert g.edge_count == 0


def test_build_graph_cycle():
    g = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
    assert g.node_count == 3
    assert g.edge_count == 3
    assert g.edges == {(0, 1), (1, 2), (2, 0)}


def test_build_graph_interns_first_appearance():
    g = build_graph([("x", "y"), ("z", "x")])
    assert [g.handle(i) for i in range(3)] == ["x", "y", "z"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")), min_size=1, max_size=12), st.data())
def test_build_graph_ignores_repeats_of_earlier_pairs(pairs, data):
    repeated = list(pairs)
    for _ in range(data.draw(st.integers(0, 10))):
        at = data.draw(st.integers(1, len(repeated)))
        repeated.insert(at, repeated[data.draw(st.integers(0, at - 1))])
    loop = data.draw(st.sampled_from("abcde"))
    repeated.insert(data.draw(st.integers(0, len(repeated))), (loop, loop))
    g = build_graph(pair for pair in repeated)  # a one-shot generator
    assert g == build_graph(pairs)  # node count, edges and handles in order
    assert g == build_graph(list(dict.fromkeys(pair for pair in pairs if pair[0] != pair[1])))
    handles = [h for src, dst in pairs if src != dst for h in (src, dst)]
    assert list(g.handles) == sorted(set(handles), key=handles.index)  # first appearance


def test_build_graph_idempotent_on_own_edge_list():
    g = build_graph([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")])
    pairs = [(g.handle(u), g.handle(v)) for u, v in g.sorted_edges()]
    h = build_graph(pairs)
    assert h.node_count == g.node_count
    assert {(h.handle(u), h.handle(v)) for u, v in h.edges} == {
        (g.handle(u), g.handle(v)) for u, v in g.edges
    }


def test_degree_sequence_star():
    g = build_graph([("b", "a"), ("c", "a"), ("d", "a")])
    # nodes intern as b,a,c,d
    by_handle_in = {g.handle(i): len(ns) for i, ns in enumerate(g.in_adjacency)}
    by_handle_out = {g.handle(i): len(ns) for i, ns in enumerate(g.out_adjacency)}
    assert by_handle_in == {"a": 3, "b": 0, "c": 0, "d": 0}
    assert by_handle_out == {"a": 0, "b": 1, "c": 1, "d": 1}


def test_degree_sequence_empty():
    g = build_graph([])
    assert g.in_adjacency == ()
    assert g.out_adjacency == ()


def test_degree_sums_equal_edge_count(rng):
    for _ in range(20):
        n = int(rng.integers(2, 15))
        edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.3]
        g = DirectedGraph(n, edges)
        assert sum(map(len, g.in_adjacency)) == g.edge_count
        assert sum(map(len, g.out_adjacency)) == g.edge_count


def test_adjacency_consistent_with_edges(rng):
    n = 10
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.25]
    pairs += [pairs[int(i)] for i in rng.integers(0, len(pairs), size=5)]  # repeats collapse
    rng.shuffle(pairs)
    g = DirectedGraph(n, pairs)
    for u in range(n):
        outs = {v for a, v in pairs if a == u}
        ins = {a for a, v in pairs if v == u}
        assert g.out_adjacency[u] == tuple(sorted(outs))
        assert g.in_adjacency[u] == tuple(sorted(ins))
        assert g.skeleton_adjacency[u] == tuple(sorted(outs | ins))
    assert g.edge_count == len(set(pairs))
    assert g.sorted_edges() == sorted(set(pairs))
    assert g.edges == set(pairs)


def test_graph_stores_only_its_adjacency():
    assert DirectedGraph.__slots__ == (
        "node_count",
        "edge_count",
        "out_adjacency",
        "in_adjacency",
        "skeleton_adjacency",
        "handles",
    )
    g = build_graph([("a", "b"), ("b", "a"), ("b", "c")])
    assert not hasattr(g, "__dict__")
    assert (g.node_count, g.edge_count) == (3, 3)


def test_rejects_self_loops_and_bad_indices():
    with pytest.raises(ValueError):
        DirectedGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        DirectedGraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        DirectedGraph(2, [(-1, 0)])


def test_pair_order_layout():
    assert pair_order(3) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert len(pair_order(4)) == 12


def test_edge_csv_round_trip(tmp_path):
    g = build_graph([("alice", "bob"), ("bob, jr", "alice"), ("#tag", "alice")])
    path = tmp_path / "edges.csv"
    write_edge_csv(g, path, manifest_hash="f00d")
    assert open(path).readline() == "# manifest_sha256=f00d\n"
    h = read_edge_csv(path)
    assert {(h.handle(u), h.handle(v)) for u, v in h.edges} == {
        (g.handle(u), g.handle(v)) for u, v in g.edges
    }


def test_read_edge_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,really,bad\n1,2,3\n")
    with pytest.raises(InputError):
        read_edge_csv(path)


def test_read_edge_csv_needs_the_exact_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("src_handle,dst_handle,extra\na,b,c\n")
    with pytest.raises(InputError, match="expected edge-list header"):
        read_edge_csv(path)
    path.write_text("")
    with pytest.raises(InputError, match="expected edge-list header"):
        read_edge_csv(path)


# pieces that csv quoting, the leading `# ` block or line splitting could break
_HANDLES = st.lists(st.sampled_from(["# ", "#", ",", '"', "\n", "\r", " ", "a", "é", "ж", "名"]), max_size=5).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_HANDLES, _HANDLES), max_size=10))
def test_edge_csv_round_trips_any_handles(pairs):
    g = build_graph(pairs)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/edges.csv"
        write_edge_csv(g, path, "f00d")
        h = read_edge_csv(path)
    assert (h.node_count, h.edge_count) == (g.node_count, g.edge_count)
    assert {(h.handle(u), h.handle(v)) for u, v in h.edges} == {(g.handle(u), g.handle(v)) for u, v in g.edges}
