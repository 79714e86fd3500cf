import pytest

from termnet.graphs import DirectedGraph, build_graph
from termnet.metrics import (
    METRIC_NAMES,
    degree_stats,
    density,
    global_feature_vector,
    reciprocity,
    transitivity,
)

import oracles
from oracles import gen_random_digraph


def test_density_examples():
    assert density(build_graph([("a", "b"), ("a", "c"), ("b", "c")]))[0] == 0.5
    g3 = DirectedGraph(3, [(0, 1)])
    assert density(g3) == (1 / 6, True)
    complete = DirectedGraph(4, [(i, j) for i in range(4) for j in range(4) if i != j])
    assert density(complete) == (1.0, True)
    assert density(build_graph([])) == (0.0, False)
    assert density(DirectedGraph(1, [])) == (0.0, False)


def test_reciprocity_examples():
    g = build_graph([("a", "b"), ("b", "a"), ("a", "c")])
    assert reciprocity(g) == (2 / 3, True)
    cycle = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
    assert reciprocity(cycle) == (0.0, True)
    pair = build_graph([("a", "b"), ("b", "a")])
    assert reciprocity(pair) == (1.0, True)
    assert reciprocity(build_graph([])) == (0.0, False)


def test_transitivity_examples():
    closed = build_graph([("a", "b"), ("b", "c"), ("a", "c")])
    assert transitivity(closed) == (1.0, True)
    cycle = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
    assert transitivity(cycle) == (0.0, True)
    # transitive tournament on 4 nodes: every 2-path is closed
    tourn = DirectedGraph(4, [(i, j) for i in range(4) for j in range(4) if i < j])
    assert transitivity(tourn) == (1.0, True)
    assert transitivity(build_graph([("a", "b")])) == (0.0, False)


def test_degree_stats_examples():
    star = build_graph([(f"s{i}", "hub") for i in range(5)])
    (mean_in, max_in, min_in), ok = degree_stats(star.in_adjacency)
    assert ok and (mean_in, max_in, min_in) == (5 / 6, 5.0, 0.0)
    cycle = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
    assert degree_stats(cycle.in_adjacency) == ((1.0, 1.0, 1.0), True)
    assert degree_stats(cycle.out_adjacency) == ((1.0, 1.0, 1.0), True)
    assert degree_stats(build_graph([]).in_adjacency) == ((0.0, 0.0, 0.0), False)


def test_global_vector_directed_cycle():
    cycle = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
    values, defined = global_feature_vector(cycle)
    assert values == [0.5, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert defined == [True] * 9


def test_global_vector_empty_graph():
    values, defined = global_feature_vector(build_graph([]))
    assert values == [0.0] * 9
    assert defined == [False] * 9


def test_global_vector_complete_bidirectional_k3():
    k3 = DirectedGraph(3, [(i, j) for i in range(3) for j in range(3) if i != j])
    values, _ = global_feature_vector(k3)
    assert values == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]


def test_metric_names_order():
    assert METRIC_NAMES == (
        "density", "reciprocity", "transitivity",
        "in_mean", "in_max", "in_min", "out_mean", "out_max", "out_min",
    )


def test_matches_brute_force(rng):
    for trial in range(30):
        n = int(rng.integers(2, 26))
        p = float(rng.uniform(0.02, 0.5))
        g = gen_random_digraph(n, p, seed=500 + trial)
        values, defined = global_feature_vector(g)
        want_vals, want_defined = oracles.brute_global_metrics(g)
        assert defined == want_defined
        for got, want in zip(values, want_vals):
            assert got == pytest.approx(want, abs=1e-12)


def test_in_out_mean_equal(rng):
    g = gen_random_digraph(20, 0.2, seed=3)
    gf = dict(zip(METRIC_NAMES, global_feature_vector(g)[0]))
    assert gf["in_mean"] == gf["out_mean"] == g.edge_count / g.node_count
    assert gf["in_min"] <= gf["in_mean"] <= gf["in_max"]
    assert gf["out_min"] <= gf["out_mean"] <= gf["out_max"]


def test_ratio_metrics_within_unit_interval(rng):
    for trial in range(15):
        g = gen_random_digraph(int(rng.integers(2, 30)), float(rng.uniform(0, 0.6)), seed=trial)
        values, defined = global_feature_vector(g)
        for value, ok in zip(values[:3], defined[:3]):
            if ok:
                assert 0.0 <= value <= 1.0
            else:
                assert value == 0.0


def test_isomorphism_invariance(rng):
    g = gen_random_digraph(15, 0.25, seed=8)
    base = global_feature_vector(g)[0]
    perm = list(rng.permutation(g.node_count))
    relabeled = DirectedGraph(g.node_count, [(perm[u], perm[v]) for u, v in g.edges])
    assert global_feature_vector(relabeled)[0] == base


def test_reverse_graph_swaps_degree_stats(rng):
    g = gen_random_digraph(18, 0.2, seed=21)
    rev = DirectedGraph(g.node_count, [(v, u) for u, v in g.edges])
    gf, gr = (dict(zip(METRIC_NAMES, global_feature_vector(h)[0])) for h in (g, rev))
    assert gr["density"] == gf["density"]
    assert gr["reciprocity"] == gf["reciprocity"]
    assert (gr["in_mean"], gr["in_max"], gr["in_min"]) == (gf["out_mean"], gf["out_max"], gf["out_min"])
    assert (gr["out_mean"], gr["out_max"], gr["out_min"]) == (gf["in_mean"], gf["in_max"], gf["in_min"])
