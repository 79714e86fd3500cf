import hashlib
import itertools
import time
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termnet.census import (
    CLASS_COUNT_3,
    CLASS_COUNT_4,
    TOTAL_CLASSES,
    CensusVector,
    build_class_table,
    census,
    census_parallel,
    get_class_table,
)
import termnet.census as census_mod
from termnet.graphs import DirectedGraph, build_graph

import oracles
from oracles import gen_random_digraph


def test_class_counts(class_table):
    assert class_table.class_count_3 == CLASS_COUNT_3 == 13
    assert class_table.class_count_4 == CLASS_COUNT_4 == 199
    assert TOTAL_CLASSES == 212


def test_class_universe_matches_oracle(class_table):
    classes3, classes4 = oracles.class_universe()
    assert list(class_table.canonical_codes3) == classes3
    assert list(class_table.canonical_codes4) == classes4


def test_table_maps_exactly_connected_codes(class_table):
    for k, table in ((3, class_table.class_of_code3), (4, class_table.class_of_code4)):
        for code, cid in enumerate(table):
            assert (cid >= 0) == oracles.skeleton_connected(code, k)


def test_table_sound_under_canonicalization(class_table):
    # a code and its canonical form always land in the same class
    for k, table in ((3, class_table.class_of_code3), (4, class_table.class_of_code4)):
        for code, cid in enumerate(table):
            if cid < 0:
                continue
            canon = oracles.canonical_code(code, k)
            assert table[canon] == cid
            assert class_table.canonical_code(cid) == canon


def test_directed_path_class_has_six_labeled_codes(class_table):
    # a -> b -> c has a trivial automorphism group, so all 6 relabelings differ
    path_code = oracles.subgraph_code({(0, 1), (1, 2)}, [0, 1, 2])
    cid = class_table.class_of_code3[path_code]
    preimage = [c for c in range(64) if class_table.class_of_code3[c] == cid]
    assert len(preimage) == 6


def test_class_ids_ordered_by_canonical_code(class_table):
    codes = [class_table.canonical_code(cid) for cid in range(CLASS_COUNT_3)]
    assert codes == sorted(codes)
    codes4 = [class_table.canonical_code(cid) for cid in range(CLASS_COUNT_3, TOTAL_CLASSES)]
    assert codes4 == sorted(codes4)


def test_class_edges_reproduce_code(class_table):
    for cid in range(TOTAL_CLASSES):
        k = class_table.class_size(cid)
        edges = class_table.class_edges(cid)
        assert oracles.subgraph_code(set(edges), list(range(k))) == class_table.canonical_code(cid)


def test_enumerate_subsets_examples():
    cycle = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
    assert list(oracles.enumerate_connected_subsets(cycle, 3)) == [(0, 1, 2)]

    k4 = DirectedGraph(4, [(i, j) for i in range(4) for j in range(4) if i != j])
    assert len(list(oracles.enumerate_connected_subsets(k4, 3))) == 4
    assert list(oracles.enumerate_connected_subsets(k4, 4)) == [(0, 1, 2, 3)]

    disjoint = build_graph([("a", "b"), ("c", "d")])
    assert list(oracles.enumerate_connected_subsets(disjoint, 3)) == []


def test_enumerate_subsets_unique_and_connected(rng):
    for _ in range(10):
        n = int(rng.integers(5, 14))
        g = gen_random_digraph(n, float(rng.uniform(0.1, 0.4)), int(rng.integers(1 << 30)))
        edge_set = set(g.edges)
        for k in (3, 4):
            subsets = list(oracles.enumerate_connected_subsets(g, k))
            assert len(subsets) == len(set(subsets))
            expected = [
                nodes
                for nodes in itertools.combinations(range(n), k)
                if oracles.skeleton_connected(oracles.subgraph_code(edge_set, nodes), k)
            ]
            assert sorted(subsets) == expected


def test_census_directed_cycle(class_table):
    g = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
    vec = census(g)
    assert vec.total == 1
    nonzero = [(i, c) for i, c in enumerate(vec.counts) if c]
    assert len(nonzero) == 1
    cid, count = nonzero[0]
    assert count == 1
    assert vec.normalized[cid] == 1.0
    cycle_code = oracles.subgraph_code({(0, 1), (1, 2), (2, 0)}, [0, 1, 2])
    assert cid == class_table.class_of_code3[cycle_code]


def test_census_out_star(class_table):
    g = build_graph([("c", "x"), ("c", "y"), ("c", "z")])
    vec = census(g)
    star3 = class_table.class_of_code3[oracles.subgraph_code({(0, 1), (0, 2)}, [0, 1, 2])]
    star4 = class_table.class_of_code4[oracles.subgraph_code({(0, 1), (0, 2), (0, 3)}, [0, 1, 2, 3])]
    assert vec.counts[star3] == 3
    assert vec.counts[star4] == 1
    assert vec.total == 4
    assert vec.normalized[star3] == 0.75
    assert vec.normalized[star4] == 0.25
    assert sum(vec.counts) == 4


def test_census_er_graph_matches_oracle():
    g = gen_random_digraph(8, 0.3, seed=42)
    assert list(census(g).counts) == oracles.brute_census(g)


def test_census_oracle_equivalence_batch(rng):
    for trial in range(12):
        n = int(rng.integers(3, 14))
        p = float(rng.uniform(0.05, 0.5))
        g = gen_random_digraph(n, p, seed=1000 + trial)
        assert list(census(g).counts) == oracles.brute_census(g), (n, p, trial)


def test_census_small_graphs_zero():
    assert census(build_graph([])).total == 0
    assert census(build_graph([("a", "b")])).total == 0
    assert census(build_graph([("a", "b")])).counts == (0,) * TOTAL_CLASSES
    # every graph under 3 nodes goes through the root pass, which finds no subset
    for g in (DirectedGraph(0, []), DirectedGraph(1, []), DirectedGraph(2, []), build_graph([("a", "b"), ("b", "a")])):
        c = census(g)
        assert (c.total, c.counts, c.normalized) == (0, (0,) * TOTAL_CLASSES, (0.0,) * TOTAL_CLASSES)


def test_census_isomorphism_invariance(rng):
    g = gen_random_digraph(12, 0.25, seed=7)
    base = census(g).counts
    for _ in range(3):
        perm = list(rng.permutation(g.node_count))
        relabeled = DirectedGraph(g.node_count, [(perm[u], perm[v]) for u, v in g.edges])
        assert census(relabeled).counts == base


def test_census_completeness_vs_enumeration():
    g = gen_random_digraph(15, 0.2, seed=5)
    vec = census(g)
    n3 = len(list(oracles.enumerate_connected_subsets(g, 3)))
    n4 = len(list(oracles.enumerate_connected_subsets(g, 4)))
    assert sum(vec.counts[:CLASS_COUNT_3]) == n3
    assert sum(vec.counts[CLASS_COUNT_3:]) == n4
    assert vec.total == n3 + n4


def test_census_unchanged_by_far_disjoint_edge():
    g = gen_random_digraph(10, 0.3, seed=11)
    base = census(g).counts
    extended = DirectedGraph(g.node_count + 2, list(g.edges) + [(g.node_count, g.node_count + 1)])
    assert census(extended).counts == base


def test_census_parallel_matches_serial():
    g = gen_random_digraph(60, 0.1, seed=9)
    serial = census(g)
    for workers in (1, 2, 5):
        par = census_parallel(g, workers)
        assert par.counts == serial.counts
        assert par.normalized == serial.normalized
    assert census_parallel(build_graph([]), 4).total == 0
    with pytest.raises(ValueError):
        census_parallel(g, 0)


# dyad types as drawn below: 1 = out (u -> v), 2 = in (v -> u), 3 = mutual
def _dyad_edges(u, v, t):
    return ([(u, v)] if t & 1 else []) + ([(v, u)] if t & 2 else [])


@st.composite
def random_digraphs(draw):
    n = draw(st.integers(0, 14))
    pairs = list(itertools.combinations(range(n), 2))
    types = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    return DirectedGraph(n, [e for (u, v), t in zip(pairs, types) for e in _dyad_edges(u, v, t)])


@st.composite
def hub_digraphs(draw):
    """1-3 hubs with out/in/mutual leaves, a few leaf-leaf edges and leaves
    shared between hubs, under a random relabeling."""
    hubs = draw(st.integers(1, 3))
    leaves = draw(st.lists(st.tuples(st.integers(0, hubs - 1), st.integers(1, 3)), min_size=1, max_size=45))
    n = hubs + len(leaves)
    edges = []
    for h, g in itertools.combinations(range(hubs), 2):
        edges += _dyad_edges(h, g, draw(st.integers(0, 3)))
    for i, (h, t) in enumerate(leaves):
        edges += _dyad_edges(h, hubs + i, t)
    leaf = st.integers(hubs, n - 1)
    for h, v, t in draw(st.lists(st.tuples(st.integers(0, hubs - 1), leaf, st.integers(1, 3)), max_size=6)):
        edges += _dyad_edges(h, v, t)  # shared leaves
    for u, v, t in draw(st.lists(st.tuples(leaf, leaf, st.integers(1, 3)), max_size=6)):
        if u != v:
            edges += _dyad_edges(u, v, t)
    perm = draw(st.permutations(range(n)))
    return DirectedGraph(n, {(perm[u], perm[v]) for u, v in edges})


@st.composite
def dense_digraphs(draw):
    """Near-complete graphs like the community networks of the paper corpus."""
    n = draw(st.integers(4, 12))
    pairs = list(itertools.combinations(range(n), 2))
    types = draw(st.lists(st.integers(1, 3), min_size=len(pairs), max_size=len(pairs)))
    missing = draw(st.sets(st.integers(0, len(pairs) - 1), max_size=n))
    edges = [e for p, ((u, v), t) in enumerate(zip(pairs, types)) if p not in missing for e in _dyad_edges(u, v, t)]
    return DirectedGraph(n, edges)


@settings(max_examples=150, deadline=None)
@given(random_digraphs())
def test_census_equals_esu_on_random_digraphs(g):
    assert list(census(g).counts) == oracles.esu_census(g)


@settings(max_examples=100, deadline=None)
@given(hub_digraphs())
def test_census_equals_esu_on_hub_graphs(g):
    assert list(census(g).counts) == oracles.esu_census(g)


@settings(max_examples=60, deadline=None)
@given(dense_digraphs())
def test_census_equals_esu_on_dense_graphs(g):
    assert list(census(g).counts) == oracles.esu_census(g)


def test_census_hub_star_closed_form(class_table):
    # 3000 leaves, no leaf-leaf edges: ESU would visit C(3000, 3), about 4.5e9 claws
    n_type = {1: 1400, 2: 1000, 3: 600}
    kinds = [t for t, k in n_type.items() for _ in range(k)]
    edges = [e for leaf, t in enumerate(kinds, start=1) for e in _dyad_edges(0, leaf, t)]
    g = DirectedGraph(len(kinds) + 1, edges)

    expected = [0] * TOTAL_CLASSES
    for types in itertools.combinations_with_replacement((1, 2, 3), 2):
        code = oracles.subgraph_code(set(_dyad_edges(0, 1, types[0]) + _dyad_edges(0, 2, types[1])), [0, 1, 2])
        expected[class_table.class_of_code3[code]] += prod([comb(n_type[t], types.count(t)) for t in set(types)])
    for types in itertools.combinations_with_replacement((1, 2, 3), 3):
        star = set(_dyad_edges(0, 1, types[0]) + _dyad_edges(0, 2, types[1]) + _dyad_edges(0, 3, types[2]))
        code = oracles.subgraph_code(star, [0, 1, 2, 3])
        expected[class_table.class_of_code4[code]] += prod([comb(n_type[t], types.count(t)) for t in set(types)])

    start = time.perf_counter()
    vec = census(g)
    elapsed = time.perf_counter() - start
    assert list(vec.counts) == expected
    assert vec.total == comb(3000, 2) + comb(3000, 3)
    assert elapsed <= 5.0


def test_census_vector_normalization():
    vec = CensusVector.from_counts([2] + [0] * 210 + [6])
    assert vec.total == 8
    assert vec.normalized[0] == 0.25
    assert vec.normalized[211] == 0.75
    assert abs(sum(vec.normalized) - 1.0) < 1e-9
    # scaling all counts leaves the normalized vector unchanged
    scaled = CensusVector.from_counts([10] + [0] * 210 + [30])
    assert scaled.normalized == vec.normalized
    zero = CensusVector.from_counts([0] * 212)
    assert zero.normalized == (0.0,) * 212
    with pytest.raises(ValueError):
        CensusVector.from_counts([1, 2, 3])


def test_class_table_hash_is_pinned():
    # every features manifest and the benchmark's class-table reference depend on these bytes
    assert get_class_table().content_hash == "e39da4c4a5e1b87e78378f3b355e94933f538e60598a21c34ccd6026f5e5bc7c"


def test_class_table_equals_reference_class_table(class_table):
    class3, class4, canonical3, canonical4 = oracles.reference_class_table()
    assert list(class_table.class_of_code3) == class3
    assert list(class_table.class_of_code4) == class4
    assert list(class_table.canonical_codes3) == canonical3
    assert list(class_table.canonical_codes4) == canonical4
    # the hash reads the table as int64 bytes, which numpy writes the same way
    digest = hashlib.sha256(b"termnet-class-table-v1")
    digest.update(np.array(class3, dtype=np.int64).tobytes() + np.array(class4, dtype=np.int64).tobytes())
    assert class_table.content_hash == digest.hexdigest()


@pytest.mark.parametrize(
    "code, canonical, problem",
    [
        (0x000, 0xFFF, "k=4: code 0x0 inconsistent with canonical 0xfff"),  # disconnected code, connected canon
        (0xFFE, 0xFFE, "k=4: found 200 weakly-connected classes, expected 199"),  # a second K4 class
    ],
)
def test_class_table_checks_raise(monkeypatch, code, canonical, problem):
    canonicalize_all = census_mod._canonicalize_all

    def corrupted(k):
        canon, connected = canonicalize_all(k)
        if k == 4:
            canon[code] = canonical
        return canon, connected

    monkeypatch.setattr(census_mod, "_canonicalize_all", corrupted)
    with pytest.raises(RuntimeError, match=problem):
        build_class_table()


def test_class_table_csv_export(class_table, tmp_path):
    path = tmp_path / "classes.csv"
    class_table.write_csv(path, manifest_hash="abc123")
    lines = path.read_text().splitlines()
    assert lines[0] == "# manifest_sha256=abc123"
    assert lines[1] == "class_id,k,canonical_code_hex,edge_list"
    assert len(lines) == 2 + TOTAL_CLASSES
    # spot-check one row round-trips to the canonical code
    row = lines[2 + 30].split(",")
    cid = int(row[0])
    k = int(row[1])
    edges = set()
    if row[3]:
        for part in row[3].split(";"):
            a, b = part.split("->")
            edges.add((int(a), int(b)))
    assert int(row[2], 16) == class_table.canonical_code(cid)
    assert oracles.subgraph_code(edges, list(range(k))) == class_table.canonical_code(cid)

