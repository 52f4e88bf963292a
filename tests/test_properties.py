"""Property tests for the bit-row/numpy converters, the graph6 codec, the
cached graph facts, the certified Q-index bracket and exact vertex
connectivity."""

import dataclasses
import hashlib
import itertools

import networkx as nx
import pytest
import numpy as np
from hypothesis import given, settings, strategies as st

from qconn import (
    DegreeProfile,
    Graph,
    brute_force_connectivity,
    components,
    cycle,
    degree_profile,
    disjoint_union,
    empty,
    is_connected,
    iter_labeled_graphs,
    local_connectivity,
    parse_graph6,
    q_index,
    vertex_connectivity,
    write_graph6,
)
from qconn.connectivity import _FlowNet
from qconn.graphs import count_labeled_graphs
from qconn.harness import random_graph

from conftest import random_graph_mask, with_edges, with_path

PROPERTY = settings(database=None, deadline=None, derandomize=True, max_examples=80)

orders = st.one_of(st.sampled_from([0, 1, 2, 62, 63, 64, 130]), st.integers(0, 130))
seeds = st.integers(0, 2**32 - 1)
densities = st.floats(0.0, 1.0)


def edge_matrix(g: Graph) -> np.ndarray:
    """Reference adjacency built from the edge list alone."""
    a = np.zeros((g.n, g.n), dtype=bool)
    for i, j in g.edges():
        a[i, j] = a[j, i] = True
    return a


@PROPERTY
@given(orders, seeds, densities)
def test_graph6_round_trip_and_adjacency(n, seed, p):
    g = random_graph_mask(n, np.random.default_rng(seed), p=p)
    parsed = parse_graph6(write_graph6(g))
    assert parsed == g
    expect = edge_matrix(g)
    assert np.array_equal(parsed.adjacency_bool(), expect)
    assert np.array_equal(Graph.from_rows(g.rows).adjacency_bool(), expect)


FACTS = {
    "is_connected": is_connected,
    "components": components,
    "degrees": Graph.degrees,
    "m": lambda g: g.m,
    "degree_profile": degree_profile,
}


def fresh_facts(g: Graph) -> dict:
    """The facts recomputed from the edge list alone."""
    edges = list(g.edges())
    degs = [0] * g.n
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    other = nx.Graph(edges)
    other.add_nodes_from(range(g.n))
    comps = tuple(sorted(tuple(sorted(c)) for c in nx.connected_components(other)))
    connected = len(comps) <= 1
    return {
        "is_connected": connected,
        "components": comps,
        "degrees": tuple(degs),
        "m": len(edges),
        "degree_profile": DegreeProfile(tuple(degs), min(degs, default=0), len(edges), connected),
    }


def assert_no_cached_facts(g: Graph) -> None:
    assert (g._degs, g._comps, g._np_adj, g._np_deg) == (None, None, None, None)


def drawn_graph(n: int, seed: int, p: float, shape: str) -> Graph:
    rng = np.random.default_rng(seed)
    g = random_graph_mask(n, rng, p=p)
    if shape == "graph6":  # parsed graphs arrive with their dense matrix
        return parse_graph6(write_graph6(g))
    if shape == "pieces":  # several components, isolated vertices included
        return disjoint_union(disjoint_union(g, cycle(3)), empty(int(rng.integers(1, 3))))
    return g


def enumerated_graph(n: int, seed: int) -> Graph:
    """A graph from the labeled enumerator, which arrives with its degrees
    (and, when connected, its component) already cached."""
    mask = seed % count_labeled_graphs(n)
    (g,) = iter_labeled_graphs(n, mask_range=(mask, mask + 1))
    return g


@PROPERTY
@given(st.integers(0, 40), seeds, densities,
       st.sampled_from(["rows", "graph6", "pieces", "enumerated", "decoded"]))
def test_cached_facts_match_edges_in_every_call_order(n, seed, p, shape):
    if shape == "enumerated":
        n %= 8
        g = enumerated_graph(n, seed)
    elif shape == "decoded":  # parsed afresh below: facts read off the matrix
        g = drawn_graph(n, seed, p, "pieces" if seed % 2 else "rows")
        line = write_graph6(g)
    else:
        g = drawn_graph(n, seed, p, shape)
    want = fresh_facts(g)
    for order in itertools.permutations(FACTS):
        if shape == "enumerated":
            h = enumerated_graph(n, seed)
        elif shape == "decoded":
            h = parse_graph6(line)
        else:
            h = Graph.from_rows(g.rows)
            assert_no_cached_facts(h)
        for name in order:
            assert FACTS[name](h) == want[name], (order, name)
        for name in FACTS:  # and again, now from the caches
            assert FACTS[name](h) == want[name], (order, name)


@PROPERTY
@given(st.integers(1, 40), seeds, densities, st.sampled_from(["rows", "graph6", "pieces"]))
def test_cached_facts_are_immutable_and_not_inherited(n, seed, p, shape):
    g = drawn_graph(n, seed, p, shape)
    for name in FACTS:
        FACTS[name](g)
    g.adjacency_bool(), g.degree_array()
    with pytest.raises(TypeError):
        g.degrees()[0] = -1
    with pytest.raises(TypeError):
        components(g)[0] = ()
    with pytest.raises(TypeError):
        components(g)[0][0] = -1
    with pytest.raises(dataclasses.FrozenInstanceError):
        degree_profile(g).is_connected = not is_connected(g)
    for array in (g.adjacency_bool(), g.degree_array()):
        with pytest.raises(ValueError):
            array[0] = 0
    assert fresh_facts(g) == {name: FACTS[name](g) for name in FACTS}

    edges = list(g.edges())
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    derived = [Graph(g.n, non_edges), g.subgraph(range(0, g.n, 2)), g.subgraph(range(g.n))]
    if edges:
        derived.append(g.with_edges_removed(edges[:1]))
    if non_edges:
        derived.append(with_edges(g, non_edges[-1:]))
    for h in derived:
        assert_no_cached_facts(h)
        assert {name: FACTS[name](h) for name in FACTS} == fresh_facts(h)


def assert_bracket_contains_eigvalsh(g: Graph) -> None:
    est = q_index(g, 1e-9)
    q = edge_matrix(g).astype(np.float64)
    q[np.diag_indices(g.n)] = g.degrees()
    exact = float(np.linalg.eigvalsh(q)[-1])
    allow = 4 * g.n * np.finfo(float).eps * max(2 * max(g.degrees()), 1)
    assert est.lower - allow <= exact <= est.upper + allow


@PROPERTY
@given(st.integers(32, 90), seeds, st.floats(0.05, 1.0))
def test_q_bracket_contains_eigvalsh_connected(n, seed, p):
    rng = np.random.default_rng(seed)
    # a Hamiltonian path keeps every draw connected
    g = with_path(random_graph_mask(n, rng, p=p))
    assert_bracket_contains_eigvalsh(g)


@PROPERTY
@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 5), seeds, densities)
def test_q_bracket_contains_eigvalsh_components(n1, n2, isolated, seed, p):
    rng = np.random.default_rng(seed)
    g = disjoint_union(random_graph_mask(n1, rng, p=p), random_graph_mask(n2, rng, p=p))
    g = disjoint_union(g, empty(isolated))
    if g.n < 32:
        g = disjoint_union(g, empty(32 - g.n))
    assert_bracket_contains_eigvalsh(g)


def unseeded_flow(g: Graph, s: int, t: int):
    """Max flow on the vertex-split network of the whole graph: the value
    and the residual-reachable (s-closest) minimum separator."""
    net = _FlowNet(g, s, t)
    value = 0
    while net.augment():
        value += 1
    return value, net.min_cut_vertices()


@PROPERTY
@given(st.integers(2, 10), seeds, densities, st.integers(0, 10**6), st.integers(0, 9))
def test_local_connectivity_matches_full_network(n, seed, p, pick, cap):
    g = random_graph_mask(n, np.random.default_rng(seed), p=p)
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n) if not g.has_edge(s, t)]
    if not pairs:
        return
    s, t = pairs[pick % len(pairs)]
    value, cut = unseeded_flow(g, s, t)
    assert local_connectivity(g, s, t) == (value, cut)
    for c in (cap, value, value + 1):
        assert local_connectivity(g, s, t, cap=c) == ((c, ()) if value >= c else (value, cut))
    other = nx.Graph(list(g.edges()))
    other.add_nodes_from(range(n))
    assert nx.node_connectivity(other, s, t) == value


@PROPERTY
@given(st.integers(1, 10), seeds, densities)
def test_vertex_connectivity_matches_brute_force(n, seed, p):
    g = random_graph_mask(n, np.random.default_rng(seed), p=p)
    assert vertex_connectivity(g).kappa == brute_force_connectivity(g).kappa


def test_random_graph_bytes_pinned():
    # seeded draws must stay byte-identical across releases, so that
    # counterexample reports replay exactly
    lines = [write_graph6(random_graph(103, 0.5, 3, seed=(0, i))) for i in range(20)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "db86c2bf95c5e1ab918f0bc049e5bef9fbe95b7e273d9923e4d2c1aebaaaf9f8"
