"""Property tests for the bit-row/numpy converters, the graph6 codec, the
certified Q-index bracket and exact vertex connectivity."""

import hashlib

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from qconn import (
    Graph,
    brute_force_connectivity,
    disjoint_union,
    empty,
    local_connectivity,
    parse_graph6,
    q_index,
    vertex_connectivity,
    write_graph6,
)
from qconn.connectivity import _FlowNet
from qconn.harness import random_graph

from conftest import random_graph_mask

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


def assert_bracket_contains_eigvalsh(g: Graph) -> None:
    est = q_index(g, 1e-9, max_iterations=2000)
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
    g = random_graph_mask(n, rng, p=p)
    for i in range(n - 1):
        if not g.has_edge(i, i + 1):
            g = g.with_edge_added(i, i + 1)
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
