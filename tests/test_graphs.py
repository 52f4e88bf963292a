import itertools
import math

import numpy as np
import pytest

from qconn import (
    Graph,
    Graph6Error,
    complete,
    components,
    cycle,
    degree_profile,
    disjoint_union,
    empty,
    is_connected,
    iter_labeled_graphs,
    join,
    parse_graph6,
    path,
    write_graph6,
)
from qconn.graphs import MAX_ORDER, count_labeled_graphs

from conftest import random_graph_mask


# -- construction and invariants ------------------------------------------


def test_basic_invariants():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.degrees() == (1, 2, 2, 1)
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert sorted(g.neighbors(1)) == [0, 2]
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_rejects_loops_and_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_rows([0b010, 0b000, 0b000])  # asymmetric


def test_numpy_vertex_ids():
    # numpy integers past bit 63 must not wrap; floats are not vertex ids
    a = np.triu(np.random.default_rng(4).random((70, 70)) < 0.2, 1)
    a |= a.T
    edges = list(zip(*np.nonzero(a)))
    plain = [(int(u), int(v)) for u, v in edges]
    g = Graph(70, edges)
    assert g == Graph(70, plain)
    assert np.array_equal(g.adjacency_bool(), a) and g.m == int(a.sum()) // 2
    u, v = edges[-1]
    assert g.with_edges_removed([(u, v)]) == Graph(70, plain).with_edges_removed([(int(u), int(v))])
    h = g.with_edges_removed([(u, v)]).with_edge_added(u, v)
    assert h == g
    assert g.has_edge(u, v) and g.has_edge(v, u)
    assert complete(70).has_edge(np.int64(0), np.int64(65))
    assert not empty(70).has_edge(np.int64(65), np.int64(0))
    with pytest.raises(TypeError):
        Graph(3, [(0, 1.0)])
    with pytest.raises(TypeError):
        g.with_edge_added(0, 65.0)
    with pytest.raises(TypeError):
        g.has_edge(0, 65.0)


def test_complete_empty_counts():
    assert complete(4).m == 6
    assert empty(4).m == 0
    assert complete(1) == empty(1)
    assert complete(0).n == 0


def test_join_examples():
    assert join(empty(1), empty(1)) == complete(2)
    star = join(complete(1), empty(4))
    assert star.degrees() == (4, 1, 1, 1, 1)
    # K2 v (K2 u K99) is the 103-vertex extremal construction
    a = join(complete(2), disjoint_union(complete(2), complete(99)))
    assert a.n == 103
    prof = degree_profile(a)
    assert sorted(prof.degrees).count(3) == 2
    assert sorted(prof.degrees).count(102) == 2
    assert sorted(prof.degrees).count(100) == 99
    assert prof.min_degree == 3


def test_disjoint_union_examples():
    assert disjoint_union(empty(2), empty(3)) == empty(5)
    matching = disjoint_union(complete(2), complete(2))
    assert matching.m == 2 and matching.degrees() == (1, 1, 1, 1)
    inner = disjoint_union(complete(2), complete(99))
    assert inner.n == 101 and inner.m == 1 + 99 * 98 // 2


def test_join_union_edge_arithmetic(rng):
    for _ in range(1000):
        ng, nh = rng.integers(1, 9), rng.integers(1, 9)
        g = random_graph_mask(int(ng), rng)
        h = random_graph_mask(int(nh), rng)
        assert join(g, h).m == g.m + h.m + g.n * h.n
        assert disjoint_union(g, h).m == g.m + h.m


def test_degree_profile_examples():
    prof = degree_profile(cycle(5))
    assert prof.degrees == (2,) * 5 and prof.min_degree == 2
    assert prof.edge_count == 5 and prof.is_connected
    prof = degree_profile(empty(3))
    assert prof.min_degree == 0 and not prof.is_connected
    # handshake on random graphs
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = random_graph_mask(int(rng.integers(1, 12)), rng)
        assert sum(g.degrees()) == 2 * g.m


def test_components():
    g = disjoint_union(cycle(3), disjoint_union(complete(2), empty(1)))
    assert components(g) == [[0, 1, 2], [3, 4], [5]]
    assert not is_connected(g)
    assert is_connected(cycle(4))
    assert is_connected(empty(1))
    assert is_connected(empty(0))


def test_subgraph_and_complement():
    g = cycle(5)
    h = g.subgraph([0, 1, 2])
    assert h.m == 2 and h.has_edge(0, 1) and h.has_edge(1, 2)
    assert g.complement().m == 5 * 4 // 2 - 5
    assert complete(6).complement() == empty(6)


def test_numpy_views_are_read_only():
    for g in (cycle(5), parse_graph6(write_graph6(cycle(70)))):
        with pytest.raises(ValueError):
            g.adjacency_bool()[0, 2] = True
        with pytest.raises(ValueError):
            g.degree_array()[0] = 9.0
        assert g.adjacency_bool().sum() == 2 * g.m


def test_edge_edit_helpers():
    g = complete(4)
    h = g.with_edges_removed([(0, 1)])
    assert h.m == 5 and not h.has_edge(0, 1)
    assert h.with_edge_added(0, 1) == g
    with pytest.raises(ValueError):
        h.with_edges_removed([(0, 1)])


# -- graph6 codec -----------------------------------------------------------


def test_graph6_known_encodings():
    # hand-encoded per the bit layout
    assert parse_graph6("D??") == empty(5)
    assert parse_graph6("Bw") == complete(3)
    assert parse_graph6("Bg") == path(3)
    assert write_graph6(empty(5)) == "D??"
    assert write_graph6(complete(3)) == "Bw"
    assert write_graph6(Graph(1)) == "@"
    assert parse_graph6(">>graph6<<Bw") == complete(3)


def test_graph6_long_form():
    g = join(complete(2), disjoint_union(complete(2), complete(99)))  # n=103
    enc = write_graph6(g)
    assert enc.startswith("~")
    assert parse_graph6(enc) == g
    assert parse_graph6(write_graph6(empty(63))) == empty(63)


def test_graph6_round_trip_random(rng):
    for _ in range(10_000):
        n = int(rng.integers(1, 71))
        g = random_graph_mask(n, rng, p=float(rng.random()))
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_matches_networkx(rng):
    nx = pytest.importorskip("networkx")
    for _ in range(200):
        n = int(rng.integers(1, 40))
        g = random_graph_mask(n, rng)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges())
        expect = nx.to_graph6_bytes(nxg, header=False).strip().decode()
        assert write_graph6(g) == expect
        assert parse_graph6(expect) == g


def test_graph6_errors():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error) as err:
        parse_graph6("B\x20")  # space outside [63,126]
    assert err.value.offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6("D?")  # truncated payload for n=5
    with pytest.raises(Graph6Error):
        parse_graph6("Bww")  # trailing bytes
    with pytest.raises(Graph6Error):
        parse_graph6("~??")  # truncated long header
    with pytest.raises(Graph6Error):
        parse_graph6("B?" + chr(63 + 1))  # hits trailing-byte check
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(63 + 0b100001))  # n=2, nonzero padding bits
    with pytest.raises(ValueError):
        write_graph6(empty(258048))


def test_graph6_order_limit():
    def long_header(n):
        return "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))

    assert long_header(258047) == "~}~~"  # the largest 4-byte header
    # above the limit the header alone is refused: no payload is read
    for n in (MAX_ORDER + 1, 258047):
        with pytest.raises(Graph6Error, match="exceeds") as err:
            parse_graph6(long_header(n))
        assert err.value.offset == 4
    with pytest.raises(ValueError):
        write_graph6(empty(MAX_ORDER + 1))
    g = path(MAX_ORDER)
    assert parse_graph6(write_graph6(g)) == g


def test_graph6_padding_is_zero():
    # n=2 single edge: bit 1 then five zero pad bits -> chr(63+32) = '_'
    assert write_graph6(complete(2)) == "A_"
    assert parse_graph6("A_") == complete(2)


# -- enumeration --------------------------------------------------------------


def test_enumeration_counts_small():
    assert sum(1 for _ in iter_labeled_graphs(3)) == 8
    graphs = list(iter_labeled_graphs(4))
    assert len(graphs) == count_labeled_graphs(4) == 2 ** 6
    assert sum(map(is_connected, graphs)) == 38  # brute count of connected labeled graphs on 4 vertices


def test_enumeration_edge_count_distribution():
    # multiset of edge counts must match C(C(n,2), m) exactly
    for n in range(1, 5):
        npairs = n * (n - 1) // 2
        counts = {}
        for g in iter_labeled_graphs(n):
            counts[g.m] = counts.get(g.m, 0) + 1
        for m in range(npairs + 1):
            assert counts.get(m, 0) == math.comb(npairs, m)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        list(iter_labeled_graphs(8))


def test_enumeration_mask_range_partition():
    total = count_labeled_graphs(4)
    first = list(iter_labeled_graphs(4, mask_range=(0, 20)))
    second = list(iter_labeled_graphs(4, mask_range=(20, total)))
    assert len(first) + len(second) == total
    everything = list(iter_labeled_graphs(4))
    assert first + second == everything
