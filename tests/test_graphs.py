import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import qconn.graphs
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
from qconn.graphs import MAX_ORDER, _bits, _reach_mask, _reach_within, count_labeled_graphs

from conftest import random_graph_mask


# -- construction and invariants ------------------------------------------


def test_basic_invariants():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.degrees() == (1, 2, 2, 1)
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.rows[1] == 0b101
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
    h = Graph(70, [*g.with_edges_removed([(u, v)]).edges(), (u, v)])
    assert h == g
    assert g.has_edge(u, v) and g.has_edge(v, u)
    assert complete(70).has_edge(np.int64(0), np.int64(65))
    assert not empty(70).has_edge(np.int64(65), np.int64(0))
    with pytest.raises(TypeError):
        Graph(3, [(0, 1.0)])
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
    assert components(g) == ((0, 1, 2), (3, 4), (5,))
    assert not is_connected(g)
    assert is_connected(cycle(4))
    assert is_connected(empty(1))
    assert is_connected(empty(0))


def test_subgraph():
    g = cycle(5)
    h = g.subgraph([0, 1, 2])
    assert h.m == 2 and h.has_edge(0, 1) and h.has_edge(1, 2)
    assert g.subgraph([2, 0, 3]) == Graph(3, [(0, 2)])
    assert join(complete(2), empty(3)).subgraph([2, 3, 4]) == empty(3)


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
    assert Graph(4, [*h.edges(), (0, 1)]) == g
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


def long_header(n):
    return "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))


# (line, byte offset, message) for every Graph6Error branch of the decoder
GRAPH6_ERRORS = [
    ("", 0, "empty graph6 string"),
    ("B\x20", 1, "byte 32 outside graph6 range [63,126]"),  # space in the payload
    ("D?\x7f", 2, "byte 127 outside graph6 range [63,126]"),
    (">>graph6<<D?\x7f", 2, "byte 127 outside graph6 range [63,126]"),  # after the prefix
    ("D?", 2, "truncated payload: need 2 bytes for n=5, got 1"),
    ("Bww", 2, "trailing bytes after payload for n=3"),
    ("B?" + chr(63 + 1), 2, "trailing bytes after payload for n=3"),
    ("~??", 3, "truncated long-form header"),
    ("~~??????", 1, "8-byte graph6 header (n > 258047) not supported"),
    ("A" + chr(63 + 0b100001), 1, "nonzero padding bits"),  # n=2: one bit, five pad
    # n=63: 1953 bits in 326 bytes, so the last byte's low three bits are pad
    (long_header(63) + "?" * 325 + chr(63 + 1), 329, "nonzero padding bits"),
    (long_header(MAX_ORDER + 1), 4, f"order n={MAX_ORDER + 1} exceeds the codec limit {MAX_ORDER}"),
]


def test_graph6_errors():
    for line, offset, message in GRAPH6_ERRORS:
        with pytest.raises(Graph6Error) as err:
            parse_graph6(line)
        assert (err.value.offset, str(err.value)) == (offset, f"{message} (byte offset {offset})")
    with pytest.raises(ValueError):
        write_graph6(empty(258048))


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 65, 103, 185])
def test_graph6_round_trip_at_header_and_word_boundaries(n):
    # both header forms, and bit rows either side of 8 and 64 bits; from
    # n = 35 a path outruns the 32 rounds of the decode's matrix search
    rng = np.random.default_rng(n)
    for g in (random_graph_mask(n, rng, p=0.5), random_graph_mask(n, rng, p=1.5 / max(n, 1)),
              complete(n), empty(n), path(n)):
        line = write_graph6(g)
        parsed = parse_graph6(line)
        ref = Graph.from_rows(g.rows)
        # the facts read off the matrix first, then the rows built from it
        assert parsed.degrees() == ref.degrees()
        assert components(parsed) == components(ref)
        assert np.array_equal(parsed.adjacency_bool(), ref.adjacency_bool())
        assert parsed.rows == ref.rows
        assert write_graph6(parsed) == line


def test_graph6_order_limit():
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


@pytest.mark.parametrize("n,mask_range", [
    (-1, None), (3, (6, 10)), (3, (-1, 2)), (3, (5, 4)), (2, (0, 3)),
    (7, (0, (1 << 21) + 1)),
])
def test_enumeration_rejects_bad_arguments_before_yielding(n, mask_range):
    graphs = iter_labeled_graphs(n, mask_range=mask_range)
    with pytest.raises(ValueError):
        next(graphs)


def scalar_walk(n, lo, hi):
    """The bit rows of masks lo..hi-1, walked one mask at a time: the
    enumerator before it built blocks in numpy."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(lo, hi):
        rows = [0] * n
        rest = mask
        while rest:
            b = rest & -rest
            i, j = pairs[b.bit_length() - 1]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            rest ^= b
        yield tuple(rows)


def assert_matches_scalar_walk(n, lo, hi):
    got = list(iter_labeled_graphs(n, mask_range=(lo, hi)))
    assert [g.rows for g in got] == list(scalar_walk(n, lo, hi)), (n, lo, hi)
    for g in got:
        fresh = Graph.from_rows(g.rows)
        assert g.n == n and g.rows == fresh.rows
        assert g._degs == fresh.degrees()
        # only a connected graph arrives with its component
        assert g._comps == (components(fresh) if is_connected(fresh) else None)
        assert is_connected(g) == is_connected(fresh)
        assert components(g) == components(fresh)


def test_block_enumerator_matches_scalar_walk_small_orders():
    for n in range(6):
        total = count_labeled_graphs(n)
        assert_matches_scalar_walk(n, 0, total)
        assert [g.rows for g in iter_labeled_graphs(n)] == list(scalar_walk(n, 0, total))


@pytest.mark.parametrize("n,lo,hi", [
    (6, 1000, 5000),      # mid-block to mid-block across one block edge
    (6, 2047, 2049),      # the two masks either side of a block edge
    (6, 30000, 1 << 15),  # the last, partial block
    (7, 4095, 10241),     # across three block edges
    (7, (1 << 21) - 3000, 1 << 21),
    (7, 12345, 12345),    # empty range
    (7, 5 * 2**11 - 7, 9 * 2**11 + 13),  # unaligned, across high half-table words 4 to 9
    (5, 300, 1 << 10),    # C(5,2) = 10 < 11 pairs: a one-word high half-table
])
def test_block_enumerator_matches_scalar_walk_on_slices(n, lo, hi):
    assert_matches_scalar_walk(n, lo, hi)


def _reach_batches():
    """(graphs, seen, allowed) batches of bit-row graphs with n <= 8 and
    seen inside allowed: every graph fills allowed at the first step; no
    graph gains a vertex (two batches); a path that needs seven steps
    beside graphs that settle at once; and seeded random batches."""
    rng = np.random.default_rng(2325)

    def batch(gs, seen, allowed):
        rows = np.zeros((len(gs), 8), dtype=np.uint8)
        for row, g in zip(rows, gs):
            row[:g.n] = g.rows
        return rows.view(np.uint64).ravel(), np.array(seen, dtype=np.uint8), allowed

    yield batch([complete(8)] * 8, [1 << v for v in range(8)], 255)
    yield batch([cycle(8)] * 4, [1, 1 << 2, 1 << 4, 1 << 6], 0b01010101)  # no two allowed adjacent
    yield batch([empty(8)] * 4 + [complete(4)], [0, 1, 0b1010, 255, 0b1111], 255)
    yield batch([path(8), complete(8), empty(8), cycle(8)], [1, 1, 1, 1 << 7], 255)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        allowed = int(rng.integers(1, 1 << n))
        gs = [random_graph_mask(n, rng, p) for p in rng.random(50)]
        yield batch(gs, rng.integers(0, 256, len(gs)) & allowed, allowed)


def test_reach_within_matches_scalar_reach():
    for graphs, seen, allowed in _reach_batches():
        got = _reach_within(graphs, seen.copy(), allowed)
        rows = graphs.view(np.uint8).reshape(-1, 8).tolist()
        want = [0] * len(rows)
        for i, (row, start) in enumerate(zip(rows, seen.tolist())):
            for v in _bits(start):
                want[i] |= _reach_mask(row, v, allowed)
        assert got.dtype == np.uint8 and got.tolist() == want, (allowed, seen.tolist())


def test_enumeration_mask_range_partition():
    total = count_labeled_graphs(4)
    first = list(iter_labeled_graphs(4, mask_range=(0, 20)))
    second = list(iter_labeled_graphs(4, mask_range=(20, total)))
    assert len(first) + len(second) == total
    everything = list(iter_labeled_graphs(4))
    assert first + second == everything


# the private slots behind a Graph's rows and cached facts
GRAPH_SLOTS = {"_rows", "_degs", "_comps", "_np_adj", "_np_deg"}


def test_only_graphs_writes_graph_private_slots():
    # a graph's cached facts are written where they are computed, in
    # qconn.graphs; any other module builds graphs through its constructors
    assert set(Graph.__slots__) == GRAPH_SLOTS | {"n"}
    modules = sorted(Path(qconn.graphs.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    writes = []
    for path in modules:
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr":
                targets = [ast.Attribute(attr=arg.value, lineno=node.lineno) for arg in node.args[1:2]
                           if isinstance(arg, ast.Constant)]
            else:
                continue
            writes += [f"{path.name}:{t.lineno} {t.attr}" for target in targets
                       for t in ast.walk(target) if isinstance(t, ast.Attribute) and t.attr in GRAPH_SLOTS]
    assert writes == []
