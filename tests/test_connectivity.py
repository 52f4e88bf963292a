import itertools

import numpy as np
import pytest

from qconn import (
    Graph,
    brute_force_connectivity,
    complete,
    cycle,
    density_condition,
    dirac_condition,
    disjoint_union,
    empty,
    is_connected,
    is_k_connected,
    is_k_connected_small,
    iter_labeled_graphs,
    join,
    local_connectivity,
    path,
    vertex_connectivity,
)

from conftest import petersen, random_graph_mask


def build_A_graph(n, k, d):
    return join(complete(k - 1), disjoint_union(complete(d - k + 2), complete(n - d - 1)))


def cut_disconnects(g, cut):
    keep = [v for v in range(g.n) if v not in set(cut)]
    return not is_connected(g.subgraph(keep))


def brute_min_separator(g, s, t):
    """Smallest vertex set (avoiding s,t) whose removal separates s from t."""
    others = [v for v in range(g.n) if v not in (s, t)]
    for size in range(len(others) + 1):
        for sub in itertools.combinations(others, size):
            keep = [v for v in range(g.n) if v not in sub]
            h = g.subgraph(keep)
            si, ti = keep.index(s), keep.index(t)
            from qconn.graphs import _reach_mask
            if not _reach_mask(h.rows, si, (1 << h.n) - 1) >> ti & 1:
                return size
    return None


# -- exact connectivity -------------------------------------------------------


def test_kappa_examples():
    assert vertex_connectivity(complete(5)).kappa == 4
    assert vertex_connectivity(complete(5)).cut == ()
    assert vertex_connectivity(cycle(6)).kappa == 2
    # A(10,3,4) = K2 v (K3 u K5): the join pair is the unique 2-cut
    g = build_A_graph(10, 3, 4)
    res = vertex_connectivity(g)
    assert res.kappa == 2
    assert res.cut == (0, 1)
    assert cut_disconnects(g, res.cut)


def test_kappa_trivial_conventions():
    assert vertex_connectivity(empty(1)).kappa == 0
    assert vertex_connectivity(empty(0)).kappa == 0
    assert vertex_connectivity(disjoint_union(complete(3), complete(2))).kappa == 0
    assert vertex_connectivity(path(2)).kappa == 1
    assert brute_force_connectivity(empty(3)).kappa == 0


def test_is_k_connected_examples():
    ok, _ = is_k_connected(complete(5), 4)
    assert ok
    ok, cut = is_k_connected(build_A_graph(103, 3, 3), 3)
    assert not ok and len(cut) == 2
    assert cut_disconnects(build_A_graph(103, 3, 3), cut)
    ok, _ = is_k_connected(complete(3), 3)
    assert not ok  # needs more than k vertices
    ok, _ = is_k_connected(cycle(6), 2)
    assert ok


def test_witness_comes_from_first_pair():
    # triangles {1,3,4} and {2,5,6} hang off the triangle {0,1,2}: the
    # cut vertices 1 and 2 are both minimum cuts, and the pair scan in
    # lexicographic order meets (0, 3), split by 1, before (0, 5)
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (3, 4), (2, 5), (2, 6), (5, 6)])
    assert is_k_connected(g, 2) == (False, (1,))
    assert vertex_connectivity(g).cut == (1,)
    assert local_connectivity(g, 0, 5) == (1, (2,))


def test_brute_force_examples():
    assert brute_force_connectivity(complete(4)).kappa == 3
    star5 = join(complete(1), empty(4))
    res = brute_force_connectivity(star5)
    assert res.kappa == 1 and res.cut == (0,)
    assert brute_force_connectivity(build_A_graph(10, 3, 4)).kappa == 2
    with pytest.raises(ValueError):
        brute_force_connectivity(empty(13))


def test_oracle_equivalence_random(rng):
    for _ in range(250):
        n = int(rng.integers(1, 13))
        g = random_graph_mask(n, rng, p=float(rng.random()))
        flow = vertex_connectivity(g)
        brute = brute_force_connectivity(g)
        assert flow.kappa == brute.kappa
        if 0 < flow.kappa < g.n - 1:
            assert len(flow.cut) == flow.kappa
            assert cut_disconnects(g, flow.cut)
            assert len(brute.cut) == brute.kappa
            assert cut_disconnects(g, brute.cut)


def test_small_threshold_check_agrees(rng):
    for _ in range(300):
        n = int(rng.integers(2, 11))
        g = random_graph_mask(n, rng, p=float(rng.random()))
        k = int(rng.integers(1, n + 1))
        a, cut_a = is_k_connected(g, k)
        b, cut_b = is_k_connected_small(g, k)
        assert a == b
        if not a and cut_a:
            assert cut_disconnects(g, cut_a)
        if not b and cut_b:
            assert cut_disconnects(g, cut_b)


def test_menger_consistency(rng):
    checked = 0
    while checked < 500:
        n = int(rng.integers(4, 9))
        g = random_graph_mask(n, rng, p=0.5)
        non_adj = [(s, t) for s in range(n) for t in range(s + 1, n) if not g.has_edge(s, t)]
        if not non_adj:
            continue
        s, t = non_adj[int(rng.integers(len(non_adj)))]
        value, cut = local_connectivity(g, s, t)
        assert len(cut) == value
        assert s not in cut and t not in cut
        # removing the cut separates s from t
        keep = [v for v in range(n) if v not in set(cut)]
        h = g.subgraph(keep)
        from qconn.graphs import _reach_mask
        si, ti = keep.index(s), keep.index(t)
        assert not _reach_mask(h.rows, si, (1 << h.n) - 1) >> ti & 1
        # and no smaller separator exists
        assert brute_min_separator(g, s, t) == value
        checked += 1


def test_local_connectivity_rejects_adjacent():
    with pytest.raises(ValueError):
        local_connectivity(complete(3), 0, 1)


def test_local_connectivity_numpy_ids():
    # numpy integer ids, past bit 63 too, act as plain ints
    g = cycle(70)
    assert local_connectivity(g, np.int64(0), np.int64(66)) == (2, (1, 69))
    assert local_connectivity(g, np.int64(0), np.int64(66), cap=1) == (1, ())


# -- sufficient conditions ------------------------------------------------------


def test_dirac_examples():
    assert dirac_condition(complete(6), 4)
    assert not dirac_condition(cycle(6), 2)  # sufficient, not necessary
    assert is_k_connected(cycle(6), 2)[0]
    assert not dirac_condition(build_A_graph(103, 3, 3), 3)


def test_dirac_soundness_exhaustive_n6():
    for g in iter_labeled_graphs(6):
        if not is_connected(g):
            continue
        delta = min(g.degrees())
        kmax = 2 * delta - g.n + 2
        if kmax >= 1:
            k = min(kmax, g.n - 1)
            assert dirac_condition(g, k)
            assert is_k_connected(g, k)[0]


def test_density_examples():
    chk = density_condition(complete(8), 3, 3)
    assert chk.m == 28 and chk.rhs == 19 and chk.satisfied and chk.hypothesis_ok
    a833 = build_A_graph(8, 3, 3)
    chk = density_condition(a833, 3, 3)
    assert chk.m == 20 and chk.satisfied and chk.hypothesis_ok
    assert not is_k_connected(a833, 3)[0]  # the exception branch
    chk = density_condition(cycle(8), 3, 3)
    assert not chk.hypothesis_ok
    assert any("min degree" in f for f in chk.hypothesis_failures)


def test_density_hypothesis_flags():
    chk = density_condition(path(4), 2, 1)
    assert any("delta >= k" in f for f in chk.hypothesis_failures)
    chk = density_condition(disjoint_union(complete(4), complete(4)), 2, 3)
    assert any("not connected" in f for f in chk.hypothesis_failures)
    chk = density_condition(complete(5), 3, 4)
    assert any("n >=" in f for f in chk.hypothesis_failures)


def test_witness_sizes_match_kappa(rng):
    for _ in range(150):
        n = int(rng.integers(3, 11))
        g = random_graph_mask(n, rng, p=0.6)
        res = vertex_connectivity(g)
        if 0 < res.kappa < n - 1:
            # no smaller set disconnects (oracle re-check)
            for size in range(1, res.kappa):
                for sub in itertools.combinations(range(n), size):
                    keep = [v for v in range(n) if v not in sub]
                    assert is_connected(g.subgraph(keep))


def test_petersen():
    assert vertex_connectivity(petersen()).kappa == 3
    assert brute_force_connectivity(petersen()).kappa == 3
