import math
from fractions import Fraction

import numpy as np
import pytest

from qconn import (
    Graph,
    adjacency_dense_oracle,
    adjacency_spectral_radius,
    complete,
    cycle,
    decide_q_ge,
    decide_q_gt,
    disjoint_union,
    empty,
    join,
    path,
    q_apply,
    q_index,
    q_index_dense_oracle,
    q_upper_bound_edges,
    rayleigh_q,
    rayleigh_q_exact,
    verify_eigen_identity,
)

from conftest import petersen, random_graph_mask


def build_A_graph(n, k, d):
    return join(complete(k - 1), disjoint_union(complete(d - k + 2), complete(n - d - 1)))


# -- operator application ----------------------------------------------------


def test_q_apply_examples():
    assert np.allclose(q_apply(complete(3), [1, 1, 1]), [4, 4, 4])
    # hand expansion of the D+A rows of the 3-path
    assert np.allclose(q_apply(path(3), [1, 0, 0]), [1, 1, 0])
    assert np.allclose(q_apply(empty(3), [2, 5, -1]), [0, 0, 0])
    with pytest.raises(ValueError):
        q_apply(complete(3), [1, 1])


def test_rayleigh_examples():
    assert rayleigh_q(complete(2), [1, 1]) == pytest.approx(2.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = random_graph_mask(int(rng.integers(1, 12)), rng)
        ones = np.ones(g.n)
        assert rayleigh_q(g, ones) == pytest.approx(4 * g.m / g.n)
    # indicator of the clique in K_p u empty: quotient 2(p-1)
    g = disjoint_union(complete(101), empty(2))
    v = np.array([1.0] * 101 + [0.0] * 2)
    assert rayleigh_q(g, v) == pytest.approx(200.0)
    with pytest.raises(ValueError):
        rayleigh_q(g, np.zeros(g.n))


def test_rayleigh_matches_q_apply_identity(rng):
    # the edge-sum identity <Qv,v> = sum over edges of (v_i+v_j)^2
    for _ in range(100):
        g = random_graph_mask(int(rng.integers(2, 14)), rng)
        v = rng.normal(size=g.n)
        if np.allclose(v, 0):
            continue
        direct = float(v @ q_apply(g, v)) / float(v @ v)
        assert rayleigh_q(g, v) == pytest.approx(direct, abs=1e-10)


def test_rayleigh_exact():
    g = disjoint_union(complete(101), empty(2))
    v = [1] * 101 + [0, 0]
    assert rayleigh_q_exact(g, v) == Fraction(200)


# -- certified q-index --------------------------------------------------------


def test_q_complete_graphs():
    for n in range(2, 51):
        est = q_index(complete(n), 1e-9)
        assert est.converged
        assert abs(est.value - 2 * (n - 1)) <= 1e-9


def test_q_cycles():
    for n in range(3, 51):
        est = q_index(cycle(n), 1e-9)
        assert est.converged
        assert abs(est.value - 4.0) <= 1e-9


def test_q_clique_plus_isolated_vertices():
    g = disjoint_union(complete(101), empty(2))
    est = q_index(g, 1e-9)
    assert est.converged
    assert abs(est.value - 200.0) <= 1e-9
    # vector is supported on the maximizing component only
    assert np.all(est.vector[:101] > 0)
    assert np.all(est.vector[101:] == 0.0)


def test_estimate_invariants_connected(rng):
    for _ in range(100):
        n = int(rng.integers(2, 16))
        g = random_graph_mask(n, rng, p=0.7)
        if not g.m:
            continue
        from qconn import is_connected
        if not is_connected(g):
            continue
        est = q_index(g, 1e-10)
        assert est.lower <= est.upper
        assert est.converged and est.width <= 1e-10
        assert np.all(est.vector > 0)
        assert abs(np.linalg.norm(est.vector) - 1.0) <= 1e-12


def test_trivial_graphs():
    assert q_index(empty(0)).value == 0.0
    est = q_index(empty(1))
    assert est.lower == est.upper == 0.0 and est.converged
    assert q_index(empty(5)).value == 0.0
    assert q_index(complete(2)).value == pytest.approx(2.0)


# -- dense eigvalsh oracle ----------------------------------------------------


def test_oracle_examples():
    star5 = join(complete(1), empty(4))
    assert q_index_dense_oracle(star5) == pytest.approx(5.0, abs=1e-10)
    assert q_index_dense_oracle(complete(4)) == pytest.approx(6.0, abs=1e-10)
    # Q(P3) has characteristic polynomial (x-1)(x)(x-3): largest root 3
    assert q_index_dense_oracle(path(3)) == pytest.approx(3.0, abs=1e-10)
    with pytest.raises(ValueError):
        q_index_dense_oracle(empty(401))


def test_dense_oracle_against_scipy(rng):
    eigvalsh = pytest.importorskip("scipy.linalg").eigvalsh
    for _ in range(50):
        n = int(rng.integers(1, 30))
        g = random_graph_mask(n, rng, p=float(rng.random()))
        adj = np.array([[float(g.has_edge(i, j)) for j in range(n)] for i in range(n)])
        q = adj + np.diag([float(g.degree(i)) for i in range(n)])
        assert q_index_dense_oracle(g) == pytest.approx(float(eigvalsh(q)[-1]), abs=1e-9)
        assert adjacency_dense_oracle(g) == pytest.approx(float(eigvalsh(adj)[-1]), abs=1e-9)


def test_oracle_agreement_random(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 31))
        g = random_graph_mask(n, rng, p=float(rng.random()))
        est = q_index(g, 1e-10)
        oracle = q_index_dense_oracle(g)
        assert abs(est.upper - oracle) <= 1e-8
        assert est.lower - 1e-9 <= oracle <= est.upper + 1e-9
    # a few orders above the small-n cutoff to exercise the numpy path
    for n in (33, 48, 60):
        g = random_graph_mask(n, rng, p=0.3)
        est = q_index(g, 1e-10)
        oracle = q_index_dense_oracle(g)
        assert abs(est.upper - oracle) <= 1e-8


def test_rayleigh_below_upper(rng):
    for _ in range(1000):
        g = random_graph_mask(int(rng.integers(1, 14)), rng)
        v = np.abs(rng.normal(size=g.n)) + 1e-3
        assert rayleigh_q(g, v) <= q_index(g, 1e-9).upper + 1e-9


def test_regular_graphs():
    cases = [(cycle(n), 2) for n in (3, 6, 11)]
    cases += [(complete(n), n - 1) for n in (2, 5, 9)]
    cases.append((petersen(), 3))
    hypercube = Graph(8, [(a, a ^ (1 << b)) for a in range(8) for b in range(3) if a < a ^ (1 << b)])
    cases.append((hypercube, 3))
    k33 = join(empty(3), empty(3))
    cases.append((k33, 3))
    for g, d in cases:
        assert abs(q_index(g, 1e-10).value - 2 * d) <= 1e-9


def test_monotone_under_edge_addition(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        g = random_graph_mask(n, rng)
        non_edges = [(i, j) for i in range(n) for j in range(i + 1, n) if not g.has_edge(i, j)]
        if not non_edges:
            continue
        u, v = non_edges[int(rng.integers(len(non_edges)))]
        before = q_index(g, 1e-10).lower
        after = q_index(g.with_edge_added(u, v), 1e-10).lower
        assert after >= before - 1e-9


# -- threshold decisions --------------------------------------------------------


def test_decide_q_ge():
    g = complete(10)  # q = 18 exactly
    assert decide_q_ge(g, 18.0)[0] is True
    assert decide_q_ge(g, 18.0 + 1e-6)[0] is False
    assert decide_q_ge(g, 17.5)[0] is True
    got, est = decide_q_ge(cycle(8), 4.0)
    assert got is True and est.lower >= 4.0 - 1e-12


def test_decide_q_gt():
    g = path(3)  # q = 3 exactly: "q > 3 + eps" must certify False
    got, est = decide_q_gt(g, 3.0 + 1e-9)
    assert got is False
    got, _ = decide_q_gt(g, 2.9)
    assert got is True


# -- adjacency spectral radius --------------------------------------------------


def test_adjacency_examples():
    for n in (3, 7, 20):
        assert abs(adjacency_spectral_radius(complete(n), 1e-10).value - (n - 1)) <= 1e-9
    assert abs(adjacency_spectral_radius(cycle(6), 1e-10).value - 2.0) <= 1e-9
    # bipartite star: plain power iteration would oscillate; shift handles it
    star = join(complete(1), empty(4))
    est = adjacency_spectral_radius(star, 1e-10)
    assert est.converged
    assert est.value == pytest.approx(2.0, abs=1e-9)  # sqrt(n-1)
    assert adjacency_dense_oracle(star) == pytest.approx(2.0, abs=1e-10)


def test_adjacency_extremal_graph():
    g = build_A_graph(103, 3, 3)
    est = adjacency_spectral_radius(g, 1e-9)
    oracle = adjacency_dense_oracle(g)
    assert est.lower - 1e-8 <= oracle <= est.upper + 1e-8
    # the construction attains the adjacency threshold n - delta + k - 3
    assert oracle >= 100.0 - 1e-9
    assert 99.0 < oracle < 102.0


def test_adjacency_agreement_random(rng):
    for _ in range(150):
        g = random_graph_mask(int(rng.integers(1, 20)), rng, p=float(rng.random()))
        est = adjacency_spectral_radius(g, 1e-10)
        oracle = adjacency_dense_oracle(g)
        assert abs(est.upper - oracle) <= 1e-8
        assert est.lower - 1e-9 <= oracle <= est.upper + 1e-9


# -- eigen identities ------------------------------------------------------------


def test_eigen_identity_exact_on_complete():
    g = complete(4)
    est = q_index(g, 1e-10)
    rep = verify_eigen_identity(g, est)
    assert rep.eq1_residual <= 1e-10 and rep.eq2_residual <= 1e-10
    assert rep.passed


def test_eigen_identity_cycle():
    g = cycle(5)
    rep = verify_eigen_identity(g, q_index(g, 1e-9))
    assert rep.eq1_residual <= 1e-8 and rep.eq2_residual <= 1e-8
    assert rep.passed


def test_eigen_identity_extremal():
    g = build_A_graph(103, 3, 3)
    rep = verify_eigen_identity(g, q_index(g, 1e-8))
    assert rep.eq1_residual <= 1e-6 and rep.eq2_residual <= 1e-6
    assert rep.passed


def test_eigen_identity_requires_convergence():
    g = path(9)
    est = q_index(g, 1e-9, max_iterations=2)
    assert not est.converged
    assert est.lower <= q_index_dense_oracle(g) <= est.upper  # bracket still valid
    with pytest.raises(ValueError):
        verify_eigen_identity(g, est)


def test_eigen_identity_disconnected():
    g = disjoint_union(complete(5), cycle(4))
    rep = verify_eigen_identity(g, q_index(g, 1e-10))
    assert rep.passed


# -- edge-count upper bound --------------------------------------------------------


def test_edge_bound_values():
    assert q_upper_bound_edges(complete(4)) == pytest.approx(6.0)  # tight on K_n
    assert q_upper_bound_edges(cycle(5)) == pytest.approx(5.5)
    assert q_upper_bound_edges(path(3)) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        q_upper_bound_edges(empty(1))


def test_edge_bound_tight_cases():
    # equality holds exactly for complete graphs and stars; in particular
    # the 3-path (a star) does NOT violate the bound: q(P3) = 3 = bound
    p3 = path(3)
    assert q_index_dense_oracle(p3) == pytest.approx(q_upper_bound_edges(p3), abs=1e-10)
    star6 = join(complete(1), empty(5))
    assert q_index_dense_oracle(star6) == pytest.approx(q_upper_bound_edges(star6), abs=1e-10)


def test_edge_bound_holds_small_random(rng):
    from qconn import is_connected
    for _ in range(400):
        g = random_graph_mask(int(rng.integers(2, 8)), rng, p=float(rng.random()))
        if not is_connected(g):
            continue
        assert q_index_dense_oracle(g) <= q_upper_bound_edges(g) + 1e-9
