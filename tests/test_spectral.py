import math
from fractions import Fraction

import numpy as np
import pytest

from qconn import (
    ExtremalParams,
    Graph,
    adjacency_dense_oracle,
    adjacency_spectral_radius,
    complete,
    components,
    cycle,
    decide_q_ge,
    decide_q_gt,
    disjoint_union,
    empty,
    enumerate_Eprime_orbits,
    is_connected,
    iter_labeled_graphs,
    join,
    make_member,
    path,
    q_apply,
    q_index,
    q_index_dense_oracle,
    q_threshold,
    q_upper_bound_edges,
    rayleigh_q,
    rayleigh_q_exact,
    verify_eigen_identity,
    write_graph6,
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


# -- the numpy power step against its reference loop ---------------------------


def reference_iterate_np(adj, d, tol, max_iter, diag_degree, shift, stop):
    """The numpy power step written plainly: ``np.linalg.norm`` and
    ``ndarray.min``/``max``.  A faster step must match it bit for bit."""
    a = adj.astype(np.float64)
    diag = (d + shift) if diag_degree else np.full_like(d, shift)
    v = d + 1.0
    v /= np.linalg.norm(v)
    w = np.empty_like(v)
    quot = np.empty_like(v)
    best_lo, best_up = 0.0, math.inf
    it = 0
    while it < max_iter:
        it += 1
        np.matmul(a, v, out=w)
        np.multiply(diag, v, out=quot)
        w += quot
        np.divide(w, v, out=quot)
        lo = float(quot.min())
        up = float(quot.max())
        if lo > best_lo:
            best_lo = lo
        if up < best_up:
            best_up = up
        np.divide(w, np.linalg.norm(w), out=v)
        if best_up - best_lo <= tol:
            return min(best_lo, best_up) - shift, best_up - shift, v, it, True
        if stop is not None and stop(best_lo - shift, best_up - shift):
            return min(best_lo, best_up) - shift, best_up - shift, v, it, False
    return min(best_lo, best_up) - shift, best_up - shift, v, it, False


def power_step_graphs():
    """Seeded graphs on the numpy path (32 <= n <= 150): sparse and dense,
    connected and with several components, isolated vertices included."""
    rng = np.random.default_rng(606)
    graphs = []
    for n, p in ((32, 0.15), (57, 0.08), (103, 0.04), (103, 0.5), (150, 0.9), (121, 0.3)):
        g = random_graph_mask(n, rng, p=p)
        for i in range(n - 1):  # a Hamiltonian path keeps the draw connected
            if not g.has_edge(i, i + 1):
                g = g.with_edge_added(i, i + 1)
        graphs.append(g)
    graphs.append(random_graph_mask(103, rng, p=0.04))  # a giant component and debris
    graphs.append(disjoint_union(random_graph_mask(70, rng, p=0.6),
                                 disjoint_union(cycle(12), empty(3))))
    graphs.append(disjoint_union(complete(40), random_graph_mask(60, rng, p=0.1)))
    return graphs


def same_estimate(got, want) -> bool:
    return ((got.lower, got.upper, got.iterations, got.converged)
            == (want.lower, want.upper, want.iterations, want.converged)
            and got.vector.tobytes() == want.vector.tobytes())


def test_power_step_matches_reference_bit_for_bit(monkeypatch):
    from qconn import spectral

    graphs = power_step_graphs()
    assert {len(components(g)) > 1 for g in graphs} == {False, True}
    params = ExtremalParams(103, 3, 3)
    threshold = float(q_threshold(params))
    members = [make_member(params, rep).graph
               for size in (1, 2) for rep in enumerate_Eprime_orbits(params, size)]
    runs = {"q": lambda g: q_index(g), "tight": lambda g: q_index(g, 1e-12),
            "adjacency": lambda g: adjacency_spectral_radius(g)}
    got = {name: [run(g) for g in graphs] for name, run in runs.items()}
    got_members = [decide_q_ge(g, threshold) for g in members]
    monkeypatch.setattr(spectral, "_iterate_np", reference_iterate_np)
    for name, run in runs.items():
        for g, est in zip(graphs, got[name]):
            assert same_estimate(est, run(g)), (name, g)
    # near-threshold A1 (q >= T) and A2 (q < T) members of A(103,3,3)
    assert {d for d, _ in got_members} == {True, False}
    for g, (decision, est) in zip(members, got_members):
        want_decision, want = decide_q_ge(g, threshold)
        assert decision == want_decision and same_estimate(est, want)


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


def star(n: int) -> Graph:
    return join(complete(1), empty(n - 1))


# (graph, its integer Q-index)
EXACT_Q = (
    [(f"K{n}", complete(n), 2 * n - 2) for n in range(2, 9)]
    + [(f"star{n}", star(n), n) for n in range(3, 9)]
    + [(f"C{n}", cycle(n), 4) for n in range(3, 10)]
    + [("petersen", petersen(), 6), ("P3", path(3), 3)]
)


@pytest.mark.parametrize("g,t", [case[1:] for case in EXACT_Q], ids=[case[0] for case in EXACT_Q])
def test_exact_ties_at_integer_thresholds(g, t):
    # q = t exactly: no float iteration can separate these, the integer test must
    for decide, threshold, want in (
        (decide_q_gt, t, False),
        (decide_q_ge, t, True),
        (decide_q_gt, math.nextafter(t, -math.inf), True),
        (decide_q_ge, math.nextafter(t, math.inf), False),
    ):
        got, est = decide(g, threshold)
        assert got is want, (decide.__name__, threshold)
        assert est.iterations <= 2
        assert est.lower < t < est.upper  # outward rounded around the exact quotients


def test_star_needs_the_second_integer_vector():
    # v0 = d + 1 gives quotients 4.5 (centre) and 3 (leaves) around q = 4;
    # v1 = Q v0 is the Perron vector, so every quotient equals 4 exactly
    got, est = decide_q_gt(star(4), 4)
    assert got is False and est.iterations == 2
    got, est = decide_q_ge(star(4), 4)
    assert got is True and est.iterations == 2
    assert est.vector == pytest.approx(np.array([3.0, 1.0, 1.0, 1.0]) / math.sqrt(12.0))


def test_exact_decisions_agree_with_eigvalsh_on_every_small_connected_graph():
    for n in range(1, 7):
        for g in iter_labeled_graphs(n):
            if not is_connected(g):
                continue
            q = q_index_dense_oracle(g)
            # one threshold well below q, one well above, and the edge bound
            # as the lemma22 sweep tests it, which d + 1 or Q(d + 1) must settle
            cases = [(math.floor(q) - 1, False), (math.ceil(q) + 1, False)]
            if n > 1:
                cases.append((q_upper_bound_edges(g) + 1e-9, True))
            for t, exact in cases:
                if abs(q - t) <= 1e-9:
                    continue
                for decide, want in ((decide_q_gt, q > t), (decide_q_ge, q >= t)):
                    got, est = decide(g, t)
                    assert got is want, (write_graph6(g), t, decide.__name__)
                    assert est.lower <= q + 1e-12 and q - 1e-12 <= est.upper
                    assert est.iterations <= 2 or not exact, (write_graph6(g), t)


def test_exact_test_takes_any_real_threshold_type():
    # the parent compared floats with any real threshold; numpy integers
    # have no as_integer_ratio, and a Fraction must not be rounded to float
    assert decide_q_gt(complete(4), np.int64(6))[0] is False
    assert decide_q_ge(complete(4), np.float64(6.0))[0] is True
    assert decide_q_gt(path(3), Fraction(3))[0] is False
    assert decide_q_ge(path(3), Fraction(3 * 10**20 + 1, 10**20))[0] is False


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_deciders_reject_non_finite_thresholds(bad):
    for g in (path(3), complete(40), disjoint_union(cycle(4), empty(2))):
        for decide in (decide_q_ge, decide_q_gt):
            with pytest.raises(ValueError, match="finite"):
                decide(g, bad)


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
