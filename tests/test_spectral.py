import math
from fractions import Fraction

import numpy as np
import pytest

from qconn import (
    ExtremalParams,
    Graph,
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
    q_index,
    q_index_dense_oracle,
    q_threshold,
    q_upper_bound_edges,
    rayleigh_q_exact,
    verify_eigen_identity,
    write_graph6,
)

from conftest import petersen, random_graph_mask, with_edges, with_path


def build_A_graph(n, k, d):
    return join(complete(k - 1), disjoint_union(complete(d - k + 2), complete(n - d - 1)))


# -- exact Rayleigh quotient ---------------------------------------------------


def test_rayleigh_examples():
    assert rayleigh_q_exact(complete(2), [1, 1]) == 2
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = random_graph_mask(int(rng.integers(1, 12)), rng)
        assert rayleigh_q_exact(g, [1] * g.n) == Fraction(4 * g.m, g.n)
    # indicator of the clique in K_p u empty: quotient 2(p-1)
    g = disjoint_union(complete(101), empty(2))
    assert rayleigh_q_exact(g, [1] * 101 + [0, 0]) == Fraction(200)
    with pytest.raises(ValueError):
        rayleigh_q_exact(g, [0] * g.n)
    with pytest.raises(ValueError):
        rayleigh_q_exact(g, [1] * (g.n + 1))


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


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_q_index_brackets_hold_q_exactly(tol):
    # q(K_n) = 2n - 2, q(C_n) = 4 and q(K_1,s) = s + 1 are exact floats, so
    # the rounding allowance is checked with no slack
    known = ([(complete(n), 2 * n - 2) for n in range(2, 201)]
             + [(cycle(n), 4) for n in range(3, 201)]
             + [(join(complete(1), empty(s)), s + 1) for s in range(1, 200)])
    for g, q in known:
        est = q_index(g, tol)
        assert est.lower <= q <= est.upper, (g.n, q, est.lower, est.upper)


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
        assert est.converged and est.upper - est.lower <= 1e-10
        assert np.all(est.vector > 0)
        assert abs(np.linalg.norm(est.vector) - 1.0) <= 1e-12


def test_trivial_graphs():
    assert q_index(empty(0)).value == 0.0
    est = q_index(empty(1))
    assert est.lower == est.upper == 0.0 and est.converged
    assert q_index(empty(5)).value == 0.0
    assert q_index(complete(2)).value == pytest.approx(2.0)


# -- the numpy power step against its reference loop ---------------------------


def reference_iterate_np(adj, d, tol, max_iter, stop):
    """The numpy step written plainly: ``np.linalg.norm``, ``ndarray.min``/
    ``max`` and Noda steps that build sigma I - Q afresh, after
    ``_POWER_STEPS`` power steps from order ``_SMALL_N`` and from the first
    step below it.  A faster step must match it bit for bit."""
    from qconn.spectral import _POWER_STEPS, _SMALL_N

    a = adj.astype(np.float64)
    v = d + 1.0
    v /= np.linalg.norm(v)
    w = np.empty_like(v)
    quot = np.empty_like(v)
    best_lo, best_up = 0.0, math.inf
    noda, solved = True, False
    power_steps = _POWER_STEPS if len(v) >= _SMALL_N else 0
    it = 0
    while it < max_iter:
        it += 1
        np.matmul(a, v, out=w)
        np.multiply(d, v, out=quot)
        w += quot
        np.divide(w, v, out=quot)
        lo = float(quot.min())
        up = float(quot.max())
        tightened = lo > best_lo or up < best_up
        if lo > best_lo:
            best_lo = lo
        if up < best_up:
            best_up = up
        if best_up - best_lo <= tol:
            return min(best_lo, best_up), best_up, w / np.linalg.norm(w), it, True
        if solved and not tightened:  # a Noda step that tightens neither bound
            return min(best_lo, best_up), best_up, w / np.linalg.norm(w), it, False
        if stop is not None and stop(best_lo, best_up):
            return min(best_lo, best_up), best_up, w / np.linalg.norm(w), it, False
        solved = False
        if noda and it >= power_steps:
            shifted = up * np.eye(len(v)) - (a + np.diag(d))
            try:
                x = np.linalg.solve(shifted, v)
                solved = bool((x > 0).all())
            except np.linalg.LinAlgError:
                pass
            noda = solved  # once a Noda step fails, power steps for good
        v = x / np.linalg.norm(x) if solved else w / np.linalg.norm(w)
    return min(best_lo, best_up), best_up, v, it, False


def power_step_graphs():
    """Seeded graphs with 32 <= n <= 150, where power steps come first:
    sparse and dense, connected and with several components, isolated
    vertices included."""
    rng = np.random.default_rng(606)
    graphs = []
    for n, p in ((32, 0.15), (57, 0.08), (103, 0.04), (103, 0.5), (150, 0.9), (121, 0.3)):
        graphs.append(with_path(random_graph_mask(n, rng, p=p)))  # connected by the path
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
    runs = {"q": lambda g: q_index(g), "tight": lambda g: q_index(g, 1e-12)}
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


def test_runs_settled_within_the_power_steps_keep_their_bytes(monkeypatch):
    # the Noda steps start after step _POWER_STEPS, so a run that settles by
    # then returns exactly what the power-only kernel returns
    from qconn import spectral

    params = ExtremalParams(103, 3, 3)
    threshold = float(q_threshold(params))
    members = [make_member(params, rep).graph
               for size in (1, 2) for rep in enumerate_Eprime_orbits(params, size)]

    def estimates():
        return ([decide_q_ge(g, threshold)[1] for g in members]
                + [q_index(g, 1e-6) for g in power_step_graphs()])

    got = estimates()
    power_steps = spectral._POWER_STEPS
    monkeypatch.setattr(spectral, "_POWER_STEPS", 10**9)
    want = estimates()
    settled = [same_estimate(a, b) for a, b in zip(got, want) if b.iterations <= power_steps]
    assert len(settled) > len(members) and all(settled)
    assert not all(same_estimate(a, b) for a, b in zip(got, want))  # the rest moved


def noda_graphs():
    """Graphs whose power iteration is slow (lambda_2 / q near 1), so their
    runs reach the Noda steps; one Perron vector falls to 1e-114.  P31 is
    below order ``_SMALL_N``: 898 power steps, and Noda from the first."""
    seeded = power_step_graphs()
    return {
        "P31": path(31),
        "P100": path(100),
        "P200": path(200),
        "K40+P60": with_edges(disjoint_union(complete(40), path(60)), [(39, 40)]),
        "gnp103-path": seeded[2],  # n = 103, p = 0.04 plus a Hamiltonian path
        "gnp103-debris": seeded[6],  # n = 103, p = 0.04: a giant component and debris
    }


@pytest.mark.parametrize("name", list(noda_graphs()))
def test_noda_steps_converge_around_eigvalsh(name):
    from qconn.spectral import _POWER_STEPS, _SMALL_N, _oracle_slack

    g = noda_graphs()[name]
    est = q_index(g)
    q, slack = q_index_dense_oracle(g), _oracle_slack(g)
    assert est.converged
    assert est.lower - slack <= q <= est.upper + slack
    # positive on one whole component, zero elsewhere
    support = [c for c in components(g) if est.vector[c[0]] != 0]
    assert len(support) == 1 and np.all(est.vector[list(support[0])] > 0)
    assert np.count_nonzero(est.vector) == len(support[0])
    assert est.iterations <= (_POWER_STEPS if g.n >= _SMALL_N else 0) + 8


def test_noda_steps_stop_when_they_stall():
    # 1e-18 is below float resolution at q ~ 4: the run must end, not run on
    from qconn.spectral import _POWER_STEPS, _oracle_slack

    g = path(100)
    est = q_index(g, 1e-18)
    assert not est.converged
    assert est.iterations <= _POWER_STEPS + 16
    slack = _oracle_slack(g)
    assert est.lower - slack <= q_index_dense_oracle(g) <= est.upper + slack


@pytest.mark.parametrize("failure", ["singular", "not positive"])
def test_failed_noda_step_falls_back_to_power_steps_for_good(monkeypatch, failure):
    # P31 is below order _SMALL_N, where the one try follows the first step
    from qconn import spectral

    real_solve = np.linalg.solve
    for g in (path(100), path(31)):
        monkeypatch.setattr(spectral, "_POWER_STEPS", 10**9)
        monkeypatch.setattr(spectral, "_SMALL_N", 0)
        want = q_index(g)  # power steps only
        monkeypatch.undo()
        calls = []

        def solve(m, v):
            calls.append(m.shape)
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            x = real_solve(m, v)
            x[0] = -x[0]  # as if rounding had pushed sigma below q
            return x

        monkeypatch.setattr(np.linalg, "solve", solve)
        got = q_index(g)
        monkeypatch.undo()
        assert calls == [(g.n, g.n)]  # one try, then never again
        assert same_estimate(got, want) and want.converged


def test_decider_builds_each_component_subgraph_once(monkeypatch):
    g = disjoint_union(complete(20), complete(20))  # n = 40: a float run per component
    real, calls = Graph.subgraph, []

    def subgraph(self, vertices):
        calls.append(tuple(vertices))
        return real(self, vertices)

    monkeypatch.setattr(Graph, "subgraph", subgraph)
    q_index(g)
    assert len(calls) == 2
    calls.clear()
    assert decide_q_ge(g, 38)[0] is True  # q = 38 exactly
    assert len(calls) == 2
    # an isolated vertex is settled by q = 0, with no 1-vertex subgraph
    g = disjoint_union(g, empty(1))
    for run in (q_index, lambda h: decide_q_ge(h, 38)):
        calls.clear()
        run(g)
        assert len(calls) == 2


def test_isolated_vertices_decide_like_the_empty_graph():
    k3 = disjoint_union(complete(3), empty(2))
    for g in (empty(3), k3):
        # each largest component is regular, so q is 2 max degree exactly,
        # which eigvalsh may miss by an ulp
        q = float(2 * max(g.degrees()))
        assert abs(q_index_dense_oracle(g) - q) <= 1e-12
        for t in (-1, 0, 3.9, 4, 5):
            for decide, want in ((decide_q_gt, q > t), (decide_q_ge, q >= t)):
                got, est = decide(g, t)
                assert got is want, (g, t, decide.__name__)
                assert est.lower <= q <= est.upper
    # below the degree rung an edgeless graph's bracket is the exact [0, 0]
    for decide, t in ((decide_q_ge, 0), (decide_q_ge, -1), (decide_q_gt, -1)):
        _, est = decide(empty(3), t)
        assert (est.lower, est.upper) == (0.0, 0.0)


def small_order_graphs():
    """Every connected graph with n <= 6, then seeded disconnected graphs
    with n < 32: two connected random parts and two isolated vertices."""
    graphs = [g for n in range(1, 7) for g in iter_labeled_graphs(n) if is_connected(g)]
    rng = np.random.default_rng(707)
    for n, p in ((7, 0.3), (11, 0.5), (16, 0.2), (22, 0.7), (27, 0.4), (31, 0.1)):
        parts = []
        for size in (n - n // 3 - 2, n // 3):
            # a Hamiltonian path keeps the part connected
            parts.append(with_path(random_graph_mask(size, rng, p=p)))
        graphs.append(disjoint_union(parts[0], disjoint_union(parts[1], empty(2))))
    return graphs


def test_small_order_step_matches_reference_bit_for_bit(monkeypatch):
    from qconn import spectral

    graphs = small_order_graphs()
    disconnected = [g for g in graphs if not is_connected(g)]
    assert len(disconnected) == 6
    assert all(len(components(g)) == 4 and max(map(len, components(g))) < g.n < 32
               for g in disconnected)
    tols = (1e-9, 1e-6)
    got = {tol: [q_index(g, tol) for g in graphs] for tol in tols}
    # the deciders' float path, which disconnected graphs always take
    thresholds = [round(q_index_dense_oracle(g), 3) for g in disconnected]
    deciders = (decide_q_ge, decide_q_gt)
    got_decisions = [decide(g, t) for g, t in zip(disconnected, thresholds) for decide in deciders]
    monkeypatch.setattr(spectral, "_iterate_np", reference_iterate_np)
    for tol in tols:
        for g, est in zip(graphs, got[tol]):
            assert same_estimate(est, q_index(g, tol)), (tol, write_graph6(g))
    want_decisions = [decide(g, t) for g, t in zip(disconnected, thresholds) for decide in deciders]
    assert {d for d, _ in got_decisions} == {True, False}
    for (decision, est), (want_decision, want) in zip(got_decisions, want_decisions):
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


def test_oracle_agreement_random(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 31))
        g = random_graph_mask(n, rng, p=float(rng.random()))
        est = q_index(g, 1e-10)
        oracle = q_index_dense_oracle(g)
        assert abs(est.upper - oracle) <= 1e-8
        assert est.lower - 1e-9 <= oracle <= est.upper + 1e-9
    # a few orders above the small-n cutoff, where power steps come first
    for n in (33, 48, 60):
        g = random_graph_mask(n, rng, p=0.3)
        est = q_index(g, 1e-10)
        oracle = q_index_dense_oracle(g)
        assert abs(est.upper - oracle) <= 1e-8


def test_rayleigh_below_upper(rng):
    for _ in range(1000):
        g = random_graph_mask(int(rng.integers(1, 14)), rng)
        v = [int(x) for x in rng.integers(1, 1000, size=g.n)]
        assert rayleigh_q_exact(g, v) <= q_index(g, 1e-9).upper + 1e-9


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
        after = q_index(with_edges(g, [(u, v)]), 1e-10).lower
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


def co_cycle(n: int) -> Graph:
    """The complement of C_n: i ~ j unless j - i is 1 or n - 1."""
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 2, n) if j - i != n - 1])


# (graph, its integer Q-index)
EXACT_Q = (
    [(f"K{n}", complete(n), 2 * n - 2) for n in range(2, 9)]
    + [(f"star{n}", star(n), n) for n in range(3, 9)]
    + [(f"C{n}", cycle(n), 4) for n in range(3, 10)]
    + [("petersen", petersen(), 6), ("P3", path(3), 3)]
    # regular graphs on the float path (n >= 32): the rounded iterate must tie
    + [(f"K{n}", complete(n), 2 * n - 2) for n in (40, 103)]
    + [(f"coC{n}", co_cycle(n), 2 * n - 6) for n in (40, 103)]
    # Perron vector (n-1, 1, ..., 1): the rounded iterate fails, v1 = Q v0 ties
    + [(f"star{n}", star(n), n) for n in (40, 103)]
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
        # below order 32 v0 or v1 settles it with no float run; above, they
        # are tried only after the float run, which q_index bounds
        assert est.iterations <= 2 + (q_index(g).iterations if g.n >= 32 else 0)
        assert est.lower < t < est.upper  # outward rounded around the exact quotients


def test_degree_rung_rejects_with_the_ones_vector_bracket():
    # Q1 = 2d, so q <= 2 max degree: a threshold above it (at it, for q > T)
    # is False from the degree tuple, with the ones vector's extreme
    # quotients rounded one ulp outward, in one iteration
    rng = np.random.default_rng(808)
    cases = [complete(40), cycle(50), star(40), disjoint_union(cycle(4), empty(2)),
             random_graph_mask(103, rng, p=0.5)]
    for g in cases:
        degs = g.degrees()
        top = 2 * max(degs)
        lower = math.nextafter(2 * min(degs), -math.inf)
        upper = math.nextafter(top, math.inf)
        for decide, t in ((decide_q_gt, top), (decide_q_ge, math.nextafter(top, math.inf)),
                          (decide_q_ge, Fraction(2 * top + 1, 2))):
            got, est = decide(g, t)
            assert got is False, (decide.__name__, t)
            assert (est.lower, est.upper, est.iterations) == (lower, upper, 1)
            assert est.converged == (upper - lower <= 1e-9)
            assert est.vector == pytest.approx(np.full(g.n, 1 / math.sqrt(g.n)), rel=1e-15)


def test_star_needs_the_second_integer_vector():
    # v0 = d + 1 gives quotients 4.5 (centre) and 3 (leaves) around q = 4;
    # v1 = Q v0 is the Perron vector, so every quotient equals 4 exactly
    got, est = decide_q_gt(star(4), 4)
    assert got is False and est.iterations == 2
    got, est = decide_q_ge(star(4), 4)
    assert got is True and est.iterations == 2
    assert est.vector == pytest.approx(np.array([3.0, 1.0, 1.0, 1.0]) / math.sqrt(12.0))


def test_float_path_decides_by_the_integer_test_not_the_bracket(monkeypatch):
    from qconn import spectral

    def returns(bracket, vector):
        monkeypatch.setattr(spectral, "_iterate_np", lambda adj, d, tol, max_iter, stop:
                            (*bracket, vector.copy(), 1, False))

    # A(103,3,3) has q = 200.0365...; a float run that returns the true
    # iterate with the lying bracket [0, 199] must not make the answer False
    g = build_A_graph(103, 3, 3)
    q = q_index_dense_oracle(g)
    returns((0.0, 199.0), q_index(g, 1e-12).vector)
    got, est = decide_q_ge(g, 200)
    assert got is True
    assert 200 <= est.lower <= q <= est.upper  # the proof's outward quotients
    monkeypatch.undo()

    # K_40 with a pendant 12-vertex path: Perron entries fall to 1e-23 of
    # the largest, so the rounded iterate holds zeros unless clamped to 1.
    # v0 = d + 1 would settle q < 79 too, so the fallback to v0, v1 is cut.
    g = pendant_path_graph()
    q = q_index_dense_oracle(g)
    vector = q_index(g, 1e-12).vector
    assert vector.min() * 2**30 < 1e-6 * vector.max()
    returns((0.0, math.inf), vector)
    monkeypatch.setattr(spectral, "_exact_steps",
                        lambda g, num, den, strict: (None, None, -math.inf, math.inf, 2))
    got, est = decide_q_gt(g, 79)
    assert got is False
    assert est.lower <= q <= est.upper <= 79


def pendant_path_graph():
    return with_edges(disjoint_union(complete(40), path(12)), [(39, 40)])


def test_decaying_perron_vector_settles_the_lower_side():
    # the clamp to 1 sinks the tail's quotients to about 4, so the clamped
    # iterate proves nothing about q = 78.026 > 78; the unclamped one,
    # nonnegative with Qv >= 78 v, proves it
    g = pendant_path_graph()
    q = q_index_dense_oracle(g)
    for decide in (decide_q_ge, decide_q_gt):
        got, est = decide(g, 78)
        assert got is True, decide.__name__
        assert 78 <= est.lower <= q <= est.upper
    # Qv = Tv proves q >= T but not q > T, with or without the clamp
    from qconn import spectral
    k40 = complete(40)
    adjacency = k40.adjacency_bool().astype(np.float64)
    for strict, want in ((False, True), (True, None)):
        assert spectral._rounded_proof(k40, np.ones(40), 78, 1, strict, 0.0, adjacency)[0] is want


def test_exact_decisions_agree_with_eigvalsh_on_every_small_connected_graph():
    for n in range(1, 7):
        for g in iter_labeled_graphs(n):
            if not is_connected(g):
                continue
            q = q_index_dense_oracle(g)
            # q <= 2 max degree, with equality just on the regular graphs,
            # where it is exact and eigvalsh may miss it by an ulp
            top = 2 * max(g.degrees())
            regular = 2 * min(g.degrees()) == top
            if regular:
                q = float(top)
            assert q < top - 1e-9 or regular
            # one threshold well below q, one well above, and the edge bound
            # as the lemma22 sweep tests it, which d + 1 or Q(d + 1) must settle;
            # then 2 max degree and its neighbours, around the degree rung
            cases = [(math.floor(q) - 1, False), (math.ceil(q) + 1, False)]
            if n > 1:
                cases.append((q_upper_bound_edges(g) + 1e-9, True))
            cases += [(t, False) for t in (top, math.nextafter(top, -math.inf),
                                           math.nextafter(top, math.inf), top - 1)]
            for t, exact in cases:
                if abs(q - t) <= 1e-9 and not regular:
                    continue
                for decide, want in ((decide_q_gt, q > t), (decide_q_ge, q >= t)):
                    got, est = decide(g, t)
                    assert got is want, (write_graph6(g), t, decide.__name__)
                    slack = 0.0 if regular else 1e-12
                    assert est.lower <= q + slack and q - slack <= est.upper
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


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_tolerance_must_be_positive(bad):
    # NaN compares false with everything, so a ``tolerance <= 0`` test lets it through
    for g in (path(3), complete(40)):
        with pytest.raises(ValueError, match="tolerance"):
            q_index(g, bad)


def test_only_q_index_takes_a_tolerance():
    import dataclasses
    import inspect

    from qconn import CampaignConfig, certify

    # every True/False of the deciders and of certify is an integer proof
    signatures = {decide_q_ge: ["g", "threshold"], decide_q_gt: ["g", "threshold"],
                  certify: ["g", "k", "delta"], q_index: ["g", "tolerance"]}
    for fn, params in signatures.items():
        assert list(inspect.signature(fn).parameters) == params, fn
    assert "tolerance" not in {f.name for f in dataclasses.fields(CampaignConfig)}


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


def test_eigen_identity_requires_convergence(monkeypatch):
    from qconn import spectral

    g = path(9)
    monkeypatch.setattr(spectral, "DEFAULT_MAX_ITER", 2)
    est = q_index(g, 1e-9)
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
