import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import qconn.certifier as certifier_mod
import qconn.graphs as graphs_mod
from qconn import (
    CONDITION_NOT_MET,
    EXCEPTIONAL_FAMILY,
    HYPOTHESIS_FAILED,
    K_CONNECTED_CERTIFIED,
    THEOREM_VIOLATION,
    UNDECIDED_NUMERIC,
    ExtremalParams,
    Graph,
    build_A,
    certify,
    check_lemma_2_3,
    check_lemma_3_1,
    check_lemma_3_2,
    check_lemma_3_3,
    check_lemma_3_7,
    check_lemma_3_8,
    check_orderings,
    complete,
    cycle,
    dirac_condition,
    empty,
    enumerate_Eprime_orbits,
    family_members,
    is_connected,
    is_k_connected,
    iter_labeled_graphs,
    make_member,
    parse_graph6,
    q_index,
    select_max_member,
    threshold_F,
    verify_eigen_identity,
    verify_theorem_proof_chain,
    write_graph6,
)
from qconn.harness import random_graph

PARAMS = ExtremalParams(103, 3, 3)


# -- certify pipeline -----------------------------------------------------------


def test_certify_complete_103():
    v = certify(complete(103), 3)
    assert v.outcome == K_CONNECTED_CERTIFIED
    assert v.threshold == 200 and v.delta_effective == 3
    assert v.spectral.lower >= 200
    assert abs(v.spectral.value - 204.0) <= 1e-8
    assert v.connectivity.kappa == 102
    assert not v.theorem_violation


def test_certify_intact_A():
    g, _ = build_A(PARAMS)
    v = certify(g, 3)
    assert v.outcome == EXCEPTIONAL_FAMILY
    assert v.membership is not None
    assert v.membership.family_class == "A1"
    assert v.membership.removed_edges == ()
    assert v.connectivity is not None and len(v.connectivity.cut) == 2
    assert not v.theorem_violation


def test_certify_cycle_103():
    v = certify(cycle(103), 3)
    assert v.outcome == HYPOTHESIS_FAILED
    assert not v.hypothesis["min_degree_ge_k"]
    assert v.spectral is not None  # numeric data still emitted


def test_certify_all_family_representatives():
    for size in range(PARAMS.eprime_bound + 1):
        for rep in enumerate_Eprime_orbits(PARAMS, size):
            member = make_member(PARAMS, rep)
            v = certify(member.graph, 3)
            assert v.outcome == EXCEPTIONAL_FAMILY, (size, rep, v.outcome)
            assert len(v.membership.removed_edges) == len(rep)
            assert not v.theorem_violation
    for rep in enumerate_Eprime_orbits(PARAMS, 2):
        member = make_member(PARAMS, rep)
        v = certify(member.graph, 3)
        assert v.outcome == CONDITION_NOT_MET, (rep, v.outcome)
        assert v.spectral.upper < 200
        assert not v.theorem_violation


def test_certify_paper_scale_connectivity():
    # the certified and exceptional branches at n = 103 on seeded inputs:
    # K_103 minus 53 edges (p = 0.99) is 3-connected, and every relabeled
    # A1 member is split by its Y, the first minimum cut of the pair scan,
    # and gives back its removed edges in lexicographic order
    rng = np.random.default_rng(103)
    pairs = [(i, j) for i in range(103) for j in range(i + 1, 103)]
    removed = [pairs[i] for i in rng.choice(len(pairs), 53, replace=False)]
    v = certify(complete(103).with_edges_removed(removed), 3)
    assert v.outcome == K_CONNECTED_CERTIFIED
    assert v.connectivity.kappa == 3
    for size in range(PARAMS.eprime_bound + 1):
        for rep in enumerate_Eprime_orbits(PARAMS, size):
            member = make_member(PARAMS, rep)
            for perm in (np.arange(103), rng.permutation(103)):
                g = member.graph.subgraph([int(u) for u in perm])
                v = certify(g, 3)
                assert v.outcome == EXCEPTIONAL_FAMILY, (rep, v.outcome)
                label = {int(u): i for i, u in enumerate(perm)}
                y = tuple(sorted(label[u] for u in member.partition.Y))
                assert v.connectivity.cut == y == v.membership.partition.Y, rep
                removed = sorted(tuple(sorted((label[a], label[b]))) for a, b in rep)
                assert list(v.membership.removed_edges) == removed, rep


def test_certify_explicit_delta():
    v = certify(complete(103), 3, delta=3)
    assert v.outcome == K_CONNECTED_CERTIFIED
    # delta above the order threshold: F(3,4) = 185 > 103
    v = certify(complete(103), 3, delta=4)
    assert v.outcome == HYPOTHESIS_FAILED
    assert not v.hypothesis["order_ge_F"]
    # delta above the true minimum degree
    g, _ = build_A(PARAMS)
    v = certify(g, 3, delta=4)
    assert v.outcome == HYPOTHESIS_FAILED
    assert not v.hypothesis["delta_le_min_degree"]


def test_certify_k_below_3():
    v = certify(complete(10), 2)
    assert v.outcome == HYPOTHESIS_FAILED
    assert not v.hypothesis["k_ge_3"]


def test_certify_small_graphs_exhaustive_n5():
    # below the order threshold everything is a hypothesis failure and the
    # pipeline must never certify or flag a violation
    for g in iter_labeled_graphs(5):
        v = certify(g, 3)
        assert v.outcome == HYPOTHESIS_FAILED
        assert not v.theorem_violation
        if dirac_condition(g, 3):
            assert v.outcome != CONDITION_NOT_MET


def test_certify_verdict_json():
    g, _ = build_A(PARAMS)
    payload = certify(g, 3).to_dict()
    for key in ("outcome", "threshold", "q_lower", "q_upper", "kappa", "cut",
                "member", "hypothesis", "theorem_violation"):
        assert key in payload
    assert payload["member"]["family_class"] == "A1"


def test_certify_exact_witness_branch(monkeypatch):
    real_decide = certifier_mod.decide_q_ge

    def straddle(g, threshold):
        _, est = real_decide(g, threshold)
        return None, est

    monkeypatch.setattr(certifier_mod, "decide_q_ge", straddle)
    # with no integer certificate the verdict is undecided; no witness is tried
    v = certifier_mod.certify(complete(103), 3)
    assert v.outcome == UNDECIDED_NUMERIC


_HYP_OK = {"connected": True, "k_ge_3": True, "min_degree_ge_k": True, "order_ge_F": True}
_HYP_SMALL = {"connected": True, "k_ge_3": True, "min_degree_ge_k": False, "order_ge_F": False}
_A2 = [(0, 4), (1, 5)]


def _member_dict(family_class, removed):
    return {"connected": True, "family_class": family_class, "min_degree_ok": True,
            "params": [103, 3, 3], "removed_edges": [list(e) for e in removed]}


def _pinned(outcome, q, hyp=_HYP_OK, threshold=200, delta=3, kappa=None, cut=None,
            member=None, violation=False, notes=()):
    return {"outcome": outcome, "hypothesis": hyp, "threshold": threshold,
            "delta_effective": delta, "q_lower": q[0], "q_upper": q[1], "kappa": kappa,
            "cut": cut, "member": member, "theorem_violation": violation,
            "notes": list(notes)}


_NOT_MET_Q = (55.0, 199.99999999999994)  # A2 member: stopped once below 200
_K103_Q = (203.99999999999997, 204.00000000000003)  # the integer proof's ends, one ulp out
_STRADDLE = "no integer certificate settles the threshold"

# certify(g, 3).to_dict() for every outcome; decide_q_ge is patched to
# "straddle" (undecided) or "true" (spectral condition forced) where named
_BRANCH_PINS = {
    "certified-complete": (
        lambda: complete(103), None,
        _pinned(K_CONNECTED_CERTIFIED, _K103_Q, kappa=102, cut=[])),
    "certified-flow": (
        lambda: complete(103).with_edges_removed([(0, 1), (2, 3), (4, 5)]), None,
        _pinned(K_CONNECTED_CERTIFIED, (202.95098039215688, 203.94174757281553),
                kappa=3, cut=[])),
    "exceptional": (
        lambda: build_A(PARAMS)[0], None,
        _pinned(EXCEPTIONAL_FAMILY, (200.03654467997742, 200.0408087176452),
                kappa=2, cut=[0, 1], member=_member_dict("A1", []))),
    "condition-not-met": (
        lambda: make_member(PARAMS, _A2).graph, None,
        _pinned(CONDITION_NOT_MET, _NOT_MET_Q)),
    "hypothesis-failed": (
        lambda: cycle(8), None,
        _pinned(HYPOTHESIS_FAILED, (3.9999999999999973, 4.0000000000000036), hyp=_HYP_SMALL,
                threshold=None, delta=None,
                notes=["hypotheses not met; spectral data emitted for exploration"])),
    "hypothesis-failed-empty": (
        lambda: empty(0), None,
        _pinned(HYPOTHESIS_FAILED, (None, None), hyp=_HYP_SMALL, threshold=None, delta=None,
                notes=["hypotheses not met; spectral data emitted for exploration"])),
    "undecided": (
        lambda: complete(103), "straddle",
        _pinned(UNDECIDED_NUMERIC, _K103_Q, notes=[_STRADDLE])),
    "undecided-member": (
        lambda: make_member(PARAMS, _A2).graph, "straddle",
        _pinned(UNDECIDED_NUMERIC, _NOT_MET_Q, member=_member_dict("A2", _A2),
                notes=[_STRADDLE])),
    "theorem-violation": (
        lambda: make_member(PARAMS, _A2).graph, "true",
        _pinned(THEOREM_VIOLATION, _NOT_MET_Q, kappa=2, cut=[0, 1],
                member=_member_dict("A2", _A2), violation=True,
                notes=["THEOREM VIOLATION: certified spectral condition without "
                       "k-connectivity or exceptional membership"])),
}


# q where it is known exactly: the pinned and the emitted brackets must hold it
_KNOWN_Q = {"certified-complete": 204, "undecided": 204, "hypothesis-failed": 4}


@pytest.mark.parametrize("case", sorted(_BRANCH_PINS))
def test_certify_branch_pins(case, monkeypatch):
    make_graph, patch, want = _BRANCH_PINS[case]
    real_decide = certifier_mod.decide_q_ge
    forced = {"straddle": None, "true": True}

    def patched(g, threshold):
        return forced[patch], real_decide(g, threshold)[1]

    if patch is not None:
        monkeypatch.setattr(certifier_mod, "decide_q_ge", patched)
    got = certifier_mod.certify(make_graph(), 3).to_dict()
    if case in _KNOWN_Q:
        q = _KNOWN_Q[case]
        assert want["q_lower"] <= q <= want["q_upper"]
        assert got["q_lower"] <= q <= got["q_upper"]
    # brackets from a BLAS matmul may differ in the last ulp across machines
    for key in ("q_lower", "q_upper"):
        assert got.pop(key) == pytest.approx(want[key], rel=1e-12, abs=0)
    assert got == {k: v for k, v in want.items() if k not in ("q_lower", "q_upper")}


@pytest.mark.parametrize("make_graph,outcome,builds", [
    (lambda: random_graph(103, 0.5, 3, seed=0), CONDITION_NOT_MET, 0),
    (lambda: random_graph(103, 0.04, seed=3), HYPOTHESIS_FAILED, 0),
    (lambda: build_A(PARAMS)[0], EXCEPTIONAL_FAMILY, 1),
], ids=["rejected", "hypothesis-failed", "A1-member"])
def test_decoded_graph_builds_bit_rows_only_where_read(make_graph, outcome, builds, monkeypatch):
    # a rejection and a hypothesis failure read degrees, connectivity and the
    # matrix only; the flow scan and the classifier read the rows, once
    line = write_graph6(make_graph())
    calls = []
    real = graphs_mod._rows_from_bool

    def spy(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(graphs_mod, "_rows_from_bool", spy)
    verdict = certify(parse_graph6(line), 3)
    assert verdict.outcome == outcome
    assert calls == [(103, 103)] * builds


def test_decoded_rejection_runs_no_float_work(monkeypatch):
    # p = 0.5 at n = 103: 2 max degree < T = 200, so the degree rung rejects
    # before any component walk or float run
    from qconn import spectral

    calls = []
    for name in ("_component_runs", "_iterate_np"):
        def spy(*args, _name=name, _real=getattr(spectral, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(spectral, name, spy)
    g = parse_graph6(write_graph6(random_graph(103, 0.5, 3, seed=0)))
    verdict = certify(g, 3)
    degs = g.degrees()
    assert verdict.outcome == CONDITION_NOT_MET and 2 * max(degs) < verdict.threshold
    assert calls == []
    assert (verdict.spectral.lower, verdict.spectral.upper) == (
        np.nextafter(2 * min(degs), -np.inf), np.nextafter(2 * max(degs), np.inf))
    # the spies do see the float path of a rejection the rung cannot make
    assert certify(make_member(PARAMS, _A2).graph, 3).outcome == CONDITION_NOT_MET
    assert calls == ["_component_runs", "_iterate_np"]


# -- lemma 2.3 -------------------------------------------------------------------


def test_lemma_2_3_examples():
    rep = check_lemma_2_3(complete(8), 3, 3)
    assert rep.passed and rep.applicable and rep.details["branch"] == "k-connected"
    g, _ = build_A(ExtremalParams(8, 3, 3))
    rep = check_lemma_2_3(g, 3, 3)
    assert rep.passed and rep.details["branch"] == "membership"
    assert rep.details["m"] == 20 and rep.details["density_rhs"] == 19
    rep = check_lemma_2_3(cycle(8), 3, 3)
    assert not rep.applicable and rep.findings


@pytest.mark.parametrize("n", [8, 9, 13, 14])  # below and above the subset check's cap n <= 12
def test_lemma_2_3_reports_a_separating_cut(n):
    g, _ = build_A(ExtremalParams(n, 3, 3))
    rep = check_lemma_2_3(g, 3, 3)
    assert rep.passed and rep.applicable and rep.details["branch"] == "membership"
    cut = rep.details["cut"]
    assert cut == [0, 1] and rep.details["member"] is not None
    assert len(cut) < 3 and not is_connected(g.subgraph([v for v in range(n) if v not in cut]))


def test_lemma_2_3_k_connected_above_order_12():
    g = complete(14).with_edges_removed([(2 * i, 2 * i + 1) for i in range(7)])
    rep = check_lemma_2_3(g, 3, 3)
    assert rep.passed and rep.applicable and rep.details["density_satisfied"]
    assert rep.details["branch"] == "k-connected" and "cut" not in rep.details


def test_lemma_2_3_not_triggered():
    # sparse but hypothesis-satisfying graph: condition not triggered
    g = Graph(9, [*cycle(9).edges(), (0, 3), (1, 5), (2, 7), (4, 8), (5, 8), (3, 6)])
    assert min(g.degrees()) >= 3
    rep = check_lemma_2_3(g, 3, 3)
    if rep.applicable and not rep.details["density_satisfied"]:
        assert rep.passed


# -- lemmas 3.1 / 3.2 ---------------------------------------------------------------


def test_lemma_3_1_identity_values():
    rep = check_lemma_3_1(make_member(PARAMS, []))
    assert rep.passed
    assert rep.details["identity_value"] == 4
    assert rep.details["exact_rayleigh"] == Fraction(200) + Fraction(4, 101)
    rep = check_lemma_3_1(make_member(PARAMS, [(0, 1)]))
    assert rep.passed
    assert rep.details["identity_value"] == 0
    assert rep.details["exact_rayleigh"] == Fraction(200)
    with pytest.raises(ValueError):
        check_lemma_3_1(make_member(PARAMS, [(0, 4), (4, 5)]))  # A2 member


def test_lemma_3_1_all_representatives():
    for size in (0, 1):
        for member in family_members(PARAMS, size):
            out = check_lemma_3_1(member)
            assert out.passed
            assert out.details["q_lower"] >= 200 - 1e-6


def test_lemma_3_2_identity_values():
    rep = check_lemma_3_2(make_member(PARAMS, [(0, 4), (4, 5)]))
    assert rep.passed
    assert rep.details["identity_value"] == -4
    assert rep.details["q_lower"] > 199
    with pytest.raises(ValueError):
        check_lemma_3_2(make_member(PARAMS, [(0, 1)]))  # A1 member
    # sanity at (k, delta) = (3, 4): identity 6 - 8 = -2 >= -4
    p34 = ExtremalParams(185, 3, 4)
    assert p34.eprime_bound == 1
    rep = check_lemma_3_2(make_member(p34, [(0, 5), (5, 6)]))  # Z starts at delta+1 = 5
    assert rep.passed and rep.details["identity_value"] == -2


def test_lemma_3_2_all_representatives():
    for member in family_members(PARAMS, 2):
        out = check_lemma_3_2(member)
        assert out.passed


# -- eigenvector lemmas ----------------------------------------------------------------


def test_lemma_3_3_intact_and_representatives():
    member = make_member(PARAMS, [])
    rep = check_lemma_3_3(member)
    assert rep.passed
    # bound is (k-1)/(q - (2*delta - k + 1)) = 2/(q - 4) at (3,3)
    assert rep.details["bound"] == pytest.approx(2.0 / (q_index(member.graph, 1e-10).upper - 4), rel=1e-9)
    for rep_edges in enumerate_Eprime_orbits(PARAMS, 2):
        out = check_lemma_3_3(make_member(PARAMS, rep_edges))
        assert out.passed, rep_edges


def test_orderings_on_maximizer():
    member, scanned = select_max_member(family_members(PARAMS, 2))
    assert len(scanned) == 9
    # the maximizer concentrates removals on Z vertices away from Y
    assert member.y_internal_edges() == 1
    rep = check_orderings(member, is_maximizer=True)
    assert rep.passed
    assert rep.details["eq4_residual"] <= 1e-6
    assert not rep.findings


def test_orderings_on_intact():
    member = make_member(PARAMS, [])
    rep = check_orderings(member, is_maximizer=True)
    assert rep.passed
    assert rep.details["3.4"] == "vacuous"
    assert rep.details["3.6(1)"] == "vacuous"
    assert rep.details["3.6(2)"] == "vacuous"
    assert rep.details["3.6(3)"]["holds"]
    assert rep.details["argmax_class"] == "Y1"


def test_lemma_3_7_maximizer_and_cases():
    member, _ = select_max_member(family_members(PARAMS, 2))
    rep = check_lemma_3_7(member, is_maximizer=True)
    assert rep.passed
    assert rep.details["case"] == "case2 (Y1 nonempty)"
    # engineered member with every Y vertex damaged: case 1
    case1 = make_member(PARAMS, [(0, 4), (1, 5)])
    rep = check_lemma_3_7(case1, is_maximizer=False)
    assert rep.details["case"] == "case1 (Y1 empty)"
    # Z-only damage keeps Y intact: case 2
    case2 = make_member(PARAMS, [(4, 5), (6, 7)])
    rep = check_lemma_3_7(case2, is_maximizer=False)
    assert rep.details["case"] == "case2 (Y1 nonempty)"


def test_lemma_3_7_bounds_with_the_upper_end():
    # C/(2(q - n + 1)) falls as q grows, so only the upper end proves the
    # bound: on a forced wide bracket the lower end passes, the upper fails
    member, _ = select_max_member(family_members(PARAMS, 2))
    member.__dict__["estimate"] = dataclasses.replace(
        member.estimate, lower=float(PARAMS.n), upper=1000.0)
    rep = check_lemma_3_7(member, is_maximizer=True)
    c = (PARAMS.delta - PARAMS.k + 2) * (PARAMS.k + 3) + 4
    assert rep.details["spread"] <= c / 2  # the bound at the lower end, q = n
    assert rep.details["bound"] == c / (2 * (1000.0 - PARAMS.n + 1))
    assert not rep.passed


def test_lemma_3_8():
    rep = check_lemma_3_8(family_members(PARAMS, 2))
    assert rep.passed
    assert rep.details["representatives"] == 9
    assert rep.details["min_gap"] > 0
    assert rep.details["max_q_upper"] < 200
    # jointly with lemma 3.2 the bracket sits inside (199, 200)
    for item in rep.details["per_representative"]:
        assert 199 < item["q_upper"] < 200


def test_lemma_3_8_takes_the_a2_members_of_one_order():
    with pytest.raises(ValueError):
        check_lemma_3_8([])
    with pytest.raises(ValueError):
        check_lemma_3_8(family_members(PARAMS, 1))  # A1 members
    with pytest.raises(ValueError):
        check_lemma_3_8(family_members(PARAMS, 2) + family_members(ExtremalParams(104, 3, 3), 2))


# the A2 members at which q equals the threshold exactly: no integer
# certificate settles a tie, so 3.8 names each one as undecided
A2_TIES = {
    (3, 3, 8): [[0, 4], [1, 4]],
    (3, 4, 12): [[0, 1], [0, 5]],
    (4, 4, 11): [[0, 1], [0, 2]],
    (4, 4, 18): [[0, 5], [1, 5]],
}


def test_lemma_verdicts_exact_at_every_small_order():
    undecided = {}
    for k, delta in ((3, 3), (3, 4), (4, 4)):
        for n in [*range(delta + 2, 32), threshold_F(k, delta)]:
            params = ExtremalParams(n, k, delta)
            for size in range(params.eprime_bound + 2):
                check = check_lemma_3_1 if size <= params.eprime_bound else check_lemma_3_2
                for member in family_members(params, size):
                    if member.hypothesis_ok:
                        assert check(member).passed, (k, delta, n, member.removed_edges)
            out = check_lemma_3_8(family_members(params, params.eprime_bound + 1))
            assert out.passed and out.applicable == (n == threshold_F(k, delta)), (k, delta, n)
            if out.findings:
                undecided[(k, delta, n)] = out.findings
    assert set(undecided) == set(A2_TIES)
    for key, removed in A2_TIES.items():
        (finding,) = undecided[key]
        assert finding.startswith("undecided") and str(removed) in finding


def test_lemma_3_8_rests_on_decide_q_ge(monkeypatch):
    # an undecided member fails the check, and so does a certified q >= t
    for decision in (None, True):
        monkeypatch.setattr(certifier_mod, "decide_q_ge",
                            lambda g, t, d=decision: (d, q_index(g)))
        rep = check_lemma_3_8(family_members(PARAMS, 2))
        assert rep.applicable and not rep.passed
        assert len(rep.findings) == (9 if decision is None else 0)


def test_eigen_identity_on_members():
    for size in (0, 1, 2):
        for rep in enumerate_Eprime_orbits(PARAMS, size):
            member = make_member(PARAMS, rep)
            est = q_index(member.graph, 1e-8)
            report = verify_eigen_identity(member.graph, est)
            assert report.passed
            assert report.eq1_residual <= 1e-6 and report.eq2_residual <= 1e-6


# -- proof chain -----------------------------------------------------------------------


def test_proof_chain_paper_scales():
    for (n, k, d) in [(103, 3, 3), (185, 3, 4)]:
        rep = verify_theorem_proof_chain(ExtremalParams(n, k, d))
        assert rep.chain_holds and rep.identity_ok and rep.order_ge_F
        assert rep.margin > 0
    rep = verify_theorem_proof_chain(ExtremalParams(103, 3, 3))
    assert rep.threshold == 200
    assert rep.m_lower_bound == Fraction(99 * 102, 2)  # (n-2d+2k-4)(n-1)/2
    assert rep.density_rhs == 103 * 102 // 2 - 3 * 98
    assert rep.margin == 98 - 2 * 4


def test_proof_chain_below_F_probe():
    # one below the order threshold the chain inequality itself still holds;
    # the report records that F is not met without claiming a break
    rep = verify_theorem_proof_chain(ExtremalParams(102, 3, 3))
    assert not rep.order_ge_F
    assert rep.identity_ok
    assert rep.chain_holds  # margin 97 - 8 > 0
    assert rep.margin == 102 - 3 - 2 - 2 * 4


def test_proof_chain_json():
    payload = verify_theorem_proof_chain(PARAMS).to_dict()
    assert payload["chain_holds"] and payload["identity_ok"]
    assert payload["threshold"] == 200


@pytest.mark.slow
def test_falsification_and_dirac_exhaustive_n7():
    """One pass over every labeled connected graph with 2 <= n <= 7.

    Below the order threshold every certification must come back as a
    hypothesis failure, never a violation; and whenever the classical
    degree condition promises k-connectedness, max-flow must confirm it.
    """
    certified = 0
    dirac_checked = 0
    for n in range(2, 8):
        for g in iter_labeled_graphs(n):
            if not is_connected(g):
                continue
            degs = g.degrees()
            delta = min(degs)
            if delta >= 3:
                v = certify(g, 3)
                assert v.outcome == HYPOTHESIS_FAILED
                assert not v.theorem_violation
                assert v.outcome != CONDITION_NOT_MET
                certified += 1
            kmax = 2 * delta - n + 2
            if 1 <= kmax <= n - 1:
                assert dirac_condition(g, kmax)
                assert is_k_connected(g, kmax)[0]
                dirac_checked += 1
    assert certified > 100_000
    assert dirac_checked > 100_000
