"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings as they complete.
"""

import hashlib
import math
import time

import pytest

from qconn import (
    CampaignConfig,
    ExtremalParams,
    brute_force_connectivity,
    build_A,
    certify,
    check_lemma_3_3,
    check_lemma_3_7,
    check_lemma_3_8,
    check_orderings,
    complete,
    cycle,
    disjoint_union,
    empty,
    enumerate_Eprime_orbits,
    family_members,
    is_connected,
    iter_labeled_graphs,
    make_member,
    q_index,
    q_index_dense_oracle,
    run_campaign,
    select_max_member,
    verify_eigen_identity,
    verify_theorem_proof_chain,
    vertex_connectivity,
)
from conftest import random_graph_mask

import numpy as np

PARAMS = ExtremalParams(103, 3, 3)

CONNECTED_COUNTS = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26_704, 7: 1_866_256}


def _report(num: int, name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} - {detail} [{time.time() - started:.1f}s]")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_spectral_correctness_exhaustive_n6():
    started = time.time()
    worst_err = 0.0
    bracket_ok = True
    count = 0
    for g in iter_labeled_graphs(6):
        est = q_index(g, 1e-10)
        oracle = q_index_dense_oracle(g)
        worst_err = max(worst_err, abs(est.upper - oracle))
        if not (est.lower - 1e-9 <= oracle <= est.upper + 1e-9):
            bracket_ok = False
        count += 1
    ok = count == 32_768 and worst_err <= 1e-8 and bracket_ok
    _report(1, "spectral correctness", ok,
            f"{count} graphs, max |q - oracle| = {worst_err:.2e}, brackets valid={bracket_ok}",
            started)


def test_criterion_2_closed_form_values():
    started = time.time()
    worst = 0.0
    for n in range(2, 51):
        worst = max(worst, abs(q_index(complete(n), 1e-10).value - 2 * (n - 1)))
    for n in range(3, 51):
        worst = max(worst, abs(q_index(cycle(n), 1e-10).value - 4.0))
    # the clique-plus-isolated-vertices value from the exceptional family
    # analysis: q(K_{n-delta+k-2} u empty_{delta-k+2}) = 2(n-delta+k-3),
    # i.e. K_101 u empty_2 at (103,3,3); note q(K_100 u empty_2) is 198
    split = disjoint_union(complete(101), empty(2))
    err_101 = abs(q_index(split, 1e-10).value - 200.0)
    err_100 = abs(q_index(disjoint_union(complete(100), empty(2)), 1e-10).value - 198.0)
    worst = max(worst, err_101, err_100)
    ok = worst <= 1e-9
    _report(2, "closed-form values", ok, f"max deviation {worst:.2e}", started)


def test_criterion_3_connectivity_oracle_equivalence():
    started = time.time()
    mismatches = 0
    bad_cuts = 0
    count = 0
    for g in iter_labeled_graphs(6):
        flow = vertex_connectivity(g)
        brute = brute_force_connectivity(g)
        if flow.kappa != brute.kappa:
            mismatches += 1
        for res in (flow, brute):
            if 0 < res.kappa < g.n - 1:
                keep = [v for v in range(g.n) if v not in set(res.cut)]
                if len(res.cut) != res.kappa or is_connected(g.subgraph(keep)):
                    bad_cuts += 1
        count += 1
    rng = np.random.default_rng(777)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        g = random_graph_mask(n, rng, p=float(rng.random()))
        if vertex_connectivity(g).kappa != brute_force_connectivity(g).kappa:
            mismatches += 1
        count += 1
    ok = mismatches == 0 and bad_cuts == 0
    _report(3, "connectivity oracles", ok,
            f"{count} graphs, mismatches={mismatches}, invalid cuts={bad_cuts}", started)


def test_criterion_4_density_lemma_exhaustive_n8():
    started = time.time()
    config = CampaignConfig(mode="lemma23", n=8, k=3, delta=3)
    report = run_campaign(config)
    universe = sum(math.comb(28, c) for c in range(9))
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    ok = (
        report.failed == 0
        and not report.violations
        and report.undecided == 0
        and report.counters_consistent()
        and report.tested == universe == 4_791_323
        and report.details["universe"] == universe
        and report.details["enumerated"] == universe
        # the only admissible non-3-connected graphs are the labeled copies
        # of the extremal construction: C(8,2) * C(6,4) = 420 of them
        and report.details["exceptional"] == 420
        and report.details["crosschecked"] >= 420
        # the canonical report of the per-graph sweep the batched kernel replaced
        and digest == "d5de51d783dff83c8d87501c3f68f1ba24702939a0586fc44c1a34681e4c5926"
    )
    _report(4, "density lemma exhaustive", ok,
            f"tested={report.tested}, exceptional={report.details['exceptional']}, "
            f"violations={len(report.violations)}, sha256={digest[:16]}", started)


def test_criterion_5_family_spectra():
    started = time.time()
    ok = True
    details = []
    for size in (0, 1):
        for rep in enumerate_Eprime_orbits(PARAMS, size):
            est = q_index(make_member(PARAMS, rep).graph, 1e-8)
            if not est.lower >= 200 - 1e-6:
                ok = False
            details.append(f"A1/{size}: lower={est.lower:.8f}")
    for rep in enumerate_Eprime_orbits(PARAMS, 2):
        est = q_index(make_member(PARAMS, rep).graph, 1e-8)
        if not (199 < est.lower <= est.upper < 200):
            ok = False
        details.append(f"A2: [{est.lower:.8f}, {est.upper:.8f}]")
    _report(5, "family spectra", ok, "; ".join(details[:4]) + " ...", started)


def test_criterion_6_eigenvector_lemmas():
    started = time.time()
    ok = True
    reps_all = [rep for size in (0, 1, 2) for rep in enumerate_Eprime_orbits(PARAMS, size)]
    worst_slack = float("inf")
    for rep in reps_all:
        member = make_member(PARAMS, rep)
        r33 = check_lemma_3_3(member)
        worst_slack = min(worst_slack, r33.details["slack"])
        if not (r33.passed and r33.details["slack"] >= -1e-7):
            ok = False
    maximizer, _ = select_max_member(family_members(PARAMS, 2))
    orderings = check_orderings(maximizer, is_maximizer=True)
    spread = check_lemma_3_7(maximizer, is_maximizer=True)
    if not (orderings.passed and spread.passed):
        ok = False
    worst_resid = 0.0
    for rep in reps_all:
        member = make_member(PARAMS, rep)
        est = q_index(member.graph, 1e-8)
        identity = verify_eigen_identity(member.graph, est)
        worst_resid = max(worst_resid, identity.eq1_residual, identity.eq2_residual)
    worst_resid = max(worst_resid, orderings.details["eq4_residual"])
    if worst_resid > 1e-6:
        ok = False
    _report(6, "eigenvector lemmas", ok,
            f"min 3.3 slack={worst_slack:.2e}, orderings={orderings.passed}, "
            f"spread={spread.passed}, max eq residual={worst_resid:.2e}", started)


def test_criterion_7_theorem_end_to_end():
    started = time.time()
    violations = 0
    v = certify(complete(103), 3)
    ok = v.outcome == "K_CONNECTED_CERTIFIED"
    violations += v.theorem_violation
    a_graph, _ = build_A(PARAMS)
    v = certify(a_graph, 3)
    ok = ok and v.outcome == "EXCEPTIONAL_FAMILY" and v.membership.removed_edges == ()
    violations += v.theorem_violation
    for size in (0, 1):
        for rep in enumerate_Eprime_orbits(PARAMS, size):
            v = certify(make_member(PARAMS, rep).graph, 3)
            ok = ok and v.outcome == "EXCEPTIONAL_FAMILY"
            violations += v.theorem_violation
    for (n, k, d) in [(103, 3, 3), (185, 3, 4)]:
        chain = verify_theorem_proof_chain(ExtremalParams(n, k, d))
        ok = ok and chain.chain_holds and chain.identity_ok and chain.order_ge_F
    ok = ok and violations == 0
    _report(7, "theorem end-to-end", ok,
            f"violations={violations}, proof chains exact", started)


@pytest.mark.slow
def test_criterion_8_counterexample_campaign():
    started = time.time()
    config = CampaignConfig(mode="counterexample", n=103, k=3, delta=3,
                            count=10_000, seed=20_240_101, edge_probability=0.5,
                            min_degree_floor=3)
    report = run_campaign(config)
    replay = run_campaign(config)
    ok = (
        report.tested == 10_000
        and report.failed == 0
        and not report.violations
        and report.counters_consistent()
        and report.canonical_json() == replay.canonical_json()
    )
    _report(8, "counterexample campaign", ok,
            f"outcomes={report.details['outcomes']}, reproducible="
            f"{report.canonical_json() == replay.canonical_json()}", started)


def test_criterion_9_edge_bound_sweep():
    started = time.time()
    config = CampaignConfig(mode="lemma22", n_min=2, n_max=7)
    report = run_campaign(config)
    expected_connected = sum(CONNECTED_COUNTS.values())
    ok = (
        report.tested == expected_connected
        and report.failed == 0
        and report.undecided == 0
        and not report.violations
        and report.counters_consistent()
    )
    _report(9, "edge-bound sweep", ok,
            f"tested={report.tested} connected graphs, violations={len(report.violations)} "
            f"(none anywhere, including n=3)", started)
