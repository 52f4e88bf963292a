"""Verdict pipeline for the spectral k-connectivity theorem, plus checkers
for the supporting lemmas.

The headline certificate: a connected graph of order n with minimum degree
delta >= k >= 3 and n >= F(k, delta) whose Q-index reaches 2(n-delta+k-3)
is k-connected unless it is (up to relabeling) an exceptional member
A(n,k,delta) - E' with |E'| within the A1 budget.  ``certify`` evaluates
the hypotheses, tests the spectral condition against certified bounds,
and on a connectivity failure must reconstruct an exceptional member; a
failure to do so is the falsification signal and is flagged loudly.

The spectral condition is decided by ``decide_q_ge``, whose every True or
False is an exact integer Collatz-Wielandt certificate; when no
certificate settles it, the verdict is ``UNDECIDED_NUMERIC``.

The family lemmas rest on exact certificates too: 3.1 and 3.2 on the
exact Rayleigh quotient of the Y u Z indicator (a lower bound on q), 3.8
on ``decide_q_ge``; their float brackets are reported, never tested.  The
eigenvector lemmas 3.3, 3.4, 3.6 and 3.7 are float checks.  Every check
reads the member's one Perron estimate, ``FamilyMember.estimate``, and
takes no tolerance of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .connectivity import (
    ConnectivityResult,
    density_condition,
    density_rhs,
    is_k_connected,
)
from .extremal import (
    FAMILY_A1,
    FAMILY_A2,
    ExtremalParams,
    FamilyMember,
    classify_membership,
    q_threshold,
    threshold_F,
)
from .graphs import Graph, _bits, degree_profile
from .spectral import (
    SpectralEstimate,
    decide_q_ge,
    q_index,
    rayleigh_q_exact,
)

K_CONNECTED_CERTIFIED = "K_CONNECTED_CERTIFIED"
EXCEPTIONAL_FAMILY = "EXCEPTIONAL_FAMILY"
CONDITION_NOT_MET = "CONDITION_NOT_MET"
HYPOTHESIS_FAILED = "HYPOTHESIS_FAILED"
UNDECIDED_NUMERIC = "UNDECIDED_NUMERIC"
THEOREM_VIOLATION = "THEOREM_VIOLATION"  # reserved for falsification; never expected

OUTCOMES = (
    K_CONNECTED_CERTIFIED,
    EXCEPTIONAL_FAMILY,
    CONDITION_NOT_MET,
    HYPOTHESIS_FAILED,
    UNDECIDED_NUMERIC,
    THEOREM_VIOLATION,
)


@dataclass
class Verdict:
    outcome: str
    hypothesis: dict
    threshold: Optional[int]
    delta_effective: Optional[int]
    spectral: Optional[SpectralEstimate]
    connectivity: Optional[ConnectivityResult] = None
    membership: Optional[FamilyMember] = None
    theorem_violation: bool = False
    notes: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "hypothesis": dict(self.hypothesis),
            "threshold": self.threshold,
            "delta_effective": self.delta_effective,
            "q_lower": self.spectral.lower if self.spectral else None,
            "q_upper": self.spectral.upper if self.spectral else None,
            "kappa": self.connectivity.kappa if self.connectivity else None,
            "cut": list(self.connectivity.cut) if self.connectivity else None,
            "member": self.membership.to_dict() if self.membership else None,
            "theorem_violation": self.theorem_violation,
            "notes": list(self.notes),
        }


def _effective_delta(n: int, k: int, min_degree: int) -> Optional[int]:
    """Largest d in [k, min_degree] with F(k, d) <= n.

    The theorem is applied with delta as a parameter at most the true
    minimum degree (its proof only uses delta as a lower bound on degrees,
    and a smaller parameter only weakens the exceptional family's degree
    profile); larger d gives the weaker spectral requirement, but F grows
    with d, so the usable range is capped by the order.
    """
    best = None
    d = k
    while d <= min_degree and threshold_F(k, d) <= n:
        best = d
        d += 1
    return best


def certify(g: Graph, k: int, delta: Optional[int] = None) -> Verdict:
    """Run the full spectral k-connectivity certification pipeline.  Every
    verdict is exact, so it takes no tolerance."""
    profile = degree_profile(g)
    n = g.n
    hyp = {
        "connected": profile.is_connected,
        "k_ge_3": k >= 3,
        "min_degree_ge_k": profile.min_degree >= k,
    }
    delta_eff: Optional[int] = None
    if hyp["k_ge_3"] and hyp["min_degree_ge_k"]:
        if delta is not None:
            ok = k <= delta <= profile.min_degree
            hyp["delta_le_min_degree"] = delta <= profile.min_degree
            hyp["order_ge_F"] = ok and threshold_F(k, max(delta, k)) <= n
            delta_eff = delta if ok and hyp["order_ge_F"] else None
        else:
            delta_eff = _effective_delta(n, k, profile.min_degree)
            hyp["order_ge_F"] = delta_eff is not None
    else:
        hyp["order_ge_F"] = False

    threshold = q_threshold(ExtremalParams(n, k, delta_eff)) if delta_eff is not None else None

    def verdict(outcome, est, notes=(), **evidence) -> Verdict:
        return Verdict(outcome=outcome, hypothesis=hyp, threshold=threshold,
                       delta_effective=delta_eff, spectral=est, notes=notes, **evidence)

    if not all(hyp.values()) or delta_eff is None:
        return verdict(HYPOTHESIS_FAILED, q_index(g) if n else None,
                       ("hypotheses not met; spectral data emitted for exploration",))

    decision, est = decide_q_ge(g, float(threshold))
    if decision is None:
        return verdict(UNDECIDED_NUMERIC, est,
                       ("no integer certificate settles the threshold",),
                       membership=classify_membership(g, k, delta_eff))
    if not decision:
        return verdict(CONDITION_NOT_MET, est)

    ok, cut = is_k_connected(g, k)
    if ok:
        if g.m == n * (n - 1) // 2:  # kappa(K_n) = n - 1
            conn = ConnectivityResult(n - 1, (), "maxflow")
        else:
            conn = ConnectivityResult(kappa=k, cut=(), method="maxflow-threshold")
        return verdict(K_CONNECTED_CERTIFIED, est, connectivity=conn)

    witness = ConnectivityResult(kappa=len(cut), cut=cut, method="maxflow-threshold")
    member = classify_membership(g, k, delta_eff)
    if member is not None and member.family_class == FAMILY_A1:
        return verdict(EXCEPTIONAL_FAMILY, est, connectivity=witness, membership=member)
    # spectral condition certified, not k-connected, no A1 membership:
    # this contradicts the theorem and is the headline falsification signal
    return verdict(THEOREM_VIOLATION, est,
                   ("THEOREM VIOLATION: certified spectral condition without "
                    "k-connectivity or exceptional membership",),
                   connectivity=witness, membership=member, theorem_violation=True)


# -- lemma reports -------------------------------------------------------------


@dataclass
class LemmaReport:
    lemma: str
    passed: bool
    applicable: bool = True
    details: dict = field(default_factory=dict)
    findings: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        def clean(x):
            if isinstance(x, Fraction):
                return str(x)
            if isinstance(x, (np.floating, np.integer)):
                return float(x)
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [clean(v) for v in x]
            return x

        return {
            "lemma": self.lemma,
            "passed": self.passed,
            "applicable": self.applicable,
            "details": clean(self.details),
            "findings": list(self.findings),
        }


def check_lemma_2_3(g: Graph, k: int, delta: int) -> LemmaReport:
    """Density condition: enough edges force k-connectedness up to spanning
    subgraphs of the extremal construction."""
    density = density_condition(g, k, delta)
    details = {
        "m": density.m,
        "density_rhs": density.rhs,
        "density_satisfied": density.satisfied,
        "hypothesis_failures": list(density.hypothesis_failures),
    }
    profile_min = min(g.degrees()) if g.n else 0
    if profile_min != delta and density.hypothesis_ok:
        details["delta_exact"] = False  # stated with delta(G) = delta; >= suffices
    if not density.hypothesis_ok:
        return LemmaReport("2.3", passed=True, applicable=False, details=details,
                           findings=tuple(density.hypothesis_failures))
    if not density.satisfied:
        details["branch"] = "density condition not triggered"
        return LemmaReport("2.3", passed=True, details=details)
    ok, cut = is_k_connected(g, k)
    if ok:
        details["branch"] = "k-connected"
        return LemmaReport("2.3", passed=True, details=details)
    details["branch"] = "membership"
    details["cut"] = list(cut)
    member = classify_membership(g, k, delta, permissive=True)
    details["member"] = member.to_dict() if member else None
    return LemmaReport("2.3", passed=member is not None, details=details)


def _member_z_vector(member: FamilyMember) -> list:
    z = [0] * member.params.n
    for v in member.partition.Y + member.partition.Z:
        z[v] = 1
    return z


def _rayleigh_evidence(member: FamilyMember, family_class: str) -> dict:
    """Shared body of checks 3.1 and 3.2: check the member's class, and
    record the exact Rayleigh quotient R of the Y u Z indicator z, the
    proof's integer identity <Qz,z> - <Q(K_p u empty)z,z> = R*p - 4*C(p,2)
    (p = |Y u Z|) beside its closed form, and the member's float
    bracket, which is reported only."""
    if member.family_class != family_class:
        raise ValueError(f"member is not in class {family_class}")
    params = member.params
    p = params.y_size + params.z_size
    rayleigh = rayleigh_q_exact(member.graph, _member_z_vector(member))
    return {
        "threshold": q_threshold(params),
        "identity_value": int(rayleigh * p) - 4 * math.comb(p, 2),
        "identity_closed_form": (params.delta - params.k + 2) * (params.k - 1)
                                - 4 * len(member.removed_edges),
        "exact_rayleigh": rayleigh,
        "q_lower": member.estimate.lower,
        "q_upper": member.estimate.upper,
    }


def check_lemma_3_1(member: FamilyMember) -> LemmaReport:
    """A1 members reach the spectral threshold t.  The proof's integer
    identity (delta-k+2)(k-1) - 4|E'| >= 0 is checked against R, and the
    exact Rayleigh quotient R = t + identity/|Y u Z| >= t of the Y u Z
    indicator proves q >= R >= t; no float enters the verdict."""
    details = _rayleigh_evidence(member, FAMILY_A1)
    t, actual = details["threshold"], details["identity_value"]
    params = member.params
    details["margin"] = details["q_lower"] - t
    details["order_ge_F"] = params.n >= threshold_F(params.k, params.delta)
    passed = (
        actual == details["identity_closed_form"]
        and actual >= 0
        and details["exact_rayleigh"] >= t
    )
    return LemmaReport("3.1", passed=passed, details=details)


def check_lemma_3_2(member: FamilyMember) -> LemmaReport:
    """A2 members stay above t - 1.  The proof identity >= -4 is checked
    against R, and the exact Rayleigh quotient R > t - 1 of the Y u Z
    indicator proves q >= R > t - 1; no float enters the verdict."""
    details = _rayleigh_evidence(member, FAMILY_A2)
    t, actual = details["threshold"], details["identity_value"]
    details["margin"] = details["q_lower"] - (t - 1)
    passed = (
        actual == details["identity_closed_form"]
        and actual >= -4
        and details["exact_rayleigh"] > t - 1
    )
    return LemmaReport("3.2", passed=passed, details=details)


def _normalized_vector(member: FamilyMember) -> Tuple[np.ndarray, SpectralEstimate]:
    est = member.estimate
    if not est.converged:
        raise ValueError("spectral estimate did not converge")
    x = est.vector / est.vector.max()
    return x, est


def check_lemma_3_3(member: FamilyMember) -> LemmaReport:
    """Perron entries on X are equal and bounded by (k-1)/(q - (2*delta-k+1))."""
    x, est = _normalized_vector(member)
    p = member.params
    xvals = [float(x[v]) for v in member.partition.X]
    denom = est.upper - (2 * p.delta - p.k + 1)
    bound = (p.k - 1) / denom if denom > 0 else float("inf")
    slack = bound - max(xvals)
    spread = max(xvals) - min(xvals)
    details = {
        "bound": bound,
        "x_max_on_X": max(xvals),
        "slack": slack,
        "x_spread_on_X": spread,
        "q_lower": est.lower,
        "q_upper": est.upper,
    }
    passed = slack >= -10 * est.tolerance and spread <= 10 * est.tolerance
    return LemmaReport("3.3", passed=passed, details=details)


_ORDERINGS = (
    ("3.4", "Z1", "Y2"),
    ("3.6(1)", "Z1", "Z2"),
    ("3.6(2)", "Y1", "Y2"),
    ("3.6(3)", "Y1", "Z1"),
)


def check_orderings(member: FamilyMember, is_maximizer: bool = True) -> LemmaReport:
    """Strict Perron-entry orderings between the degree-refinement classes,
    plus a residual check of the rearranged eigen-identity on adjacent
    pairs whose neighbourhoods nest.

    The orderings are proved for the Q-maximizer of its class, so on other
    members a broken ordering is recorded as a finding, not a failure.
    """
    x, est = _normalized_vector(member)
    y1, y2, z1, z2 = member.refinement()
    classes = {"Y1": y1, "Y2": y2, "Z1": z1, "Z2": z2}
    margin = 10 * est.tolerance
    findings = []
    details = {
        "class_sizes": {c: len(v) for c, v in classes.items()},
        "maximizer": "empirical (best orbit representative)" if is_maximizer
                     else "not the maximizer",
    }
    ok = True
    for name, hi, lo in _ORDERINGS:
        hi_v, lo_v = classes[hi], classes[lo]
        if not hi_v or not lo_v:
            details[name] = "vacuous"
            continue
        gap = min(x[v] for v in hi_v) - max(x[v] for v in lo_v)
        details[name] = {"gap": float(gap), "holds": bool(gap > margin)}
        if gap <= margin:
            if is_maximizer:
                ok = False
            else:
                findings.append(f"{name}: ordering gap {gap:.3e} on non-maximizer")
    # argmax location per the case analysis: Y1 when nonempty, else Z1
    argmax_v = int(np.argmax(x))
    expected = "Y1" if y1 else "Z1"
    located = next((c for c, vs in classes.items() if argmax_v in vs), "X")
    details["argmax_class"] = located
    details["argmax_expected"] = expected
    if located != expected:
        findings.append(f"argmax in {located}, case analysis expects {expected}")

    # rearranged identity (q - d(i) + 1)(x_i - x_j) = (d(i)-d(j)) x_j
    #   + sum_{k in N(i)\N[j]} x_k, valid when i~j and N(j)\N[i] is empty
    g = member.graph
    q = est.value
    degs = g.degrees()
    resid = 0.0
    sampled = 0
    for _, hi, lo in _ORDERINGS:
        for i in classes[hi]:
            for j in classes[lo]:
                if sampled >= 50:  # pairs checked against the identity
                    break
                if not g.has_edge(i, j):
                    continue
                if g.rows[j] & ~(g.rows[i] | (1 << i)):
                    continue
                only_i = g.rows[i] & ~(g.rows[j] | (1 << j))
                s = 0.0
                for k in _bits(only_i):
                    s += x[k]
                lhs = (q - degs[i] + 1) * (x[i] - x[j])
                rhs = (degs[i] - degs[j]) * x[j] + s
                resid = max(resid, abs(lhs - rhs))
                sampled += 1
    details["eq4_residual"] = resid
    details["eq4_samples"] = sampled
    if resid > 1e-6:
        ok = False
    return LemmaReport("3.4+3.6", passed=ok, details=details, findings=tuple(findings))


def check_lemma_3_7(member: FamilyMember, is_maximizer: bool = True) -> LemmaReport:
    """Spread bound: max x_i - min_{Y u Z} x_j against the closed form
    C/(2(q - n + 1)), which falls as q grows, so the bracket's upper end
    stands in for q, as in 3.3."""
    x, est = _normalized_vector(member)
    p = member.params
    inner = member.partition.Y + member.partition.Z
    lhs = float(x.max() - min(x[v] for v in inner))
    denom = 2 * (est.upper - p.n + 1)
    bound = ((p.delta - p.k + 2) * (p.k + 3) + 4) / denom if denom > 0 else float("inf")
    y1 = member.refinement()[0]
    details = {
        "spread": lhs,
        "bound": bound,
        "slack": bound - lhs,
        "case": "case2 (Y1 nonempty)" if y1 else "case1 (Y1 empty)",
        "maximizer": "empirical (best orbit representative)" if is_maximizer
                     else "not the maximizer",
    }
    holds = lhs <= bound + 1e-8
    findings = ()
    if not holds and not is_maximizer:
        findings = (f"spread bound violated on non-maximizer by {lhs - bound:.3e}",)
        return LemmaReport("3.7", passed=True, details=details, findings=findings)
    return LemmaReport("3.7", passed=holds, details=details)


def check_lemma_3_8(members: Sequence[FamilyMember]) -> LemmaReport:
    """Every A2 orbit representative of one (n, k, delta) stays strictly
    below the threshold t: ``decide_q_ge(member, t)`` must return False, an
    exact certificate of q < t, and an undecided member fails and is named
    in a finding.  The float brackets are reported only.  Below the order
    threshold F the report is marked not applicable."""
    if not members or any(m.family_class != FAMILY_A2 or m.params != members[0].params
                          for m in members):
        raise ValueError(f"3.8 takes the {FAMILY_A2} members of one (n, k, delta)")
    params = members[0].params
    applicable = params.k >= 3 and params.n >= threshold_F(params.k, params.delta)
    t = q_threshold(params)
    skipped = []
    findings = []
    ok = True
    per_rep = []
    for member in members:
        removed = list(map(list, member.removed_edges))
        if not member.hypothesis_ok:
            skipped.append(removed)
            continue
        decision, _ = decide_q_ge(member.graph, t)
        if decision is None:
            findings.append(f"undecided: no integer certificate settles q >= {t} "
                            f"with E' = {removed}")
        ok = ok and decision is False
        est = member.estimate
        per_rep.append({"removed": removed, "q_upper": est.upper, "gap": t - est.upper})
    details = {
        "threshold": t,
        "order_ge_F": applicable,
        "representatives": len(members),
        "skipped_flagged": skipped,
        # null, not an infinite float, where no member meets the hypotheses
        "max_q_upper": max((r["q_upper"] for r in per_rep), default=None),
        "min_gap": min((r["gap"] for r in per_rep), default=None),
        "per_representative": per_rep,
    }
    return LemmaReport("3.8", passed=ok or not applicable, applicable=applicable,
                       details=details, findings=tuple(findings))


def select_max_member(members: Sequence[FamilyMember]) -> Tuple[FamilyMember, list]:
    """Empirical Q-maximizer of orbit representatives of one size by their
    ``estimate.lower``, ties broken toward more edges inside Y (the proof's
    normalization): the member, and one scan entry per representative."""
    best = None
    scanned = []
    for member in members:
        removed = list(map(list, member.removed_edges))
        if not member.hypothesis_ok:
            scanned.append({"removed": removed, "skipped": True})
            continue
        lower = member.estimate.lower
        scanned.append({"removed": removed, "q_lower": lower})
        key = (lower, member.y_internal_edges())
        if best is None or key > best[0]:
            best = (key, member)
    if best is None:
        raise ValueError("no hypothesis-satisfying representative at this size")
    return best[1], scanned


# -- proof chain ---------------------------------------------------------------


@dataclass
class ProofChainReport:
    """Exact-arithmetic audit of the edge-count chain in the theorem's proof:
    the spectral condition and the edge bound force
    m >= (n-2*delta+2k-4)(n-1)/2, which beats the density threshold exactly
    when n - delta - 2 > (delta-k+2)(delta+1); the order threshold F
    guarantees that margin."""

    params: ExtremalParams
    threshold: int
    m_lower_bound: Fraction
    density_rhs: int
    identity_ok: bool
    margin: Fraction
    chain_holds: bool
    order_ge_F: bool

    def to_dict(self) -> dict:
        return {
            "n": self.params.n,
            "k": self.params.k,
            "delta": self.params.delta,
            "threshold": self.threshold,
            "m_lower_bound": str(self.m_lower_bound),
            "density_rhs": self.density_rhs,
            "identity_ok": self.identity_ok,
            "margin": str(self.margin),
            "chain_holds": self.chain_holds,
            "order_ge_F": self.order_ge_F,
        }


def verify_theorem_proof_chain(params: ExtremalParams) -> ProofChainReport:
    n, k, d = params.n, params.k, params.delta
    t = q_threshold(params)
    # q >= t and q <= 2m/(n-1) + n - 2 give 2m/(n-1) >= t - n + 2
    m_lower = Fraction((t - n + 2) * (n - 1), 2)
    rhs = density_rhs(n, k, d)
    margin = m_lower - rhs
    decomposition = Fraction(n - d - 2) - (d - k + 2) * (d + 1)
    identity_ok = margin == decomposition
    order_ok = k >= 3 and n >= threshold_F(k, d)
    return ProofChainReport(
        params=params,
        threshold=t,
        m_lower_bound=m_lower,
        density_rhs=rhs,
        identity_ok=identity_ok,
        margin=margin,
        chain_holds=margin > 0,
        order_ge_F=order_ok,
    )

