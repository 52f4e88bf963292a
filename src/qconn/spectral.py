"""Signless Laplacian spectral radius with certified two-sided bounds.

The Q-index q(G) is the largest eigenvalue of Q(G) = D(G) + A(G).  Q is
entrywise nonnegative, so for any positive vector v the Collatz-Wielandt
quotients

    min_i (Qv)_i / v_i   <=   q(G)   <=   max_i (Qv)_i / v_i

bracket q(G) rigorously.  Power iteration tightens the bracket; the
estimate keeps the running best bounds, and threshold tests compare
against them so a near-tie is never decided by floating-point noise.
Q is the only operator here: the paper's condition is on q(G) alone.

``decide_q_ge`` and ``decide_q_gt`` share one decision path, ``_decide``.
On a connected graph of order below ``_SMALL_N`` it first settles the test
exactly.  Q and every positive integer vector v have integer
entries, so with T = num/den (``threshold.as_integer_ratio()``) comparing
(Qv)_i * den with num * v_i at every i proves q > T, q >= T, q <= T or
q < T without rounding.  It tries v0 = d + 1 and then v1 = Q v0, the first
two iterates of the power iteration, and runs the float iteration only if
neither settles the test; a float bracket that still straddles T is
escalated (more iterations, a finer tolerance) before the test is left
undecided.  The float bracket reported with an exact
decision holds the extreme quotients of the deciding vector, each rounded
one ulp outward (``math.nextafter``) so that it contains q.

The dense oracle is LAPACK's symmetric eigensolver (``np.linalg.eigvalsh``)
on the explicit D + A matrix; it shares no code with the iterative path
and is used only to validate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .graphs import Graph, _bits, components

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000
_SMALL_N = 32  # below this, plain-Python iteration beats numpy call overhead
_ESCALATION_CAP = 1_000_000  # deciders double the iteration budget up to this
_ESCALATION_TOL_STEP = 10.0  # and divide the tolerance by this each round


@dataclass
class SpectralEstimate:
    """Certified bracket [lower, upper] for the target eigenvalue, plus the
    final positive iterate (unit norm, zero off the maximizing component of
    a disconnected graph)."""

    lower: float
    upper: float
    vector: np.ndarray
    iterations: int
    converged: bool
    tolerance: float

    @property
    def value(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "iterations": self.iterations,
            "converged": self.converged,
        }


# -- exact Rayleigh quotient ---------------------------------------------


def rayleigh_q_exact(g: Graph, v: Sequence[int]) -> Fraction:
    """Exact rational Rayleigh quotient <Qv,v>/<v,v> for an integer vector,
    from the edge-sum identity <Qv,v> = sum_{i~j} (v_i + v_j)^2.  Always a
    lower bound for q(G); used as a certified witness near a threshold."""
    if len(v) != g.n:
        raise ValueError("vector length mismatch")
    denom = sum(x * x for x in v)
    if denom == 0:
        raise ValueError("zero vector")
    num = sum((v[i] + v[j]) ** 2 for i, j in g.edges())
    return Fraction(num, denom)


# -- certified power iteration --------------------------------------------


def _iterate_small(rows, degs, idx, tol, max_iter, stop):
    """Collatz-Wielandt iteration of Q on one component, plain-Python path.

    ``idx`` holds the component's vertex ids.  Returns (lo, up, vec, iters,
    converged) with vec normalized to unit length.
    """
    pos = {v: i for i, v in enumerate(idx)}
    nbrs = [[pos[j] for j in _bits(rows[v])] for v in idx]
    d = [degs[v] for v in idx]
    v = [x + 1.0 for x in d]
    nrm = math.sqrt(sum(x * x for x in v))
    v = [x / nrm for x in v]
    best_lo, best_up = 0.0, math.inf
    it = 0
    while it < max_iter:
        it += 1
        w = []
        lo = math.inf
        up = -math.inf
        for i, ns in enumerate(nbrs):
            s = d[i] * v[i]
            for j in ns:
                s += v[j]
            w.append(s)
            quot = s / v[i]
            if quot < lo:
                lo = quot
            if quot > up:
                up = quot
        if lo > best_lo:
            best_lo = lo
        if up < best_up:
            best_up = up
        nrm = math.sqrt(sum(x * x for x in w))
        v = [x / nrm for x in w]
        if best_up - best_lo <= tol:
            return min(best_lo, best_up), best_up, v, it, True
        if stop is not None and stop(best_lo, best_up):
            return min(best_lo, best_up), best_up, v, it, False
    return min(best_lo, best_up), best_up, v, it, False


def _iterate_np(adj, d, tol, max_iter, stop):
    """Same iteration, numpy path, on a dense boolean component adjacency.

    The float64 adjacency is built once per call; each step then runs in
    preallocated buffers through ufuncs bound once, since at desk scale a
    step costs more in numpy dispatch than in arithmetic.  The norm is
    ``sqrt(w.dot(w))``, which is exactly what ``np.linalg.norm`` computes
    for a real vector.  The diagonal stays a separate term added after the
    matmul: folding it into the matrix would reorder each row sum and move
    the brackets, and so the reported bytes, by an ulp.
    """
    a = adj.astype(np.float64)
    v = d + 1.0
    v /= math.sqrt(v.dot(v))
    w = np.empty_like(v)
    quot = np.empty_like(v)
    matvec, dot, sqrt = a.dot, w.dot, math.sqrt
    multiply, add, divide = np.multiply, np.add, np.divide
    least, most = np.minimum.reduce, np.maximum.reduce
    best_lo, best_up = 0.0, math.inf
    it = 0
    while it < max_iter:
        it += 1
        matvec(v, out=w)
        multiply(d, v, out=quot)
        add(w, quot, out=w)
        divide(w, v, out=quot)
        lo = float(least(quot))
        up = float(most(quot))
        if lo > best_lo:
            best_lo = lo
        if up < best_up:
            best_up = up
        divide(w, sqrt(dot(w)), out=v)
        if best_up - best_lo <= tol:
            return min(best_lo, best_up), best_up, v, it, True
        if stop is not None and stop(best_lo, best_up):
            return min(best_lo, best_up), best_up, v, it, False
    return min(best_lo, best_up), best_up, v, it, False


def _component_estimate(g, comp, tol, max_iter, stop=None):
    """Certified bounds for one connected component (vertex id list)."""
    if len(comp) == 1:
        return 0.0, 0.0, [1.0], 0, True  # isolated vertex: eigenvalue 0
    if len(comp) < _SMALL_N and g.n < _SMALL_N:
        return _iterate_small(g.rows, g.degrees(), comp, tol, max_iter, stop)
    sub = g if len(comp) == g.n else g.subgraph(comp)
    return _iterate_np(sub.adjacency_bool(), sub.degree_array(), tol, max_iter, stop)


def _spectral_radius(g, tol, max_iter, stop=None) -> SpectralEstimate:
    if g.n == 0:
        return SpectralEstimate(0.0, 0.0, np.zeros(0), 0, True, tol)
    comps = components(g)
    results = []
    total_it = 0
    for comp in comps:
        lo, up, vec, it, conv = _component_estimate(g, comp, tol, max_iter, stop)
        total_it += it
        results.append((lo, up, vec, conv, comp))
    # spectrum of a block-diagonal operator: take the maximum over blocks
    lower = max(r[0] for r in results)
    upper = max(r[1] for r in results)
    best = max(results, key=lambda r: r[0])
    if len(best[4]) == g.n:  # connected: the component is 0..n-1 in order
        vector = np.asarray(best[2], dtype=np.float64)
    else:
        vector = np.zeros(g.n)
        vector[list(best[4])] = best[2]
    converged = all(r[3] for r in results) and upper - lower <= tol
    return SpectralEstimate(
        lower=lower,
        upper=upper,
        vector=vector,
        iterations=total_it,
        converged=converged,
        tolerance=tol,
    )


def q_index(g: Graph, tolerance: float = DEFAULT_TOL, max_iterations: int = DEFAULT_MAX_ITER) -> SpectralEstimate:
    """Certified bracket for the Q-index q(G).

    Disconnected graphs are handled per component and the maximum is
    reported; an isolated vertex contributes eigenvalue 0.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    return _spectral_radius(g, tolerance, max_iterations)


def _settled(lo, up, threshold, strict: bool) -> Optional[bool]:
    """What ``lo <= q <= up`` proves about ``q > threshold`` (``strict``)
    or ``q >= threshold``: True, False, or None when it proves neither."""
    if lo > threshold or (lo == threshold and not strict):
        return True
    if up < threshold or (up == threshold and strict):
        return False
    return None


def _decide_exact(g: Graph, threshold, strict: bool, tolerance: float):
    """Exact Collatz-Wielandt test of ``q(G) > threshold`` (``strict``) or
    ``q(G) >= threshold`` on a connected graph, with v0 = d + 1 and then
    v1 = Q v0.  Returns the decision and its estimate, or None when
    neither vector settles the test.

    With num/den = threshold, e_i = (Qv)_i * den - num * v_i has the sign
    of (Qv)_i / v_i - threshold, so min_i e_i and max_i e_i compared with 0
    settle exactly what the extreme quotients compared with the threshold
    would.  ``iterations`` counts the integer steps.
    """
    # numpy integers lack as_integer_ratio; Fraction takes any real type
    exact = threshold if isinstance(threshold, float) else Fraction(threshold)
    num, den = exact.as_integer_ratio()
    degs = g.degrees()
    nbrs = [_bits(row) for row in g.rows]
    v = [d + 1 for d in degs]
    for step in (1, 2):
        w = []
        for d, x, ns in zip(degs, v, nbrs):
            y = d * x
            for j in ns:
                y += v[j]
            w.append(y)
        excess = [y * den - num * x for y, x in zip(w, v)]
        decision = _settled(min(excess), max(excess), 0, strict)
        if decision is None:
            v = w
            continue
        quot = [y / x for y, x in zip(w, v)]  # correctly rounded
        lower = math.nextafter(min(quot), -math.inf)
        upper = math.nextafter(max(quot), math.inf)
        vector = np.array(v, dtype=np.float64)
        vector /= math.sqrt(vector.dot(vector))
        return decision, SpectralEstimate(lower, upper, vector, step,
                                          upper - lower <= tolerance, tolerance)
    return None


def _decide(g: Graph, threshold, strict: bool,
            tolerance: float) -> Tuple[Optional[bool], SpectralEstimate]:
    """Certified test of ``q(G) > threshold`` (``strict``) or
    ``q(G) >= threshold``: the exact test on a small connected graph, else
    (or if it does not settle) the float iteration.  While its bracket
    straddles, the iteration reruns with the budget doubled up to
    ``_ESCALATION_CAP`` and the tolerance divided by ``_ESCALATION_TOL_STEP``
    each round; the reported count is the last round's plus the two integer
    steps."""
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    steps = 0
    if 0 < g.n < _SMALL_N and len(components(g)) == 1:
        settled = _decide_exact(g, threshold, strict, tolerance)
        if settled is not None:
            return settled
        steps = 2

    def stop(lo, up):
        return _settled(lo, up, threshold, strict) is not None

    budget, tol = DEFAULT_MAX_ITER, tolerance
    while True:
        est = _spectral_radius(g, tol, budget, stop)
        decision = _settled(est.lower, est.upper, threshold, strict)
        if decision is not None or budget >= _ESCALATION_CAP:
            est.iterations += steps
            return decision, est
        budget = min(2 * budget, _ESCALATION_CAP)
        tol = tol / _ESCALATION_TOL_STEP


def decide_q_ge(g: Graph, threshold: float,
                tolerance: float = DEFAULT_TOL) -> Tuple[Optional[bool], SpectralEstimate]:
    """Certified test of ``q(G) >= threshold`` (used by ``certify``).

    On a connected graph with n < ``_SMALL_N`` the integer vectors d + 1
    and Q(d + 1) usually settle the test exactly (module docstring).
    Otherwise the float iteration decides: True when the certified lower
    bound reaches the threshold, False when the certified upper bound falls
    below it, None when the bracket still straddles after the budget has
    doubled up to ``_ESCALATION_CAP`` iterations.  A NaN or infinite
    threshold raises ``ValueError``.
    """
    return _decide(g, threshold, False, tolerance)


def decide_q_gt(g: Graph, threshold: float,
                tolerance: float = DEFAULT_TOL) -> Tuple[Optional[bool], SpectralEstimate]:
    """Certified test of ``q(G) > threshold`` (used by the edge-bound sweep).

    Decided as ``decide_q_ge`` is, so an exact tie such as q(K_n) = 2n - 2
    comes back False: True when the certified lower bound exceeds the
    threshold, False when the certified upper bound does not, None when the
    bracket still straddles at ``_ESCALATION_CAP`` iterations.
    """
    return _decide(g, threshold, True, tolerance)


# -- dense reference oracle -------------------------------------------------

ORACLE_MAX_N = 400


def q_index_dense_oracle(g: Graph) -> float:
    """Largest eigenvalue of the explicit D + A matrix (n <= 400)."""
    if g.n > ORACLE_MAX_N:
        raise ValueError(f"dense oracle capped at n={ORACLE_MAX_N}")
    if g.n == 0:
        return 0.0
    mat = g.adjacency_bool().astype(np.float64)
    mat[np.diag_indices(g.n)] = g.degree_array()
    return float(np.linalg.eigvalsh(mat)[-1])


# -- eigen-identities and the edge bound ------------------------------------


@dataclass(frozen=True)
class EigenIdentityReport:
    """Residuals of the Perron eigenpair identities.

    ``eq1_residual`` is max_i |(q - d(i)) z_i - sum_{j~i} z_j| and
    ``eq2_residual`` the corresponding maximum over ordered pairs (i,j) of
    the degree-difference identity that follows from it.
    """

    eq1_residual: float
    eq2_residual: float
    bound: float
    passed: bool


def verify_eigen_identity(g: Graph, est: SpectralEstimate) -> EigenIdentityReport:
    if not est.converged:
        raise ValueError("estimate not converged; identities need a settled eigenpair")
    if g.n == 0:
        return EigenIdentityReport(0.0, 0.0, 0.0, True)
    q = est.value
    z = est.vector
    d = g.degree_array()
    adj = g.adjacency_bool()
    nbr_sum = adj @ z
    eq1 = float(np.abs((q - d) * z - nbr_sum).max())
    # eq2 over all ordered pairs: (q-d_i)(z_i-z_j) - (d_i-d_j) z_j
    #   - sum_{k in N(i)\N(j)} z_k + sum_{l in N(j)\N(i)} z_l
    common = (adj * z) @ adj.T  # common[i,j] = sum_{k in N(i) cap N(j)} z_k
    only_i = nbr_sum[:, None] - common
    lhs = (q - d)[:, None] * (z[:, None] - z[None, :])
    rhs = (d[:, None] - d[None, :]) * z[None, :] + only_i - only_i.T
    resid = np.abs(lhs - rhs)
    np.fill_diagonal(resid, 0.0)
    eq2 = float(resid.max())
    bound = 10.0 * est.tolerance * max(g.n, 1)
    return EigenIdentityReport(eq1, eq2, bound, eq1 <= bound and eq2 <= bound)


def q_upper_bound_edges(g: Graph) -> float:
    """Edge-count upper bound 2m/(n-1) + n - 2 for the Q-index (n >= 2)."""
    if g.n < 2:
        raise ValueError("bound needs n >= 2")
    return 2.0 * g.m / (g.n - 1) + g.n - 2
