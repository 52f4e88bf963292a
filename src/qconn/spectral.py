"""Signless Laplacian spectral radius with certified two-sided bounds.

The Q-index q(G) is the largest eigenvalue of Q(G) = D(G) + A(G).  Q is
entrywise nonnegative, so for any positive vector v the Collatz-Wielandt
quotients

    min_i (Qv)_i / v_i   <=   q(G)   <=   max_i (Qv)_i / v_i

bracket q(G), however v was found.  Power iteration tightens the bracket
and the estimate keeps the running best bounds.  From order ``_SMALL_N``
on, the iteration switches after ``_POWER_STEPS`` power steps to Noda's
shift-inverted steps, which keep v positive and converge quadratically
(``_iterate_np``).  The float quotients carry no rounding allowance, so no
threshold test rests on them alone.
Q is the only operator here: the paper's condition is on q(G) alone.

Each True or False of ``decide_q_ge`` and ``decide_q_gt`` is an integer
proof: with T = num/den, comparing (Qv)_i * den with num * v_i at every i
proves q > T, q >= T, q <= T or q < T for a positive integer vector v.
The first rung is the ones vector, whose quotients are Q1 = 2d: q <= 2
max degree (Cvetkovic, Rowlinson and Simic, Linear Algebra Appl. 2007),
so 2 max degree < T (<= T for q > T) is False from the degree tuple
alone, with no float run; its bracket is [2 min degree, 2 max degree].
The rung is one-sided: a graph with 2 min degree >= T goes on to the
next rungs.  Below order ``_SMALL_N`` a connected graph tries v0 = d + 1,
then v1 = Q v0.  Otherwise one float run's iterate is rounded to integers >= 1
at scale 2^30; failing that, the unclamped rounding (lower side only),
then v0 and v1.  Else the answer is None.  A decision's bracket contains
q: the deciding vector's extreme quotients rounded one ulp outward, or
the float bracket where that agrees with the proof and contains them.

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
_CERT_SCALE = float(1 << 30)  # largest entry of a float iterate rounded to integers
_POWER_STEPS = 32  # numpy-path power steps before Noda steps; a solve costs ~15 at n = 103


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
    lower bound for q(G); the lemma checks evaluate it on family members."""
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


def _iterate_np(a, d, tol, max_iter, stop):
    """Same iteration, numpy path, on a connected component's float64
    adjacency ``a``, used as given: ``_component_runs`` builds it once for
    this run and the integer proof after it.

    The first ``_POWER_STEPS`` steps are power steps.  Each later iterate
    is a Noda step: with sigma the current iterate v's largest quotient,
    solve (sigma I - Q) x = v and normalize x.  Since sigma >= q, sigma I - Q
    is a nonsingular M-matrix whose inverse is positive on a connected
    graph, so x > 0, and sigma falls to q quadratically (Noda, Numer. Math.
    1971; Elsner, Linear Algebra Appl. 1976).  A singular solve or an x not
    strictly positive turns that step and every later one into a power
    step; a Noda iterate that tightens neither bound ends the run, so a
    tolerance below float resolution stops within a few steps.  Either
    way the quotients of a positive vector bracket q.  ``iterations``
    counts quotient evaluations (one matvec each), power and Noda alike;
    each Noda step adds one dense solve.

    The power steps run in preallocated buffers through ufuncs bound once,
    since at desk scale a step costs more in numpy dispatch than in
    arithmetic.  The norm is ``sqrt(w.dot(w))``, which is exactly what
    ``np.linalg.norm`` computes for a real vector.  The diagonal stays a
    separate term added after the matmul: folding it into the matrix would
    reorder each row sum and move the brackets, and so the reported bytes,
    by an ulp.  The iterate returned is one power step past the last one
    whose quotients were taken.
    """
    v = d + 1.0
    v /= math.sqrt(v.dot(v))
    w = np.empty_like(v)
    quot = np.empty_like(v)
    matvec, dot, sqrt = a.dot, w.dot, math.sqrt
    multiply, add, divide = np.multiply, np.add, np.divide
    least, most = np.minimum.reduce, np.maximum.reduce
    best_lo, best_up = 0.0, math.inf
    noda, solved = True, False  # Noda steps still allowed; v came from one
    it = 0
    while it < max_iter:
        it += 1
        matvec(v, out=w)
        multiply(d, v, out=quot)
        add(w, quot, out=w)
        divide(w, v, out=quot)
        lo = float(least(quot))
        up = float(most(quot))
        stalled = solved and lo <= best_lo and up >= best_up
        if lo > best_lo:
            best_lo = lo
        if up < best_up:
            best_up = up
        done = best_up - best_lo <= tol
        if done or stalled or (stop is not None and stop(best_lo, best_up)):
            divide(w, sqrt(dot(w)), out=v)
            return min(best_lo, best_up), best_up, v, it, done
        solved = False
        if noda and it >= _POWER_STEPS:
            shifted = -a
            np.fill_diagonal(shifted, up - d)
            try:
                x = np.linalg.solve(shifted, v)
            except np.linalg.LinAlgError:
                x = None
            solved = x is not None and least(x) > 0  # False on NaN too
            noda = solved
        if solved:
            divide(x, sqrt(x.dot(x)), out=v)
        else:
            divide(w, sqrt(dot(w)), out=v)
    return min(best_lo, best_up), best_up, v, it, False


def _component_runs(g, tol, max_iter, stop=None) -> list:
    """(comp, lo, up, vec, iters, converged, sub, a) of the float run on each
    component; ``sub`` is the component's graph and ``a`` its float64
    adjacency where the numpy path ran, else both None."""
    runs = []
    for comp in components(g):
        if len(comp) == 1:  # isolated vertex: eigenvalue 0
            runs.append((comp, 0.0, 0.0, [1.0], 0, True, None, None))
        elif len(comp) < _SMALL_N and g.n < _SMALL_N:
            runs.append((comp, *_iterate_small(g.rows, g.degrees(), comp, tol, max_iter, stop),
                         None, None))
        else:
            sub = g if len(comp) == g.n else g.subgraph(comp)
            a = sub.adjacency_bool().astype(np.float64)
            runs.append((comp, *_iterate_np(a, sub.degree_array(), tol, max_iter, stop), sub, a))
    return runs


def _estimate(g, runs, tol) -> SpectralEstimate:
    """The spectrum of a block-diagonal operator: the maximum over blocks."""
    if g.n == 0:
        return SpectralEstimate(0.0, 0.0, np.zeros(0), 0, True, tol)
    lower = max(r[1] for r in runs)
    upper = max(r[2] for r in runs)
    best = max(runs, key=lambda r: r[1])
    if len(best[0]) == g.n:  # connected: the component is 0..n-1 in order
        vector = np.asarray(best[3], dtype=np.float64)
    else:
        vector = np.zeros(g.n)
        vector[list(best[0])] = best[3]
    return SpectralEstimate(lower, upper, vector, sum(r[4] for r in runs),
                            all(r[5] for r in runs) and upper - lower <= tol, tol)


def _check_tolerance(tolerance: float) -> None:
    if not tolerance > 0:  # NaN fails this test too
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")


def q_index(g: Graph, tolerance: float = DEFAULT_TOL, max_iterations: int = DEFAULT_MAX_ITER) -> SpectralEstimate:
    """Certified bracket for the Q-index q(G).

    Disconnected graphs are handled per component and the maximum is
    reported; an isolated vertex contributes eigenvalue 0.
    """
    _check_tolerance(tolerance)
    return _estimate(g, _component_runs(g, tolerance, max_iterations), tolerance)


def _settled(lo, up, threshold, strict: bool) -> Optional[bool]:
    """What ``lo <= q <= up`` proves about ``q > threshold`` (``strict``)
    or ``q >= threshold``: True, False, or None when it proves neither."""
    if lo > threshold or (lo == threshold and not strict):
        return True
    if up < threshold or (up == threshold and strict):
        return False
    return None


def _exact_steps(g: Graph, num: int, den: int, strict: bool):
    """The integer test on a connected graph with v0 = d + 1, then v1 = Q v0:
    (decision, v, lower, upper, steps) from the first vector that settles
    it, its extreme quotients rounded one ulp outward; else decision None."""
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
        excess = [y * den - num * x for y, x in zip(w, v)]  # sign of w_i/v_i - T
        decision = _settled(min(excess), max(excess), 0, strict)
        if decision is None:
            v = w
            continue
        quot = [y / x for y, x in zip(w, v)]  # correctly rounded
        return (decision, v, math.nextafter(min(quot), -math.inf),
                math.nextafter(max(quot), math.inf), step)
    return None, v, -math.inf, math.inf, 2


def _rounded_proof(sub: Graph, vec, num: int, den: int, strict: bool, floor: float, a=None):
    """The integer test on the iterate ``vec`` of the connected ``sub``
    (float64 adjacency ``a``, built here when None), rounded to integers
    v >= ``floor`` with largest entry ``_CERT_SCALE``: the decision and v's
    extreme quotients rounded one ulp outward.  Qv is exact in float64
    (entries below 2n * 2^30 < 2^53), the excess while it stays below 2^52.
    With ``floor`` 0, Qv >= Tv (and Qv != Tv) proves q >= T (q > T) via the
    positive left Perron vector; no upper bound."""
    x = np.asarray(vec, dtype=np.float64)
    x = np.maximum(np.rint(x * (_CERT_SCALE / x.max())), floor)
    if a is None:
        a = sub.adjacency_bool().astype(np.float64)
    y = a.dot(x) + sub.degree_array() * x
    if den * int(y.max() + 1) < 2**52 and abs(num) * int(x.max()) < 2**52:
        excess = y * den - x * num
    else:  # in Python ints
        excess = np.array([int(b) * den - num * int(a) for b, a in zip(y, x)], dtype=object)
    least, most = excess.min(), excess.max()
    if not floor:
        on = x > 0
        return (True if least >= 0 and (most > 0 or not strict) else None,
                math.nextafter((y[on] / x[on]).min(), -math.inf), math.inf)
    quot = y / x  # correctly rounded, so these extremes round the exact ones
    return (_settled(least, most, 0, strict),
            math.nextafter(quot.min(), -math.inf), math.nextafter(quot.max(), math.inf))


def _decide(g: Graph, threshold, strict: bool,
            tolerance: float) -> Tuple[Optional[bool], SpectralEstimate]:
    """Certified test of ``q(G) > threshold`` (``strict``) or
    ``q(G) >= threshold`` (module docstring).  The degree rung comes
    first, before any component or float work: where 2 max degree proves
    False, the estimate is the ones vector's, one iteration.  Otherwise
    the reported count is the float run's plus the integer steps v0, v1
    tried."""
    _check_tolerance(tolerance)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    # numpy integers lack as_integer_ratio; Fraction takes any real type
    exact = threshold if isinstance(threshold, float) else Fraction(threshold)
    num, den = exact.as_integer_ratio()
    degs = g.degrees()
    top = 2 * max(degs, default=0)  # the degree rung: Q1 = 2d, so q <= 2 max degree
    if g.n and (top * den < num or (strict and top * den == num)):
        lower = math.nextafter(2 * min(degs), -math.inf)
        upper = math.nextafter(top, math.inf)
        return False, SpectralEstimate(lower, upper, np.full(g.n, 1.0 / math.sqrt(g.n)), 1,
                                       upper - lower <= tolerance, tolerance)
    steps = 0
    if 0 < g.n < _SMALL_N and len(components(g)) == 1:
        decision, v, lower, upper, steps = _exact_steps(g, num, den, strict)
        if decision is not None:
            vector = np.array(v, dtype=np.float64)
            vector /= math.sqrt(vector.dot(vector))
            return decision, SpectralEstimate(lower, upper, vector, steps,
                                              upper - lower <= tolerance, tolerance)
    fresh = not steps  # v0 and v1 not yet tried

    runs = _component_runs(g, tolerance, DEFAULT_MAX_ITER,
                           lambda lo, up: _settled(lo, up, threshold, strict) is not None)
    decisions = [_settled(0, 0, threshold, strict)] if g.n == 0 else []  # q = 0
    for i, (comp, lo, up, vec, it, _, sub, a) in enumerate(runs):
        if sub is None:
            sub = g if len(comp) == g.n else g.subgraph(comp)
        decision, out_lo, out_up = _rounded_proof(sub, vec, num, den, strict, 1.0, a)
        if decision is None:  # the clamp to 1 can sink a decaying tail
            decision, out_lo, _ = _rounded_proof(sub, vec, num, den, strict, 0.0, a)
        if decision is None and fresh:  # v0, v1 at any order: a star's v1 is exact
            decision, _, out_lo, out_up, step = _exact_steps(sub, num, den, strict)
            steps += step
        # keep the float bracket only where it agrees and provably holds q
        if decision is not None and not (decision == _settled(lo, up, threshold, strict)
                                         and lo <= out_lo and out_up <= up):
            runs[i] = (comp, out_lo, out_up, vec, it, out_up - out_lo <= tolerance, sub, a)
        decisions.append(decision)
    est = _estimate(g, runs, tolerance)
    est.iterations += steps
    # q(G) is the largest component index
    return (True if True in decisions else None if None in decisions else False), est


def decide_q_ge(g: Graph, threshold: float,
                tolerance: float = DEFAULT_TOL) -> Tuple[Optional[bool], SpectralEstimate]:
    """Certified test of ``q(G) >= threshold`` (used by ``certify``).

    True or False only when an integer Collatz-Wielandt certificate proves
    it (module docstring), so an exact tie such as q(K_n) = 2n - 2 comes
    back True; None when neither the rounded float iterate nor v0 = d + 1,
    v1 = Q v0 proves anything.  A threshold above twice the largest degree
    is False at once, from the degree tuple, with the bracket [2 min
    degree, 2 max degree] rounded one ulp outward.  A NaN or infinite
    threshold raises ``ValueError``.
    """
    return _decide(g, threshold, False, tolerance)


def decide_q_gt(g: Graph, threshold: float,
                tolerance: float = DEFAULT_TOL) -> Tuple[Optional[bool], SpectralEstimate]:
    """Certified test of ``q(G) > threshold`` (used by the edge-bound sweep).

    Decided as ``decide_q_ge`` is, so an exact tie such as q(K_n) = 2n - 2
    comes back False.
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


def _oracle_slack(g: Graph) -> float:
    """How far a float bracket may sit from the oracle by rounding alone: a
    few ulps per term of an n-term sum at the scale of Q's largest row sum,
    which bounds q."""
    return 4.0 * g.n * math.ulp(1.0) * max(1.0, 2.0 * max(g.degrees(), default=0))


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
