"""Signless Laplacian spectral radius with certified two-sided bounds.

The Q-index q(G) is the largest eigenvalue of Q(G) = D(G) + A(G).  On a
connected graph Q is entrywise nonnegative and irreducible, so for any
positive vector v the Collatz-Wielandt quotients

    min_i (Qv)_i / v_i   <=   q(G)   <=   max_i (Qv)_i / v_i

bracket q(G) rigorously.  Power iteration tightens the bracket; the
estimate keeps the running best bounds, and threshold tests compare
against them so a near-tie is never decided by floating-point noise.

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

from .graphs import Graph, components

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000
_SMALL_N = 32  # below this, plain-Python iteration beats numpy call overhead


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


# -- operator application -------------------------------------------------


def q_apply(g: Graph, v: Sequence[float]) -> np.ndarray:
    """(D + A) v without materializing Q: result_i = d(i) v_i + sum_{j~i} v_j."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (g.n,):
        raise ValueError(f"vector length {v.shape} does not match n={g.n}")
    return g.degree_array() * v + g.adjacency_bool() @ v


def rayleigh_q(g: Graph, v: Sequence[float]) -> float:
    """Rayleigh quotient of Q at v, computed from the edge-sum identity
    <Qv,v> = sum_{i~j} (v_i + v_j)^2.  Always a lower bound for q(G)."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (g.n,):
        raise ValueError(f"vector length {v.shape} does not match n={g.n}")
    denom = float(v @ v)
    if denom == 0.0:
        raise ValueError("zero vector")
    total = 0.0
    for i, j in g.edges():
        total += (v[i] + v[j]) ** 2
    return total / denom


def rayleigh_q_exact(g: Graph, v: Sequence[int]) -> Fraction:
    """Exact rational Rayleigh quotient for integer vectors; used as a
    certified lower-bound witness in near-threshold decisions."""
    if len(v) != g.n:
        raise ValueError("vector length mismatch")
    denom = sum(x * x for x in v)
    if denom == 0:
        raise ValueError("zero vector")
    num = sum((v[i] + v[j]) ** 2 for i, j in g.edges())
    return Fraction(num, denom)


# -- certified power iteration --------------------------------------------


def _iterate_small(rows, degs, idx, tol, max_iter, diag_degree, shift, stop):
    """Collatz-Wielandt iteration on one component, plain-Python path.

    ``idx`` holds the component's vertex ids.  With ``diag_degree`` the
    operator is Q = D + A, otherwise A alone; ``shift`` > 0 iterates on
    M + shift*I (used for the adjacency operator, whose bipartite spectra
    make unshifted quotients oscillate).  Returns (lo, up, vec, iters,
    converged) with vec normalized to unit length.
    """
    pos = {v: i for i, v in enumerate(idx)}
    nbrs = []
    for v in idx:
        rest = rows[v]
        cur = []
        while rest:
            b = rest & -rest
            cur.append(pos[b.bit_length() - 1])
            rest ^= b
        nbrs.append(cur)
    d = [degs[v] for v in idx]
    diag = [(x + shift if diag_degree else shift) for x in d]
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
            s = diag[i] * v[i]
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
            return min(best_lo, best_up) - shift, best_up - shift, v, it, True
        if stop is not None and stop(best_lo - shift, best_up - shift):
            return min(best_lo, best_up) - shift, best_up - shift, v, it, False
    return min(best_lo, best_up) - shift, best_up - shift, v, it, False


def _iterate_np(adj, d, tol, max_iter, diag_degree, shift, stop):
    """Same iteration, numpy path, on a dense boolean component adjacency.

    The float64 adjacency is built once per call; each step then runs in
    preallocated buffers.  The diagonal stays a separate term added after
    the matmul: folding it into the matrix would reorder each row sum and
    move the brackets, and so the reported bytes, by an ulp.
    """
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


def _component_estimate(g, comp, tol, max_iter, diag_degree, shift, stop=None):
    """Certified bounds for one connected component (vertex id list)."""
    if len(comp) == 1:
        # isolated vertex: both Q and A contribute eigenvalue 0
        return 0.0, 0.0, [1.0], 0, True
    if len(comp) < _SMALL_N and g.n < _SMALL_N:
        degs = g.degrees()
        lo, up, vec, it, conv = _iterate_small(
            g.rows, degs, comp, tol, max_iter, diag_degree, shift, stop
        )
        return lo, up, vec, it, conv
    sub = g if len(comp) == g.n else g.subgraph(comp)
    return _iterate_np(
        sub.adjacency_bool(), sub.degree_array(), tol, max_iter, diag_degree, shift, stop
    )


def _spectral_radius(g, tol, max_iter, diag_degree, shift, stop=None) -> SpectralEstimate:
    if g.n == 0:
        return SpectralEstimate(0.0, 0.0, np.zeros(0), 0, True, tol)
    comps = components(g)
    results = []
    total_it = 0
    for comp in comps:
        lo, up, vec, it, conv = _component_estimate(
            g, comp, tol, max_iter, diag_degree, shift, stop
        )
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
        vector[best[4]] = best[2]
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
    return _spectral_radius(g, tolerance, max_iterations, diag_degree=True, shift=0.0)


def adjacency_spectral_radius(
    g: Graph, tolerance: float = DEFAULT_TOL, max_iterations: int = DEFAULT_MAX_ITER
) -> SpectralEstimate:
    """Certified bracket for the adjacency spectral radius lambda(G).

    Iterates on A + I so that bipartite components (where -lambda is also
    an eigenvalue) still give converging quotients.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    return _spectral_radius(g, tolerance, max_iterations, diag_degree=False, shift=1.0)


def decide_q_ge(
    g: Graph,
    threshold: float,
    tolerance: float = DEFAULT_TOL,
    max_iterations: int = DEFAULT_MAX_ITER,
    escalation_cap: int = 1_000_000,
) -> Tuple[Optional[bool], SpectralEstimate]:
    """Certified test of ``q(G) >= threshold``.

    True when the certified lower bound reaches the threshold, False when
    the certified upper bound falls below it, None when the bracket still
    straddles after budget doubling up to ``escalation_cap`` iterations.
    """

    def stop(lo, up):
        return lo >= threshold or up < threshold

    budget = max_iterations
    tol = tolerance
    while True:
        est = _spectral_radius(g, tol, budget, diag_degree=True, shift=0.0, stop=stop)
        if est.lower >= threshold:
            return True, est
        if est.upper < threshold:
            return False, est
        if budget >= escalation_cap:
            return None, est
        budget = min(2 * budget, escalation_cap)
        tol = tol / 10.0


def decide_q_gt(
    g: Graph,
    threshold: float,
    tolerance: float = DEFAULT_TOL,
    max_iterations: int = DEFAULT_MAX_ITER,
) -> Tuple[Optional[bool], SpectralEstimate]:
    """Certified test of ``q(G) > threshold`` (used by the edge-bound sweep)."""

    def stop(lo, up):
        return lo > threshold or up <= threshold

    est = _spectral_radius(g, tolerance, max_iterations, diag_degree=True, shift=0.0, stop=stop)
    if est.lower > threshold:
        return True, est
    if est.upper <= threshold:
        return False, est
    return None, est


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


def adjacency_dense_oracle(g: Graph) -> float:
    """Largest eigenvalue of the explicit adjacency matrix (n <= 400)."""
    if g.n > ORACLE_MAX_N:
        raise ValueError(f"dense oracle capped at n={ORACLE_MAX_N}")
    if g.n == 0:
        return 0.0
    return float(np.linalg.eigvalsh(g.adjacency_bool().astype(np.float64))[-1])


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
