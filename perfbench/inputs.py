"""Workload inputs and their oracles, computed by the benchmark itself.

Everything here works on the benchmark's own dense adjacency matrices and
never imports qconn: the corpora are drawn with
``numpy.random.default_rng(seed)`` and written as graph6 lines, and the
expected results come from ``numpy.linalg.eigvalsh`` on D + A, degree and
reachability checks, the Dirac degree witness, the construction label of
family members, and a vectorized bitmask enumeration for the sweeps.  The
program under test only ever sees graph6 lines or campaign configs.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

K_CONNECTED_CERTIFIED = "K_CONNECTED_CERTIFIED"
EXCEPTIONAL_FAMILY = "EXCEPTIONAL_FAMILY"
CONDITION_NOT_MET = "CONDITION_NOT_MET"
HYPOTHESIS_FAILED = "HYPOTHESIS_FAILED"
UNDECIDED_NUMERIC = "UNDECIDED_NUMERIC"
THEOREM_VIOLATION = "THEOREM_VIOLATION"
OUTCOMES = (
    K_CONNECTED_CERTIFIED,
    EXCEPTIONAL_FAMILY,
    CONDITION_NOT_MET,
    HYPOTHESIS_FAILED,
    UNDECIDED_NUMERIC,
    THEOREM_VIOLATION,
)
K = 3  # every certify workload asks certify(g, 3)
# lemma22 campaign's fixed slack on the edge bound (harness._run_lemma22)
LEMMA22_SLACK = 1e-9


class OracleError(RuntimeError):
    """The oracle cannot decide an input; the generator must not emit it."""


# -- graph6 -----------------------------------------------------------------


def _pair_index(n: int):
    """Upper-triangle pairs (i, j), i < j, in graph6 bit order (by column)."""
    rows, cols = np.tril_indices(n, -1)
    return cols, rows


def graph6_line(adj: np.ndarray) -> bytes:
    """graph6 encoding of a dense symmetric 0/1 matrix, newline terminated."""
    n = adj.shape[0]
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    i, j = _pair_index(n)
    bits = adj[i, j].astype(np.uint8)
    bits = np.concatenate([bits, np.zeros(-len(bits) % 6, np.uint8)])
    groups = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1]) + 63
    return head + groups.astype(np.uint8).tobytes() + b"\n"


# -- dense graph facts --------------------------------------------------------


def threshold_F(k: int, delta: int) -> int:
    """The paper's order threshold F(k, delta)."""
    return ((k * k + 2 * k - 3) * delta * delta
            - (2 * k ** 3 - k * k - 17 * k + 8) * delta
            + k ** 4 - 3 * k ** 3 - 8 * k * k + 23 * k + 4)


def is_connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    if n <= 1:
        return True
    seen = np.zeros(n, bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        reach = adj[frontier].any(axis=0) & ~seen
        seen |= reach
        frontier = reach
    return bool(seen.all())


def q_matrix(adj: np.ndarray) -> np.ndarray:
    q = adj.astype(np.float64)
    q[np.diag_indices(adj.shape[0])] = adj.sum(axis=1)
    return q


def q_indices(adjs) -> np.ndarray:
    """Largest eigenvalue of D + A for each matrix, batched by order."""
    out = np.empty(len(adjs))
    by_n: dict = {}
    for idx, a in enumerate(adjs):
        by_n.setdefault(a.shape[0], []).append(idx)
    for idxs in by_n.values():
        for lo in range(0, len(idxs), 64):
            chunk = idxs[lo:lo + 64]
            stack = np.stack([q_matrix(adjs[i]) for i in chunk])
            out[chunk] = np.linalg.eigvalsh(stack)[:, -1]
    return out


def rounding_allowance(adj: np.ndarray) -> float:
    """Floating-point slack for comparing a bracket or threshold with
    eigvalsh: a few ulps per term of an n-term sum at the scale of the
    largest row sum of Q (which bounds q)."""
    n = adj.shape[0]
    return 4.0 * n * np.finfo(np.float64).eps * max(1.0, 2.0 * float(adj.sum(axis=1).max()))


@dataclass
class Expected:
    """Oracle view of one certify input."""

    outcome: str
    q: float
    slack: float
    threshold: int | None
    label: str


def expected_outcome(adj: np.ndarray, q: float, label: str) -> Expected:
    """Outcome certify(g, 3) must return, from the benchmark's own facts.

    ``label`` is the construction: "A1" or "A2" for family members, "random"
    otherwise.  Inputs the oracle cannot decide raise OracleError.
    """
    n = adj.shape[0]
    degs = adj.sum(axis=1)
    slack = rounding_allowance(adj)
    min_deg = int(degs.min())
    if not is_connected(adj) or min_deg < K:
        return Expected(HYPOTHESIS_FAILED, q, slack, None, label)
    d_eff = None
    d = K
    while d <= min_deg and threshold_F(K, d) <= n:
        d_eff = d
        d += 1
    if d_eff is None:
        return Expected(HYPOTHESIS_FAILED, q, slack, None, label)
    thr = 2 * (n - d_eff + K - 3)
    if q < thr - slack:
        if label == "A1":
            raise OracleError(f"A1 member below the threshold: q={q} < {thr}")
        return Expected(CONDITION_NOT_MET, q, slack, thr, label)
    if label == "A1":
        return Expected(EXCEPTIONAL_FAMILY, q, slack, thr, label)
    if q > thr + slack and 2 * min_deg >= n + K - 2:  # Dirac witness
        return Expected(K_CONNECTED_CERTIFIED, q, slack, thr, label)
    raise OracleError(f"{label} graph not decidable by the oracle (q={q}, threshold={thr})")


# -- certify corpora ------------------------------------------------------------


@dataclass
class Corpus:
    lines: list = field(default_factory=list)  # graph6 lines (bytes)
    expected: list = field(default_factory=list)  # Expected per line

    def data(self) -> bytes:
        return b"".join(self.lines)

    def sha256(self) -> str:
        return hashlib.sha256(self.data()).hexdigest()


def _from_bits(n: int, bits: np.ndarray) -> np.ndarray:
    adj = np.zeros((n, n), bool)
    i, j = _pair_index(n)
    adj[i[bits], j[bits]] = True
    return adj | adj.T


def gnp(rng, n: int, p: float, accept) -> np.ndarray:
    """G(n, p) draws, rejected until ``accept(adj)`` holds."""
    pairs = n * (n - 1) // 2
    for _ in range(10_000):
        adj = _from_bits(n, rng.random(pairs) < p)
        if accept(adj):
            return adj
    raise OracleError(f"no accepted G({n}, {p}) draw")


def gnm_missing(rng, n: int, missing: int, accept) -> np.ndarray:
    """K_n minus exactly ``missing`` uniformly chosen edges."""
    pairs = n * (n - 1) // 2
    for _ in range(10_000):
        keep = np.ones(pairs, bool)
        keep[rng.choice(pairs, missing, replace=False)] = False
        adj = _from_bits(n, keep)
        if accept(adj):
            return adj
    raise OracleError(f"no accepted K_{n} minus {missing} edges draw")


def family_graph(n: int, k: int, delta: int, removed) -> np.ndarray:
    """A(n,k,delta) - E' with Y = 0..k-2, X = k-1..delta, Z = delta+1..n-1."""
    adj = ~np.eye(n, dtype=bool)
    x = slice(k - 1, delta + 1)
    z = slice(delta + 1, n)
    adj[x, z] = False
    adj[z, x] = False
    for u, v in removed:
        adj[u, v] = adj[v, u] = False
    return adj


def eprime_orbits(k: int, delta: int, size: int) -> list:
    """One representative per orbit of ``size``-edge sets inside Y u Z under
    permutations of Y and of Z (brute canonicalization on Y and the first
    2*size Z vertices, which hold any configuration's Z support)."""
    y = list(range(k - 1))
    z = list(range(delta + 1, delta + 1 + 2 * size))
    inner = list(itertools.combinations(y + z, 2))
    perms = [
        {**dict(zip(y, py)), **dict(zip(z, pz))}
        for py in itertools.permutations(y)
        for pz in itertools.permutations(z)
    ]
    seen = {}
    for combo in itertools.combinations(inner, size):
        key = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in combo)) for p in perms
        )
        seen.setdefault(key, combo)
    return sorted(seen.values())


def _finish(items) -> Corpus:
    """Compute oracles for (adj, label) items and encode them, in order.

    The order of graph kinds is the same for every seed, so the program's
    memory high-water mark does not move with the seed."""
    qs = q_indices([a for a, _ in items])
    corpus = Corpus()
    for (adj, label), q in zip(items, qs):
        corpus.lines.append(graph6_line(adj))
        corpus.expected.append(expected_outcome(adj, float(q), label))
    return corpus


def certify_sparse(seed: int, dense_count: int = 320, sparse_count: int = 80) -> Corpus:
    """n = 103: p = 0.5 graphs with min degree >= 3 (rejected after one power
    iteration) and connected p = 0.04 graphs with min degree < 3
    (hypothesis failed after a full q_index run)."""
    rng = np.random.default_rng(seed)
    n = 103
    total = dense_count + sparse_count
    items = []
    for i in range(total):
        # spread the sparse graphs evenly through the corpus
        if (i + 1) * sparse_count // total > i * sparse_count // total:
            adj = gnp(rng, n, 0.04, lambda a: a.sum(1).min() < K and is_connected(a))
        else:
            adj = gnp(rng, n, 0.5, lambda a: a.sum(1).min() >= K and is_connected(a))
        items.append((adj, "random"))
    return _finish(items)


FAMILY_SCALES = ((103, 3, 3), (185, 3, 4))


def certify_dense(seed: int, certified_count: int = 2, relabelings: int = 1,
                  scales=FAMILY_SCALES) -> Corpus:
    """K_103 minus 53 edges (the p = 0.99 edge count; certified after a
    flow-network scan of every non-adjacent pair) plus every A1 and A2 orbit
    member at each (n, k, delta) scale under seeded random relabelings."""
    rng = np.random.default_rng(seed)
    n = 103
    missing = round(0.01 * n * (n - 1) / 2)
    items = [
        (gnm_missing(rng, n, missing, lambda a: 2 * a.sum(1).min() >= n + K - 2), "random")
        for _ in range(certified_count)
    ]
    for fn, fk, fdelta in scales:
        bound = (fdelta - fk + 2) * (fk - 1) // 4  # largest A1 |E'|
        for size in range(bound + 2):
            label = "A1" if size <= bound else "A2"
            for rep in eprime_orbits(fk, fdelta, size):
                base = family_graph(fn, fk, fdelta, rep)
                for _ in range(relabelings):
                    perm = rng.permutation(fn)
                    items.append((base[np.ix_(perm, perm)], label))
    return _finish(items)


# -- sweep oracles ----------------------------------------------------------------


def _bit_rows(n: int, pair_bits: np.ndarray) -> np.ndarray:
    """(B, n) uint16 neighbour masks from a (B, C(n,2)) 0/1 edge matrix whose
    columns follow itertools.combinations(range(n), 2)."""
    rows = np.zeros((pair_bits.shape[0], n), np.uint16)
    for e, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        on = pair_bits[:, e].astype(np.uint16)
        rows[:, i] |= on << j
        rows[:, j] |= on << i
    return rows


def _connected_within(rows: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Per graph: is the subgraph induced on the ``allowed`` mask connected."""
    n = rows.shape[1]
    allowed = allowed.astype(np.uint16)
    start = allowed & (~allowed + np.uint16(1))  # lowest allowed vertex
    seen = start
    for _ in range(n):
        reach = np.zeros_like(seen)
        for v in range(n):
            hit = (seen >> np.uint16(v)) & np.uint16(1)
            reach |= rows[:, v] * hit
        seen = (seen | reach) & allowed
    return seen == allowed


def _k_connected(rows: np.ndarray, k: int) -> np.ndarray:
    """Per graph: kappa >= k and n > k, by removing every vertex set of size
    below k and testing the rest for connectivity."""
    n = rows.shape[1]
    full = np.uint16((1 << n) - 1)
    ok = np.full(rows.shape[0], n > k)
    for size in range(k):
        for sub in itertools.combinations(range(n), size):
            removed = sum(1 << v for v in sub)
            allowed = np.full(rows.shape[0], full & np.uint16(~removed & 0xFFFF))
            ok &= _connected_within(rows, allowed)
    return ok


def lemma23_expected(n: int, k: int, delta: int, budget: int, stride: int = 100_000) -> dict:
    """Counters of run_campaign(mode="lemma23") over K_n minus at most
    ``budget`` edges, with the campaign's per-size chunks and cross-check
    stride."""
    npairs = n * (n - 1) // 2
    xz_edges = (delta - k + 2) * (n - delta - 1)
    if budget >= xz_edges:
        raise OracleError("oracle assumes no spanning subgraph of A(n,k,delta) in range")
    rhs = npairs - (delta - k + 3) * (n - delta - 2)
    counts = {"tested": 0, "passed": 0, "failed": 0, "skipped": 0, "undecided": 0}
    crosschecked = 0
    for size in range(budget + 1):
        combos = np.array(list(itertools.combinations(range(npairs), size)), np.int64)
        combos = combos.reshape(math.comb(npairs, size), size)
        missing = np.zeros((len(combos), npairs), np.uint8)
        np.put_along_axis(missing, combos, 1, axis=1)
        rows = _bit_rows(n, 1 - missing)
        degs = np.bitwise_count(rows).min(axis=1)
        full = np.full(len(combos), (1 << n) - 1, np.uint16)
        skip = (degs < delta) | ~_connected_within(rows, full) | (npairs - size <= rhs)
        kconn = _k_connected(rows, k)
        counts["tested"] += len(combos)
        counts["skipped"] += int(skip.sum())
        counts["passed"] += int((~skip & kconn).sum())
        counts["failed"] += int((~skip & ~kconn).sum())
        idx = np.arange(1, len(combos) + 1)
        crosschecked += int((~skip & (idx % stride == 0)).sum())
    return {
        "counters": counts,
        "details": {
            "enumerated": counts["tested"],
            "exceptional": 0,
            "crosschecked": crosschecked,
            "n": n,
            "complement_budget": budget,
            "universe": counts["tested"],
        },
    }


def lemma22_expected(n_min: int, n_max: int) -> dict:
    """Counters of run_campaign(mode="lemma22"): every connected labeled
    graph with n_min <= n <= n_max against q <= 2m/(n-1) + n - 2."""
    counts = {"tested": 0, "passed": 0, "failed": 0, "skipped": 0, "undecided": 0}
    enumerated = 0
    by_order = {}
    for n in range(max(2, n_min), n_max + 1):
        npairs = n * (n - 1) // 2
        masks = np.arange(1 << npairs, dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(npairs)) & 1).astype(np.uint8)
        enumerated += len(masks)
        rows = _bit_rows(n, bits)
        conn = _connected_within(rows, np.full(len(masks), (1 << n) - 1, np.uint16))
        bits = bits[conn]
        adj = np.zeros((len(bits), n, n), bool)
        for e, (i, j) in enumerate(itertools.combinations(range(n), 2)):
            adj[:, i, j] = adj[:, j, i] = bits[:, e].astype(bool)
        deg = adj.sum(axis=2)
        qmat = adj.astype(np.float64)
        qmat[:, np.arange(n), np.arange(n)] = deg
        q = np.linalg.eigvalsh(qmat)[:, -1]
        bound = 2.0 * bits.sum(axis=1) / (n - 1) + n - 2 + LEMMA22_SLACK
        slack = 4.0 * n * np.finfo(np.float64).eps * 2.0 * (n - 1)
        over = q > bound + slack
        if (np.abs(q - bound) <= slack).any():
            raise OracleError(f"edge-bound tie within rounding at n={n}")
        counts["tested"] += len(bits)
        counts["failed"] += int(over.sum())
        counts["passed"] += int((~over).sum())
        if over.any():
            by_order[str(n)] = int(over.sum())
    return {
        "counters": counts,
        "details": {
            "enumerated": enumerated,
            "n_range": [max(2, n_min), n_max],
            "slack": LEMMA22_SLACK,
            "violations_by_order": by_order,
        },
    }
