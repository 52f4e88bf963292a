"""Exact vertex connectivity and the sufficient-condition checks.

kappa(G) is computed from Menger's theorem: for non-adjacent s, t the
maximum number of internally vertex-disjoint s-t paths equals the minimum
vertex cut separating them.  Every s-t separator contains the common
neighbours C = N(s) & N(t), so kappa(s,t) = |C| + kappa_{G-C}(s,t), and the
s-closest minimum separator of G is C plus that of G - C.  A query is
therefore settled by bit operations when |C| already reaches the cap or t
is unreachable from s in G - C; only otherwise does it run max flow on the
vertex-split digraph of G - C (v -> v_in, v_out with unit internal
capacity, edges with effectively infinite capacity both ways).  All
non-adjacent pairs are scanned in lexicographic order; threshold queries
exit early at the first pair certifying fewer than k disjoint paths.

Conventions follow the usual ones: kappa = n-1 for complete graphs and
kappa = 0 for trivial or disconnected graphs.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

from .graphs import Graph, _bits, _reach_mask, degree_profile, is_connected


@dataclass(frozen=True)
class ConnectivityResult:
    kappa: int
    cut: Tuple[int, ...]
    method: str  # "maxflow" | "maxflow-threshold" | "brute-force"

    def to_dict(self) -> dict:
        return {"kappa": self.kappa, "cut": list(self.cut), "method": self.method}


# -- vertex-split max flow -------------------------------------------------


class _FlowNet:
    """Unit-capacity vertex-split flow network for one s-t query.

    Node 2v is v_in, node 2v+1 is v_out.  Arcs are stored as parallel
    lists (to, capacity, reverse-arc index) per node.
    """

    def __init__(self, g: Graph, s: int, t: int):
        n = g.n
        inf = n + 1
        self.adj: list[list[list[int]]] = [[] for _ in range(2 * n)]
        for v in range(n):
            cap = inf if v in (s, t) else 1
            self._arc(2 * v, 2 * v + 1, cap)
        for u, v in g.edges():
            self._arc(2 * u + 1, 2 * v, inf)
            self._arc(2 * v + 1, 2 * u, inf)
        self.source = 2 * s + 1
        self.sink = 2 * t

    def _arc(self, a: int, b: int, cap: int) -> None:
        self.adj[a].append([b, cap, len(self.adj[b])])
        self.adj[b].append([a, 0, len(self.adj[a]) - 1])

    def augment(self) -> bool:
        """One BFS augmenting path; every s-t path crosses a unit internal
        arc, so each augmentation adds exactly one unit of flow."""
        prev: list[Optional[Tuple[int, int]]] = [None] * len(self.adj)
        prev[self.source] = (self.source, -1)
        queue = deque([self.source])
        while queue:
            a = queue.popleft()
            if a == self.sink:
                break
            for i, (b, cap, _) in enumerate(self.adj[a]):
                if cap > 0 and prev[b] is None:
                    prev[b] = (a, i)
                    queue.append(b)
        if prev[self.sink] is None:
            return False
        b = self.sink
        while b != self.source:
            a, i = prev[b]
            arc = self.adj[a][i]
            arc[1] -= 1
            self.adj[arc[0]][arc[2]][1] += 1
            b = a
        return True

    def min_cut_vertices(self) -> Tuple[int, ...]:
        """After max flow: vertices whose internal arc crosses the cut."""
        seen = [False] * len(self.adj)
        seen[self.source] = True
        queue = deque([self.source])
        while queue:
            a = queue.popleft()
            for b, cap, _ in self.adj[a]:
                if cap > 0 and not seen[b]:
                    seen[b] = True
                    queue.append(b)
        cut = []
        for v in range(len(self.adj) // 2):
            if seen[2 * v] and not seen[2 * v + 1]:
                cut.append(v)
        return tuple(cut)


def local_connectivity(g: Graph, s: int, t: int, cap: Optional[int] = None) -> Tuple[int, Tuple[int, ...]]:
    """Maximum number of internally disjoint s-t paths and a minimum s-t
    vertex separator, for non-adjacent s, t.  With ``cap`` the search stops
    as soon as ``cap`` paths exist (the separator is then not returned)."""
    s, t = operator.index(s), operator.index(t)  # numpy ids break bit-row shifts
    if s == t or g.has_edge(s, t):
        raise ValueError("local connectivity needs distinct non-adjacent endpoints")
    rows = g.rows
    common = rows[s] & rows[t]
    value = common.bit_count()
    if cap is not None and value >= cap:
        return cap, ()
    # the rest of every separator lies in G - C, inside the part of it
    # that s reaches; the network is built on that part alone
    reach = _reach_mask(rows, s, ((1 << g.n) - 1) & ~common)
    if not reach >> t & 1:
        return value, _bits(common)
    net = _FlowNet(Graph.from_rows([r & reach if reach >> v & 1 else 0
                                    for v, r in enumerate(rows)], validate=False), s, t)
    while cap is None or value < cap:
        if not net.augment():
            return value, tuple(sorted(_bits(common) + net.min_cut_vertices()))
        value += 1
    return value, ()


def _non_adjacent_pairs(g: Graph) -> Iterator[Tuple[int, int]]:
    """Non-adjacent pairs s < t in lexicographic order."""
    full = (1 << g.n) - 1
    for s, row in enumerate(g.rows):
        for t in _bits((full & ~row) >> (s + 1) << (s + 1)):
            yield s, t


def _min_degree_cut(g: Graph) -> Tuple[int, Tuple[int, ...]]:
    degs = g.degrees()
    v = degs.index(min(degs))
    return v, _bits(g.rows[v])


def _is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def vertex_connectivity(g: Graph) -> ConnectivityResult:
    """Exact kappa(G) with a minimum vertex-cut witness (max-flow method)."""
    if g.n <= 1 or not is_connected(g):
        return ConnectivityResult(0, (), "maxflow")
    if _is_complete(g):
        return ConnectivityResult(g.n - 1, (), "maxflow")
    # kappa <= delta: the neighbourhood of a minimum-degree vertex is a cut
    # (its owner has a non-neighbour since the graph is not complete)
    _, best_cut = _min_degree_cut(g)
    best = len(best_cut)
    # a capped query that stops below its cap ran to max flow, so its cut
    # is a minimum s-t separator
    for s, t in _non_adjacent_pairs(g):
        value, cut = local_connectivity(g, s, t, cap=best)
        if value < best:
            best, best_cut = value, cut
    return ConnectivityResult(best, best_cut, "maxflow")


def is_k_connected(g: Graph, k: int) -> Tuple[bool, Tuple[int, ...]]:
    """Decide kappa(G) >= k (and n > k); on failure return a witness cut
    of size < k when one exists (empty for trivial failures)."""
    if k < 1:
        raise ValueError("k must be positive")
    if g.n <= k:
        return False, ()
    if not is_connected(g):
        return False, ()
    if _is_complete(g):
        return g.n - 1 >= k, ()
    _, nbhd = _min_degree_cut(g)
    if len(nbhd) < k:
        return False, nbhd
    for s, t in _non_adjacent_pairs(g):
        value, cut = local_connectivity(g, s, t, cap=k)
        if value < k:
            return False, cut
    return True, ()


# -- brute-force oracle ------------------------------------------------------

BRUTE_MAX_N = 12


def _first_separator(g: Graph, sizes: Iterable[int]) -> Optional[Tuple[int, ...]]:
    """The first vertex subset, by size in ``sizes`` and then in
    ``itertools.combinations`` order, whose removal disconnects the
    connected ``g``; None when there is none.  Every size is at most
    n - 2, so some vertex always survives."""
    rows, full = g.rows, (1 << g.n) - 1
    for size in sizes:
        for sub in itertools.combinations(range(g.n), size):
            removed = 0
            for v in sub:
                removed |= 1 << v
            allowed = full & ~removed
            start = (allowed & -allowed).bit_length() - 1
            if _reach_mask(rows, start, allowed) != allowed:
                return sub
    return None


def brute_force_connectivity(g: Graph) -> ConnectivityResult:
    """kappa by trying all vertex subsets in increasing size (n <= 12)."""
    if g.n > BRUTE_MAX_N:
        raise ValueError(f"brute-force oracle capped at n={BRUTE_MAX_N}")
    if g.n <= 1 or not is_connected(g):
        return ConnectivityResult(0, (), "brute-force")
    if _is_complete(g):
        return ConnectivityResult(g.n - 1, (), "brute-force")
    # all but a non-adjacent pair is a separator, so one of size <= n - 2 exists
    cut = _first_separator(g, range(1, g.n - 1))
    return ConnectivityResult(len(cut), cut, "brute-force")


def is_k_connected_small(g: Graph, k: int) -> Tuple[bool, Tuple[int, ...]]:
    """Subset-removal threshold check (n <= 12), used by dense sweeps.

    When delta(G) >= k it suffices to try the size k-1 subsets: removing a
    smaller set leaves every vertex with a neighbour among the survivors.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if g.n > BRUTE_MAX_N:
        raise ValueError(f"subset check capped at n={BRUTE_MAX_N}")
    if g.n <= k:
        return False, ()
    if not is_connected(g):
        return False, ()
    sizes = range(k - 1, k) if min(g.degrees()) >= k else range(1, k)
    cut = _first_separator(g, sizes)
    return (True, ()) if cut is None else (False, cut)


# -- sufficient conditions ---------------------------------------------------


def dirac_condition(g: Graph, k: int) -> bool:
    """Classical degree condition: n >= k+1 and 2*delta >= n+k-2 imply
    k-connectedness.  Sufficient only, never necessary."""
    if k < 1:
        raise ValueError("k must be positive")
    if g.n < k + 1:
        return False
    degs = g.degrees()
    return 2 * min(degs) >= g.n + k - 2


@dataclass(frozen=True)
class DensityCheck:
    """Outcome of the edge-count density condition at parameters (k, delta).

    ``satisfied`` is the strict inequality m > n(n-1)/2 - (delta-k+3)(n-delta-2);
    hypothesis violations are reported, never assumed away.
    """

    n: int
    m: int
    rhs: int
    satisfied: bool
    hypothesis_ok: bool
    hypothesis_failures: Tuple[str, ...]


def density_parameter_failures(n: int, k: int, delta: int) -> list:
    """The parameter hypotheses of the density condition that (n, k, delta)
    violates, worded for reports; empty when all hold."""
    failures = []
    if not k >= 2:
        failures.append(f"k >= 2 fails (k={k})")
    if not delta >= k:
        failures.append(f"delta >= k fails (delta={delta}, k={k})")
    if not n >= 2 * delta - k + 5:
        failures.append(f"n >= 2*delta-k+5 fails (n={n}, needs {2 * delta - k + 5})")
    return failures


def density_rhs(n: int, k: int, delta: int) -> int:
    """The density condition's threshold n(n-1)/2 - (delta-k+3)(n-delta-2):
    the condition is m > density_rhs(n, k, delta)."""
    return n * (n - 1) // 2 - (delta - k + 3) * (n - delta - 2)


def density_condition(g: Graph, k: int, delta: int) -> DensityCheck:
    n = g.n
    profile = degree_profile(g)
    failures = density_parameter_failures(n, k, delta)
    if not profile.is_connected:
        failures.append("graph not connected")
    if not profile.min_degree >= delta:
        failures.append(f"min degree {profile.min_degree} < delta={delta}")
    rhs = density_rhs(n, k, delta)
    return DensityCheck(
        n=n,
        m=g.m,
        rhs=rhs,
        satisfied=g.m > rhs,
        hypothesis_ok=not failures,
        hypothesis_failures=tuple(failures),
    )
