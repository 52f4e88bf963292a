"""Extremal graph families for the spectral connectivity threshold.

The central construction is

    A(n, k, delta) = K_{k-1} v (K_{delta-k+2} u K_{n-delta-1})

which is never k-connected: the K_{k-1} join part is a cut of size k-1.
Vertices fall into three degree classes,

    X (size delta-k+2, degree delta),
    Y (size k-1,       degree n-1),
    Z (size n-delta-1, degree n-delta+k-3),

and the exceptional families remove a set E' of edges with both endpoints
inside Y u Z: class A1 allows |E'| up to floor((delta-k+2)(k-1)/4), class
A2 exactly one more.  The order threshold below which the spectral
certificate is not claimed is the quartic polynomial ``threshold_F``.

Vertex layout of every constructed graph: Y first (0..k-2), then X
(k-1..delta), then Z (delta+1..n-1).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .graphs import Graph, _bits, complete, disjoint_union, is_connected, join
from .spectral import SpectralEstimate, q_index

Edge = Tuple[int, int]

ESTIMATE_TOLERANCE = 1e-10  # the tolerance of every member's one Perron estimate


@dataclass(frozen=True)
class ExtremalParams:
    """Parameters (n, k, delta) with delta >= k >= 2 and n > delta + 1.

    The spectral theorem needs k >= 3; k = 2 is accepted here because the
    density lemma (and its membership check) is stated down to k = 2.
    """

    n: int
    k: int
    delta: int

    def __post_init__(self):
        if not self.k >= 2:
            raise ValueError(f"k >= 2 required, got k={self.k}")
        if not self.delta >= self.k:
            raise ValueError(f"delta >= k required, got delta={self.delta}, k={self.k}")
        if not self.n > self.delta + 1:
            raise ValueError(f"n > delta+1 required, got n={self.n}, delta={self.delta}")

    @property
    def x_size(self) -> int:
        return self.delta - self.k + 2

    @property
    def y_size(self) -> int:
        return self.k - 1

    @property
    def z_size(self) -> int:
        return self.n - self.delta - 1

    @property
    def eprime_bound(self) -> int:
        """Largest |E'| still in class A1."""
        return (self.delta - self.k + 2) * (self.k - 1) // 4

    @property
    def z_degree(self) -> int:
        """Degree of an untouched Z vertex in the intact construction."""
        return self.n - self.delta + self.k - 3


@dataclass(frozen=True)
class VertexPartition:
    X: Tuple[int, ...]
    Y: Tuple[int, ...]
    Z: Tuple[int, ...]

    def refine(self, g: Graph, params: ExtremalParams):
        """Split Y and Z by degree in ``g``: Y1/Z1 keep the intact degree,
        Y2/Z2 lost at least one removed edge."""
        n = params.n
        zdeg = params.z_degree
        y1 = tuple(v for v in self.Y if g.degree(v) == n - 1)
        y2 = tuple(v for v in self.Y if g.degree(v) <= n - 2)
        z1 = tuple(v for v in self.Z if g.degree(v) == zdeg)
        z2 = tuple(v for v in self.Z if g.degree(v) <= zdeg - 1)
        return y1, y2, z1, z2


FAMILY_A1 = "A1"
FAMILY_A2 = "A2"
FAMILY_SUBGRAPH = "SUBGRAPH"  # permissive spanning-subgraph evidence only


@dataclass(frozen=True)
class FamilyMember:
    """A graph A(n,k,delta) - E' together with its classification evidence.

    ``family_class`` is A1 or A2 for exact members; SUBGRAPH marks
    permissive-mode evidence (graph is a spanning subgraph of the intact
    construction, removed_edges lists everything missing from it).  The
    hypothesis flags ``connected`` and ``min_degree_ok`` are read off the
    graph's cached facts: whether the member still meets the theorem's
    connectivity and minimum-degree (>= delta) assumptions.  Lemma
    checkers skip flagged members and say so.
    """

    params: ExtremalParams
    removed_edges: Tuple[Edge, ...]
    graph: Graph
    family_class: str
    partition: VertexPartition

    @property
    def connected(self) -> bool:
        return is_connected(self.graph)

    @property
    def min_degree_ok(self) -> bool:
        return min(self.graph.degrees()) >= self.params.delta

    @property
    def hypothesis_ok(self) -> bool:
        return self.connected and self.min_degree_ok

    @functools.cached_property
    def estimate(self) -> SpectralEstimate:
        """The one Perron estimate, run on first read, that every lemma check reads."""
        return q_index(self.graph, ESTIMATE_TOLERANCE)

    def refinement(self):
        return self.partition.refine(self.graph, self.params)

    def y_internal_edges(self) -> int:
        """Edges inside Y: all C(|Y|,2) of A's, less the removed Y-Y ones
        (``removed_edges`` lists every edge of A the graph lacks)."""
        y = set(self.partition.Y)
        lost = sum(1 for u, v in self.removed_edges if u in y and v in y)
        return math.comb(len(y), 2) - lost

    def to_dict(self) -> dict:
        return {
            "params": [self.params.n, self.params.k, self.params.delta],
            "removed_edges": [list(e) for e in self.removed_edges],
            "family_class": self.family_class,
            "connected": self.connected,
            "min_degree_ok": self.min_degree_ok,
        }


# -- thresholds --------------------------------------------------------------


def threshold_F(k: int, delta: int) -> int:
    """Order threshold polynomial; exact integer evaluation.

    Defined for delta >= k >= 3 (the spectral theorem's range).
    """
    if not (delta >= k >= 3):
        raise ValueError(f"threshold_F needs delta >= k >= 3, got k={k}, delta={delta}")
    return (
        (k * k + 2 * k - 3) * delta * delta
        - (2 * k**3 - k * k - 17 * k + 8) * delta
        + k**4 - 3 * k**3 - 8 * k * k + 23 * k + 4
    )


def q_threshold(params: ExtremalParams) -> int:
    """Spectral certification threshold 2(n - delta + k - 3)."""
    return 2 * (params.n - params.delta + params.k - 3)


# -- constructions ------------------------------------------------------------


def build_A(params: ExtremalParams) -> Tuple[Graph, VertexPartition]:
    """The intact extremal graph and its X/Y/Z partition."""
    p = params
    g = join(complete(p.y_size), disjoint_union(complete(p.x_size), complete(p.z_size)))
    part = VertexPartition(
        X=tuple(range(p.y_size, p.y_size + p.x_size)),
        Y=tuple(range(0, p.y_size)),
        Z=tuple(range(p.y_size + p.x_size, p.n)),
    )
    return g, part


def make_member(params: ExtremalParams, removed: Iterable[Edge]) -> FamilyMember:
    """A(n,k,delta) - E' with classification and hypothesis flags.

    Every removed edge must join two vertices of Y u Z; duplicates and
    sizes beyond the A2 bound are rejected.
    """
    g, part = build_A(params)
    inner = set(part.Y) | set(part.Z)
    seen = set()
    removed_norm: List[Edge] = []
    for u, v in removed:
        if u == v:
            raise ValueError(f"degenerate edge ({u},{v})")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ValueError(f"duplicate removed edge {e}")
        seen.add(e)
        if e[0] not in inner or e[1] not in inner:
            raise ValueError(f"removed edge {e} has an endpoint outside Y u Z")
        removed_norm.append(e)
    bound = params.eprime_bound
    if len(removed_norm) > bound + 1:
        raise ValueError(f"|E'|={len(removed_norm)} above the A2 size {bound + 1}")
    return FamilyMember(
        params=params,
        removed_edges=tuple(sorted(removed_norm)),
        graph=g.with_edges_removed(removed_norm),
        family_class=FAMILY_A1 if len(removed_norm) <= bound else FAMILY_A2,
        partition=part,
    )


# -- orbit enumeration of E' configurations -----------------------------------
#
# The automorphisms that matter permute Y internally and Z internally, so a
# configuration is determined by its edge types (Y-Y, Y-Z, Z-Z) and the
# endpoint-sharing pattern.  Orbits are found by brute canonicalization on
# a shrunken instance (|Z| capped at 2*size+1, large enough to hold any
# configuration's Z-support) and the representatives lift to full scale
# unchanged: the shrunken order delta + 1 + min(|Z|, 2*size + 1) is at most
# n, so Y and the first few Z vertices exist at any scale.  Every order of
# one (k, delta, size) shrinks to the same instance and shares its census.


def _canonical_config(edges: Sequence[Edge], y_set: frozenset, z_set: frozenset) -> Tuple:
    y_sup = sorted({v for e in edges for v in e if v in y_set})
    z_sup = sorted({v for e in edges for v in e if v in z_set})
    best = None
    for py in itertools.permutations(range(len(y_sup))):
        ymap = {v: ("Y", py[i]) for i, v in enumerate(y_sup)}
        for pz in itertools.permutations(range(len(z_sup))):
            zmap = {v: ("Z", pz[i]) for i, v in enumerate(z_sup)}
            lab = []
            for u, v in edges:
                a = ymap.get(u) or zmap[u]
                b = ymap.get(v) or zmap[v]
                lab.append((min(a, b), max(a, b)))
            cand = tuple(sorted(lab))
            if best is None or cand < best:
                best = cand
    return best


_CENSUS_CAP = 2_000_000


def orbit_census(params: ExtremalParams, size: int) -> List[Tuple[Tuple[Edge, ...], int]]:
    """All orbits of size-``size`` removed-edge configurations at this exact
    scale, as (representative, orbit size) pairs, by brute canonicalization.

    Intended for shrunken instances; refuses configuration spaces larger
    than a few million."""
    _, part = build_A(params)
    inner = sorted(set(part.Y) | set(part.Z))
    all_edges = [e for e in itertools.combinations(inner, 2)]
    if math.comb(len(all_edges), size) > _CENSUS_CAP:
        raise ValueError("configuration space too large for a brute census")
    y_set = frozenset(part.Y)
    z_set = frozenset(part.Z)
    orbits: dict = {}
    for combo in itertools.combinations(all_edges, size):
        key = _canonical_config(combo, y_set, z_set)
        if key in orbits:
            orbits[key][1] += 1
        else:
            orbits[key] = [tuple(combo), 1]
    return [(rep, count) for rep, count in orbits.values()]


def shrunken_params(params: ExtremalParams, size: int) -> ExtremalParams:
    """Same (k, delta) with |Z| capped at 2*size+1 (>= any config's support)."""
    z_cap = max(1, min(params.z_size, 2 * size + 1))
    return ExtremalParams(params.delta + 1 + z_cap, params.k, params.delta)


@functools.cache
def _orbit_representatives(small: ExtremalParams, size: int) -> Tuple[Tuple[Edge, ...], ...]:
    """The sorted census representatives of one shrunken instance."""
    return tuple(sorted(rep for rep, _ in orbit_census(small, size)))


def enumerate_Eprime_orbits(params: ExtremalParams, size: int) -> List[Tuple[Edge, ...]]:
    """One representative per orbit of size-``size`` E' configurations under
    the Y-internal and Z-internal permutations, as full-scale edge lists.
    """
    if size < 0 or size > params.eprime_bound + 1:
        raise ValueError(f"size {size} outside 0..{params.eprime_bound + 1}")
    if size == 0:
        return [()]
    return list(_orbit_representatives(shrunken_params(params, size), size))


def family_members(params: ExtremalParams, size: int) -> List[FamilyMember]:
    """``make_member(params, rep)`` for each orbit representative of this
    size, in ``enumerate_Eprime_orbits`` order: the one way the family
    checks and campaigns build exceptional members."""
    return [make_member(params, rep) for rep in enumerate_Eprime_orbits(params, size)]


# -- membership classification ------------------------------------------------

_PERMISSIVE_SEARCH_CAP = 200_000


def _missing_edges(g: Graph, x_mask: int, y_mask: int) -> Tuple[Edge, ...]:
    """The edges of A(n,k,delta) under the labeling X, Y, Z (Z the rest)
    that ``g`` lacks, sorted.  Row u of A is everything for u in Y, X u Y
    for u in X and Y u Z for u in Z."""
    full = (1 << g.n) - 1
    x_row, z_row = x_mask | y_mask, full & ~x_mask
    missing = []
    for u, row in enumerate(g.rows):
        a_row = full if y_mask >> u & 1 else x_row if x_mask >> u & 1 else z_row
        lost = (a_row & ~row) >> (u + 1) << (u + 1)
        if lost:
            missing += [(u, v) for v in _bits(lost)]
    return tuple(missing)


def _strict_classify(g: Graph, k: int, delta: int) -> Optional[FamilyMember]:
    n = g.n
    try:
        params = ExtremalParams(n, k, delta)
    except ValueError:
        return None
    x_size, y_size = params.x_size, params.y_size
    bound = params.eprime_bound
    degs = g.degrees()
    # X vertices keep degree delta and closed neighbourhood X u Y in any
    # exact member, so group degree-delta vertices by closed neighbourhood
    groups: dict = {}
    for v in range(n):
        if degs[v] == delta:
            groups.setdefault(g.rows[v] | (1 << v), []).append(v)
    for closed, verts in groups.items():
        if closed.bit_count() != delta + 1 or len(verts) < x_size:
            continue
        for x_choice in itertools.combinations(verts, x_size):
            x_mask = 0
            for v in x_choice:
                x_mask |= 1 << v
            if closed & x_mask != x_mask:
                continue
            y_mask = closed & ~x_mask
            if y_mask.bit_count() != y_size:
                continue
            # X's rows are X u Y, so every edge g lacks lies inside Y u Z
            missing = _missing_edges(g, x_mask, y_mask)
            if len(missing) > bound + 1:
                continue
            return FamilyMember(
                params=params,
                removed_edges=missing,
                graph=g,
                family_class=FAMILY_A1 if len(missing) <= bound else FAMILY_A2,
                partition=VertexPartition(X=x_choice, Y=_bits(y_mask),
                                          Z=_bits(((1 << n) - 1) & ~closed)),
            )
    return None


def _permissive_classify(g: Graph, k: int, delta: int) -> Optional[FamilyMember]:
    n = g.n
    try:
        params = ExtremalParams(n, k, delta)
    except ValueError:
        return None
    x_size, z_size = params.x_size, params.z_size
    if math.comb(n, x_size) > _PERMISSIVE_SEARCH_CAP:
        raise ValueError("permissive membership search infeasible at this scale")
    # G is a spanning subgraph of A iff some disjoint (X, Z) of the right
    # sizes has no X-Z edges; everything else may then be called Y
    full = (1 << n) - 1
    for x_choice in itertools.combinations(range(n), x_size):
        closed = 0
        for v in x_choice:
            closed |= (1 << v) | g.rows[v]
        if n - closed.bit_count() >= z_size:
            Z = _bits(full & ~closed)[:z_size]
            x_mask = sum(1 << v for v in x_choice)
            y_mask = full & ~x_mask & ~sum(1 << v for v in Z)
            return FamilyMember(
                params=params,
                removed_edges=_missing_edges(g, x_mask, y_mask),
                graph=g,
                family_class=FAMILY_SUBGRAPH,
                partition=VertexPartition(X=x_choice, Y=_bits(y_mask), Z=Z),
            )
    return None


def classify_membership(
    g: Graph, k: int, delta: int, permissive: bool = False
) -> Optional[FamilyMember]:
    """Decide whether ``g`` is (a relabeling of) A(n,k,delta) - E'.

    Strict mode demands exact equality with some member, reconstructing E'
    from the missing Y u Z internal edges; that is the reading under which
    the exceptional-family lemma's Rayleigh computation balances.  With
    ``permissive=True`` a failed strict match falls back to accepting any
    spanning subgraph of the intact construction (class SUBGRAPH), the
    reading the density lemma's conclusion needs.
    """
    member = _strict_classify(g, k, delta)
    if member is not None or not permissive:
        return member
    return _permissive_classify(g, k, delta)
