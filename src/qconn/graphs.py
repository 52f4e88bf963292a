"""Simple undirected graphs as packed bit rows, plus the graph6 codec.

Vertices are always 0-based integers.  A graph is immutable after
construction; row ``i`` is a Python int whose bit ``j`` is set iff vertex
``j`` is a neighbour of ``i``.  Neighbour intersections, degrees and BFS
all reduce to integer bit operations, which is plenty fast for the desk
scale (n up to a few hundred) this library targets.  A graph crosses to a
dense numpy matrix through one pair of converters (bit rows to bytes to
``np.unpackbits`` and back through ``np.packbits``).  The graph6 codec
supports the long header form; since a parsed graph carries its dense
n x n matrix, orders above ``MAX_ORDER`` (16 MB of matrix) are refused.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

MAX_ORDER = 4096  # largest order the codec accepts: a 16 MB dense matrix


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position at fault."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``rows[i]`` is the neighbour bitmask of vertex ``i``.  Instances are
    treated as immutable: all "mutators" return new graphs, so sharing
    across concurrent workers is safe.
    """

    __slots__ = ("n", "rows", "_m", "_np_adj", "_np_deg")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            # numpy integers would make ``1 << v`` wrap at 64 bits
            u, v = operator.index(u), operator.index(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)
        self._m: Optional[int] = None
        self._np_adj: Optional[np.ndarray] = None
        self._np_deg: Optional[np.ndarray] = None

    @classmethod
    def from_rows(cls, rows: Sequence[int], validate: bool = True) -> "Graph":
        """Build from prepared bit rows; set ``validate=False`` only on rows
        already known symmetric and loop-free (hot enumeration paths)."""
        g = cls.__new__(cls)
        g.n = len(rows)
        g.rows = tuple(rows)
        g._m = None
        g._np_adj = None
        g._np_deg = None
        if validate:
            full = (1 << g.n) - 1
            for i, row in enumerate(g.rows):
                if row >> i & 1:
                    raise ValueError(f"loop at vertex {i}")
                if row & ~full:
                    raise ValueError(f"row {i} has bits beyond n={g.n}")
                rest = row
                while rest:
                    b = rest & -rest
                    j = b.bit_length() - 1
                    if not g.rows[j] >> i & 1:
                        raise ValueError(f"asymmetric adjacency at ({i},{j})")
                    rest ^= b
        return g

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        if self._m is None:
            self._m = sum(r.bit_count() for r in self.rows) // 2
        return self._m

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> Tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[operator.index(u)] >> operator.index(v) & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        rest = self.rows[v]
        while rest:
            b = rest & -rest
            yield b.bit_length() - 1
            rest ^= b

    def edges(self) -> Iterator[Tuple[int, int]]:
        for i in range(self.n):
            rest = self.rows[i] >> (i + 1) << (i + 1)
            while rest:
                b = rest & -rest
                yield (i, b.bit_length() - 1)
                rest ^= b

    # -- numpy views (cached; used by the spectral module) -------------

    def adjacency_bool(self) -> np.ndarray:
        """Dense boolean adjacency matrix (cached, read-only)."""
        if self._np_adj is None:
            a = _bool_from_rows(self.rows)
            a.setflags(write=False)
            self._np_adj = a
        return self._np_adj

    def degree_array(self) -> np.ndarray:
        """Degrees as float64 (cached, read-only)."""
        if self._np_deg is None:
            d = np.array(self.degrees(), dtype=np.float64)
            d.setflags(write=False)
            self._np_deg = d
        return self._np_deg

    # -- derived graphs ------------------------------------------------

    def with_edges_removed(self, edges: Iterable[Tuple[int, int]]) -> "Graph":
        rows = list(self.rows)
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            if not self.has_edge(u, v):
                raise ValueError(f"edge ({u},{v}) not present")
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        return Graph.from_rows(rows, validate=False)

    def with_edge_added(self, u: int, v: int) -> "Graph":
        u, v = operator.index(u), operator.index(v)
        if u == v:
            raise ValueError("loop not allowed")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph.from_rows(rows, validate=False)

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is ``vertices[i]``."""
        idx = {v: i for i, v in enumerate(vertices)}
        rows = [0] * len(vertices)
        for v, i in idx.items():
            rest = self.rows[v]
            while rest:
                b = rest & -rest
                j = idx.get(b.bit_length() - 1)
                if j is not None:
                    rows[i] |= 1 << j
                rest ^= b
        return Graph.from_rows(rows, validate=False)

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        rows = [(full ^ self.rows[i]) & ~(1 << i) for i in range(self.n)]
        return Graph.from_rows(rows, validate=False)

    # -- dunder --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- bit rows <-> dense boolean matrix ----------------------------------


def _bool_from_rows(rows: Sequence[int]) -> np.ndarray:
    """Bit rows to an n x n boolean matrix: bit j of row i is entry [i, j]."""
    n = len(rows)
    width = (n + 7) // 8
    buf = b"".join(r.to_bytes(width, "little") for r in rows)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little")
    return bits.reshape(n, 8 * width)[:, :n].astype(bool)


def _graph_from_bool(a: np.ndarray) -> Graph:
    """Graph from a symmetric, loop-free boolean matrix, which it keeps
    (read-only) as its cached ``adjacency_bool()``."""
    packed = np.packbits(a, axis=1, bitorder="little")
    width = packed.shape[1]
    buf = packed.tobytes()
    g = Graph.from_rows(
        [int.from_bytes(buf[i * width:(i + 1) * width], "little") for i in range(a.shape[0])],
        validate=False,
    )
    a.setflags(write=False)
    g._np_adj = a
    return g


@dataclass(frozen=True)
class DegreeProfile:
    degrees: Tuple[int, ...]
    min_degree: int
    edge_count: int
    is_connected: bool


# -- constructors -------------------------------------------------------


def complete(n: int) -> Graph:
    """K_n."""
    full = (1 << n) - 1
    return Graph.from_rows([full & ~(1 << i) for i in range(n)], validate=False)


def empty(n: int) -> Graph:
    """Edgeless graph on n vertices."""
    return Graph.from_rows([0] * n, validate=False)


def cycle(n: int) -> Graph:
    """C_n (n >= 3)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def join(g: Graph, h: Graph) -> Graph:
    """Join: g's vertices first, then h's, plus every cross edge."""
    n = g.n + h.n
    hi = ((1 << h.n) - 1) << g.n
    lo = (1 << g.n) - 1
    rows = [g.rows[i] | hi for i in range(g.n)]
    rows += [(h.rows[j] << g.n) | lo for j in range(h.n)]
    return Graph.from_rows(rows, validate=False)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union: block-diagonal adjacency, no cross edges."""
    rows = list(g.rows) + [h.rows[j] << g.n for j in range(h.n)]
    return Graph.from_rows(rows, validate=False)


# -- traversal ----------------------------------------------------------


def _bits(mask: int) -> Tuple[int, ...]:
    """Set bits of ``mask``, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def _reach_mask(rows: Sequence[int], start: int, allowed: int) -> int:
    """Bitmask of vertices reachable from ``start`` inside ``allowed``."""
    visited = 1 << start
    frontier = visited
    while frontier:
        new = 0
        rest = frontier
        while rest:
            b = rest & -rest
            new |= rows[b.bit_length() - 1]
            rest ^= b
        frontier = new & allowed & ~visited
        visited |= frontier
    return visited


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    full = (1 << g.n) - 1
    return _reach_mask(g.rows, 0, full) == full


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    full = (1 << g.n) - 1
    seen = 0
    out = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        mask = _reach_mask(g.rows, v, full & ~seen)
        seen |= mask
        comp = []
        rest = mask
        while rest:
            b = rest & -rest
            comp.append(b.bit_length() - 1)
            rest ^= b
        out.append(comp)
    return out


def degree_profile(g: Graph) -> DegreeProfile:
    degs = g.degrees()
    return DegreeProfile(
        degrees=degs,
        min_degree=min(degs) if degs else 0,
        edge_count=g.m,
        is_connected=is_connected(g),
    )


# -- graph6 codec --------------------------------------------------------
#
# Header: chr(n+63) for n <= 62, else '~' followed by three bytes carrying
# n in 18 bits (big-endian 6-bit groups, each +63).  Payload: the upper
# triangle in column order x01, x02, x12, x03, ..., packed big-endian into
# 6-bit groups, zero padded, each +63.


def parse_graph6(data) -> Graph:
    """Decode one graph6 line (optionally prefixed with '>>graph6<<')."""
    if isinstance(data, str):
        data = data.encode("ascii", errors="replace")
    data = bytes(data).rstrip(b"\r\n")
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise Graph6Error("empty graph6 string", 0)

    raw = np.frombuffer(data, dtype=np.uint8)
    bad = np.flatnonzero((raw < 63) | (raw > 126))
    if bad.size:
        off = int(bad[0])
        raise Graph6Error(f"byte {data[off]} outside graph6 range [63,126]", off)

    if data[0] == 126:  # '~' long form
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte graph6 header (n > 258047) not supported", 1)
        if len(data) < 4:
            raise Graph6Error("truncated long-form header", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    if n > MAX_ORDER:
        raise Graph6Error(f"order n={n} exceeds the codec limit {MAX_ORDER}", pos)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6Error(
            f"truncated payload: need {nbytes} bytes for n={n}, got {len(data) - pos}",
            len(data),
        )
    if len(data) - pos > nbytes:
        raise Graph6Error(f"trailing bytes after payload for n={n}", pos + nbytes)

    # each byte carries 6 bits, most significant first
    bits = np.unpackbits((raw[pos:] - 63)[:, None], axis=1)[:, 2:].ravel()
    if bits[nbits:].any():
        raise Graph6Error("nonzero padding bits", pos + nbytes - 1)
    a = np.zeros((n, n), dtype=bool)
    a[_lower_triangle(n)] = bits[:nbits]
    a |= a.T
    return _graph_from_bool(a)


def write_graph6(g: Graph) -> str:
    """Canonical graph6 encoding of ``g`` (no trailing newline)."""
    n = g.n
    if n > MAX_ORDER:
        raise ValueError(f"n={n} exceeds the codec limit {MAX_ORDER}")
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    bits = g.adjacency_bool()[_lower_triangle(n)]
    groups = np.zeros((len(bits) + 5) // 6 * 6, dtype=np.uint8)
    groups[:len(bits)] = bits
    payload = (np.packbits(groups.reshape(-1, 6), axis=1) >> 2) + 63
    return (head + payload.tobytes()).decode("ascii")


def _lower_triangle(n: int) -> np.ndarray:
    """Mask of the strict lower triangle.  Read in row-major order, entry
    (j, i) with i < j runs x01, x02, x12, x03, ...: the graph6 bit order."""
    return np.tri(n, k=-1, dtype=bool)


# -- labeled enumeration -------------------------------------------------

_ENUMERATION_MAX_N = 7


def iter_labeled_graphs(n: int, mask_range: Optional[Tuple[int, int]] = None) -> Iterator[Graph]:
    """Yield every labeled graph on ``n`` <= 7 vertices exactly once.

    Walks all 2^C(n,2) edge masks in increasing order; ``mask_range``
    restricts the walk to a half-open mask interval so concurrent
    consumers can own disjoint chunks.
    """
    if n > _ENUMERATION_MAX_N:
        raise ValueError(f"labeled enumeration capped at n={_ENUMERATION_MAX_N}")
    pairs = list(itertools.combinations(range(n), 2))
    lo, hi = mask_range if mask_range else (0, 1 << len(pairs))
    for mask in range(lo, hi):
        rows = [0] * n
        rest = mask
        while rest:
            b = rest & -rest
            i, j = pairs[b.bit_length() - 1]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            rest ^= b
        yield Graph.from_rows(rows, validate=False)


def count_labeled_graphs(n: int) -> int:
    """Number of labeled graphs on ``n`` vertices: 2^C(n,2)."""
    return 1 << (n * (n - 1) // 2)
