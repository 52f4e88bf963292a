"""Simple undirected graphs as packed bit rows, plus the graph6 codec.

Vertices are always 0-based integers.  A graph is immutable after
construction; row ``i`` is a Python int whose bit ``j`` is set iff vertex
``j`` is a neighbour of ``i``.  Neighbour intersections, degrees and BFS
all reduce to integer bit operations, which is plenty fast for the desk
scale (n up to a few hundred) this library targets.  A graph crosses to a
dense numpy matrix through one pair of converters (bit rows to bytes to
``np.unpackbits`` and back through ``np.packbits``).  The graph6 codec
supports the long header form.  A parsed graph carries its dense n x n
matrix, its degrees and, when a short search finds it connected, its
single component, all read off the matrix; its bit rows are built from
the matrix on first use, so a caller that only reads degrees,
connectivity or the matrix never builds them.  Orders above
``MAX_ORDER`` (16 MB of matrix) are refused.  The sweeps' batched kernels,
on one ``uint64`` word per graph of order at most 8, live here too.
"""

from __future__ import annotations

import functools
import itertools
import math
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

    Each graph computes its facts at most once and keeps them: the degree
    tuple (read by ``degree``, ``degrees``, ``m``, ``degree_array`` and
    ``degree_profile``), the components as a tuple of vertex tuples (read
    by ``components`` and ``is_connected``), the dense boolean
    adjacency and the float64 degrees.  Every cached fact is a tuple or a
    read-only array, so no caller can alter it, and a derived graph starts
    with none of them.

    A graph built from edges or rows holds its bit rows from the start.  A
    graph built from a dense matrix (``parse_graph6``, ``random_graph``)
    holds the matrix, its degree tuple and, when a matrix search from
    vertex 0 reaches every vertex within ``_SPAN_ROUNDS`` rounds, its single
    component; ``rows`` is then built from the matrix the first time it is
    read.
    """

    __slots__ = ("n", "_rows", "_degs", "_comps", "_np_adj", "_np_deg")

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
        self._rows = tuple(rows)
        self._degs: Optional[Tuple[int, ...]] = None
        self._comps: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._np_adj: Optional[np.ndarray] = None
        self._np_deg: Optional[np.ndarray] = None

    @classmethod
    def from_rows(cls, rows: Sequence[int], validate: bool = True) -> "Graph":
        """Build from prepared bit rows; set ``validate=False`` only on rows
        already known symmetric and loop-free (hot enumeration paths)."""
        g = cls.__new__(cls)
        g.n = len(rows)
        g._rows = tuple(rows)
        g._degs = None
        g._comps = None
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
                    if not g._rows[j] >> i & 1:
                        raise ValueError(f"asymmetric adjacency at ({i},{j})")
                    rest ^= b
        return g

    # -- basic queries -------------------------------------------------

    @property
    def rows(self) -> Tuple[int, ...]:
        """Neighbour bitmask of each vertex (built from the matrix on first
        use when the graph came from one)."""
        if self._rows is None:
            self._rows = _rows_from_bool(self._np_adj)
        return self._rows

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(self.degrees()) // 2

    def degree(self, v: int) -> int:
        return self.degrees()[v]

    def degrees(self) -> Tuple[int, ...]:
        """Degree of each vertex (cached)."""
        if self._degs is None:
            self._degs = tuple(r.bit_count() for r in self.rows)
        return self._degs

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[operator.index(u)] >> operator.index(v) & 1)

    def edges(self) -> Iterator[Tuple[int, int]]:
        rows = self.rows
        for i in range(self.n):
            rest = rows[i] >> (i + 1) << (i + 1)
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

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is ``vertices[i]``."""
        idx = {v: i for i, v in enumerate(vertices)}
        rows = [0] * len(vertices)
        own = self.rows
        for v, i in idx.items():
            rest = own[v]
            while rest:
                b = rest & -rest
                j = idx.get(b.bit_length() - 1)
                if j is not None:
                    rows[i] |= 1 << j
                rest ^= b
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


def _rows_from_bool(a: np.ndarray) -> Tuple[int, ...]:
    """An n x n boolean matrix to bit rows: entry [i, j] is bit j of row i."""
    packed = np.packbits(a, axis=1, bitorder="little")
    width = packed.shape[1]
    buf = packed.tobytes()
    return tuple(int.from_bytes(buf[i * width:(i + 1) * width], "little")
                 for i in range(a.shape[0]))


# rounds of the matrix search at decode: a graph of larger diameter gets its
# components from the bit rows, whose search costs far less per round
_SPAN_ROUNDS = 32


def _spans(a: np.ndarray) -> bool:
    """Whether a search from vertex 0 of the boolean matrix ``a`` (n >= 1)
    reaches every vertex within ``_SPAN_ROUNDS`` rounds; each round ORs the
    rows of the vertices the last one reached first."""
    n = len(a)
    seen = a[0].copy()
    seen[0] = True
    new = seen.nonzero()[0]
    count = new.size
    for _ in range(_SPAN_ROUNDS):
        if count == n:
            return True
        reach = np.logical_or.reduce(a[new], axis=0)
        new = (reach > seen).nonzero()[0]
        if not new.size:
            return False
        count += new.size
        seen |= reach
    return count == n


def _graph_from_bool(a: np.ndarray) -> Graph:
    """Graph from a symmetric, loop-free boolean matrix, which it keeps
    (read-only) as its cached ``adjacency_bool()``, with the degree tuple
    and, when ``_spans`` finds it connected, the single component read off
    the matrix.  The bit rows wait until ``rows`` is first read."""
    n = a.shape[0]
    a.setflags(write=False)
    g = Graph.__new__(Graph)
    g.n = n
    g._rows = None
    g._degs = tuple(np.count_nonzero(a, axis=1).tolist())
    g._comps = (tuple(range(n)),) if n and _spans(a) else None
    g._np_adj = a
    g._np_deg = None
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


# set bits of each byte value, ascending
_BYTE_BITS = tuple(tuple(j for j in range(8) if x >> j & 1) for x in range(256))


def _bits(mask: int) -> Tuple[int, ...]:
    """Set bits of ``mask``, ascending."""
    if mask < 256:
        return _BYTE_BITS[mask]
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
    return len(components(g)) <= 1


def components(g: Graph) -> Tuple[Tuple[int, ...], ...]:
    """Connected components as sorted vertex tuples, ordered by least
    vertex (cached)."""
    if g._comps is None:
        full = (1 << g.n) - 1
        out, rest = [], full  # rest: the vertices no component holds yet
        while rest:
            mask = _reach_mask(g.rows, (rest & -rest).bit_length() - 1, rest)
            out.append(tuple(range(g.n)) if mask == full else _bits(mask))
            rest &= ~mask
        g._comps = tuple(out)
    return g._comps


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
    bits = np.unpackbits(((raw[pos:] - 63) << 2)[:, None], axis=1, count=6).ravel()
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


# orders whose lower-triangle mask is kept, at most 256 KB a mask and 8 masks;
# a larger order builds its mask per call, so a 16 MB mask at MAX_ORDER is
# not held after the decode
_TRIANGLE_CACHE_MAX_N = 512


def _lower_triangle(n: int) -> np.ndarray:
    """Mask of the strict lower triangle.  Read in row-major order, entry
    (j, i) with i < j runs x01, x02, x12, x03, ...: the graph6 bit order."""
    if n > _TRIANGLE_CACHE_MAX_N:
        return np.tri(n, k=-1, dtype=bool)
    return _cached_lower_triangle(n)


@functools.lru_cache(maxsize=8)
def _cached_lower_triangle(n: int) -> np.ndarray:
    return _frozen(np.tri(n, k=-1, dtype=bool))


# -- bit-row words --------------------------------------------------------
#
# A graph on n <= 8 vertices fits one uint64 whose byte v is the bit row of
# vertex v.  Only this section reads that layout: the word tables, the byte
# counts, the batched reach and rungs, and the blocks the labeled enumerator
# and the sweeps test, which ``_block_graphs`` turns into graphs.


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_BYTES = np.uint64(0x0101010101010101)  # one in every byte of a word
# byte v of _SPREAD[x] is 0xFF when bit v of x is set
_SPREAD = _frozen((((np.arange(256)[:, None] >> np.arange(8)) & 1) * 0xFF)
                  .astype(np.uint8).view(np.uint64).ravel())


@functools.cache
def _pair_words(n: int) -> np.ndarray:
    """The word of each pair of ``itertools.combinations(range(n), 2)``, in
    that order: byte i holds bit j and byte j holds bit i."""
    pairs = list(itertools.combinations(range(n), 2))
    rows = np.zeros((len(pairs), 8), dtype=np.uint8)
    for e, (i, j) in enumerate(pairs):
        rows[e, i], rows[e, j] = 1 << j, 1 << i
    return _frozen(rows.view(np.uint64).ravel())


def _byte_counts(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per uint64 word of ``x``, in place (``y`` is scratch): each byte
    replaced by its popcount, by the SWAR halving sums."""
    x -= np.bitwise_and(np.right_shift(x, np.uint64(1), out=y), np.uint64(0x5555555555555555), out=y)
    x -= np.bitwise_and(np.right_shift(x, np.uint64(2), out=y), np.uint64(0x3333333333333333), out=y) * 3
    x += np.right_shift(x, np.uint64(4), out=y)
    x &= np.uint64(0x0F0F0F0F0F0F0F0F)
    return x


def _bytes_below(counts: np.ndarray, t: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per word of byte counts (each byte at most 8, as ``_byte_counts``
    leaves them): bit 7 of byte v set when count v is below ``t``
    (0 <= t <= 9), every other bit clear.  Written to ``out``, a new array
    by default, so ``counts`` can be read again at another threshold.

    The byte 0x7F + t - c has bit 7 set exactly when c < t, and with
    c <= 8 no byte borrows from the next.
    """
    out = np.subtract(np.uint64(0x7F + t) * _BYTES, counts, out=out)
    return np.bitwise_and(out, np.uint64(0x8080808080808080), out=out)


def _min_degree_at_least(counts: np.ndarray, n: int, t: int) -> np.ndarray:
    """Per word of ``_byte_counts`` of bit rows (vertices ``0..n-1``,
    padding rows zero): is every degree at least ``t``.  Leaves ``counts``
    as it was, so one count serves every threshold."""
    return _bytes_below(counts, t) & np.uint64((1 << 8 * n) - 1) == 0


def _common_neighbours_at_least(rows: np.ndarray, n: int, k: int) -> np.ndarray:
    """Per graph of a ``(B, 8)`` bit-row array: does every non-adjacent
    pair of ``0..n-1`` have at least k common neighbours.

    One pass per vertex u: the word of the graph masked by row u holds in
    byte v the common neighbours of u and v, and only the non-neighbours
    v > u are read, so each pair counts once and adjacent pairs not at all.
    """
    graphs = rows.view(np.uint64).ravel()
    short = np.zeros(len(graphs), dtype=np.uint64)
    x, y = np.empty_like(graphs), np.empty_like(graphs)
    for u in range(n - 1):
        row = rows[:, u]
        later = np.uint8(((1 << n) - 1) & -(2 << u))  # vertices u+1 .. n-1
        np.bitwise_and(graphs, np.multiply(row, _BYTES, out=x), out=x)
        _bytes_below(_byte_counts(x, y), k, out=x)
        short |= np.bitwise_and(x, np.take(_SPREAD, ~row & later, out=y), out=x)
    return short == 0


def _reach_within(graphs: np.ndarray, seen: np.ndarray, allowed: int) -> np.ndarray:
    """Per graph, the vertices of ``allowed`` reachable from ``seen``.

    ``graphs`` holds one word per graph and ``seen`` one uint8 vertex set
    per graph.  One step ORs together the rows of the vertices seen so far;
    the steps run until every graph of the batch has either gained no
    vertex or reached all of ``allowed``, since neither can grow again, so
    no step is spent confirming a batch that has already filled.
    """
    full = np.uint8(allowed)
    while True:
        x = graphs & _SPREAD[seen]
        x |= x >> np.uint64(32)
        x |= x >> np.uint64(16)
        x |= x >> np.uint64(8)
        grown = (x.astype(np.uint8) & full) | seen
        if ((grown == seen) | (grown == full)).all():
            return grown
        seen = grown


def _k_connected_rows(rows: np.ndarray, n: int, k: int, counts: np.ndarray) -> np.ndarray:
    """k-connectivity of each graph of a ``(B, 8)`` uint8 bit-row array
    (vertices ``0..n-1``, n <= 8, padding rows zero) whose minimum degree is
    at least k, so that n >= k + 1.  At k = 1 this is connectivity, for any
    graph.  ``counts`` holds each graph's ``_byte_counts``, its degrees,
    which the caller has already taken for its own degree filter.

    Exact rungs run first, each a proof for the graphs it settles, and each
    later rung sees only the graphs the earlier ones left open:

    1. Dirac: 2 delta >= n + k - 2 makes G k-connected.
    2. Common neighbours: every non-adjacent pair with at least k of them
       makes G k-connected, since a separator of fewer than k vertices
       would hold every common neighbour of two vertices it separates.
       The Ore-type degree sum deg u + deg v >= n + k - 2 on non-adjacent
       pairs implies it (such a pair shares at least k neighbours), as
       does Dirac, so it settles every graph those would, and more.
    3. The subset reach: G is k-connected iff G - S is connected for every
       (k-1)-subset S, as in ``is_k_connected_small``.  Each reach starts
       from the lowest surviving vertex and its surviving neighbours.
    """
    # 2 delta >= n + k - 2, that is delta >= ceil((n + k - 2) / 2)
    ok = _min_degree_at_least(counts, n, (n + k - 1) // 2)
    left = np.flatnonzero(~ok)
    if not len(left):
        return ok
    shared = _common_neighbours_at_least(rows[left], n, k)
    ok[left] = shared
    left = left[~shared]
    if not len(left):
        return ok
    rest = rows[left]
    graphs = rest.view(np.uint64).ravel()
    full = (1 << n) - 1
    reached = np.ones(len(left), dtype=bool)
    for sub in itertools.combinations(range(n), k - 1):
        allowed = full & ~sum(1 << v for v in sub)
        v = (allowed & -allowed).bit_length() - 1
        start = (rest[:, v] | np.uint8(1 << v)) & np.uint8(allowed)
        reached &= _reach_within(graphs, start, allowed) == allowed
    ok[left] = reached
    return ok


def _rows_and_degrees(words: np.ndarray, n: int) -> Tuple[np.ndarray, ...]:
    """The ``(B, n)`` bit rows of the words and their ``_byte_counts`` degrees."""
    counts = _byte_counts(words.copy(), np.empty_like(words))
    return tuple(w.view(np.uint8).reshape(-1, 8)[:, :n] for w in (words, counts))


def _block_graphs(rows: np.ndarray, degs: np.ndarray, connected: Iterable[bool]) -> Iterator[Graph]:
    """The graphs of a block's ``(B, n)`` bit rows, each with its row of
    ``degs`` cached and, where ``connected`` says so, its single component."""
    spanning = (tuple(range(rows.shape[1])),) if rows.shape[1] else ()
    for row, deg, conn in zip(rows.tolist(), degs.tolist(), connected):
        g = Graph.from_rows(row, validate=False)
        g._degs = tuple(deg)
        g._comps = spanning if conn else None
        yield g


# complement-word lists kept whole up to this length: at n = 8 sizes 0..7, 13.5 MB
_WORD_TABLE_MAX = 1 << 21


@functools.cache
def _word_table(n: int, size: int) -> np.ndarray:
    """Every size-``size`` complement word at order n, read-only."""
    return _frozen(_complement_words(n, size, 0, math.comb(n * (n - 1) // 2, size), whole=False))


def _complement_words(n: int, size: int, lo: int, hi: int, whole: bool = True) -> np.ndarray:
    """Ranks ``lo..hi-1`` of ``itertools.combinations(range(npairs), size)``
    as uint64 words, each the XOR of its pairs' ``_pair_words(n)``.  The
    subsets led by pair c join it to a suffix of the size - 1 list, so an
    interval splits on its leading pairs into slices of that list:
    W_s = concat over c of (pair[c] ^ W_{s-1}[C(N, s-1) - C(N-1-c, s-1):]).
    Lists of at most ``_WORD_TABLE_MAX`` words give read-only table views.
    """
    pairs = _pair_words(n)
    npairs = len(pairs)
    total = math.comb(npairs, size)
    if whole and total <= _WORD_TABLE_MAX:
        return _word_table(n, size)[lo:hi]
    out = np.zeros(hi - lo, dtype=np.uint64)  # at size 0, the empty subset's word
    for c in range(npairs - size + 1) if size else ():
        start, stop = total - math.comb(npairs - c, size), total - math.comb(npairs - 1 - c, size)
        if lo < stop and start < hi:
            shift = math.comb(npairs, size - 1) - math.comb(npairs - 1 - c, size - 1) - start
            a, b = max(lo, start), min(hi, stop)
            out[a - lo:b - lo] = _complement_words(n, size - 1, a + shift, b + shift) ^ pairs[c]
    return out


def _density_block(n: int, k: int, delta: int, size: int, lo: int, hi: int) -> Tuple[np.ndarray, ...]:
    """K_n minus each size-``size`` complement subset of ranks ``lo..hi-1``:
    the positions of the graphs of minimum degree at least ``delta``, the
    ``_k_connected_rows`` verdict of each, and the block's ``(hi - lo, n)``
    rows and degrees.  One byte count per word serves both degree thresholds,
    and with every graph admitted the rungs read the block in place."""
    words = _complement_words(n, size, lo, hi) ^ np.bitwise_xor.reduce(_pair_words(n))
    rows = words.view(np.uint8).reshape(-1, 8)
    counts = _byte_counts(words.copy(), np.empty_like(words))
    kept = np.flatnonzero(_min_degree_at_least(counts, n, delta))
    whole = len(kept) == len(words)
    ok = _k_connected_rows(rows if whole else rows[kept], n, k, counts if whole else counts[kept])
    return kept, ok, rows[:, :n], counts.view(np.uint8).reshape(-1, 8)[:, :n]


# -- labeled enumeration -------------------------------------------------

_ENUMERATION_MAX_N = 7
# masks per numpy block: bounds the block arrays (about 350 KB at n = 7)
_ENUMERATION_BLOCK = 1 << 11
_HALF_MASK_BITS = 11  # pairs of the low half-mask table: 2,048 + 1,024 words at n = 7


@functools.cache
def _half_tables(n: int) -> Tuple[np.ndarray, ...]:
    """The words of every mask over the low L = min(C(n,2), 11) pairs and
    over the pairs above them, indexed by ``mask & (2^L - 1)``, ``mask >> L``."""
    tables = []
    for half in np.split(_pair_words(n), [_HALF_MASK_BITS]):
        tables.append(np.zeros(1, dtype=np.uint64))
        for word in half:
            tables[-1] = np.concatenate([tables[-1], tables[-1] ^ word])
    return tuple(map(_frozen, tables))


def _labeled_block(n: int, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """The bit-row words of edge masks ``lo..hi-1`` at order n <= 7 (bit e
    of a mask is pair e of ``itertools.combinations(range(n), 2)``), the XOR
    of its two ``_half_tables`` words, and whether each graph is connected,
    by the reach from vertex 0 and its row.  Callers pass at most
    ``_ENUMERATION_BLOCK`` masks."""
    low, high = _half_tables(n)
    masks = np.arange(lo, hi, dtype=np.int64)
    words = low[masks & (len(low) - 1)] ^ high[masks >> _HALF_MASK_BITS]
    full = (1 << n) - 1
    seen = words.astype(np.uint8) | np.uint8(full & -full)  # vertex 0 and its row, if any
    return words, _reach_within(words, seen, full) == full


def iter_labeled_graphs(n: int, mask_range: Optional[Tuple[int, int]] = None) -> Iterator[Graph]:
    """Yield every labeled graph on ``n`` <= 7 vertices exactly once.

    Walks all 2^C(n,2) edge masks in increasing order, bit e of a mask
    standing for pair e of ``itertools.combinations(range(n), 2)``;
    ``mask_range`` restricts the walk to a half-open mask interval so
    concurrent consumers can own disjoint chunks.  ``_block_graphs`` builds
    each ``_labeled_block`` of at most ``_ENUMERATION_BLOCK`` masks, so every
    graph arrives with its ``_byte_counts`` degrees cached, and a connected
    one with its single component.  An order outside [0, 7] or a range
    outside [0, 2^C(n,2)] raises ``ValueError`` before any graph is yielded.
    """
    if not 0 <= n <= _ENUMERATION_MAX_N:
        raise ValueError(f"labeled enumeration covers 0 <= n <= {_ENUMERATION_MAX_N}, not n={n}")
    total = count_labeled_graphs(n)
    lo, hi = (0, total) if mask_range is None else mask_range
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"mask range [{lo}, {hi}) outside [0, {total}] for n={n}")
    for start in range(lo, hi, _ENUMERATION_BLOCK):
        words, connected = _labeled_block(n, start, min(start + _ENUMERATION_BLOCK, hi))
        yield from _block_graphs(*_rows_and_degrees(words, n), connected.tolist())


def count_labeled_graphs(n: int) -> int:
    """Number of labeled graphs on ``n`` vertices: 2^C(n,2)."""
    return 1 << (n * (n - 1) // 2)
