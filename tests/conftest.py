import numpy as np
import pytest

from qconn import Graph


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def random_graph_mask(n: int, rng: np.random.Generator, p: float = 0.5) -> Graph:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    draw = rng.random(len(pairs)) < p
    return Graph(n, [e for e, hit in zip(pairs, draw) if hit])


def with_edges(g: Graph, extra) -> Graph:
    """``g`` plus the edges ``extra``; an edge already present stays one edge."""
    return Graph(g.n, [*g.edges(), *extra])


def with_path(g: Graph) -> Graph:
    """``g`` plus the Hamiltonian path 0-1-...-(n-1), which keeps it connected."""
    return with_edges(g, [(i, i + 1) for i in range(g.n - 1)])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
