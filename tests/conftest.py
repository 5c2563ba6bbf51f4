import random
from itertools import combinations

import pytest

from etdom import from_edges
from etdom.graphs import Graph


def rand_graph(rng: random.Random, n: int, p: float) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


@pytest.fixture
def rng():
    return random.Random(0xE7D0)


@pytest.fixture
def c5():
    return from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


@pytest.fixture
def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + spokes + inner)


@pytest.fixture
def grotzsch():
    from etdom import mycielski_family

    return mycielski_family(4)


# The two 10-vertex graphs drawn in the source figures (not decoded from
# the catalogue, so catalogue and figures cross-check each other).
FIG_G1_EDGES = [
    (0, 3), (0, 4), (0, 5), (0, 6), (0, 9), (1, 2), (1, 4), (1, 5), (1, 6),
    (1, 8), (2, 5), (2, 6), (2, 7), (2, 9), (3, 5), (3, 6), (3, 7), (3, 8),
    (4, 6), (4, 7), (4, 8), (4, 9), (5, 8), (5, 9), (7, 8), (7, 9),
]


@pytest.fixture
def fig_g1():
    return from_edges(10, FIG_G1_EDGES)


def subsets_of_size(n, k):
    for combo in combinations(range(n), k):
        mask = 0
        for v in combo:
            mask |= 1 << v
        yield mask


# Cover-criticality by definition: rebuild each vertex-deleted and each
# edge-added graph and compute its cover number from scratch.  The package
# decides both inside the kernel's screen; these loops are the independent
# oracle that the screen is checked against.

def oracle_vertex_critical(g: Graph) -> bool:
    from etdom.graphs import delete_vertex
    from etdom.invariants import clique_cover_number

    if g.n == 0:
        return False
    theta = clique_cover_number(g)
    return all(clique_cover_number(delete_vertex(g, v)) == theta - 1 for v in range(g.n))


def oracle_edge_critical(g: Graph) -> bool:
    from etdom.graphs import add_edge
    from etdom.invariants import clique_cover_number

    if g.n == 0:
        return False
    theta = clique_cover_number(g)
    return all(
        clique_cover_number(add_edge(g, u, v)) == theta - 1
        for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    )
