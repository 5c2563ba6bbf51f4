"""Immutable simple graphs on at most 64 vertices.

Adjacency is stored as one machine-word bitmask per vertex, so the set
algebra used everywhere else in the package (neighbourhood unions,
domination checks, clique tests) is a couple of integer operations.
All editing operations return new Graph values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 64


class GraphError(ValueError):
    """Invalid graph construction or operation."""


class TooManyVerticesError(GraphError):
    """Vertex count above the 64-vertex engine limit."""


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the vertex indices set in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; ``adj[i]`` is the open neighbourhood of i."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise TooManyVerticesError(f"n={self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise GraphError("adjacency length does not match n")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise GraphError(f"neighbour of {i} out of range")
            if row >> i & 1:
                raise GraphError(f"self-loop at {i}")
        adj = self.adj
        for i, row in enumerate(adj):
            while row:
                low = row & -row
                j = low.bit_length() - 1
                if not adj[j] >> i & 1:
                    raise GraphError(f"asymmetric adjacency at ({i},{j})")
                row ^= low

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def neighbors(self, v: int) -> int:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(row.bit_count() for row in self.adj))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse."""
    if not 0 <= n <= MAX_VERTICES:
        raise TooManyVerticesError(f"n={n} outside 0..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge endpoint out of range: ({u},{v})")
        if u == v:
            raise GraphError(f"self-loop at {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def from_adjacency(n: int, adj: Iterable[int]) -> Graph:
    """Build a graph straight from bitmask rows (validated)."""
    return Graph(n, tuple(adj))


# Small named constructions used all over the tests and CLI.

def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    if g.n + h.n > MAX_VERTICES:
        raise TooManyVerticesError("union exceeds 64 vertices")
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(adj))


def complement(g: Graph) -> Graph:
    full = g.vertex_mask
    return Graph(g.n, tuple((full ^ row) & ~(1 << i) for i, row in enumerate(g.adj)))


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Apply a permutation: vertex v of g becomes perm[v] in the result."""
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for w in bits(g.adj[v]):
            row |= 1 << perm[w]
        adj[perm[v]] = row
    return Graph(g.n, tuple(adj))


def induced_subgraph(g: Graph, s: int) -> Graph:
    """Subgraph induced by the vertex mask s, compacted in ascending order."""
    if s & ~g.vertex_mask:
        raise GraphError("subset contains vertices outside the graph")
    keep = list(bits(s))
    new_index = {v: i for i, v in enumerate(keep)}
    adj = []
    for v in keep:
        row = 0
        for w in bits(g.adj[v] & s):
            row |= 1 << new_index[w]
        adj.append(row)
    return Graph(len(keep), tuple(adj))


def delete_vertex(g: Graph, v: int) -> Graph:
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    return induced_subgraph(g, g.vertex_mask ^ (1 << v))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise GraphError(f"bad edge ({u},{v})")
    if g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) already present")
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph(g.n, tuple(adj))


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise GraphError(f"bad edge ({u},{v})")
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not present")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(g.n, tuple(adj))


# Predicates.

def is_dominating_set(g: Graph, d: int) -> bool:
    """True when every vertex outside d has a neighbour in d."""
    if d & ~g.vertex_mask:
        raise GraphError("set contains vertices outside the graph")
    covered = d
    for v in bits(d):
        covered |= g.adj[v]
    return covered == g.vertex_mask


def is_independent_set(g: Graph, s: int) -> bool:
    if s & ~g.vertex_mask:
        raise GraphError("set contains vertices outside the graph")
    for v in bits(s):
        if g.adj[v] & s:
            return False
    return True


def is_clique(g: Graph, s: int) -> bool:
    if s & ~g.vertex_mask:
        raise GraphError("set contains vertices outside the graph")
    for v in bits(s):
        if (g.adj[v] & s) != s ^ (1 << v):
            return False
    return True


def component_of(g: Graph, v: int) -> int:
    """Mask of the connected component containing v."""
    seen = 1 << v
    frontier = g.adj[v]
    while frontier & ~seen:
        seen |= frontier
        nxt = 0
        for w in bits(frontier):
            nxt |= g.adj[w]
        frontier = nxt & ~seen
    return seen | frontier


def connected_components(g: Graph) -> list[int]:
    comps = []
    remaining = g.vertex_mask
    while remaining:
        v = (remaining & -remaining).bit_length() - 1
        comp = component_of(g, v)
        comps.append(comp)
        remaining &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    return component_of(g, 0) == g.vertex_mask


def is_two_connected(g: Graph) -> bool:
    """n >= 3, connected, and no articulation vertex."""
    if g.n < 3 or not is_connected(g):
        return False
    # n is small: test each deletion directly.
    for v in range(g.n):
        if not is_connected(delete_vertex(g, v)):
            return False
    return True


def is_triangle_free(g: Graph) -> bool:
    for u in range(g.n):
        for v in bits(g.adj[u] >> (u + 1) << (u + 1)):
            if g.adj[u] & g.adj[v]:
                return False
    return True


def is_maximal_triangle_free(g: Graph) -> bool:
    """Triangle-free and every missing edge closes a triangle."""
    if not is_triangle_free(g):
        return False
    for u in range(g.n):
        non_nbrs = g.vertex_mask & ~g.adj[u] & ~(1 << u)
        for v in bits(non_nbrs >> (u + 1) << (u + 1)):
            if not g.adj[u] & g.adj[v]:
                return False
    return True


def is_claw_free(g: Graph) -> bool:
    """No induced K_{1,3}: scan independent triples inside neighbourhoods."""
    for v in range(g.n):
        nbrs = list(bits(g.adj[v]))
        d = len(nbrs)
        for i in range(d):
            a = nbrs[i]
            for j in range(i + 1, d):
                b = nbrs[j]
                if g.adj[a] >> b & 1:
                    continue
                for k in range(j + 1, d):
                    c = nbrs[k]
                    if not (g.adj[a] >> c & 1 or g.adj[b] >> c & 1):
                        return False
    return True


def is_cubic(g: Graph) -> bool:
    return g.n > 0 and all(row.bit_count() == 3 for row in g.adj)
