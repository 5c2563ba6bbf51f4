"""Exact graph invariants: independence, cliques, cover, matching,
domination, chromatic oracle and cover-criticality."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import _kernel
from .graph6 import pack
from .graphs import Graph, GraphError, bits, is_triangle_free

CHROMATIC_BUDGET = 20


@dataclass
class InvariantRecord:
    """Per-graph values carried through the pipeline and reports."""

    n: int
    alpha: int
    gamma: int
    theta: int
    gamma_inf: Optional[int] = None
    gamma_inf_implied: bool = False
    triangle_free: bool = False
    claw_free: bool = False
    cubic: bool = False
    two_connected: bool = False
    vertex_critical: bool = False
    edge_critical: bool = False


def maximal_cliques(g: Graph) -> list[int]:
    """Every maximal clique exactly once, as vertex masks."""
    return _kernel.maximal_cliques(g.n, g.adj)


def clique_number(g: Graph) -> int:
    return _kernel.max_clique(g.n, g.adj)


def independence_number(g: Graph) -> int:
    full = g.vertex_mask
    co_adj = [full & ~row & ~(1 << i) for i, row in enumerate(g.adj)]
    return _kernel.max_clique(g.n, co_adj)


def clique_cover_number(g: Graph, *, lower_bound: int = 0) -> int:
    return _kernel.clique_cover(g.n, g.adj, lower_bound)


def maximum_matching(g: Graph) -> int:
    return _kernel.max_matching(g.n, g.adj)


def clique_cover_triangle_free(g: Graph) -> int:
    """Cover number of a triangle-free graph: order minus matching size."""
    if not is_triangle_free(g):
        raise GraphError("graph has a triangle; use clique_cover_number")
    return g.n - _kernel.max_matching(g.n, g.adj)


def domination_number(g: Graph) -> int:
    return _kernel.domination_number(g.n, g.adj)


def minimum_dominating_sets(g: Graph) -> list[int]:
    from .eternal import DEFAULT_CONFIG_CAP  # eternal imports this module

    if g.n == 0:
        return []
    return _kernel.dominating_sets(g.n, g.adj, domination_number(g), DEFAULT_CONFIG_CAP)


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number, DSATUR-ordered iterative deepening.

    Oracle-scale only (n <= 20); the cover computation never calls it.
    """
    n = g.n
    if n > CHROMATIC_BUDGET:
        raise GraphError(f"chromatic oracle capped at n={CHROMATIC_BUDGET}")
    if n == 0:
        return 0
    if g.edge_count() == 0:
        return 1
    lo = clique_number(g)

    def colourable(k: int) -> bool:
        colours = [-1] * n

        def rec(done: int) -> bool:
            if done == n:
                return True
            # DSATUR: most distinct neighbour colours, then highest degree
            best_v = -1
            best_key = (-1, -1)
            for v in range(n):
                if colours[v] != -1:
                    continue
                seen = set()
                for w in bits(g.adj[v]):
                    if colours[w] != -1:
                        seen.add(colours[w])
                key = (len(seen), g.adj[v].bit_count())
                if key > best_key:
                    best_key = key
                    best_v = v
            v = best_v
            forbidden = set()
            for w in bits(g.adj[v]):
                if colours[w] != -1:
                    forbidden.add(colours[w])
            used = max((colours[u] for u in range(n) if colours[u] != -1), default=-1)
            for c in range(min(used + 1, k - 1) + 1):
                if c in forbidden:
                    continue
                colours[v] = c
                if rec(done + 1):
                    return True
                colours[v] = -1
            return False

        return rec(0)

    k = lo
    while not colourable(k):
        k += 1
    return k


def _screen(g: Graph, test: str) -> bool:
    """The kernel screen's test of that name on g."""
    code = _kernel.SCREEN_TESTS.index(test)
    return _kernel.screen(g.n, [pack(g.n, g.adj)], [code]) == b"\x01"


def is_vertex_critical(g: Graph) -> bool:
    """Every vertex deletion drops the clique cover number by one."""
    return _screen(g, "vertex_critical")


def is_edge_critical(g: Graph) -> bool:
    """Every missing-edge insertion drops the cover number by one.

    Complete graphs have no missing edge, so they pass vacuously.
    """
    return _screen(g, "edge_critical")


def is_critical(g: Graph) -> bool:
    return _screen(g, "critical")
