"""Exact graph invariants: independence, cliques, cover, domination and
cover-criticality through the kernel, plus two pure-Python oracles that
no table needs: maximum matching and the chromatic number."""

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
    """Size of a maximum matching (Edmonds' blossom algorithm).

    Pure Python on purpose: no table needs it, and it keeps the
    triangle-free cover oracle below independent of the kernel's
    clique_cover.
    """
    n = g.n
    nbr = [list(bits(row)) for row in g.adj]
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in nbr[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    parent = [-1] * n
    base = list(range(n))

    def lca(a, b):
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v, anchor, child, flag):
        while base[v] != anchor:
            flag[base[v]] = True
            flag[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_path(root):
        for v in range(n):
            parent[v] = -1
            base[v] = v
        used = [False] * n
        used[root] = True
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for to in nbr[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract the blossom
                    anchor = lca(v, to)
                    flag = [False] * n
                    mark_path(v, anchor, to, flag)
                    mark_path(to, anchor, v, flag)
                    for u in range(n):
                        if flag[base[u]]:
                            base[u] = anchor
                            if not used[u]:
                                used[u] = True
                                queue.append(u)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        # augment along the alternating path back to root
                        u = to
                        while u != -1:
                            pv = parent[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    size = sum(1 for v in range(n) if match[v] != -1) // 2
    for v in range(n):
        if match[v] == -1 and find_path(v):
            size += 1
    return size


def clique_cover_triangle_free(g: Graph) -> int:
    """Cover number of a triangle-free graph: order minus matching size."""
    if not is_triangle_free(g):
        raise GraphError("graph has a triangle; use clique_cover_number")
    return g.n - maximum_matching(g)


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
