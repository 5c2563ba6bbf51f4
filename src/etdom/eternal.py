"""The eternal domination game, decided exactly.

The defender keeps k guards on a dominating set; each attack on an
unguarded vertex must be answered by moving one guard from a neighbour
onto it.  A guard count k suffices exactly when the configuration
digraph over dominating k-sets keeps a nonempty subset in which every
attack has a surviving response; that greatest fixpoint is computed by
worklist deletion.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel
from .graphs import Graph, GraphError, bits, connected_components, induced_subgraph, is_dominating_set
from .invariants import clique_cover_number, independence_number

DEFAULT_CONFIG_CAP = 1 << 26


@dataclass(frozen=True)
class ConfigSpace:
    """All dominating k-sets of a graph plus the surviving subset."""

    k: int
    configs: tuple[int, ...]
    surviving: frozenset[int]

    def is_surviving(self, guards: int) -> bool:
        return guards in self.surviving


def _check_guard_count(g: Graph, k: int) -> None:
    if not 1 <= k <= g.n:
        raise GraphError(f"guard count {k} outside 1..{g.n}")


def dominating_sets_of_size(g: Graph, k: int, *, cap: int = DEFAULT_CONFIG_CAP) -> ConfigSpace:
    """Unpruned configuration space: every dominating k-set, sorted."""
    _check_guard_count(g, k)
    configs = _kernel.dominating_sets(g.n, g.adj, k, cap)
    return ConfigSpace(k=k, configs=tuple(configs), surviving=frozenset(configs))


def prune_to_eternal(g: Graph, space: ConfigSpace) -> ConfigSpace:
    """Greatest subset closed under defending every possible attack."""
    surviving = _kernel.eternal_fixpoint(g.n, g.adj, space.k, space.configs)
    return ConfigSpace(k=space.k, configs=space.configs, surviving=frozenset(surviving))


def can_defend(g: Graph, k: int, *, cap: int = DEFAULT_CONFIG_CAP) -> bool:
    """True when k guards suffice forever (the surviving set is nonempty)."""
    _check_guard_count(g, k)
    configs = _kernel.dominating_sets(g.n, g.adj, k, cap)
    if not configs:
        return False
    if k >= g.n:
        return True
    return bool(_kernel.eternal_fixpoint(g.n, g.adj, k, configs))


def eternal_domination_number(
    g: Graph, *, alpha: int | None = None, theta: int | None = None,
    cap: int = DEFAULT_CONFIG_CAP,
) -> int:
    """Minimum guard count defending every attack sequence.

    Disconnected graphs decompose as the sum over components.  For a
    connected graph the answer is bracketed by the independence and
    clique cover numbers; when those agree nothing is left to decide,
    otherwise guard counts are tried upward from the independence
    number (the cover number itself always suffices).
    """
    if g.n == 0:
        return 0
    comps = connected_components(g)
    if len(comps) > 1:
        return sum(
            eternal_domination_number(induced_subgraph(g, c), cap=cap) for c in comps
        )
    if alpha is None:
        alpha = independence_number(g)
    if theta is None:
        theta = clique_cover_number(g, lower_bound=alpha)
    if alpha == theta:
        return alpha
    for k in range(alpha, theta):
        if can_defend(g, k, cap=cap):
            return k
    return theta


def is_eternal_dominating_set(g: Graph, guards: int, *, cap: int = DEFAULT_CONFIG_CAP) -> bool:
    """Whether this dominating set survives as an initial configuration."""
    if not is_dominating_set(g, guards):
        raise GraphError("set is not dominating")
    k = guards.bit_count()
    space = prune_to_eternal(g, dominating_sets_of_size(g, k, cap=cap))
    return space.is_surviving(guards)


def defense_move(g: Graph, space: ConfigSpace, current: int, attack: int) -> int:
    """One defending move: lowest-index guard able to cover the attack
    while keeping the configuration surviving."""
    if current not in space.surviving:
        raise GraphError("current configuration is not surviving")
    if current >> attack & 1:
        raise GraphError(f"vertex {attack} is guarded; attacks hit unguarded vertices")
    for w in bits(g.adj[attack] & current):
        successor = (current ^ (1 << w)) | (1 << attack)
        if successor in space.surviving:
            return successor
    raise AssertionError("surviving configuration had no surviving response")
