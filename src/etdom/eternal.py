"""The eternal domination game, decided exactly.

The defender keeps k guards on a dominating set; each attack on an
unguarded vertex must be answered by moving one guard from a neighbour
onto it.  A guard count k suffices exactly when the configuration
digraph over dominating k-sets keeps a nonempty subset in which every
attack has a surviving response.

One kernel call, ``_kernel.guard_game``, enumerates the dominating
k-sets and computes that greatest fixpoint.  The compiled kernel keeps,
for each configuration and attack, one watched response that leads to a
configuration not known to be dead, as SAT solvers watch literals; when
a configuration dies, only the predecessors watching it look further,
and a watch only moves forward because nothing dead revives.
``guard_space`` wraps the call as a ``ConfigSpace``: the number of
configurations and the surviving set, with no copy of the others.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel
from .graphs import Graph, GraphError, connected_components, induced_subgraph, is_dominating_set
from .invariants import clique_cover_number, independence_number

DEFAULT_CONFIG_CAP = 1 << 26


@dataclass(frozen=True)
class ConfigSpace:
    """The k-guard game of a graph: how many dominating k-sets it has
    (``configs``) and which of them survive every attack sequence."""

    k: int
    configs: int
    surviving: frozenset[int]

    def is_surviving(self, guards: int) -> bool:
        return guards in self.surviving


def guard_space(g: Graph, k: int, *, cap: int = DEFAULT_CONFIG_CAP) -> ConfigSpace:
    """The k-guard game of g, decided; BudgetExceeded past cap configurations."""
    if not 1 <= k <= g.n:
        raise GraphError(f"guard count {k} outside 1..{g.n}")
    count, surviving = _kernel.guard_game(g.n, g.adj, k, cap)
    return ConfigSpace(k=k, configs=count, surviving=frozenset(surviving))


def can_defend(g: Graph, k: int, *, cap: int = DEFAULT_CONFIG_CAP) -> bool:
    """True when k guards suffice forever (the surviving set is nonempty)."""
    return bool(guard_space(g, k, cap=cap).surviving)


def eternal_decision(
    g: Graph, *, alpha: int | None = None, theta: int | None = None,
    cap: int = DEFAULT_CONFIG_CAP,
) -> tuple[int, ConfigSpace | None]:
    """The eternal domination number, with the game that decided it.

    Disconnected graphs decompose as the sum over components.  For a
    connected graph the answer is bracketed by the independence and
    clique cover numbers; when those agree nothing is left to decide,
    otherwise guard counts are tried upward from the independence
    number (the cover number itself always suffices).  The space is the
    first winning game played, or None when no game below the cover
    number was won (or the graph is disconnected).
    """
    if g.n == 0:
        return 0, None
    comps = connected_components(g)
    if len(comps) > 1:
        return sum(
            eternal_domination_number(induced_subgraph(g, c), cap=cap) for c in comps
        ), None
    if alpha is None:
        alpha = independence_number(g)
    if theta is None:
        theta = clique_cover_number(g, lower_bound=alpha)
    for k in range(alpha, theta):
        space = guard_space(g, k, cap=cap)
        if space.surviving:
            return k, space
    return theta, None


def eternal_domination_number(
    g: Graph, *, alpha: int | None = None, theta: int | None = None,
    cap: int = DEFAULT_CONFIG_CAP,
) -> int:
    """Minimum guard count defending every attack sequence (see eternal_decision)."""
    return eternal_decision(g, alpha=alpha, theta=theta, cap=cap)[0]


def is_eternal_dominating_set(g: Graph, guards: int, *, cap: int = DEFAULT_CONFIG_CAP) -> bool:
    """Whether this dominating set survives as an initial configuration."""
    if not is_dominating_set(g, guards):
        raise GraphError("set is not dominating")
    return guard_space(g, guards.bit_count(), cap=cap).is_surviving(guards)


def defense_move(g: Graph, space: ConfigSpace, current: int, attack: int) -> int:
    """One defending move: lowest-index guard able to cover the attack
    while keeping the configuration surviving."""
    surviving = space.surviving
    if current not in surviving:
        raise GraphError("current configuration is not surviving")
    if current >> attack & 1:
        raise GraphError(f"vertex {attack} is guarded; attacks hit unguarded vertices")
    covered = current | 1 << attack
    responders = g.adj[attack] & current
    while responders:
        low = responders & -responders
        if covered ^ low in surviving:
            return covered ^ low
        responders ^= low
    raise AssertionError("surviving configuration had no surviving response")
