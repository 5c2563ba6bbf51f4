"""The guard game: configuration spaces, the deletion fixpoint, and an
independent backward-induction oracle that plays the game over all
k-subsets (not just dominating ones)."""

import pytest

from etdom import (
    GraphError,
    can_defend,
    complement,
    decode,
    defense_move,
    eternal_decision,
    eternal_domination_number,
    from_edges,
    guard_space,
    is_dominating_set,
    is_eternal_dominating_set,
)
from etdom import _kernel
from etdom._kernel import BudgetExceeded
from etdom.eternal import DEFAULT_CONFIG_CAP
from etdom.generate import generate_connected
from etdom.graphs import (
    Graph,
    bits,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    mask_of,
)
from etdom.invariants import independence_number, clique_cover_number

from conftest import rand_graph, subsets_of_size


# -- oracle: least-fixpoint attacker-wins over ALL k-subsets -----------------

def oracle_defender_wins(g: Graph, k: int) -> bool:
    n = g.n
    states = list(subsets_of_size(n, k))
    losing: set[int] = set()
    changed = True
    while changed:
        changed = False
        for x_mask in states:
            if x_mask in losing:
                continue
            for x in range(n):
                if x_mask >> x & 1:
                    continue
                moves = [
                    (x_mask ^ (1 << w)) | (1 << x) for w in bits(g.adj[x] & x_mask)
                ]
                if all(m in losing for m in moves):
                    losing.add(x_mask)
                    changed = True
                    break
    return any(s not in losing for s in states)


def oracle_eternal_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if oracle_defender_wins(g, k):
            return k
    return g.n


# -- tests -------------------------------------------------------------------

def configs_of(g, k):
    """Every dominating k-set of g, sorted: the configurations of its k-guard game."""
    return _kernel.dominating_sets(g.n, g.adj, k, DEFAULT_CONFIG_CAP)


def test_guard_space_c5(c5):
    space = guard_space(c5, 2)
    assert space.k == 2 and space.configs == 5
    assert set(configs_of(c5, 2)) == {mask_of((i, (i + 2) % 5)) for i in range(5)}
    k3 = complete_graph(3)
    assert guard_space(k3, 1).configs == 3 and configs_of(k3, 1) == [1, 2, 4]
    assert guard_space(c5, 1).configs == 0 and configs_of(c5, 1) == []
    assert not guard_space(c5, 1).surviving
    for k in (0, 6):
        with pytest.raises(GraphError):
            guard_space(c5, k)


def test_budget_cap(c5):
    with pytest.raises(BudgetExceeded) as err:
        guard_space(c5, 3, cap=4)
    assert err.value.count == 10
    assert guard_space(c5, 3, cap=10).configs == 10


def test_prune_c5(c5):
    assert not guard_space(c5, 2).surviving
    pruned = guard_space(c5, 3)
    assert pruned.surviving
    assert pruned.surviving <= set(configs_of(c5, 3))
    for n in range(2, 7):
        kn = complete_graph(n)
        space = guard_space(kn, 1)
        assert len(space.surviving) == n


def test_guard_space_vs_oracle_random(rng):
    # survivors exist exactly when the defender wins the game played over
    # every k-subset, and they are dominating k-sets
    for _ in range(60):
        g = rand_graph(rng, rng.randint(1, 7), rng.random())
        for k in range(1, g.n + 1):
            space = guard_space(g, k)
            assert bool(space.surviving) == oracle_defender_wins(g, k), (g, k)
            assert space.surviving <= set(configs_of(g, k))
            assert space.configs == len(configs_of(g, k))


def test_can_defend_named(c5, grotzsch):
    assert not can_defend(c5, 2)
    assert can_defend(c5, 3)
    assert can_defend(complement(grotzsch), 3)
    assert can_defend(decode("IEhbtj{ro"), 3)


def test_eternal_number_named(c5, grotzsch):
    assert eternal_domination_number(c5) == 3
    assert eternal_domination_number(decode("IEhbtj{ro")) == 3
    assert eternal_domination_number(decode("IEhbtn{ro")) == 3
    gc = complement(grotzsch)
    assert independence_number(gc) == 2
    assert eternal_domination_number(gc) == 3
    assert clique_cover_number(gc) == 4


def test_eternal_number_complete_and_empty():
    for n in range(1, 9):
        assert eternal_domination_number(complete_graph(n)) == 1
        assert eternal_domination_number(empty_graph(n)) == n


def test_eternal_number_additive_over_components():
    k3 = complete_graph(3)
    assert eternal_domination_number(disjoint_union(k3, k3)) == 2
    c5 = cycle_graph(5)
    assert eternal_domination_number(disjoint_union(c5, k3)) == 4


def test_eternal_decision_keeps_the_deciding_space(c5, grotzsch):
    # alpha = 2 and theta = 4 on the complement of the Groetzsch graph:
    # two guards lose, and the three-guard game that wins comes back
    gc = complement(grotzsch)
    gi, space = eternal_decision(gc)
    assert gi == 3 and space == guard_space(gc, 3)
    # no space when no game below theta was won (C5: gamma_inf = theta),
    # none was played (alpha = theta) or the graph has several components
    assert eternal_decision(c5) == (3, None)
    assert eternal_decision(complete_graph(4)) == (1, None)
    k3 = complete_graph(3)
    assert eternal_decision(disjoint_union(k3, k3)) == (2, None)


def test_eternal_vs_oracle_exhaustive_small():
    for n in range(1, 6):
        for g in generate_connected(n):
            assert eternal_domination_number(g) == oracle_eternal_number(g), g


def test_eternal_vs_oracle_random(rng):
    for _ in range(120):
        g = rand_graph(rng, rng.randint(1, 6), rng.random())
        assert eternal_domination_number(g) == oracle_eternal_number(g)


def test_eternal_dominating_set_membership():
    house = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)])
    assert is_dominating_set(house, mask_of([1, 4]))
    assert not is_eternal_dominating_set(house, mask_of([1, 4]))
    assert eternal_domination_number(house) == 2
    # the chordless pair on the far side does survive
    assert is_eternal_dominating_set(house, mask_of([0, 2]))
    space = guard_space(house, 2)
    assert space.surviving
    assert is_eternal_dominating_set(complete_graph(3), 1)
    with pytest.raises(GraphError):
        is_eternal_dominating_set(house, mask_of([0]))


def test_defense_move_examples(c5):
    space = guard_space(c5, 3)
    start = mask_of([0, 1, 3])
    assert start in space.surviving
    nxt = defense_move(c5, space, start, 4)
    assert nxt in space.surviving and nxt >> 4 & 1
    k3 = complete_graph(3)
    sp3 = guard_space(k3, 1)
    assert defense_move(k3, sp3, mask_of([0]), 2) == mask_of([2])


def test_defense_move_closure_fuzz(rng):
    for _ in range(15):
        g = rand_graph(rng, rng.randint(3, 8), 0.4 + 0.5 * rng.random())
        gi = eternal_domination_number(g)
        space = guard_space(g, gi)
        assert space.surviving
        current = min(space.surviving)
        for _ in range(1000):
            open_vs = [v for v in range(g.n) if not current >> v & 1]
            if not open_vs:
                break
            attack = rng.choice(open_vs)
            current = defense_move(g, space, current, attack)
            assert current in space.surviving
            assert is_dominating_set(g, current)


def test_defense_move_preconditions(c5):
    space = guard_space(c5, 3)
    start = min(space.surviving)
    guarded = next(iter(bits(start)))
    with pytest.raises(GraphError):
        defense_move(c5, space, start, guarded)
