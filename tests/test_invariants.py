"""Exact invariants against brute-force oracles and the named values."""

from functools import lru_cache
from itertools import combinations

import pytest

from etdom import (
    chromatic_number,
    clique_cover_number,
    clique_cover_triangle_free,
    clique_number,
    complement,
    decode,
    domination_number,
    from_edges,
    independence_number,
    is_clique,
    is_critical,
    is_dominating_set,
    is_edge_critical,
    is_independent_set,
    is_vertex_critical,
    maximal_cliques,
    maximum_matching,
    minimum_dominating_sets,
)
from etdom.graphs import Graph, bits, complete_graph, empty_graph, mask_of
from etdom.generate import generate_connected
from etdom.pipeline import Analysis
from etdom import GraphError

from conftest import rand_graph, subsets_of_size


# -- oracles ----------------------------------------------------------------

def brute_alpha(g: Graph) -> int:
    for k in range(g.n, 0, -1):
        if any(is_independent_set(g, s) for s in subsets_of_size(g.n, k)):
            return k
    return 0


def brute_theta(g: Graph) -> int:
    """Minimum clique partition via subset DP (any cliques, not only maximal)."""
    if g.n == 0:
        return 0
    full = g.vertex_mask

    @lru_cache(maxsize=None)
    def cover(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        best = 1 + cover(rest)  # v alone
        # any clique inside mask containing v
        cand = list(bits(rest & g.adj[v]))
        for r in range(1, len(cand) + 1):
            for extra in combinations(cand, r):
                s = (1 << v) | mask_of(extra)
                if is_clique(g, s):
                    trial = 1 + cover(mask & ~s)
                    if trial < best:
                        best = trial
        return best

    return cover(full)


def brute_gamma(g: Graph) -> int:
    for k in range(1, g.n + 1):
        if any(is_dominating_set(g, s) for s in subsets_of_size(g.n, k)):
            return k
    return 0


def brute_matching(g: Graph) -> int:
    edges = list(g.edges())

    def rec(i, used, size):
        if i == len(edges):
            return size
        best = rec(i + 1, used, size)
        u, v = edges[i]
        if not used >> u & 1 and not used >> v & 1:
            best = max(best, rec(i + 1, used | 1 << u | 1 << v, size + 1))
        return best

    return rec(0, 0, 0)


def brute_maximal_cliques(g: Graph) -> set[int]:
    out = set()
    for mask in range(1, 1 << g.n):
        if not is_clique(g, mask):
            continue
        extendable = False
        for v in range(g.n):
            if not mask >> v & 1 and is_clique(g, mask | 1 << v):
                extendable = True
                break
        if not extendable:
            out.add(mask)
    return out


# -- tests ------------------------------------------------------------------

def test_maximal_cliques_examples(c5, grotzsch):
    cliques = maximal_cliques(c5)
    assert sorted(cliques) == sorted(
        mask_of(e) for e in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    )
    assert maximal_cliques(complete_graph(4)) == [15]
    # complement of a triangle-free graph: maximal cliques correspond to
    # the maximal independent sets of the original
    gc = complement(grotzsch)
    max_ind = {
        s
        for s in range(1, 1 << grotzsch.n)
        if is_independent_set(grotzsch, s)
        and not any(
            is_independent_set(grotzsch, s | 1 << v)
            for v in range(grotzsch.n)
            if not s >> v & 1
        )
    }
    assert set(maximal_cliques(gc)) == max_ind


def test_maximal_cliques_against_brute(rng):
    for _ in range(250):
        g = rand_graph(rng, rng.randint(1, 8), rng.random())
        assert set(maximal_cliques(g)) == brute_maximal_cliques(g)


def test_alpha_examples(c5, grotzsch, fig_g1):
    assert independence_number(c5) == 2
    assert independence_number(complement(grotzsch)) == 2
    assert independence_number(fig_g1) == 3
    for s in ("IEhbtj{ro", "IEhbtn{ro"):
        assert independence_number(decode(s)) == 3


def test_alpha_omega_against_brute(rng):
    for _ in range(250):
        g = rand_graph(rng, rng.randint(0, 8), rng.random())
        a = brute_alpha(g)
        assert independence_number(g) == a
        assert clique_number(complement(g)) == a


def test_theta_examples(c5, fig_g1):
    assert clique_cover_number(complete_graph(7)) == 1
    assert clique_cover_number(c5) == 3
    assert brute_theta(c5) == 3
    assert clique_cover_number(fig_g1) == 4
    for s in ("IEhbtj{ro", "IEhbtn{ro"):
        assert clique_cover_number(decode(s)) == 4


def test_theta_against_brute(rng):
    for _ in range(200):
        g = rand_graph(rng, rng.randint(0, 8), rng.random())
        assert clique_cover_number(g) == brute_theta(g)


def test_theta_equals_chromatic_of_complement(rng):
    for _ in range(150):
        g = rand_graph(rng, rng.randint(1, 9), rng.random())
        assert clique_cover_number(g) == chromatic_number(complement(g))
    # spot checks at oracle scale
    for _ in range(40):
        g = rand_graph(rng, rng.randint(10, 12), rng.random())
        assert clique_cover_number(g) == chromatic_number(complement(g))


def test_alpha_equals_theta_on_trees():
    # trees are perfect, so the independence and cover numbers agree
    for n in range(2, 9):
        for g in generate_connected(n):
            if g.edge_count() == n - 1:
                assert independence_number(g) == clique_cover_number(g)


def test_chromatic_examples(c5, grotzsch):
    assert chromatic_number(c5) == 3
    assert chromatic_number(grotzsch) == 4
    for n in range(1, 8):
        assert chromatic_number(complete_graph(n)) == n
    with pytest.raises(GraphError):
        chromatic_number(empty_graph(21))


def test_matching_examples(c5, petersen):
    assert maximum_matching(c5) == 2
    assert maximum_matching(complete_graph(4)) == 2
    assert maximum_matching(petersen) == 5
    assert brute_matching(petersen) == 5


def test_matching_against_brute(rng):
    for _ in range(400):
        g = rand_graph(rng, rng.randint(0, 9), rng.random())
        if g.edge_count() > 12:
            continue
        assert maximum_matching(g) == brute_matching(g)


def test_matching_non_bipartite_blossoms():
    # two triangles joined by a path: forces blossom contraction
    g = from_edges(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                       (4, 5), (5, 6), (6, 7), (7, 5)])
    assert maximum_matching(g) == brute_matching(g) == 4


def test_triangle_free_theta(c5, grotzsch):
    assert clique_cover_triangle_free(c5) == 3
    assert clique_cover_triangle_free(from_edges(2, [(0, 1)])) == 1
    assert clique_cover_triangle_free(grotzsch) == clique_cover_number(grotzsch)
    with pytest.raises(GraphError):
        clique_cover_triangle_free(complete_graph(3))


def test_triangle_free_theta_exhaustive_small():
    for n in range(1, 8):
        for g in generate_connected(n, "triangle_free"):
            assert clique_cover_triangle_free(g) == clique_cover_number(g)


def test_gamma_examples(c5, fig_g1):
    for n in range(1, 8):
        assert domination_number(complete_graph(n)) == 1
    assert domination_number(c5) == 2 == brute_gamma(c5)
    assert domination_number(fig_g1) == 2


def test_gamma_against_brute(rng):
    for _ in range(250):
        g = rand_graph(rng, rng.randint(1, 9), rng.random())
        assert domination_number(g) == brute_gamma(g)


def test_gamma_le_alpha(rng):
    for _ in range(200):
        g = rand_graph(rng, rng.randint(1, 9), rng.random())
        assert domination_number(g) <= independence_number(g)


def test_minimum_dominating_sets(c5):
    sets = minimum_dominating_sets(c5)
    assert sets == sorted(mask_of((i, (i + 2) % 5)) for i in range(5))
    house = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)])
    assert mask_of([1, 4]) in minimum_dominating_sets(house)


def test_criticality_examples(c5):
    assert is_vertex_critical(c5)
    assert is_edge_critical(c5)
    assert not is_vertex_critical(complete_graph(4))
    assert is_edge_critical(complete_graph(4))  # vacuous: no missing edge
    for s in ("FCptO", "FCxv?", "FUzro"):
        assert is_critical(decode(s)), s


def test_vertex_critical_recheck(rng):
    from etdom import delete_vertex

    found = 0
    for _ in range(300):
        g = rand_graph(rng, rng.randint(2, 7), rng.random())
        if is_vertex_critical(g):
            found += 1
            t = clique_cover_number(g)
            for v in range(g.n):
                assert clique_cover_number(delete_vertex(g, v)) == t - 1
    assert found  # the sample actually exercised the property


def test_compute_record(c5):
    rec = Analysis(c5).to_record(criticality=True)
    assert (rec.n, rec.alpha, rec.gamma, rec.theta) == (5, 2, 2, 3)
    assert rec.triangle_free and rec.two_connected
    assert rec.vertex_critical and rec.edge_critical
    assert rec.gamma_inf == 3
