"""Canonical labelling: invariance and orbit correctness.  Backend
parity of the kernel's canon lives in test_kernel_parity.py."""

import random
from itertools import permutations

from etdom import decode, from_edges
from etdom.canon import (
    are_isomorphic,
    automorphism_orbits,
    canonical_form,
    canonical_graph,
    relabel,
)
from etdom.graphs import Graph, complete_graph, cycle_graph, empty_graph, path_graph

from conftest import rand_graph


def brute_orbits(g: Graph):
    orbit = list(range(g.n))

    def find(x):
        while orbit[x] != x:
            x = orbit[x]
        return x

    for perm in permutations(range(g.n)):
        if relabel(g, list(perm)) == g:
            for v in range(g.n):
                a, b = find(v), find(perm[v])
                if a != b:
                    if a < b:
                        orbit[b] = a
                    else:
                        orbit[a] = b
    return [find(v) for v in range(g.n)]


def test_canonical_form_examples(c5):
    rotated = relabel(c5, [(i + 2) % 5 for i in range(5)])
    assert canonical_form(c5) == canonical_form(rotated)
    assert canonical_form(decode("DUW")) == canonical_form(c5)
    assert canonical_form(path_graph(4)) != canonical_form(
        from_edges(4, [(0, 1), (0, 2), (0, 3)])
    )


def test_are_isomorphic_examples(c5):
    assert not are_isomorphic(c5, path_graph(5))
    rng = random.Random(7)
    for _ in range(100):
        g = rand_graph(rng, rng.randint(1, 9), rng.random())
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert are_isomorphic(g, relabel(g, perm))


def test_relabel_invariance_per_size(rng):
    # spec-level property: 1000 random (graph, permutation) pairs per n
    for n in range(4, 11):
        for _ in range(1000):
            g = rand_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(relabel(g, perm))


def test_orbits_against_brute_force(rng):
    for _ in range(250):
        g = rand_graph(rng, rng.randint(1, 7), rng.random())
        assert automorphism_orbits(g) == brute_orbits(g)


def test_orbits_named():
    assert automorphism_orbits(complete_graph(6)) == [0] * 6
    assert automorphism_orbits(cycle_graph(7)) == [0] * 7
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert automorphism_orbits(star) == [0, 1, 1, 1]


def test_canonical_graph_is_isomorphic_relabelling(rng):
    for _ in range(100):
        g = rand_graph(rng, rng.randint(1, 9), rng.random())
        cg = canonical_graph(g)
        assert cg.degree_sequence() == g.degree_sequence()
        assert are_isomorphic(cg, g)


def test_large_symmetric_graphs_fast():
    # complete/empty graphs of every size stay trivially cheap
    for n in (32, 64):
        g = complete_graph(n)
        orbit = automorphism_orbits(g)
        assert orbit == [0] * n
        assert canonical_form(empty_graph(n))
