import pytest

from etdom import (
    GraphError,
    TooManyVerticesError,
    add_edge,
    complement,
    connected_components,
    delete_edge,
    delete_vertex,
    from_edges,
    induced_subgraph,
    is_claw_free,
    is_clique,
    is_connected,
    is_cubic,
    is_dominating_set,
    is_independent_set,
    is_maximal_triangle_free,
    is_triangle_free,
    is_two_connected,
)
from etdom.canon import are_isomorphic, relabel
from etdom.graphs import Graph, complete_graph, cycle_graph, empty_graph, mask_of, path_graph

from conftest import rand_graph


def test_from_edges_c5(c5):
    assert c5.n == 5
    assert c5.edge_count() == 5
    assert all(c5.degree(v) == 2 for v in range(5))


def test_from_edges_k1():
    g = from_edges(1, [])
    assert g.n == 1 and g.edge_count() == 0


def test_from_edges_duplicates_collapse():
    g = from_edges(3, [(0, 1), (0, 1)])
    assert g.edge_count() == 1
    assert g.degree(2) == 0


def test_from_edges_rejects_bad_input():
    with pytest.raises(GraphError):
        from_edges(3, [(0, 3)])
    with pytest.raises(GraphError):
        from_edges(3, [(1, 1)])
    with pytest.raises(TooManyVerticesError):
        from_edges(65, [])


def test_graph_constructor_rejects_bad_rows():
    with pytest.raises(TooManyVerticesError, match="n=65 outside 0..64"):
        Graph(65, (0,) * 65)
    with pytest.raises(GraphError, match="adjacency length does not match n"):
        Graph(3, (0, 0))
    with pytest.raises(GraphError, match="neighbour of 1 out of range"):
        Graph(3, (0, 0b1000, 0))
    with pytest.raises(GraphError, match="self-loop at 2"):
        Graph(3, (0, 0, 0b100))
    # rows 0-1 and 2-3 are one-sided; the first pair in row order is reported
    with pytest.raises(GraphError, match=r"asymmetric adjacency at \(0,1\)"):
        Graph(4, (0b10, 0, 0b1000, 0))
    with pytest.raises(GraphError, match=r"asymmetric adjacency at \(2,0\)"):
        Graph(3, (0b10, 0b1, 0b1))
    # range and self-loop checks run over every row before any symmetry check
    with pytest.raises(GraphError, match="self-loop at 3"):
        Graph(4, (0b10, 0, 0, 0b1000))
    assert Graph(3, (0b110, 0b101, 0b011)) == complete_graph(3)


def test_complement_k5_and_involution(c5):
    assert complement(complete_graph(5)).edge_count() == 0
    assert complement(complement(c5)) == c5


def test_c5_self_complementary(c5):
    assert are_isomorphic(c5, complement(c5))


def test_induced_subgraph_path(c5):
    p = induced_subgraph(c5, mask_of([0, 1, 2]))
    assert are_isomorphic(p, path_graph(3))
    assert induced_subgraph(c5, c5.vertex_mask) == c5


def test_induced_subgraph_rejects_foreign_vertices(c5):
    with pytest.raises(GraphError):
        induced_subgraph(c5, 1 << 6)


def test_edits(c5):
    assert are_isomorphic(delete_vertex(c5, 0), path_graph(4))
    p4 = path_graph(4)
    assert are_isomorphic(add_edge(p4, 0, 3), cycle_graph(4))
    assert are_isomorphic(delete_edge(complete_graph(3), 0, 1), path_graph(3))
    with pytest.raises(GraphError):
        add_edge(c5, 0, 1)
    with pytest.raises(GraphError):
        delete_edge(c5, 0, 2)


def test_delete_vertex_matches_induced(rng):
    for _ in range(200):
        g = rand_graph(rng, rng.randint(1, 9), rng.random())
        v = rng.randrange(g.n)
        assert delete_vertex(g, v) == induced_subgraph(g, g.vertex_mask ^ (1 << v))


def test_dominating_sets(c5):
    assert is_dominating_set(c5, mask_of([0, 2]))
    assert not is_dominating_set(c5, mask_of([0]))
    # the whole vertex set always dominates
    for n in range(1, 8):
        g = complete_graph(n)
        assert is_dominating_set(g, g.vertex_mask)


def test_house_graph_domination():
    # 5-cycle with one chord: both chord ends dominate everything
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)])
    assert is_dominating_set(g, mask_of([1, 4]))


def test_independent_and_clique(c5, grotzsch):
    assert is_independent_set(c5, mask_of([0, 2]))
    assert not is_independent_set(c5, mask_of([0, 1]))
    k4 = complete_graph(4)
    for mask in range(1 << 4):
        assert is_clique(k4, mask)
    # triangle-free graph: no 3-clique anywhere
    for a in range(grotzsch.n):
        for b in range(a + 1, grotzsch.n):
            for c in range(b + 1, grotzsch.n):
                assert not is_clique(grotzsch, mask_of([a, b, c]))


def test_clique_independent_duality(rng):
    for _ in range(300):
        g = rand_graph(rng, rng.randint(1, 8), rng.random())
        s = rng.getrandbits(g.n)
        assert is_clique(g, s) == is_independent_set(complement(g), s)


def test_connectivity(c5):
    assert is_connected(c5)
    two = empty_graph(2)
    assert not is_connected(two)
    assert connected_components(two) == [1, 2]
    assert connected_components(empty_graph(0)) == []
    from etdom import decode

    assert is_connected(decode("DUW"))


def test_two_connected(c5):
    assert is_two_connected(c5)
    assert not is_two_connected(path_graph(3))
    bowtie_graph = from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert not is_two_connected(bowtie_graph)
    assert not is_two_connected(complete_graph(2))


def test_triangle_free_predicates(c5, grotzsch):
    assert is_triangle_free(c5)
    assert is_maximal_triangle_free(c5)
    assert is_triangle_free(grotzsch)
    assert not is_triangle_free(complete_graph(3))
    # P4 is triangle-free but not maximal: its endpoints are at distance 3
    assert not is_maximal_triangle_free(path_graph(4))


def test_claw_free():
    claw = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert not is_claw_free(claw)
    assert is_claw_free(cycle_graph(6))
    assert is_claw_free(complete_graph(5))


def test_cubic(petersen):
    assert is_cubic(petersen)
    assert is_cubic(complete_graph(4))
    assert not is_cubic(cycle_graph(5))
    assert not is_cubic(empty_graph(0))


def test_predicates_invariant_under_relabelling(rng):
    preds = (
        is_connected,
        is_triangle_free,
        is_claw_free,
        is_cubic,
        is_two_connected,
        is_maximal_triangle_free,
    )
    for _ in range(150):
        g = rand_graph(rng, rng.randint(1, 9), rng.random())
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        for pred in preds:
            assert pred(g) == pred(h), pred.__name__
