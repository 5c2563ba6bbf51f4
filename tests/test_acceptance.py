"""Acceptance suite: every criterion runs at its stated tolerance (exact
integers throughout) and prints one PASS line when it holds.

Rows gated behind the CLI --large flag carry the `large` marker here,
mirroring the tool's own tiering; a few single-minute rows run only
when the compiled kernel is available so the pure-Python fallback
still gets a green default run.
"""

import time

import pytest

from etdom import (
    bowtie,
    can_defend,
    chromatic_number,
    clique_cover_number,
    clique_cover_triangle_free,
    complement,
    decode,
    domination_number,
    encode,
    eternal_domination_number,
    from_edges,
    generate_connected,
    independence_number,
    is_dominating_set,
    is_eternal_dominating_set,
    is_triangle_free,
    mycielski_family,
)
from etdom._kernel import BACKEND
from etdom.canon import are_isomorphic, canonical_form
from etdom.constructions import CirculantSpec, bowtie_doubling_spec, circulant
from etdom.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    delete_vertex,
    empty_graph,
    mask_of,
)
from etdom.pipeline import catalogue_lines, check_catalogue, reproduce_table

from conftest import rand_graph
from test_eternal import oracle_eternal_number

FAST = BACKEND == "fast"
needs_fast = pytest.mark.skipif(
    not FAST, reason="minutes-scale row; run with the compiled kernel"
)


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# -- criterion 1: named values ------------------------------------------------

def test_criterion_1_named_values():
    c5 = cycle_graph(5)
    assert independence_number(c5) == 2
    assert clique_cover_number(c5) == 3
    assert eternal_domination_number(c5) == 3
    for n in range(1, 9):
        assert eternal_domination_number(complete_graph(n)) == 1
        assert eternal_domination_number(empty_graph(n)) == n
    gc = complement(mycielski_family(4))
    assert independence_number(gc) == 2
    assert eternal_domination_number(gc) == 3
    assert clique_cover_number(gc) == 4
    for s in ("IEhbtj{ro", "IEhbtn{ro"):
        g = decode(s)
        assert independence_number(g) == 3
        assert eternal_domination_number(g) == 3
        assert clique_cover_number(g) == 4
    report("1", "C5, complete/empty families, 11-vertex complement, both "
               "10-vertex catalogue graphs: all exact")


# -- criterion 2: smallest graph with the gap ---------------------------------

def _gap_graphs(n):
    found = []
    for g in generate_connected(n, allow_large=n >= 10):
        alpha = independence_number(g)
        theta = clique_cover_number(g, lower_bound=alpha)
        if alpha == theta:
            continue
        if can_defend(g, theta - 1):
            found.append(g)
    return found


def test_criterion_2_exhaustive_to_8():
    t0 = time.monotonic()
    for n in range(1, 9):
        assert _gap_graphs(n) == [], n
    report("2a", f"no eternal/cover gap on any connected graph of order <= 8 "
                 f"[{time.monotonic() - t0:.0f}s]")


@needs_fast
def test_criterion_2_exhaustive_9():
    t0 = time.monotonic()
    assert _gap_graphs(9) == []
    report("2b", f"no gap at order 9 (16539 candidates past the "
                 f"independence filter) [{time.monotonic() - t0:.0f}s]")


@pytest.mark.large
def test_criterion_2_exhaustive_10():
    t0 = time.monotonic()
    found = {canonical_form(g) for g in _gap_graphs(10)}
    want = {canonical_form(decode(s)) for s in ("IEhbtj{ro", "IEhbtn{ro")}
    assert found == want
    report("2c", f"order 10 gap set is exactly the two catalogue graphs "
                 f"[{time.monotonic() - t0:.0f}s]")


# -- criterion 3: critical-graph table and exact match sets -------------------

FIG6 = [
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 6), (1, 5), (6, 5), (3, 6)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 6), (1, 5), (6, 5), (6, 2), (5, 3)],
    [(i, (i + 1) % 7) for i in range(7)] + [(i, (i + 2) % 7) for i in range(7)],
]
FIG7 = [
    [(5, 0), (0, 1), (1, 2), (2, 3), (3, 5), (5, 4), (0, 4), (1, 4), (2, 4),
     (7, 5), (7, 0), (7, 1), (7, 6), (6, 2)],
    [(0, 3), (0, 4), (0, 6), (0, 7), (1, 4), (1, 5), (1, 6), (1, 7), (2, 5),
     (2, 6), (3, 5), (3, 6), (3, 7), (5, 7)],
    [(0, 2), (2, 1), (1, 0), (0, 3), (3, 6), (1, 5), (5, 7), (7, 4), (4, 6),
     (7, 3), (5, 6), (3, 2), (2, 5), (4, 0), (4, 1)],
    [(0, 1), (3, 7), (4, 7), (5, 7), (6, 7), (0, 3), (1, 6), (2, 3), (3, 4),
     (4, 5), (5, 6), (6, 2), (1, 5), (0, 4)],
]


def test_criterion_3_critical_table_and_sets():
    report_t1 = reproduce_table("T1", max_n=8)
    assert report_t1.ok(), report_t1.divergent
    crit_cells = [row[4] for row in report_t1.rows]
    assert crit_cells == [1, 0, 3, 4]
    assert [row[5] for row in report_t1.rows] == [0, 0, 0, 0]

    from etdom.pipeline import _packed, run_filter

    for n, n_figs in ((5, None), (7, FIG6), (8, FIG7)):
        row = run_filter(_packed(generate_connected(n)),
                         ["connected", "alpha_lt_theta", "critical"], n=n)
        got = {canonical_form(decode(line)) for line in row.matches}
        want = {canonical_form(decode(s)) for s in catalogue_lines("T8", order=n)}
        assert got == want, n
        if n_figs is not None:
            figs = {canonical_form(from_edges(n, edges)) for edges in n_figs}
            assert figs == want, n
    report("3", "critical columns 1,0,3,4 with empty witness column; order-7 "
               "and order-8 match sets equal both the figures and the catalogue")


@needs_fast
def test_criterion_3_catalogue_completeness_order_9():
    t0 = time.monotonic()
    rep = check_catalogue("T8", completeness=True)
    assert rep.ok(), rep.failures
    assert rep.completeness_checked == [5, 7, 8, 9]
    report("3b", f"all 38 order-9 critical gap graphs recovered as the exact "
                 f"set by exhaustive search [{time.monotonic() - t0:.0f}s]")


# -- criteria 4/5: triangle-free tables ---------------------------------------

def test_criterion_4_triangle_free_to_9():
    rep = reproduce_table("T2", max_n=9)
    assert rep.ok(), rep.divergent
    assert [r[1:] for r in rep.rows] == [
        [6, 1, 1, 0], [59, 8, 8, 0], [1380, 276, 276, 0]
    ]
    report("4a", "triangle-free rows 5,7,9 exact")


@needs_fast
def test_criterion_4_triangle_free_11():
    t0 = time.monotonic()
    rep = reproduce_table("T2", max_n=11)
    assert rep.ok(), rep.divergent
    assert rep.rows[-1] == [11, 90842, 29660, 29660, 0]
    report("4b", f"triangle-free row 11 exact [{time.monotonic() - t0:.0f}s]")


@pytest.mark.large
def test_criterion_4_triangle_free_13():
    rep = reproduce_table("T2", max_n=13, large=True)
    assert rep.ok(), rep.divergent
    assert rep.rows[-1] == [13, 19425052, 9606337, 9606334, 0]
    report("4c", "triangle-free row 13 exact")


def test_criterion_5_maximal_triangle_free_to_11():
    rep = reproduce_table("T3", max_n=11)
    assert rep.ok(), rep.divergent
    assert [r[1] for r in rep.rows] == [3, 6, 16, 61]
    assert all(r[4] == 0 for r in rep.rows)
    report("5a", "maximal triangle-free rows 5..11 exact")


@needs_fast
def test_criterion_5_maximal_triangle_free_13():
    t0 = time.monotonic()
    rep = reproduce_table("T3", max_n=13)
    assert rep.ok(), rep.divergent
    assert rep.rows[-1] == [13, 392, 172, 172, 0]
    report("5b", f"maximal triangle-free row 13 exact [{time.monotonic() - t0:.0f}s]")


@pytest.mark.large
def test_criterion_5_maximal_triangle_free_15():
    rep = reproduce_table("T3", max_n=15, large=True)
    assert rep.ok(), rep.divergent
    assert rep.rows[-1] == [15, 5036, 1837, 1837, 0]
    report("5c", "maximal triangle-free row 15 exact")


# -- criterion 6: circulants --------------------------------------------------

@needs_fast
def test_criterion_6_circulants_to_16():
    t0 = time.monotonic()
    rep = reproduce_table("T4", max_n=16)
    assert rep.ok(), rep.divergent
    cells = {row[0]: row[1] for row in rep.rows}
    assert cells[13] == "C13[1,2,3,5];C13[1,3,4]"
    assert cells[14] == "-"
    assert cells[15] == "C15[1,3,4]"
    assert cells[16] == "C16[1,2,3,4,6];C16[1,2,4,5]"
    report("6", f"circulant gap lists exact for every order to 16 "
               f"[{time.monotonic() - t0:.0f}s]")


@pytest.mark.large
def test_criterion_6_circulants_to_20():
    rep = reproduce_table("T4", max_n=20, large=True)
    assert rep.ok(), rep.divergent
    report("6-large", "circulant gap lists exact to order 20")


# -- criterion 7: cubic graphs ------------------------------------------------

@needs_fast
def test_criterion_7_cubic_to_14():
    t0 = time.monotonic()
    rep = reproduce_table("T6", max_n=14)
    assert rep.ok(), rep.divergent
    assert [r[1] for r in rep.rows] == [1, 2, 5, 19, 85, 509]
    assert [r[2] for r in rep.rows] == [0, 0, 2, 9, 46, 320]
    assert all(r[3] == 0 for r in rep.rows)
    report("7", f"cubic totals, independence-gap counts and empty witness "
               f"column exact to order 14 [{time.monotonic() - t0:.0f}s]")


@pytest.mark.large
def test_criterion_7_cubic_16():
    rep = reproduce_table("T6", max_n=16, large=True)
    assert rep.ok(), rep.divergent
    assert rep.rows[-1] == [16, 4060, 2888, 0]
    report("7-large", "cubic row 16 exact")


# -- criterion 8: domination vs eternal domination ----------------------------

def test_criterion_8_gamma_table_to_8():
    t0 = time.monotonic()
    rep = reproduce_table("T7", max_n=8)
    assert rep.ok(), rep.divergent
    assert [r[3] for r in rep.rows] == [5, 22, 67, 358]
    assert [r[4] for r in rep.rows] == [5, 22, 67, 358]
    report("8", f"gamma = eternal count equals gamma = eternal = cover count "
               f"(5, 22, 67, 358) [{time.monotonic() - t0:.0f}s]")


@pytest.mark.large
def test_criterion_8_gamma_table_9_10():
    rep = reproduce_table("T7", max_n=10, large=True)
    assert rep.ok(), rep.divergent
    assert rep.rows[-2][3:] == [2265, 2265]
    assert rep.rows[-1][3:] == [23394, 23394]
    report("8-large", "rows 9 and 10 exact (2265, 23394)")


# -- criterion 9: dominating sets that cannot defend --------------------------

def _escape_family(k: int) -> tuple[Graph, int]:
    """Graph with domination and eternal numbers both k whose named
    minimum dominating set loses to an attack on the apex."""
    base = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)]
    if k == 2:
        return from_edges(5, base), mask_of([1, 4])
    extra = []
    n = 5 + 2 * (k - 2)
    for i in range(k - 2):
        v = 5 + 2 * i
        w = v + 1
        extra.append((v, w))
        extra.append((0, v) if i == 0 else (v - 2, v))
    named = mask_of([1, 4] + [5 + 2 * i for i in range(k - 2)])
    return from_edges(n, base + extra), named


def test_criterion_9_escaping_dominating_sets():
    for k in (2, 3, 4):
        g, named = _escape_family(k)
        assert domination_number(g) == k
        assert eternal_domination_number(g) == k
        if k == 2:
            assert clique_cover_number(g) == 2
        assert is_dominating_set(g, named)
        assert not is_eternal_dominating_set(g, named)
    report("9", "defended number equals domination number for k=2,3,4 while "
               "the named minimum dominating sets all fail")


# -- criterion 10: construction identities ------------------------------------

def test_criterion_10_construction_identities():
    import itertools

    k2 = from_edges(2, [(0, 1)])
    checked = 0
    for n in range(3, 13):
        for r in range(1, n // 2 + 1):
            for keys in itertools.combinations(range(1, n // 2 + 1), r):
                spec = CirculantSpec(n, keys)
                left = bowtie(circulant(spec), k2)
                right = circulant(bowtie_doubling_spec(spec))
                assert are_isomorphic(left, right), spec
                checked += 1
    g = mycielski_family(4)
    assert g.n == 11 and g.edge_count() == 20
    assert chromatic_number(g) == 4 and is_triangle_free(g)
    report("10", f"edge-product doubling identity on all {checked} circulant "
                f"key sets to order 12 (twin-pair key form; the interleaved "
                f"key form in the source is unsatisfiable, see the ledger) "
                f"plus the 11-vertex family member")


# -- criterion 11: property suites --------------------------------------------

def test_criterion_11_sandwich_and_binomial_to_8():
    t0 = time.monotonic()
    from math import comb

    for n in range(1, 9):
        for g in generate_connected(n):
            alpha = independence_number(g)
            theta = clique_cover_number(g, lower_bound=alpha)
            gi = eternal_domination_number(g, alpha=alpha, theta=theta)
            assert alpha <= gi <= theta
            assert gi <= comb(alpha + 1, 2)
            assert gi == theta  # no gap below order 10
    report("11a", f"independence <= eternal <= cover and the binomial bound "
                  f"on every connected graph of order <= 8 "
                  f"[{time.monotonic() - t0:.0f}s]")


def test_criterion_11_monotonicity(rng):
    checked = 0
    while checked < 500:
        g = rand_graph(rng, rng.randint(2, 8), 0.2 + 0.6 * rng.random())
        gi = eternal_domination_number(g)
        v = rng.randrange(g.n)
        assert eternal_domination_number(delete_vertex(g, v)) <= gi
        non_edges = [
            (u, w)
            for u in range(g.n)
            for w in range(u + 1, g.n)
            if not g.adj[u] >> w & 1
        ]
        if non_edges:
            from etdom import add_edge

            u, w = rng.choice(non_edges)
            assert eternal_domination_number(add_edge(g, u, w)) <= gi
        checked += 1
    report("11b", "vertex-deletion and edge-addition monotonicity on 500 "
                  "random pairs")


def test_criterion_11_game_tree_oracle():
    total = 0
    for n in range(1, 7):
        for g in generate_connected(n):
            assert eternal_domination_number(g) == oracle_eternal_number(g)
            total += 1
    report("11c", f"fixpoint agrees with the backward-induction game oracle "
                  f"on all {total} connected graphs of order <= 6")


def test_criterion_11_roundtrip(rng):
    count = 0
    for n in range(0, 6):
        for code in range(1 << (n * (n - 1) // 2)):
            adj = [0] * n
            t = 0
            for col in range(1, n):
                for row in range(col):
                    if code >> t & 1:
                        adj[row] |= 1 << col
                        adj[col] |= 1 << row
                    t += 1
            g = Graph(n, tuple(adj))
            assert decode(encode(g)) == g
            count += 1
    for _ in range(300):
        g = rand_graph(rng, rng.randint(1, 40), rng.random())
        assert decode(encode(g)) == g
        count += 1
    report("11d", f"graph6 round trip on {count} graphs (exhaustive to order "
                  f"5, random to order 40)")


@needs_fast
def test_criterion_11_cover_equals_complement_chromatic():
    t0 = time.monotonic()
    total = 0
    for n in range(1, 9):
        for g in generate_connected(n):
            assert clique_cover_number(g) == chromatic_number(complement(g))
            total += 1
    report("11e", f"cover number equals complement chromatic number on all "
                  f"{total} connected graphs of order <= 8 "
                  f"[{time.monotonic() - t0:.0f}s]")


def test_criterion_11_matching_cover_triangle_free():
    total = 0
    for n in range(2, 11):
        for g in generate_connected(n, "triangle_free"):
            assert clique_cover_triangle_free(g) == clique_cover_number(g)
            total += 1
    report("11f", f"order-minus-matching equals the cover number on all "
                  f"{total} connected triangle-free graphs of order <= 10")


def test_criterion_catalogues():
    for list_id in ("T8", "T9", "T10", "T11"):
        rep = check_catalogue(list_id)
        assert rep.ok(), rep.failures
    assert len(catalogue_lines("T9", order=10)) == 2
    # 56 gap graphs of order <= 11; all but one have the independence bound tight
    tight = 0
    for line in catalogue_lines("T9"):
        g = decode(line)
        if independence_number(g) == eternal_domination_number(g):
            tight += 1
    assert tight == 55
    report("catalogues", "all four bundled lists verify; 55 of 56 gap graphs "
                         "have eternal number equal to independence number")


# -- criterion 12: optional stretch -------------------------------------------

@pytest.mark.large
def test_criterion_12_unique_small_4chromatic_triangle_free():
    for n in range(2, 11):
        for g in generate_connected(n, "triangle_free"):
            assert chromatic_number(g) <= 3
    hits = [
        g
        for g in generate_connected(11, "triangle_free")
        if chromatic_number(g) >= 4
    ]
    assert len(hits) == 1
    assert are_isomorphic(hits[0], mycielski_family(4))
    report("12", "no 4-chromatic triangle-free graph below order 11 and "
               "exactly one (the family member) at order 11")
