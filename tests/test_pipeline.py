import pytest

from etdom import decode, generate_connected
from etdom._kernel import _purecore
from etdom.canon import canonical_form
from etdom.generate import graph_layers
from etdom.graph6 import pack, unpack
from etdom.graphs import Graph, complete_graph, empty_graph
from etdom.pipeline import (
    FILTERS,
    Analysis,
    CATALOGUES,
    TABLES,
    _packed,
    _screened,
    analyze_stream,
    catalogue_lines,
    check_catalogue,
    order_filters,
    reproduce_table,
    run_filter,
)

from conftest import oracle_edge_critical, oracle_vertex_critical


def test_order_filters_cheapest_first():
    assert order_filters(["gamma_inf_lt_theta", "connected", "alpha_lt_theta"]) == [
        "connected",
        "alpha_lt_theta",
        "gamma_inf_lt_theta",
    ]
    with pytest.raises(ValueError):
        order_filters(["nope"])


def test_gamma_eq_gamma_inf_filter_matches_definition():
    # the filter never computes gamma_inf; check it against the definition,
    # the empty and a disconnected graph included
    gamma_eq_gamma_inf = FILTERS["gamma_eq_gamma_inf"][1]
    for g in [empty_graph(0), empty_graph(3), *generate_connected(6)]:
        a = Analysis(g)
        assert gamma_eq_gamma_inf(a) == (a.gamma == a.gamma_inf)


def test_half_alpha_filter_matches_old_definition():
    # half_alpha is odd order plus alpha_half and theta_half; before that it
    # spelled the two bounds out, and both forms must agree
    half_alpha = FILTERS["half_alpha"][1]
    for n in range(1, 8):
        for g in generate_connected(n):
            a = Analysis(g)
            old = n % 2 == 1 and a.alpha == (n - 1) // 2 and a.theta == (n + 1) // 2
            assert half_alpha(a) == old


def _screen_cases():
    """(n, graphs) for every connected graph of order <= 7 and every
    triangle-free graph of order <= 9, connected or not."""
    for n in range(1, 8):
        yield n, list(generate_connected(n))
    for layer in graph_layers(9, "triangle_free"):
        yield layer.n, [Graph(layer.n, unpack(layer.n, p)) for p in layer]


try:
    from etdom._kernel import _fastcore
except ImportError:
    _fastcore = None


KERNELS = pytest.mark.parametrize(
    "kernel", [k for k in (_purecore, _fastcore) if k is not None],
    ids=lambda k: k.BACKEND_NAME)

# the screen's criticality tests against the definition; FILTERS itself
# asks the screen for these, so it cannot be the reference
ORACLES = {
    "vertex_critical": oracle_vertex_critical,
    "edge_critical": oracle_edge_critical,
    "critical": lambda g: oracle_vertex_critical(g) and oracle_edge_critical(g),
}


def _expected(name: str, g: Graph) -> bool:
    if name in ORACLES:
        return ORACLES[name](g)
    return FILTERS[name][1](Analysis(g))


@KERNELS
def test_screen_agrees_with_filters(kernel):
    # the kernel's screen decides the filters that play no guard game on
    # packed graphs; each of its tests must be the filter of the same name
    assert set(kernel.SCREEN_TESTS) < set(FILTERS)
    for n, graphs in _screen_cases():
        packed = [pack(n, g.adj) for g in graphs]
        for code, name in enumerate(kernel.SCREEN_TESTS):
            want = bytes(_expected(name, g) for g in graphs)
            assert kernel.screen(n, packed, [code]) == want, (n, name)


# the screen's criticality and structural tests
NEW_TESTS = ("vertex_critical", "edge_critical", "critical", "connected",
             "triangle_free", "maximal_triangle_free")

# (graph, the new tests it passes)
EDGE_CASES = [
    # the empty graph is disconnected and not critical, but vacuously
    # (maximal) triangle-free, as FILTERS says
    (empty_graph(0), {"triangle_free", "maximal_triangle_free"}),
    # K1: theta drops from 1 to 0 when its vertex goes; it has no missing edge
    (complete_graph(1), set(NEW_TESTS)),
    # K64 has no missing edge, so it is vacuously edge-critical
    (complete_graph(64), {"edge_critical", "connected"}),
    # 64 isolated vertices: each deletion and each insertion lowers theta
    (empty_graph(64), {"vertex_critical", "edge_critical", "critical", "triangle_free"}),
]


@KERNELS
@pytest.mark.parametrize("g, passes", EDGE_CASES, ids=["K0", "K1", "K64", "E64"])
def test_screen_edge_orders(kernel, g, passes):
    assert set(NEW_TESTS) <= set(kernel.SCREEN_TESTS)
    packed = [pack(g.n, g.adj)]
    for code, name in enumerate(kernel.SCREEN_TESTS):
        got = kernel.screen(g.n, packed, [code])
        assert got == bytes([_expected(name, g)]), name
        if name in NEW_TESTS:
            assert got == bytes([name in passes]), name


# the filters that play the guard game, which the screen leaves to Python
GUARD_GAME = {"gamma_eq_gamma_inf", "gamma_inf_lt_theta", "gamma_inf_eq_alpha"}


def test_chains_are_screened_up_to_the_guard_game():
    # every table and catalogue builds a Graph only for the guard game
    assert not GUARD_GAME & set(_purecore.SCREEN_TESTS)
    for name, spec in [*TABLES.items(), *CATALOGUES.items()]:
        chain = spec.chain
        game = next((i for i, f in enumerate(chain) if f in GUARD_GAME), len(chain))
        assert _screened(chain) == game, name


def test_run_filter_counts_n5():
    row = run_filter(_packed(generate_connected(5)), ["connected"], n=5)
    assert row.total == 21
    assert row.stages == [("connected", 21)]


def test_run_filter_critical_n7():
    row = run_filter(
        _packed(generate_connected(7)),
        ["connected", "alpha_lt_theta", "critical"],
        n=7,
    )
    assert row.total == 853
    assert dict(row.stages)["alpha_lt_theta"] == 33
    assert dict(row.stages)["critical"] == 3
    # the three survivors are the order-7 catalogue entries
    want = {canonical_form(decode(s)) for s in ("FCptO", "FCxv?", "FUzro")}
    got = {canonical_form(decode(s)) for s in row.matches}
    assert got == want


def test_run_filter_matches_reanalyze_single_threaded():
    row = run_filter(
        _packed(generate_connected(7)),
        ["connected", "alpha_lt_theta", "critical"],
        n=7,
        workers=1,
    )
    for line in row.matches:
        a = Analysis(decode(line))
        assert a.alpha < a.theta


def test_run_filter_parallel_deterministic():
    args = (["connected", "alpha_lt_theta"],)
    rows = [
        run_filter(_packed(generate_connected(7), 64), *args, n=7, workers=w)
        for w in (1, 3)
    ]
    assert rows[0].stages == rows[1].stages
    assert rows[0].matches == rows[1].matches


def test_staged_prefilter_is_sound():
    # adding or removing the alpha < theta stage cannot change the final set
    with_stage = run_filter(
        _packed(generate_connected(8)),
        ["connected", "alpha_lt_theta", "gamma_inf_lt_theta"],
        n=8,
    )
    without_stage = run_filter(
        _packed(generate_connected(8)), ["connected", "gamma_inf_lt_theta"], n=8
    )
    assert with_stage.matches == without_stage.matches == []


def test_reproduce_t1_small():
    report = reproduce_table("T1", max_n=7)
    assert report.ok()
    assert report.rows[0] == [5, 21, 1, 1, 1, 0]
    assert report.rows[1] == [6, 112, 3, 0, 0, 0]
    assert report.rows[2] == [7, 853, 33, 8, 3, 0]


def test_reproduce_t4_to_13():
    report = reproduce_table("T4", max_n=13)
    assert report.ok()
    assert report.rows[-1] == [13, "C13[1,2,3,5];C13[1,3,4]"]


def test_reproduce_t6_small():
    report = reproduce_table("T6", max_n=10)
    assert report.ok()
    assert [r[:2] for r in report.rows] == [[4, 1], [6, 2], [8, 5], [10, 19]]


def test_reproduce_t7_small():
    report = reproduce_table("T7", max_n=6)
    assert report.ok()
    assert report.rows[0] == [5, 21, 6, 5, 5]
    assert report.rows[1] == [6, 112, 24, 22, 22]


def test_table_identical_across_worker_counts():
    # order 8 has 11,117 graphs, enough to send the chunks to a pool
    for table, max_n in (("T7", 8), ("T1", 8), ("T2", 9)):
        tsv = [reproduce_table(table, max_n=max_n, workers=w).to_tsv() for w in (1, 2)]
        assert tsv[0] == tsv[1], table


def test_table_rows_beyond_cap_marked_skipped():
    report = reproduce_table("T7", max_n=10, large=False)
    assert report.skipped == [9, 10]
    assert "skipped" in report.to_tsv()


def test_unknown_table_rejected():
    with pytest.raises(ValueError):
        reproduce_table("T5")


def test_catalogues_all_verify():
    for list_id in CATALOGUES:
        report = check_catalogue(list_id)
        assert report.ok(), report.failures
    assert check_catalogue("T8").checked == 46
    assert check_catalogue("T9").checked == 56
    assert check_catalogue("T10").checked == 13
    assert check_catalogue("T11").checked == 180


def test_catalogue_orders():
    assert len(catalogue_lines("T9", order=10)) == 2
    assert len(catalogue_lines("T9", order=11)) == 54
    assert len(catalogue_lines("T8", order=9)) == 38
    assert len(catalogue_lines("T11", order=14)) == 2


def test_catalogue_failure_reported(tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("DUW\n")  # C5 is critical but theta-equal, not a T9 member
    report = check_catalogue("T9", path=bad)
    assert not report.ok()
    assert report.failures[0][1] == "DUW"
    assert "gamma_inf_lt_theta" in report.failures[0][2]


def test_catalogue_completeness_small_orders(tmp_path):
    small = tmp_path / "small.g6"
    small.write_text(
        "\n".join(catalogue_lines("T8", order=5) + catalogue_lines("T8", order=7))
        + "\n"
    )
    report = check_catalogue("T8", path=small, completeness=True)
    assert report.ok()
    assert report.completeness_checked == [5, 7]


def test_catalogue_completeness_catches_missing(tmp_path):
    partial = tmp_path / "partial.g6"
    partial.write_text(catalogue_lines("T8", order=7)[0] + "\n")
    report = check_catalogue("T8", path=partial, completeness=True)
    assert not report.ok()
    assert "3" in report.failures[0][2]


def test_catalogue_completeness_respects_large_gate():
    report = check_catalogue("T9", completeness=True, large=False)
    assert report.completeness_checked == []
    assert report.completeness_skipped == [10, 11]


def test_run_filter_budget_marks_non_authoritative():
    row = run_filter(
        _packed(generate_connected(6)),
        ["connected", "gamma_inf_lt_theta"],
        n=6,
        cap=2,
    )
    assert row.aborted > 0
    assert row.aborted + sum(1 for _ in ()) <= row.total


def test_analyze_stream_record_format(c5):
    line = next(analyze_stream([(0, c5)]))
    assert "graph6=DUW" in line or "n=5" in line
    assert "alpha=2" in line and "theta=3" in line and "gamma_inf=3" in line
    from etdom.graphs import complete_graph

    implied = next(analyze_stream([(0, complete_graph(4))]))
    assert "gamma_inf=1(=theta implied)" in implied
