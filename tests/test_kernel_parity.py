"""The compiled kernel (_fastcore) against the pure reference (_purecore).

Every entry point must return exactly the same value, in the same order,
on seeded random graphs; budget refusals must raise the same exception
with the same count.  The comparisons skip when the compiled kernel is
not built (``python setup.py build_ext --inplace``).  The source-drift
guard and the pickling of ``BudgetExceeded`` run on every checkout.
"""

import hashlib
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from etdom import decode
from etdom._kernel import _purecore
from etdom.graphs import complete_graph, empty_graph

from conftest import rand_graph

try:
    from etdom._kernel import _fastcore
except ImportError:
    _fastcore = None

needs_fast = pytest.mark.skipif(
    _fastcore is None,
    reason="compiled kernel not built (python setup.py build_ext --inplace)",
)
BACKENDS = [pytest.param(_purecore, id="pure"),
            pytest.param(_fastcore, marks=needs_fast, id="fast")]

# Seeded: every run draws the same graphs, and no example database is kept.
seeded = settings(max_examples=400, derandomize=True, database=None, deadline=None)

MODES = (_purecore.MODE_ALL, _purecore.MODE_TRIANGLE_FREE, _purecore.MODE_MAX_DEGREE_3)
EMIT_FLAGS = [(c, m) for c in (False, True) for m in (False, True)]


@st.composite
def graphs(draw, max_n=11):
    """(n, adj) of a G(n, p) graph, or of a triangle-free graph grown by
    random edges (maximal when every candidate edge is kept)."""
    n = draw(st.integers(0, max_n))
    p = draw(st.sampled_from((0.0, 0.15, 0.35, 0.5, 0.85, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    if not draw(st.booleans()):
        return n, list(rand_graph(rng, n, p).adj)
    adj = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if not adj[u] & adj[v] and rng.random() < max(p, 0.5):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return n, adj


def both(fn, *args, **kwargs):
    """fn on each backend; asserts equal results and returns them."""
    want = getattr(_purecore, fn)(*args, **kwargs)
    got = getattr(_fastcore, fn)(*args, **kwargs)
    assert got == want, f"{fn}{args[:1]} {kwargs}: fast {got!r} != pure {want!r}"
    return want


# -- drift guard --------------------------------------------------------------

KERNEL = Path(__file__).resolve().parents[1] / "src" / "etdom" / "_kernel"
SOURCE_SHA256 = {
    "_fastcore.pyx": "40c353c2e8e349cdad131890278bf0cb8d0ac21e3b1b29a12c5913b6aae646fb",
    "_fastcore.c": "5d5db6745e1ca6922ec1f1d5fab52b4c6c0d1105e87de616a06ba14cfd039852",
}


def test_shipped_c_matches_pyx():
    # _fastcore.c is what gets compiled; it is Cython's output for
    # _fastcore.pyx, and the two are pinned together so that an edit to
    # either one cannot leave the built kernel silently stale.
    got = {name: hashlib.sha256((KERNEL / name).read_bytes()).hexdigest()
           for name in SOURCE_SHA256}
    assert got == SOURCE_SHA256, (
        "the compiled kernel's sources changed: regenerate _fastcore.c from "
        "_fastcore.pyx with Cython 3.x (cython -3 src/etdom/_kernel/_fastcore.pyx) "
        f"and update both hashes in SOURCE_SHA256 to {got}"
    )


# -- BudgetExceeded -----------------------------------------------------------


@pytest.mark.parametrize("kernel", BACKENDS)
def test_budget_exceeded_pickles(kernel):
    with pytest.raises(_purecore.BudgetExceeded) as err:
        kernel.dominating_sets(5, [0b10010, 0b00101, 0b01010, 0b10100, 0b01001], 3, cap=4)
    back = pickle.loads(pickle.dumps(err.value))
    assert type(back) is _purecore.BudgetExceeded
    assert str(back) == str(err.value) == "10 dominating 3-sets exceed the configured cap 4"
    assert back.count == err.value.count == 10
    assert kernel.BudgetExceeded is _purecore.BudgetExceeded


# -- parity -------------------------------------------------------------------


@needs_fast
@seeded
@given(graphs())
def test_canon(graph):
    both("canon", *graph)


@needs_fast
def test_canon_symmetric_families():
    for n in (1, 2, 6, 16, 24, 40):
        for g in (complete_graph(n), empty_graph(n)):
            both("canon", g.n, list(g.adj))


@needs_fast
@seeded
@given(graphs(), st.integers(0, 12))
def test_cliques_and_matching(graph, lb):
    n, adj = graph
    both("max_clique", n, adj)
    both("max_clique", n, adj, lb)
    both("maximal_cliques", n, adj)
    both("clique_cover", n, adj)
    both("clique_cover", n, adj, lb)
    both("max_matching", n, adj)


@needs_fast
@seeded
@given(graphs())
def test_domination_and_fixpoint(graph):
    n, adj = graph
    gamma = both("domination_number", n, adj)
    for k in range(n + 2):
        both("count_dominating_sets", n, adj, k)
        both("exists_dominating_set", n, adj, k)
    for k in (gamma, gamma + 1):
        configs = both("dominating_sets", n, adj, k)
        both("eternal_fixpoint", n, adj, k, configs)


@needs_fast
@seeded
@given(graphs(max_n=8))
def test_augment(graph):
    for mode in MODES:
        for emit_connected, emit_mtf in EMIT_FLAGS:
            both("augment", *graph, mode, emit_connected, emit_mtf)


# triangle-free parents that have maximal triangle-free children
MTF_PARENTS = ("DFw", "F?~v_")


@needs_fast
@pytest.mark.parametrize("parent", MTF_PARENTS)
def test_augment_mtf_parents(parent):
    g = decode(parent)
    for mode in MODES:
        for emit_connected, emit_mtf in EMIT_FLAGS:
            both("augment", g.n, list(g.adj), mode, emit_connected, emit_mtf)
    assert both("augment", g.n, list(g.adj), _purecore.MODE_TRIANGLE_FREE, True, True)


@needs_fast
def test_constants():
    for name in ("MODE_ALL", "MODE_TRIANGLE_FREE", "MODE_MAX_DEGREE_3"):
        assert getattr(_fastcore, name) == getattr(_purecore, name)
    assert (_purecore.BACKEND_NAME, _fastcore.BACKEND_NAME) == ("pure", "fast")


def raised(kernel, fn, *args):
    with pytest.raises(_purecore.BudgetExceeded) as err:
        getattr(kernel, fn)(*args)
    return str(err.value), err.value.count


@needs_fast
@pytest.mark.parametrize("n", (22, 23, 30))
def test_augment_refuses_large_parents(n):
    adj = list(empty_graph(n).adj)
    for mode in MODES:
        assert raised(_fastcore, "augment", n, adj, mode) == raised(
            _purecore, "augment", n, adj, mode)


@needs_fast
@seeded
@given(graphs(max_n=10), st.integers(0, 3))
def test_dominating_sets_cap(graph, extra):
    n, adj = graph
    k = _purecore.domination_number(n, adj) + extra
    count = len(_purecore.dominating_sets(n, adj, k))
    if count:
        assert both("dominating_sets", n, adj, k, count) != []
        assert raised(_fastcore, "dominating_sets", n, adj, k, count - 1) == raised(
            _purecore, "dominating_sets", n, adj, k, count - 1)
