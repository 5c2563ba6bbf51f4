"""The compiled kernel (_fastcore) against the pure reference (_purecore).

Every entry point must return exactly the same value, in the same order,
on seeded random graphs; budget refusals must raise the same exception
with the same count, and out-of-range input must raise the same
ValueError.  The comparisons skip when the compiled kernel is not built
(``python setup.py build_ext --inplace``).  The compile check of the C
source and the pickling of ``BudgetExceeded`` run on every checkout.
"""

import json
import os
import pickle
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from etdom import decode
from etdom._kernel import _purecore
from etdom.eternal import DEFAULT_CONFIG_CAP
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

MODES = (_purecore.MODE_ALL, _purecore.MODE_TRIANGLE_FREE)
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


def both(fn, *args):
    """fn on each backend; asserts equal results and returns them."""
    want = getattr(_purecore, fn)(*args)
    got = getattr(_fastcore, fn)(*args)
    assert got == want, f"{fn}{args[:1]}: fast {got!r} != pure {want!r}"
    return want


# -- the C source -------------------------------------------------------------

SOURCE = Path(__file__).resolve().parents[1] / "src" / "etdom" / "_kernel" / "_fastcore.c"


def test_fastcore_c_compiles():
    # _fastcore.c is hand-written: it must compile without a warning
    # wherever the extension is built, whether or not it is built here.
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) on PATH")
    include = sysconfig.get_paths()["include"]
    proc = subprocess.run(
        [cc, "-Wall", "-Werror", "-fsyntax-only", f"-I{include}", str(SOURCE)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


# -- BudgetExceeded -----------------------------------------------------------


@pytest.mark.parametrize("kernel", BACKENDS)
def test_budget_exceeded_pickles(kernel):
    with pytest.raises(_purecore.BudgetExceeded) as err:
        kernel.dominating_sets(5, [0b10010, 0b00101, 0b01010, 0b10100, 0b01001], 3, 4)
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
    for n in (1, 2, 6, 16, 24, 40, 64):
        for g in (complete_graph(n), empty_graph(n)):
            both("canon", g.n, list(g.adj))


@needs_fast
def test_order_64():
    # 64 vertices fill the mask word: the full vertex set is 2**64 - 1
    # (canon and augment at n = 64 are checked above and below)
    half = (1 << 32) - 1
    star = [(1 << 64) - 2] + [1] * 63
    bipartite = [half << 32] * 32 + [half] * 32
    for adj in (list(complete_graph(64).adj), list(empty_graph(64).adj), star, bipartite):
        for fn in ("max_clique", "maximal_cliques", "clique_cover", "max_matching"):
            both(fn, 64, adj)
        gamma = both("domination_number", 64, adj)
        configs = both("dominating_sets", 64, adj, gamma, DEFAULT_CONFIG_CAP)
        both("eternal_fixpoint", 64, adj, gamma, configs)


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
        configs = both("dominating_sets", n, adj, k, DEFAULT_CONFIG_CAP)
        if k in (gamma, gamma + 1):
            both("eternal_fixpoint", n, adj, k, configs)
            both("eternal_fixpoint", n, adj, k, tuple(configs))


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
    for name in ("MODE_ALL", "MODE_TRIANGLE_FREE"):
        assert getattr(_fastcore, name) == getattr(_purecore, name)
    assert (_purecore.BACKEND_NAME, _fastcore.BACKEND_NAME) == ("pure", "fast")


def raised(kernel, fn, *args):
    with pytest.raises(_purecore.BudgetExceeded) as err:
        getattr(kernel, fn)(*args)
    return str(err.value), err.value.count


@needs_fast
@pytest.mark.parametrize("n", (22, 23, 30, 64))
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
    count = len(_purecore.dominating_sets(n, adj, k, DEFAULT_CONFIG_CAP))
    if count:
        assert both("dominating_sets", n, adj, k, count) != []
        assert raised(_fastcore, "dominating_sets", n, adj, k, count - 1) == raised(
            _purecore, "dominating_sets", n, adj, k, count - 1)


# -- out-of-range input ---------------------------------------------------------

# In a child process: a kernel that reads past its fixed 64-slot arrays
# may crash, and a crash must fail the test, not end pytest.  Each entry
# point gets its arguments after (n, adj); every bad (n, adj) must be
# refused with ValueError before any row is used.
RANGE_SCRIPT = """
import json
from etdom._kernel import _fastcore, _purecore
ENTRY_ARGS = {
    "canon": (), "max_clique": (), "maximal_cliques": (), "clique_cover": (),
    "max_matching": (), "domination_number": (), "dominating_sets": (1, 8),
    "eternal_fixpoint": (1, [1]), "augment": (_purecore.MODE_ALL,),
}
BAD_GRAPHS = {"n=-1": (-1, []), "n=65": (65, [0] * 65), "n=2**70": (2 ** 70, []),
              "short adj": (3, [0, 0]), "long adj": (2, [0, 0, 0]),
              "mask past n": (2, [0b100, 0]), "negative mask": (2, [0, -1]),
              "mask past 2**64": (64, [2 ** 64] + [0] * 63)}
calls = [(f"{fn} {case}", fn, graph + rest)
         for fn, rest in ENTRY_ARGS.items() for case, graph in BAD_GRAPHS.items()]
calls.append(("dominating_sets k=-1", "dominating_sets", (3, [0, 0, 0], -1, 8)))
out = {}
for label, fn, args in calls:
    for name, kernel in (("pure", _purecore), ("fast", _fastcore)):
        try:
            got = ["returned", repr(getattr(kernel, fn)(*args))]
        except Exception as exc:
            got = [type(exc).__name__, str(exc)]
        out.setdefault(label, {})[name] = got
print(json.dumps(out))
"""


@needs_fast
def test_out_of_range_input_raises_value_error():
    src = str(Path(_purecore.__file__).resolve().parents[2])
    proc = subprocess.run(
        [sys.executable, "-c", RANGE_SCRIPT], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    results = json.loads(proc.stdout)
    assert len(results) == 9 * 8 + 1
    for label, got in results.items():
        assert got["pure"][0] == "ValueError", (label, got)
        assert got["fast"] == got["pure"], (label, got)
