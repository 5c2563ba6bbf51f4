"""The compiled kernel (_fastcore) against the pure reference (_purecore).

Every entry point must return exactly the same value, in the same order,
on seeded random graphs; budget refusals must raise the same exception
with the same count, and out-of-range input must raise the same
ValueError.  augment and screen take packed graphs (graph6.pack), which
pass 64 bits from order 12 on, so they are also checked there.  The
comparisons skip when the compiled kernel is not built
(``python setup.py build_ext --inplace``).  The compile check of the C
source and the pickling of ``BudgetExceeded`` run on every checkout.
"""

import itertools
import json
import os
import pickle
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from etdom import decode
from etdom._kernel import _purecore
from etdom.canon import canonical_graph
from etdom.eternal import DEFAULT_CONFIG_CAP
from etdom.graph6 import pack, unpack
from etdom.graphs import Graph, complete_graph, empty_graph

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


def grown_triangle_free(rng, n, p):
    """Adjacency masks of a triangle-free graph grown by random edges; with
    p = 1 every candidate edge is kept, so the graph is maximal."""
    adj = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if not adj[u] & adj[v] and rng.random() < p:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def _adjacency(draw, n):
    """A G(n, p) graph or a grown triangle-free graph, as adjacency masks."""
    p = draw(st.sampled_from((0.0, 0.15, 0.35, 0.5, 0.85, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    if not draw(st.booleans()):
        return list(rand_graph(rng, n, p).adj)
    return grown_triangle_free(rng, n, max(p, 0.5))


@st.composite
def graphs(draw, max_n=11):
    """(n, adj) of a random graph; see _adjacency."""
    n = draw(st.integers(0, max_n))
    return n, _adjacency(draw, n)


@st.composite
def packed_batches(draw, min_n=0, max_n=11, max_size=4):
    """(n, packed) of a few random order-n graphs; see _adjacency."""
    n = draw(st.integers(min_n, max_n))
    size = draw(st.integers(0, max_size))
    return n, [pack(n, _adjacency(draw, n)) for _ in range(size)]


def both(fn, *args):
    """fn on each backend; asserts equal results and returns them."""
    want = getattr(_purecore, fn)(*args)
    got = getattr(_fastcore, fn)(*args)
    assert got == want, f"{fn}{args[:1]}: fast {got!r} != pure {want!r}"
    return want


# -- the C source -------------------------------------------------------------

SOURCE = Path(__file__).resolve().parents[1] / "src" / "etdom" / "_kernel" / "_fastcore.c"


def test_fastcore_c_compiles(tmp_path):
    # _fastcore.c is hand-written: it must compile without a warning
    # wherever the extension is built, whether or not it is built here.
    # A full -O2 compile also runs the warnings that need data-flow
    # analysis (uninitialised values, array bounds), which -fsyntax-only skips.
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) on PATH")
    include = sysconfig.get_paths()["include"]
    proc = subprocess.run(
        [cc, "-Wall", "-Wextra", "-Werror", "-O2", "-fPIC", "-c", f"-I{include}",
         str(SOURCE), "-o", str(tmp_path / "_fastcore.o")],
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
    # 64 vertices fill the mask word: the full vertex set is 2**64 - 1, and
    # a packed graph holds 2016 bits (canon and augment at n = 64 are
    # checked above and below)
    half = (1 << 32) - 1
    star = [(1 << 64) - 2] + [1] * 63
    bipartite = [half << 32] * 32 + [half] * 32
    for adj in (list(complete_graph(64).adj), list(empty_graph(64).adj), star, bipartite):
        both("screen", 64, [pack(64, adj)], SCREEN_SEQUENCES[-1])
        for fn in ("max_clique", "maximal_cliques", "clique_cover"):
            both(fn, 64, adj)
        gamma = both("domination_number", 64, adj)
        both("dominating_sets", 64, adj, gamma, DEFAULT_CONFIG_CAP)
        both("guard_game", 64, adj, gamma, DEFAULT_CONFIG_CAP)


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


@needs_fast
@seeded
@given(graphs())
def test_domination_and_fixpoint(graph):
    n, adj = graph
    both("domination_number", n, adj)
    for k in range(n + 2):
        configs = both("dominating_sets", n, adj, k, DEFAULT_CONFIG_CAP)
        count, survivors = both("guard_game", n, adj, k, DEFAULT_CONFIG_CAP)
        assert count == len(configs) and set(survivors) <= set(configs)


@needs_fast
@seeded
@given(packed_batches(max_n=8, max_size=2))
def test_augment(batch):
    for mode in MODES:
        for emit_connected, emit_mtf in EMIT_FLAGS:
            both("augment", *batch, mode, emit_connected, emit_mtf)


@pytest.mark.parametrize("kernel", BACKENDS)
def test_augment_children_are_packed_canonical_graphs(kernel):
    # children come back in the graph6.pack layout, already canonical,
    # and a batch returns each parent's children in turn
    parents = [pack(5, g.adj) for g in (complete_graph(5), empty_graph(5))]
    children = [kernel.augment(5, [p], _purecore.MODE_ALL) for p in parents]
    assert kernel.augment(5, parents, _purecore.MODE_ALL) == children[0] + children[1]
    for p in children[0] + children[1]:
        g = Graph(6, unpack(6, p))
        assert pack(6, canonical_graph(g).adj) == p


# triangle-free parents that have maximal triangle-free children
MTF_PARENTS = ("DFw", "F?~v_")


@needs_fast
@pytest.mark.parametrize("parent", MTF_PARENTS)
def test_augment_mtf_parents(parent):
    g = decode(parent)
    parents = [pack(g.n, g.adj)]
    for mode in MODES:
        for emit_connected, emit_mtf in EMIT_FLAGS:
            both("augment", g.n, parents, mode, emit_connected, emit_mtf)
    assert both("augment", g.n, parents, _purecore.MODE_TRIANGLE_FREE, True, True)


@needs_fast
def test_augment_past_64_bits():
    # order-12 parents hold 66 bits and their children 78; in triangle-free
    # mode only independent subsets are tried, which keeps the pure kernel quick
    rng = random.Random(12)
    parents = [pack(12, grown_triangle_free(rng, 12, p)) for p in (1.0, 1.0, 0.7, 0.4)]
    for emit_connected, emit_mtf in EMIT_FLAGS:
        children = both("augment", 12, parents, _purecore.MODE_TRIANGLE_FREE,
                        emit_connected, emit_mtf)
        assert children or emit_mtf


@needs_fast
def test_augment_order_21():
    # the largest order augment takes: a maximal triangle-free parent with
    # 210 bits, children with 231
    adj = grown_triangle_free(random.Random(5), 21, 1.0)
    children = both("augment", 21, [pack(21, adj)], _purecore.MODE_TRIANGLE_FREE, True)
    assert children and all(p >> 64 for p in children)


# every sequence of distinct codes among the five invariant tests the
# screen started with, the empty one included (with all eleven codes
# there would be about 1.1e8 sequences)
SCREEN_SEQUENCES = [seq for k in range(6) for seq in itertools.permutations(range(5), k)]
# every ordered pair and triple of distinct codes among all the tests
SCREEN_PAIRS_TRIPLES = [seq for k in (2, 3)
                        for seq in itertools.permutations(range(len(_purecore.SCREEN_TESTS)), k)]


@needs_fast
@seeded
@given(packed_batches(), st.lists(st.integers(0, len(_purecore.SCREEN_TESTS) - 1),
                                  max_size=8))
def test_screen(batch, tests):
    n, packed = batch
    got = both("screen", n, packed, tests)
    assert type(got) is bytes and len(got) == len(packed)


@needs_fast
def test_screen_every_test_sequence():
    rng = random.Random(11)
    for n in range(9):
        packed = [pack(n, rand_graph(rng, n, p).adj) for p in (0.2, 0.4, 0.6, 0.8)]
        for tests in SCREEN_SEQUENCES:
            both("screen", n, packed, tests)
            both("screen", n, tuple(packed), list(tests))


@needs_fast
@settings(seeded, max_examples=100)
@given(packed_batches(min_n=12, max_n=14, max_size=2), st.sampled_from(SCREEN_SEQUENCES))
def test_screen_past_64_bits(batch, tests):
    both("screen", *batch, tests)


@needs_fast
def test_screen_every_pair_and_triple():
    rng = random.Random(13)
    for n in range(9):
        packed = [pack(n, rand_graph(rng, n, p).adj) for p in (0.2, 0.4, 0.6, 0.8)]
        for tests in SCREEN_PAIRS_TRIPLES:
            both("screen", n, packed, tests)


@needs_fast
@settings(seeded, max_examples=100)
@given(packed_batches(min_n=12, max_n=14, max_size=2), st.sampled_from(SCREEN_PAIRS_TRIPLES))
def test_screen_pairs_and_triples_past_64_bits(batch, tests):
    both("screen", *batch, tests)


@needs_fast
def test_constants():
    for name in ("MODE_ALL", "MODE_TRIANGLE_FREE", "SCREEN_TESTS"):
        assert getattr(_fastcore, name) == getattr(_purecore, name)
    assert (_purecore.BACKEND_NAME, _fastcore.BACKEND_NAME) == ("pure", "fast")


def raised(kernel, fn, *args):
    with pytest.raises(_purecore.BudgetExceeded) as err:
        getattr(kernel, fn)(*args)
    return str(err.value), err.value.count


@needs_fast
@pytest.mark.parametrize("n", (22, 23, 30, 64))
def test_augment_refuses_large_parents(n):
    parents = [pack(n, empty_graph(n).adj)]
    for mode in MODES:
        assert raised(_fastcore, "augment", n, parents, mode) == raised(
            _purecore, "augment", n, parents, mode)


@needs_fast
@seeded
@given(graphs(max_n=10), st.integers(0, 3))
def test_dominating_sets_cap(graph, extra):
    n, adj = graph
    k = _purecore.domination_number(n, adj) + extra
    count = len(_purecore.dominating_sets(n, adj, k, DEFAULT_CONFIG_CAP))
    if count:
        assert both("dominating_sets", n, adj, k, count) != []
        assert both("guard_game", n, adj, k, count)[0] == count
        for fn in ("dominating_sets", "guard_game"):
            assert raised(_fastcore, fn, n, adj, k, count - 1) == raised(
                _purecore, fn, n, adj, k, count - 1)


# -- out-of-range input ---------------------------------------------------------

# In a child process: a kernel that reads past its fixed 64-slot arrays
# may crash, and a crash must fail the test, not end pytest.  Each entry
# point gets its arguments after (n, adj), or after (n, packed graphs);
# every bad order, graph or packed graph must be refused with ValueError
# before any row is used.
RANGE_SCRIPT = """
import json
from etdom._kernel import _fastcore, _purecore
ENTRY_ARGS = {
    "canon": (), "max_clique": (), "maximal_cliques": (), "clique_cover": (),
    "domination_number": (), "dominating_sets": (1, 8), "guard_game": (1, 8),
}
PACKED_ENTRY_ARGS = {"augment": (_purecore.MODE_ALL,), "screen": ([0, 1],)}
BAD_GRAPHS = {"n=-1": (-1, []), "n=65": (65, [0] * 65), "n=2**70": (2 ** 70, []),
              "short adj": (3, [0, 0]), "long adj": (2, [0, 0, 0]),
              "mask past n": (2, [0b100, 0]), "negative mask": (2, [0, -1]),
              "mask past 2**64": (64, [2 ** 64] + [0] * 63)}
BAD_PACKED = {"n=-1": (-1, [0]), "n=65": (65, [0]), "n=2**70": (2 ** 70, [0]),
              "negative": (3, [0, -1]), "negative past 64 bits": (12, [-(2 ** 65)]),
              "past n(n-1)/2 bits": (3, [0, 0b1000]), "past 66 bits": (12, [2 ** 66]),
              "past 2016 bits": (21, [2 ** 2016 + 1]), "past 2**64 at n=3": (3, [2 ** 64])}
calls = [(f"{fn} {case}", fn, graph + rest)
         for fn, rest in ENTRY_ARGS.items() for case, graph in BAD_GRAPHS.items()]
calls += [(f"{fn} {case}", fn, (n, packed) + rest)
          for fn, rest in PACKED_ENTRY_ARGS.items() for case, (n, packed) in BAD_PACKED.items()]
calls.append(("dominating_sets k=-1", "dominating_sets", (3, [0, 0, 0], -1, 8)))
calls.append(("guard_game k=-1", "guard_game", (3, [0, 0, 0], -1, 8)))
unknown = len(_purecore.SCREEN_TESTS)
calls.append((f"screen test code {unknown}", "screen", (3, [0], [0, unknown])))
calls.append(("screen test code -1", "screen", (3, [0], [-1])))
calls.append(("screen test code 2**70", "screen", (3, [0], [2 ** 70])))
calls.append(("screen 256 tests", "screen", (3, [0], [0] * 256)))
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
    assert len(results) == 7 * 8 + 2 * 9 + 6
    for label, got in results.items():
        assert got["pure"][0] == "ValueError", (label, got)
        assert got["fast"] == got["pure"], (label, got)


# -- unbalanced complete bipartite graphs ---------------------------------------

# On K(a, a+1) the greedy independent set of the cover search is one short
# of the greedy cover, so without the exact-alpha bound nothing is pruned
# and every ordering of the edges is tried.  In a child process with a
# timeout, so that a search that never returns fails the test.
BIPARTITE_SCRIPT = """
import importlib, sys
from etdom.graph6 import pack
kernel = importlib.import_module("etdom._kernel." + sys.argv[1])

def complete_bipartite(a, b):
    left = (1 << a) - 1
    right = ((1 << (a + b)) - 1) ^ left
    return a + b, [right] * a + [left] * b

vertex_critical = [kernel.SCREEN_TESTS.index("vertex_critical")]
n, adj = complete_bipartite(12, 13)
assert kernel.clique_cover(n, adj, 0) == 13
n, adj = complete_bipartite(31, 32)
assert kernel.clique_cover(n, adj, 31) == 32
for a in (13, 32):
    n, adj = complete_bipartite(a, a)
    assert kernel.screen(n, [pack(n, adj)], vertex_critical) == b"\\x00", a
"""


@pytest.mark.parametrize("kernel", [pytest.param("_purecore", id="pure"),
                                    pytest.param("_fastcore", marks=needs_fast, id="fast")])
def test_cover_of_unbalanced_complete_bipartite_returns(kernel):
    src = str(Path(_purecore.__file__).resolve().parents[2])
    proc = subprocess.run(
        [sys.executable, "-c", BIPARTITE_SCRIPT, kernel], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


# -- configurations that agree on their low vertices -------------------------------

# A path of hubs, each with two pendant leaves, and a long cycle hung off
# the last hub: most dominating k-sets agree on the low (hub and leaf)
# vertices and differ only on the cycle.  A table slot taken from the low
# bits of the hash product depends only on the low vertices, so these
# configurations all chain into a few slots and each lookup walks the
# chain; at n = 45 that fixpoint took 14 s, at n = 60 more than 100 s.  In
# a child process with a timeout, so that such a fixpoint fails the test.
HASH_SCRIPT = """
import importlib, sys
kernel = importlib.import_module("etdom._kernel." + sys.argv[1])

def caterpillar_with_cycle(hubs, cycle):
    n = 3 * hubs + cycle
    adj = [0] * n
    def edge(u, v):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for h in range(hubs - 1):
        edge(h, h + 1)
    for h in range(hubs):
        edge(h, hubs + 2 * h)
        edge(h, hubs + 2 * h + 1)
    for i in range(cycle):
        edge(3 * hubs + i, 3 * hubs + (i + 1) % cycle)
    edge(hubs - 1, 3 * hubs)
    return n, adj

# (hubs, cycle length, k, dominating k-sets); none of them survives
cases = [(6, 27, 17, 35484)]
if sys.argv[1] == "_fastcore":
    cases.append((8, 36, 22, 138452))  # n = 60 takes 15 s in the pure kernel
for hubs, cycle, k, configs in cases:
    n, adj = caterpillar_with_cycle(hubs, cycle)
    assert kernel.guard_game(n, adj, k, 1 << 26) == (configs, []), n
"""


@pytest.mark.parametrize("kernel, seconds", [
    pytest.param("_purecore", 60, id="pure"),
    pytest.param("_fastcore", 20, marks=needs_fast, id="fast")])
def test_guard_game_hash_spreads_high_vertices(kernel, seconds):
    src = str(Path(_purecore.__file__).resolve().parents[2])
    proc = subprocess.run(
        [sys.executable, "-c", HASH_SCRIPT, kernel], capture_output=True,
        text=True, timeout=seconds, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
