"""Batch engine: ordered filter chains over graph streams.

Every reference table and every bundled catalogue is defined once, as
data: a graph source and an ordered chain of ``FILTERS`` names.  One
streaming evaluator reports, for each source graph, how many leading
filters of the chain it passes.  It reads per-order chunks of packed
graphs (graph6.pack); the kernel's ``screen`` runs the chain's leading
filters that play no guard game (invariant, cover-criticality and
structural tests) on a whole chunk, and only the graphs that pass them
become a ``Graph`` for the rest of the chain.  A table row is the
source total plus the survivors of each stage (the circulant table
lists the labels of its full matches instead); a catalogue line fails
with the name of its first failing filter; ``run_filter`` adds the cost
sort of the chain and the canonical sort of the matches.

Reports are deterministic: workers only shard per-graph evaluation and
results are merged in input order, so identical inputs and settings
produce byte-identical output.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain as chained, islice
from multiprocessing import Pool
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import _kernel
from ._kernel import BudgetExceeded
from .canon import canonical_form
from .constructions import CirculantSpec, circulant
from .eternal import DEFAULT_CONFIG_CAP, can_defend, eternal_domination_number
from .generate import Layer, enumerate_circulants, final_layer
from .graph6 import decode, encode, pack, unpack
from .graphs import (
    Graph,
    is_claw_free,
    is_connected,
    is_cubic,
    is_maximal_triangle_free,
    is_triangle_free,
    is_two_connected,
)
from .invariants import (
    InvariantRecord,
    clique_cover_number,
    domination_number,
    independence_number,
    is_critical,
    is_edge_critical,
    is_vertex_critical,
)


def default_workers() -> int:
    env = os.environ.get("ETDOM_WORKERS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


class Analysis:
    """Lazy per-graph invariant access with caching."""

    def __init__(self, g: Graph, cap: int = DEFAULT_CONFIG_CAP):
        self.g = g
        self.cap = cap
        self._cache: dict[str, object] = {}

    def _get(self, key: str, fn: Callable):
        if key not in self._cache:
            self._cache[key] = fn(self.g)
        return self._cache[key]

    @property
    def alpha(self) -> int:
        return self._get("alpha", independence_number)

    @property
    def theta(self) -> int:
        if "theta" not in self._cache:
            self._cache["theta"] = clique_cover_number(self.g, lower_bound=self.alpha)
        return self._cache["theta"]

    @property
    def gamma(self) -> int:
        return self._get("gamma", domination_number)

    @property
    def gamma_inf(self) -> int:
        if "gamma_inf" not in self._cache:
            self._cache["gamma_inf"] = eternal_domination_number(
                self.g, alpha=self.alpha, theta=self.theta, cap=self.cap
            )
        return self._cache["gamma_inf"]

    def to_record(self, *, criticality: bool = False) -> InvariantRecord:
        """Materialise the invariant record; the eternal number stays
        implied (not recomputed) when the independence/cover bracket
        already closes."""
        g = self.g
        rec = InvariantRecord(
            n=g.n,
            alpha=self.alpha,
            gamma=self.gamma,
            theta=self.theta,
            triangle_free=is_triangle_free(g),
            claw_free=is_claw_free(g),
            cubic=is_cubic(g),
            two_connected=is_two_connected(g),
        )
        if self.alpha == self.theta:
            rec.gamma_inf = self.alpha
            rec.gamma_inf_implied = True
        else:
            rec.gamma_inf = self.gamma_inf
        if criticality:
            rec.vertex_critical = is_vertex_critical(g)
            rec.edge_critical = is_edge_critical(g)
        return rec


def _alpha_half(a: Analysis) -> bool:
    return a.alpha == a.g.n // 2


def _theta_half(a: Analysis) -> bool:
    return a.theta == (a.g.n + 1) // 2


# name -> (cost rank, predicate); run_filter orders its chain cheapest-first,
# tables and catalogues keep the order they are defined in
FILTERS: dict[str, tuple[int, Callable[[Analysis], bool]]] = {
    "connected": (0, lambda a: is_connected(a.g)),
    "triangle_free": (1, lambda a: is_triangle_free(a.g)),
    "cubic": (1, lambda a: is_cubic(a.g)),
    "claw_free": (2, lambda a: is_claw_free(a.g)),
    "maximal_triangle_free": (2, lambda a: is_maximal_triangle_free(a.g)),
    "two_connected": (2, lambda a: is_two_connected(a.g)),
    "alpha_lt_theta": (5, lambda a: a.alpha < a.theta),
    "alpha_half": (5, _alpha_half),
    "theta_half": (5, _theta_half),
    "gamma_eq_alpha": (5, lambda a: a.gamma == a.alpha),
    "gamma_eq_theta": (5, lambda a: a.gamma == a.theta),
    "half_alpha": (5, lambda a: a.g.n % 2 == 1 and _alpha_half(a) and _theta_half(a)),
    # gamma <= alpha <= gamma_inf, so gamma = gamma_inf exactly when
    # gamma = alpha and gamma guards defend; no larger guard count is tried
    "gamma_eq_gamma_inf": (
        6,
        lambda a: a.gamma == a.alpha
        and (a.g.n == 0 or can_defend(a.g, a.gamma, cap=a.cap)),
    ),
    "vertex_critical": (7, lambda a: is_vertex_critical(a.g)),
    "edge_critical": (8, lambda a: is_edge_critical(a.g)),
    "critical": (8, lambda a: is_critical(a.g)),
    "gamma_inf_lt_theta": (9, lambda a: a.gamma_inf < a.theta),
    "gamma_inf_eq_alpha": (9, lambda a: a.gamma_inf == a.alpha),
}


@dataclass
class ReportRow:
    """One filter run: totals, per-stage survivor counts, matches.

    aborted counts graphs whose evaluation hit the configuration-space
    budget; any nonzero value marks the whole row non-authoritative.
    """

    n: Optional[int]
    total: int
    stages: list[tuple[str, int]]
    matches: list[str]
    elapsed: float
    aborted: int = 0

    def final_count(self) -> int:
        return self.stages[-1][1] if self.stages else self.total


def order_filters(names: Sequence[str]) -> list[str]:
    for name in names:
        if name not in FILTERS:
            raise ValueError(f"unknown filter {name!r}; known: {sorted(FILTERS)}")
    return sorted(names, key=lambda nm: (FILTERS[nm][0], names.index(nm)))


def _reach(g: Graph, chain: Sequence[str], cap: int, start: int = 0) -> int:
    """How many leading filters of chain g passes, given that it passes
    the first start of them."""
    a = Analysis(g, cap=cap)
    for passed in range(start, len(chain)):
        if not FILTERS[chain[passed]][1](a):
            return passed
    return len(chain)


def _screened(chain: Sequence[str]) -> int:
    """Length of the chain's leading run of filters the kernel screens."""
    lead = 0
    while lead < len(chain) and chain[lead] in _kernel.SCREEN_TESTS:
        lead += 1
    return lead


# a chunk of graphs of one order: (n, packed graphs)
Chunk = tuple[int, list[int]]


def _unpacked(n: int, p: int) -> Graph:
    return Graph(n, unpack(n, p))


def _reach_batch(args: tuple[int, list[int], Sequence[str], int]) -> list[int]:
    """_reach of each packed graph of a chunk, -1 where the configuration
    budget was hit.  The leading screened run of the chain is decided in
    the kernel; a Graph is built only for a graph that passes it."""
    n, packed, chain, cap = args
    lead = _screened(chain)
    if lead:
        codes = [_kernel.SCREEN_TESTS.index(name) for name in chain[:lead]]
        reached = _kernel.screen(n, packed, codes)
    else:
        reached = bytes(len(packed))
    out = []
    for p, r in zip(packed, reached):
        if r == lead < len(chain):
            try:
                r = _reach(_unpacked(n, p), chain, cap, lead)
            except BudgetExceeded:
                r = -1
        out.append(r)
    return out


def _batches(items: Iterable, size: int) -> Iterator[list]:
    it = iter(items)
    while batch := list(islice(it, size)):
        yield batch


def _packed(graphs: Iterable[Graph], size: int = 1024) -> Iterator[Chunk]:
    """Chunks of at most size graphs of one order, packed in their own
    labelling, in source order."""
    n, chunk = None, []
    for g in graphs:
        if g.n != n or len(chunk) >= size:
            if chunk:
                yield n, chunk
            n, chunk = g.n, []
        chunk.append(pack(g.n, g.adj))
    if chunk:
        yield n, chunk


def _layer_chunks(layer: Layer, size: int = 1024) -> Iterator[Chunk]:
    return ((layer.n, batch) for batch in layer.batches(size))


def _pooled(tasks: Iterator[tuple], workers: int) -> Iterator[tuple[tuple, list[int]]]:
    # a bounded window of chunks in flight keeps memory flat on long sources
    with Pool(workers) as pool:
        for window in _batches(tasks, 4 * workers):
            yield from zip(window, pool.map(_reach_batch, window))


def _evaluate(
    chunks: Iterable[Chunk], chain: Sequence[str], *, workers: int = 1,
    cap: int = DEFAULT_CONFIG_CAP, count_aborts: bool = False,
) -> Iterator[tuple[int, int, int]]:
    """Yield (n, packed graph, reached) per source graph, in source order,
    where reached is how many leading filters of chain the graph passes.

    The source is read chunk by chunk; a pool of workers shares the
    chunks once the source holds more than two of them.  A graph that
    hits the configuration budget yields reached = -1 with count_aborts,
    and raises BudgetExceeded otherwise.
    """
    tasks = ((n, packed, chain, cap) for n, packed in chunks)
    head = list(islice(tasks, 3)) if workers > 1 else []
    tasks = chained(head, tasks)
    if len(head) == 3:
        results = _pooled(tasks, workers)
    else:
        results = ((task, _reach_batch(task)) for task in tasks)
    for (n, packed, _, _), reached in results:
        for p, r in zip(packed, reached):
            if r < 0 and not count_aborts:
                # budget hits repeat: this raises it here
                _reach(_unpacked(n, p), chain, cap)
            yield n, p, r


@dataclass
class _Tally:
    """Per-stage survivor counts of one evaluation."""

    counts: list[int]
    total: int = 0
    aborted: int = 0

    def add(self, reached: int) -> bool:
        """Count one graph; True when it passed the whole chain."""
        self.total += 1
        if reached < 0:
            self.aborted += 1
            return False
        for stage in range(reached):
            self.counts[stage] += 1
        return reached == len(self.counts)


def run_filter(
    chunks: Iterable[Chunk],
    filter_names: Sequence[str],
    *,
    n: Optional[int] = None,
    workers: int = 1,
    cap: int = DEFAULT_CONFIG_CAP,
) -> ReportRow:
    """Apply an ordered predicate chain, cheapest filter first, to chunks
    of packed graphs (a Graph stream goes through _packed); survivors of
    the whole chain are returned as graph6 lines sorted by canonical
    form.  Only graphs that pass the kernel screen become a Graph."""
    chain = order_filters(filter_names)
    t0 = time.monotonic()
    tally = _Tally([0] * len(chain))
    matches = [
        _unpacked(m, p)
        for m, p, r in _evaluate(chunks, chain, workers=workers, cap=cap,
                                 count_aborts=True)
        if tally.add(r)
    ]
    matches.sort(key=canonical_form)
    return ReportRow(
        n=n,
        total=tally.total,
        stages=list(zip(chain, tally.counts)),
        matches=[encode(g) for g in matches],
        elapsed=time.monotonic() - t0,
        aborted=tally.aborted,
    )


# ---------------------------------------------------------------------------
# Reference tables.
# ---------------------------------------------------------------------------

# Expected cells transcribed from the published computation; reproductions
# compare against these and flag divergence loudly.
EXPECTED_T1 = {
    5: (21, 1, 1, 1, 0),
    6: (112, 3, 0, 0, 0),
    7: (853, 33, 8, 3, 0),
    8: (11117, 498, 7, 4, 0),
    9: (261080, 16539, 353, 38, 0),
    10: (11716571, 975676, 5159, 290, 1),
}
EXPECTED_T2 = {
    5: (6, 1, 1, 0),
    7: (59, 8, 8, 0),
    9: (1380, 276, 276, 0),
    11: (90842, 29660, 29660, 0),
    13: (19425052, 9606337, 9606334, 0),
}
EXPECTED_T3 = {
    5: (3, 1, 1, 0),
    7: (6, 1, 1, 0),
    9: (16, 5, 5, 0),
    11: (61, 23, 23, 0),
    13: (392, 172, 172, 0),
    15: (5036, 1837, 1837, 0),
}
EXPECTED_T4 = {
    3: [], 4: [], 5: [], 6: [], 7: [], 8: [], 9: [], 10: [], 11: [], 12: [],
    13: ["C13[1,3,4]", "C13[1,2,3,5]"],
    14: [],
    15: ["C15[1,3,4]"],
    16: ["C16[1,2,4,5]", "C16[1,2,3,4,6]"],
    17: ["C17[1,2,4,8]", "C17[1,2,3,5,6]", "C17[1,2,3,5,8]"],
    18: ["C18[1,3,8]", "C18[1,2,4,5,6]", "C18[1,2,4,5,6,9]"],
    19: ["C19[1,4,6]", "C19[1,3,5,6]", "C19[1,2,3,4,5,7]", "C19[1,2,3,5,7,8]"],
    20: [
        "C20[1,5,8]", "C20[2,5,6]", "C20[1,6,8,9]", "C20[1,2,4,5,6]",
        "C20[1,2,4,5,7]", "C20[1,2,5,7,8]", "C20[1,2,3,4,5,7,8]",
        "C20[1,2,3,4,6,7,10]", "C20[1,3,4,7,8,9,10]",
    ],
}
EXPECTED_T6 = {
    4: (1, 0, 0),
    6: (2, 0, 0),
    8: (5, 2, 0),
    10: (19, 9, 0),
    12: (85, 46, 0),
    14: (509, 320, 0),
    16: (4060, 2888, 0),
}
EXPECTED_T7 = {
    5: (21, 6, 5, 5),
    6: (112, 24, 22, 22),
    7: (853, 88, 67, 67),
    8: (11117, 524, 358, 358),
    9: (261080, 4515, 2265, 2265),
    10: (11716571, 73515, 23394, 23394),
}


@dataclass(frozen=True)
class Table:
    """A reference table with one row per order n in ``ns``.

    A row counts the ``source`` graphs of order n (a ``final_layer``
    constraint, or "circulant" for the circulant enumeration) that pass
    each successive filter of ``chain``; the circulant table lists the
    labels of its full matches instead.
    """

    ns: range
    scope: tuple[int, int]  # row ceilings by default and with --large
    header: tuple[str, ...]
    expected: dict
    source: str
    chain: tuple[str, ...]
    large_note: str  # what the --large rows cost, where measured


TABLES = {
    "T1": Table(
        range(5, 11), (9, 10),
        ("n", "total", "alpha_lt_theta", "vertex_critical", "critical",
         "critical_eternal_lt_cover"),
        EXPECTED_T1, "all",
        ("alpha_lt_theta", "vertex_critical", "edge_critical", "gamma_inf_lt_theta"),
        "n=10 scans 11.7M graphs: 78 s and 0.5 GB peak RSS with one worker "
        "(measured on a 2-vCPU machine)",
    ),
    "T2": Table(
        range(5, 14, 2), (11, 13),
        ("n", "total", "alpha_half", "alpha_half_theta", "eternal_eq_alpha"),
        EXPECTED_T2, "triangle_free",
        ("alpha_half", "theta_half", "gamma_inf_eq_alpha"),
        "n=13 scans 19.4M triangle-free graphs: expect several hours",
    ),
    "T3": Table(
        range(5, 16, 2), (13, 15),
        ("n", "total", "alpha_half", "alpha_half_theta", "eternal_eq_alpha"),
        EXPECTED_T3, "maximal_triangle_free",
        ("alpha_half", "theta_half", "gamma_inf_eq_alpha"),
        "n=15 generates all triangle-free graphs of order 15: expect a day",
    ),
    "T4": Table(
        range(3, 21), (16, 20),
        ("n", "eternal_lt_cover_circulants"),
        EXPECTED_T4, "circulant",
        ("alpha_lt_theta", "gamma_inf_lt_theta"),
        "n=17..20 runs the guard game on dense circulants: 13.8 s "
        "(measured on a 2-vCPU machine)",
    ),
    "T6": Table(
        range(4, 17, 2), (14, 16),
        ("n", "total", "alpha_lt_theta", "eternal_lt_cover"),
        EXPECTED_T6, "cubic",
        ("alpha_lt_theta", "gamma_inf_lt_theta"),
        "n=16 walks 4060 cubic graphs: 18-20 s and 20 MB peak RSS with one "
        "worker (measured on a 2-vCPU machine)",
    ),
    "T7": Table(
        range(5, 11), (8, 10),
        ("n", "total", "gamma_eq_alpha", "gamma_eq_eternal",
         "gamma_eq_eternal_eq_cover"),
        EXPECTED_T7, "all",
        ("gamma_eq_alpha", "gamma_eq_gamma_inf", "gamma_eq_theta"),
        "n=9,10 screens up to 11.7M graphs: 68 s and 0.5 GB peak RSS with one "
        "worker (measured on a 2-vCPU machine)",
    ),
}


@dataclass
class TableReport:
    table: str
    header: list[str]
    rows: list[list[object]]
    expected: dict
    divergent: list[tuple] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.divergent

    def to_tsv(self) -> str:
        out = ["\t".join(self.header)]
        for row in self.rows:
            out.append("\t".join(str(c) for c in row))
        for n in self.skipped:
            out.append(f"{n}\tskipped")
        for d in self.divergent:
            out.append(f"# DIVERGENT {d}")
        return "\n".join(out) + "\n"


def reproduce_table(
    table: str, *, max_n: Optional[int] = None, large: bool = False,
    workers: Optional[int] = None,
) -> TableReport:
    """Recompute one reference table up to max_n and diff it against the
    published cells.  Rows beyond the scope ceiling are marked skipped,
    never fabricated."""
    name = table.upper()
    if name not in TABLES:
        raise ValueError(f"unknown table {table!r} ({', '.join(TABLES)})")
    t = TABLES[name]
    workers = workers or default_workers()
    cap = t.scope[1] if large else t.scope[0]
    if max_n is None:
        max_n = cap

    report = TableReport(table=name, header=list(t.header), rows=[], expected=t.expected)
    for n in t.ns:
        if n > max_n:
            break
        if n > cap:
            report.skipped.append(n)
            continue
        want = t.expected.get(n)
        if t.source == "circulant":
            specs = enumerate_circulants(n)
            results = _evaluate(_packed(circulant(s) for s in specs), t.chain,
                                workers=workers)
            labels = [s.label() for s, (_, _, r) in zip(specs, results)
                      if r == len(t.chain)]
            report.rows.append([n, ";".join(labels) or "-"])
            if _circulant_classes(labels) != _circulant_classes(want):
                report.divergent.append((n, labels, want))
            continue
        tally = _Tally([0] * len(t.chain))
        layer = final_layer(n, t.source, allow_large=True, workers=workers)
        for _, _, r in _evaluate(_layer_chunks(layer), t.chain, workers=workers):
            tally.add(r)
        layer.discard()
        cells = (tally.total, *tally.counts)
        report.rows.append([n, *cells])
        if want is not None and cells != tuple(want):
            report.divergent.append((n, cells, want))
    return report


def _circulant_classes(labels: Iterable[str]) -> set[bytes]:
    return {canonical_form(circulant(_parse_label(s))) for s in labels}


def _parse_label(label: str) -> CirculantSpec:
    """Parse 'C13[1,3,4]' back into a spec."""
    body = label.strip()
    n_part, keys_part = body[1:].split("[", 1)
    keys = tuple(int(k) for k in keys_part.rstrip("]").split(","))
    return CirculantSpec(int(n_part), keys)


# ---------------------------------------------------------------------------
# Catalogue (appendix fixture) verification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Catalogue:
    """A bundled graph list: every line passes ``chain``, and a complete
    list holds every connected ``source`` graph of its orders that does."""

    filename: str
    source: str
    chain: tuple[str, ...]


CATALOGUES = {
    "T8": Catalogue(
        "t8_critical_alpha_lt_theta.g6", "all",
        ("connected", "alpha_lt_theta", "critical"),
    ),
    "T9": Catalogue(
        "t9_eternal_lt_cover.g6", "all",
        ("connected", "alpha_lt_theta", "gamma_inf_lt_theta"),
    ),
    "T10": Catalogue(
        "t10_triangle_free_eternal_lt_cover.g6", "triangle_free",
        ("connected", "triangle_free", "alpha_lt_theta", "gamma_inf_lt_theta"),
    ),
    "T11": Catalogue(
        "t11_maximal_triangle_free_eternal_lt_cover.g6", "maximal_triangle_free",
        ("connected", "maximal_triangle_free", "alpha_lt_theta", "gamma_inf_lt_theta"),
    ),
}


def catalogue_path(list_id: str):
    return resources.files("etdom.data") / CATALOGUES[list_id.upper()].filename


def _read_lines(path) -> list[str]:
    with open(path, "r", encoding="ascii") as fh:
        return [ln.strip() for ln in fh if ln.strip()]


@dataclass
class CatalogueReport:
    list_id: str
    checked: int
    failures: list[tuple[int, str, str]]
    completeness_checked: list[int] = field(default_factory=list)
    completeness_skipped: list[int] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures


def check_catalogue(
    list_id: str, path=None, *, completeness: bool = False, large: bool = False,
    workers: int = 1,
) -> CatalogueReport:
    """Recompute the defining chain on every line of a shipped list; a
    failing line names the first filter it fails.

    With completeness=True, additionally regenerate each order up to 10
    exhaustively and require the list to contain exactly the graphs the
    defining chain accepts; order 10 (an hour-scale search) needs large=True.
    """
    name = list_id.upper()
    if name not in CATALOGUES:
        raise ValueError(f"unknown catalogue {list_id!r} ({', '.join(CATALOGUES)})")
    cat = CATALOGUES[name]
    lines = _read_lines(catalogue_path(name) if path is None else path)
    graphs = [decode(line) for line in lines]
    report = CatalogueReport(list_id=name, checked=len(lines), failures=[])
    for i, (_, _, r) in enumerate(_evaluate(_packed(graphs), cat.chain, workers=workers)):
        if r < len(cat.chain):
            report.failures.append((i, lines[i], f"fails {cat.chain[r]}"))
    if completeness:
        for n in sorted({g.n for g in graphs}):
            if n > 10 or (n == 10 and not large):
                report.completeness_skipped.append(n)
                continue
            layer = final_layer(n, cat.source, allow_large=large, workers=workers)
            found = {
                canonical_form(_unpacked(m, p))
                for m, p, r in _evaluate(_layer_chunks(layer), cat.chain, workers=workers)
                if r == len(cat.chain)
            }
            layer.discard()
            listed = {canonical_form(g) for g in graphs if g.n == n}
            if found != listed:
                report.failures.append(
                    (-1, f"order {n}", f"list has {len(listed)} classes, "
                                       f"exhaustive search finds {len(found)}")
                )
            report.completeness_checked.append(n)
    return report


def catalogue_lines(list_id: str, *, order: Optional[int] = None) -> list[str]:
    lines = _read_lines(catalogue_path(list_id))
    if order is not None:
        lines = [ln for ln in lines if decode(ln).n == order]
    return lines


def analyze_stream(
    graphs: Iterable[tuple[int, Graph]], *, criticality: bool = False
) -> Iterator[str]:
    """Self-describing one-line records for each input graph.

    The eternal number prints as '=theta implied' when the
    independence/cover bracket closes without running the game, keeping
    reports honest about what was actually computed.
    """
    for idx, g in graphs:
        rec = Analysis(g).to_record(criticality=criticality)
        parts = [
            f"index={idx}",
            f"graph6={encode(g)}",
            f"n={rec.n}",
            f"alpha={rec.alpha}",
            f"gamma={rec.gamma}",
            f"theta={rec.theta}",
        ]
        if rec.gamma_inf_implied:
            parts.append(f"gamma_inf={rec.gamma_inf}(=theta implied)")
        else:
            parts.append(f"gamma_inf={rec.gamma_inf}")
        parts.append(f"connected={'yes' if is_connected(g) else 'no'}")
        parts.append(f"triangle_free={'yes' if rec.triangle_free else 'no'}")
        if criticality:
            parts.append(f"vertex_critical={'yes' if rec.vertex_critical else 'no'}")
            parts.append(f"edge_critical={'yes' if rec.edge_critical else 'no'}")
        yield " ".join(parts)
