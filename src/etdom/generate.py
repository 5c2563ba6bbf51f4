"""Isomorph-free exhaustive generation of small graphs.

General and triangle-free graphs grow one vertex per layer by canonical
augmentation: a child is kept exactly when its new vertex sits in the
orbit of the canonical deletion vertex, so no seen-set is needed and
layers can be sharded across workers.  Connectivity is filtered at
emission; the layer itself keeps disconnected graphs because deleting
the canonical vertex of a connected graph may disconnect it.  Layers
hold each graph as one packed int (graph6.pack), in RAM, in spill files
and through the worker pool; the kernel takes a batch of packed parents
and returns their packed children, validating each parent as it unpacks
it.  final_layer hands the last layer on unsorted, for counting;
generate_packed sorts it, and generate_connected builds Graph values
from that.

Cubic graphs use a different ladder: subdivide two distinct edges of a
(possibly disconnected) cubic graph two orders down and join the new
vertices, insert diamonds, and add disjoint unions for the disconnected
part.  The ladder works on tuples of adjacency rows and deduplicates
them by packed canonical certificate (graph6.pack of the kernel's canon
rows), so it builds no Graph and no graph6 text per child.  The known
connected counts (1, 2, 5, 19, 85, 509, 4060 for n = 4..16) pin the
method's completeness in the test suite.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from multiprocessing import Pool
from typing import Iterator

from . import _kernel
from .constructions import CirculantSpec, circulant
from .graph6 import pack, unpack
from .graphs import Graph, GraphError, bits, is_connected

CONSTRAINTS = ("all", "triangle_free", "maximal_triangle_free", "cubic")

# (default ceiling, ceiling with allow_large) per constraint
BUDGETS = {
    "all": (9, 10),
    "triangle_free": (13, 15),
    "maximal_triangle_free": (13, 15),
    "cubic": (14, 16),
}

_MODE = {
    "all": _kernel.MODE_ALL,
    "triangle_free": _kernel.MODE_TRIANGLE_FREE,
    "maximal_triangle_free": _kernel.MODE_TRIANGLE_FREE,
}


class GenerationBudgetError(GraphError):
    """Requested order beyond the documented generation budget."""


def _check_budget(n: int, constraint: str, allow_large: bool) -> None:
    if constraint not in BUDGETS:
        raise GraphError(f"unknown constraint {constraint!r}")
    default_cap, large_cap = BUDGETS[constraint]
    cap = large_cap if allow_large else default_cap
    if n > cap:
        hint = "" if allow_large else "; pass allow_large / --large to extend"
        raise GenerationBudgetError(
            f"{constraint} generation supports n <= {cap}, got {n}{hint}"
        )


# layers beyond this many graphs spill to a temp file instead of RAM
SPILL_LINES = 8_000_000


class Layer:
    """One generation layer: the graphs of order n as packed ints
    (graph6.pack), held in a list or, past SPILL_LINES, in a temp file
    of one hex int per line."""

    def __init__(self, n: int, packed: list[int] | None = None,
                 path: str | None = None, count: int = 0):
        self.n = n
        self.packed = packed
        self.path = path
        self.count = len(packed) if packed is not None else count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[int]:
        if self.packed is not None:
            yield from self.packed
        elif self.path is not None:
            with open(self.path, "r", encoding="ascii") as fh:
                for raw in fh:
                    yield int(raw, 16)

    def batches(self, size: int) -> Iterator[list[int]]:
        batch = []
        for p in self:
            batch.append(p)
            if len(batch) >= size:
                yield batch
                batch = []
        if batch:
            yield batch

    def discard(self) -> None:
        """Release the graphs, in RAM or on disk; the layer is then empty."""
        if self.path is not None:
            try:
                os.unlink(self.path)
            except OSError:
                pass
        self.path = None
        self.packed = None
        self.count = 0

    def __del__(self):
        self.discard()


def _augment_batch(args: tuple[list[int], int, int, bool, bool]) -> list[int]:
    parents, n, mode, emit_connected, emit_mtf = args
    return _kernel.augment(n, parents, mode, emit_connected, emit_mtf)


class _LayerWriter:
    """Accumulates the packed children of order n, spilling to disk past
    the threshold."""

    def __init__(self, n: int):
        self.n = n
        self.packed: list[int] | None = []
        self.fh = None
        self.path = None
        self.count = 0

    def extend(self, packed: list[int]) -> None:
        self.count += len(packed)
        if self.fh is None:
            self.packed.extend(packed)
            if len(self.packed) <= SPILL_LINES:
                return
            fd, self.path = tempfile.mkstemp(suffix=".hex", prefix="etdom-layer-")
            self.fh = os.fdopen(fd, "w", encoding="ascii")
            packed, self.packed = self.packed, None
        # in slices, so the text of a whole spilled list is never in RAM at once
        for i in range(0, len(packed), 65536):
            self.fh.write("".join([f"{p:x}\n" for p in packed[i:i + 65536]]))

    def finish(self) -> Layer:
        if self.fh is None:
            return Layer(self.n, packed=self.packed)
        self.fh.close()
        return Layer(self.n, path=self.path, count=self.count)


def _extend_layer(
    layer: Layer, mode: int, workers: int,
    emit_connected: bool = False, emit_mtf: bool = False,
) -> Layer:
    n = layer.n
    writer = _LayerWriter(n + 1)
    if workers > 1 and len(layer) >= 4 * workers:
        chunk = min(4096, max(1, (len(layer) + 8 * workers - 1) // (8 * workers)))
        batches = (
            (batch, n, mode, emit_connected, emit_mtf)
            for batch in layer.batches(chunk)
        )
        with Pool(workers) as pool:
            for result in pool.imap(_augment_batch, batches):
                writer.extend(result)
    else:
        for batch in layer.batches(65536):
            writer.extend(_augment_batch((batch, n, mode, emit_connected, emit_mtf)))
    return writer.finish()


def graph_layers(max_n: int, mode_name: str, *, workers: int = 1) -> Iterator[Layer]:
    """Yield, for n = 1..max_n, all graphs of order n under the hereditary
    constraint (connected or not) as a Layer of packed canonical graphs
    (iterable and sized; huge layers live in temp files).  A layer holds
    no graph6 text: graph6.unpack(layer.n, p) gives a graph's rows."""
    mode = _MODE[mode_name]
    layer = Layer(1, packed=[pack(1, (0,))])
    yield layer
    for _ in range(1, max_n):
        parent = layer
        layer = _extend_layer(parent, mode, workers)
        parent.discard()
        yield layer


def final_layer(
    n: int, constraint: str = "all", *, allow_large: bool = False, workers: int = 1
) -> Layer:
    """One packed representative per isomorphism class of connected
    graphs of order n meeting the constraint, as a Layer in generation
    order (not sorted).

    The last step filters inside the kernel, so large final layers never
    hold graphs that the constraint is about to drop.  Cubic graphs come
    from the ladder, packed in the labelling it builds them with.
    """
    _check_budget(n, constraint, allow_large)
    if constraint == "cubic":
        return Layer(n, packed=_cubic_packed(n))
    if n < 2:
        return Layer(n, packed=[pack(1, (0,))] if n == 1 else [])
    mode_name = constraint if constraint != "maximal_triangle_free" else "triangle_free"
    layer = None
    for layer in graph_layers(n - 1, mode_name, workers=workers):
        pass
    final = _extend_layer(
        layer, _MODE[mode_name], workers,
        emit_connected=True, emit_mtf=constraint == "maximal_triangle_free",
    )
    layer.discard()
    return final


def generate_packed(
    n: int, constraint: str = "all", *, allow_large: bool = False, workers: int = 1
) -> Iterator[int]:
    """The packed ints (graph6.pack) of generate_connected, in its order.

    Packed int order is graph6 line order, so the final layer is sorted
    as ints.  Cubic graphs come in the order of their packed canonical
    certificates, each packed in the labelling the ladder builds it with.
    """
    _check_budget(n, constraint, allow_large)
    if constraint == "cubic":
        yield from _cubic_packed(n)
        return
    final = final_layer(n, constraint, allow_large=allow_large, workers=workers)
    packed = sorted(final)
    final.discard()
    yield from packed


def generate_connected(
    n: int, constraint: str = "all", *, allow_large: bool = False, workers: int = 1
) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs of
    order n meeting the constraint, in sorted canonical graph6 order
    (cubic graphs: in canonical-form order); each graph is validated once,
    as it is yielded."""
    for p in generate_packed(n, constraint, allow_large=allow_large, workers=workers):
        yield Graph(n, unpack(n, p))


# -- cubic ladder -----------------------------------------------------------


def _edges(adj: tuple[int, ...]) -> list[tuple[int, int]]:
    """Each edge (u, v), u < v, in row order."""
    return [(u, v) for u, row in enumerate(adj)
            for v in bits(row >> (u + 1) << (u + 1))]


def _grown(adj: tuple[int, ...], k: int, pairs) -> tuple[int, ...]:
    """adj with k isolated vertices appended and each pair's edge toggled."""
    rows = list(adj) + [0] * k
    for a, b in pairs:
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
    return tuple(rows)


def _connected_rows(n: int, found: dict[int, tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The rows of found's connected graphs, in found's order (the keys
    are packed certificates, so the kernel screen reads them as they are)."""
    if not found:
        return []
    flags = _kernel.screen(n, list(found), [_kernel.SCREEN_TESTS.index("connected")])
    return [rows for rows, ok in zip(found.values(), flags) if ok]


def _cubic_all(n: int, cache: dict) -> dict[int, tuple[int, ...]]:
    """All cubic graphs of order n, connected or not: the packed canonical
    certificate of each class maps to the adjacency rows it was first
    built with.

    Children come from two local expansions of each graph two orders
    down (subdivide two distinct edges and join the new vertices) and
    four orders down (replace an edge by a diamond, which reaches the
    diamond necklaces the first cannot), plus disjoint unions.  Every
    child is one tuple edit and one canon call; the known connected
    counts pin the ladder's completeness in the test suite.
    """
    if n in cache:
        return cache[n]
    found: dict[int, tuple[int, ...]] = {}

    def keep(adj: tuple[int, ...]) -> None:
        key = pack(n, _kernel.canon(n, adj)[0])
        if key not in found:
            found[key] = adj

    if n == 4:
        keep(tuple(0b1111 & ~(1 << v) for v in range(4)))
    elif n > 4 and n % 2 == 0:
        u, v = n - 2, n - 1
        for parent in _cubic_all(n - 2, cache).values():
            edges = _edges(parent)
            for i, (a, b) in enumerate(edges):
                for c, d in edges[i + 1:]:
                    keep(_grown(parent, 2, ((a, b), (c, d), (a, u), (u, b),
                                            (c, v), (v, d), (u, v))))
        u, w, x, y = n - 4, n - 3, n - 2, n - 1
        for parent in _cubic_all(n - 4, cache).values():
            for p, q in _edges(parent):
                keep(_grown(parent, 4, ((p, q), (p, u), (w, q), (u, x), (u, y),
                                        (w, x), (w, y), (x, y))))
        # disconnected cubic graphs: a connected component plus any smaller rest
        for k in range(4, n - 3, 2):
            rest = _cubic_all(n - k, cache).values()
            for comp in _connected_rows(k, _cubic_all(k, cache)):
                for other in rest:
                    keep(comp + tuple(row << k for row in other))
    cache[n] = found
    return found


def _cubic_packed(n: int) -> list[int]:
    """The connected cubic graphs of order n in packed-certificate order
    (graph6 order of their canonical forms), each packed in the labelling
    the ladder built it with."""
    found = _cubic_all(n, {})
    return [pack(n, rows) for rows in _connected_rows(n, dict(sorted(found.items())))]


# -- circulants -------------------------------------------------------------


def enumerate_circulants(n: int) -> list[CirculantSpec]:
    """Connected circulants of order n, one spec per isomorphism class.

    Key sets are scanned in lexicographic order and deduplicated by
    packed canonical certificate, so the representative kept for each
    class is the lexicographically least key set describing it.
    """
    if n < 3:
        raise GraphError("circulant order must be at least 3")
    half = n // 2
    specs = []
    seen: set[int] = set()
    all_keys = sorted(
        itertools.chain.from_iterable(
            itertools.combinations(range(1, half + 1), r) for r in range(1, half + 1)
        )
    )
    for keys in all_keys:
        spec = CirculantSpec(n, keys)
        g = circulant(spec)
        if not is_connected(g):
            continue
        key = pack(n, _kernel.canon(n, g.adj)[0])
        if key not in seen:
            seen.add(key)
            specs.append(spec)
    return specs
