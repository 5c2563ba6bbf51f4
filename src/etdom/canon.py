"""Canonical forms and isomorphism testing."""

from __future__ import annotations

from . import _kernel
from .graph6 import encode
from .graphs import Graph, relabel


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabelled copy of g (equal for isomorphic inputs)."""
    cert, _, _, _ = _kernel.canon(g.n, g.adj)
    return Graph(g.n, tuple(cert))


def canonical_form(g: Graph) -> bytes:
    """Canonical graph6 bytes; equal exactly for isomorphic graphs."""
    return encode(canonical_graph(g), _allow_long=True).encode("ascii")


def automorphism_orbits(g: Graph) -> list[int]:
    """orbit[v] = least vertex in the automorphism orbit of v."""
    _, _, orbit, _ = _kernel.canon(g.n, g.adj)
    return orbit


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    gc, _, _, _ = _kernel.canon(g.n, g.adj)
    hc, _, _, _ = _kernel.canon(h.n, h.adj)
    return gc == hc


__all__ = [
    "canonical_graph",
    "canonical_form",
    "automorphism_orbits",
    "are_isomorphic",
    "relabel",
]
