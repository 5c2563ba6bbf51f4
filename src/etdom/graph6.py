"""Bit-exact graph6 encoder/decoder.

The text format packs the upper adjacency triangle, column by column
(x(0,1); x(0,2), x(1,2); x(0,3), ...), into 6-bit chunks offset by 63.
Decoding is strict: bad byte ranges, truncated payloads and nonzero
padding bits are all rejected so corrupted catalogue lines surface
immediately instead of round-tripping into wrong graphs.

pack() and unpack() hold the one bit layout: the payload bits of a graph
as one int.  encode_packed() and decode() wrap them with the size prefix
and the 6-bit text chunks, encode() packs a Graph for encode_packed(), and
generation carries its layers in the int form.
"""

from __future__ import annotations

import binascii
import logging
from typing import Iterable, Iterator

from .graphs import Graph, MAX_VERTICES

log = logging.getLogger(__name__)

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def _payload_len(n: int) -> int:
    return (n * (n - 1) // 2 + 5) // 6


_FROM_BASE64 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)),
)

# every byte value with its eight bits in reverse order
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reverse(x: int, width: int) -> int:
    """x (below 2**width) with its low `width` bits in reverse order."""
    size = (width + 7) // 8
    flipped = int.from_bytes(x.to_bytes(size, "little").translate(_REV8), "big")
    return flipped >> (8 * size - width)


def pack(n: int, adj) -> int:
    """The graph6 payload bits of an order-n graph as one int.

    Bit t of the payload (x(0,1); x(0,2), x(1,2); ...) sits at position
    n(n-1)/2 - 1 - t, so x(0,1) is most significant and, for a fixed
    order, int order is graph6 line order.  Only the upper triangle is
    read (row i < j of each adj[j]), so adj must be symmetric.
    """
    q = 0
    shift = 0
    for j in range(1, n):
        q |= (adj[j] & ((1 << j) - 1)) << shift
        shift += j
    return _reverse(q, shift)


def unpack(n: int, p: int) -> tuple[int, ...]:
    """The adjacency rows of the order-n graph that pack() gave p for
    (symmetric by construction; Graph() still validates them)."""
    nbits = n * (n - 1) // 2
    if p < 0 or p >> nbits:
        raise Graph6Error(f"packed graph {p} has more than {nbits} bits for n={n}")
    q = _reverse(p, nbits)
    adj = [0] * n
    for j in range(1, n):
        col = q & ((1 << j) - 1)
        q >>= j
        adj[j] = col
        bit = 1 << j
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= bit
            col ^= low
    return tuple(adj)


def _decode_size(line: str) -> tuple[int, int]:
    """Return (n, index of first payload char)."""
    if not line:
        raise Graph6Error("empty graph6 string")
    c0 = ord(line[0])
    if c0 != 126:
        if not 63 <= c0 <= 125:
            raise Graph6Error(f"size byte {c0} outside 63..126")
        return c0 - 63, 1
    # long form: '~' then 3 chars, or '~~' then 6 chars
    if len(line) > 1 and ord(line[1]) == 126:
        start, width = 2, 6
    else:
        start, width = 1, 3
    chars = line[start:start + width]
    if len(chars) != width:
        raise Graph6Error("truncated long-form size")
    n = 0
    for ch in chars:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6Error(f"size byte {c} outside 63..126")
        n = n << 6 | (c - 63)
    return n, start + width


def decode(line: str) -> Graph:
    """Decode one graph6 line into a Graph."""
    n, start = _decode_size(line)
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph6 order {n} above the {MAX_VERTICES}-vertex limit")
    want = _payload_len(n)
    payload = line[start:]
    if len(payload) != want:
        raise Graph6Error(f"payload length {len(payload)}, expected {want} for n={n}")
    p = 0
    for ch in payload:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6Error(f"payload byte {c} outside 63..126")
        p = p << 6 | (c - 63)
    pad = 6 * want - n * (n - 1) // 2
    if p & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    return Graph(n, unpack(n, p >> pad))


def encode_packed(n: int, p: int, *, _allow_long: bool = False) -> str:
    """The graph6 line (n <= 62) of the order-n graph that pack() gave p."""
    if n > 62 and not _allow_long:
        raise Graph6Error(f"short-form graph6 supports n <= 62, got {n}")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12 & 63) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    # base64 cuts bytes into the same big-endian 6-bit chunks; its
    # alphabet maps chunk value c to another character than chr(c + 63)
    want = _payload_len(n)
    size = (want + 3) // 4 * 3
    chunks = binascii.b2a_base64((p << 8 * size - n * (n - 1) // 2).to_bytes(size, "big"),
                                 newline=False)
    return head + chunks[:want].translate(_FROM_BASE64).decode("ascii")


def encode(g: Graph, *, _allow_long: bool = False) -> str:
    """Encode a Graph as one canonical-length graph6 line (n <= 62)."""
    return encode_packed(g.n, pack(g.n, g.adj), _allow_long=_allow_long)


def read_stream(
    lines: Iterable[str], *, on_error: str = "raise"
) -> Iterator[tuple[int, Graph]]:
    """Lazily decode a line sequence, yielding (input ordinal, Graph).

    Blank lines and the optional '>>graph6<<' header are skipped and do
    not consume ordinals.  on_error: 'raise' fails fast with the line
    number; 'skip' logs the bad line and keeps going (the ordinal is
    still consumed so downstream indexes stay aligned with the file).
    """
    if on_error not in ("raise", "skip"):
        raise ValueError("on_error must be 'raise' or 'skip'")
    index = 0
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if text.startswith(HEADER):
            text = text[len(HEADER):].strip()
        if not text:
            continue
        try:
            g = decode(text)
        except Graph6Error as exc:
            if on_error == "raise":
                raise Graph6Error(f"line {lineno}: {exc}") from exc
            log.warning("line %d: skipping bad graph6 (%s)", lineno, exc)
            index += 1
            continue
        yield index, g
        index += 1


def read_file(path, *, on_error: str = "raise") -> Iterator[tuple[int, Graph]]:
    with open(path, "r", encoding="ascii") as fh:
        yield from read_stream(fh, on_error=on_error)
