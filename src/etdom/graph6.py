"""Bit-exact graph6 encoder/decoder.

The text format packs the upper adjacency triangle, column by column
(x(0,1); x(0,2), x(1,2); x(0,3), ...), into 6-bit chunks offset by 63.
Decoding is strict: bad byte ranges, truncated payloads and nonzero
padding bits are all rejected so corrupted catalogue lines surface
immediately instead of round-tripping into wrong graphs.
"""

from __future__ import annotations

import logging
from typing import Iterable, Iterator

from .graphs import Graph, MAX_VERTICES

log = logging.getLogger(__name__)

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def _payload_len(n: int) -> int:
    return (n * (n - 1) // 2 + 5) // 6


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
    adj = [0] * n
    bit_index = 0
    nbits = n * (n - 1) // 2
    # column-major upper triangle: column j lists x(0,j)..x(j-1,j)
    col, row = 1, 0
    for ch in payload:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6Error(f"payload byte {c} outside 63..126")
        group = c - 63
        for k in range(5, -1, -1):
            bit = group >> k & 1
            if bit_index >= nbits:
                if bit:
                    raise Graph6Error("nonzero padding bits")
            elif bit:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            bit_index += 1
            row += 1
            if row == col:
                col += 1
                row = 0
    return Graph(n, tuple(adj))


def encode(g: Graph, *, _allow_long: bool = False) -> str:
    """Encode a Graph as one canonical-length graph6 line (n <= 62)."""
    n = g.n
    if n > 62 and not _allow_long:
        raise Graph6Error(f"short-form graph6 supports n <= 62, got {n}")
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr((n >> 12 & 63) + 63), chr((n >> 6 & 63) + 63), chr((n & 63) + 63)]
    group = 0
    filled = 0
    for col in range(1, n):
        for row in range(col):
            group = group << 1 | (g.adj[row] >> col & 1)
            filled += 1
            if filled == 6:
                out.append(chr(group + 63))
                group = 0
                filled = 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return "".join(out)


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
