"""The benchmark workloads: their requests and the checks on each answer.

A workload is a fixed list of requests to the public entry point
``etdom.cli.main``.  One pass sends every request once, in order, each
after the previous answer came back (a closed loop with one client).
Every answer is checked against values frozen in ``expected.json`` and
by checks written here, independently of the program, before its time
counts.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("census", "sparse", "game")

# Every request runs on one worker process; see README.md for why.
WORKERS = ["--workers", "1"]

CENSUS = [
    ["table", "T1", "--max-n", "8"],
    ["table", "T7", "--max-n", "8"],
]
SPARSE = [
    ["table", "T2", "--max-n", "9"],
    ["table", "T3", "--max-n", "9"],
    ["gen", "10", "maximal_triangle_free"],
    ["table", "T6", "--max-n", "12"],
]
# Maximal triangle-free graphs of order 10 (OEIS A216783).
MTF_10_COUNT = 31
# `game` decides graphs with small automorphism groups (every fifth line of
# the T11 catalogue, so that a pass stays at a few seconds), runs T4, then
# plays traced games on the reference gap circulants (pipeline.EXPECTED_T4)
# of orders 13-18: highly symmetric graphs whose largest game, C18[1,3,8],
# stores 40,833 configurations.
GAME_STRIDE = 5
GAME_TABLE = ["table", "T4", "--max-n", "14"]
GUARD_ORDERS = range(13, 19)
GUARD_TRACE_STEPS = 2000


def request_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="ascii") as fh:
        return json.load(fh)


# -- graphs, independently of the program -----------------------------------


def circulant_adjacency(label: str) -> list[int]:
    """Adjacency masks of a circulant written as 'C13[1,3,4]'."""
    n_part, keys_part = label[1:].split("[", 1)
    n = int(n_part)
    keys = [int(k) for k in keys_part.rstrip("]").split(",")]
    adj = [0] * n
    for i in range(n):
        for k in keys:
            for j in ((i + k) % n, (i - k) % n):
                adj[i] |= 1 << j
    return adj


def graph6_of(adj: list[int]) -> str:
    """Short-form graph6 line (n <= 62) of adjacency masks."""
    n = len(adj)
    bits = [adj[row] >> col & 1 for col in range(1, n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    groups = (
        int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)
    )
    return chr(n + 63) + "".join(chr(g + 63) for g in groups)


def dominates(adj: list[int], guards: int) -> bool:
    covered = guards
    for v, row in enumerate(adj):
        if guards >> v & 1:
            covered |= row
    return covered == (1 << len(adj)) - 1


def _mask(csv: str) -> int:
    m = 0
    for v in csv.split(","):
        m |= 1 << int(v)
    return m


def trace_problem(adj: list[int], k: int, lines: list[str]) -> str | None:
    """None when the printed defence is legal, else what is wrong.

    Legal means: the start set has k guards and dominates; each attack hits
    an unguarded vertex; exactly one guard moves along an edge onto it; the
    new set dominates.
    """
    if len(lines) != 1 + GUARD_TRACE_STEPS:
        return f"{len(lines) - 1} trace steps, expected {GUARD_TRACE_STEPS}"
    head = "trace start guards "
    if not lines[0].startswith(head):
        return f"bad trace start {lines[0]!r}"
    current = _mask(lines[0][len(head):])
    if current.bit_count() != k or not dominates(adj, current):
        return "start set is not a dominating set of the decided size"
    for line in lines[1:]:
        words = line.split()
        if len(words) != 5 or words[0] != "attack" or words[2:4] != ["->", "guards"]:
            return f"bad trace line {line!r}"
        attack, new = int(words[1]), _mask(words[4])
        if current >> attack & 1:
            return f"attack on guarded vertex: {line}"
        moved = current & ~new
        if (moved.bit_count() != 1 or new != current ^ moved | 1 << attack
                or not adj[attack] & moved):
            return f"illegal move: {line}"
        if not dominates(adj, new):
            return f"set no longer dominates: {line}"
        current = new
    return None


# -- workloads --------------------------------------------------------------


class Workload:
    """A workload's requests plus the check on each answer.

    ``check(i, rc, stdout)`` returns a list of failure descriptions, empty
    when request ``i`` was answered correctly.
    """

    def __init__(self, requests: list[list[str]], checks):
        self.requests = [WORKERS + argv for argv in requests]
        self._checks = checks

    def check(self, i: int, rc: int | None, stdout: str) -> list[str]:
        if rc != 0:
            return [f"{request_key(self.requests[i])}: exit code {rc}, "
                    f"output ends {stdout[-200:]!r}"]
        return self._checks[i](stdout)


def _frozen_stdout(key: str, want: str):
    def check(stdout: str) -> list[str]:
        return [] if stdout == want else [f"{key}: output differs from frozen copy"]
    return check


def _mtf_check(key: str, want: str):
    frozen = _frozen_stdout(key, want)

    def check(stdout: str) -> list[str]:
        count = len(stdout.splitlines())
        if count != MTF_10_COUNT:
            return [f"{key}: {count} graphs, expected {MTF_10_COUNT}"]
        return frozen(stdout)
    return check


def _gamma_record(record: str) -> dict[str, int]:
    return {k: int(v) for k, v in (w.split("=") for w in record.split())}


def _game_check(g6: str, want: str):
    def check(stdout: str) -> list[str]:
        lines = stdout.splitlines()
        if lines != [want]:
            return [f"eternal {g6}: {lines!r} differs from frozen {want!r}"]
        rec = _gamma_record(lines[0])
        if not rec["gamma_inf"] < rec["theta"]:
            return [f"eternal {g6}: gamma_inf not below theta"]
        return []
    return check


def _guard_check(label: str, adj: list[int], want: list[str]):
    def check(stdout: str) -> list[str]:
        lines = stdout.splitlines()
        if lines[:2] != want:
            return [f"{label}: {lines[:2]!r} differs from frozen {want!r}"]
        why = trace_problem(adj, _gamma_record(want[0])["gamma_inf"], lines[2:])
        return [] if why is None else [f"{label}: {why}"]
    return check


def build(name: str, seed: int, expected: dict, decode) -> Workload:
    """The workload's requests and checks; ``decode`` is the program's
    graph6 decoder, applied to every graph input as part of set-up."""
    want = expected[name]
    if name in ("census", "sparse"):
        requests = CENSUS if name == "census" else SPARSE
        checks = []
        for r in requests:
            key = request_key(r)
            make = _mtf_check if r[:2] == ["gen", "10"] else _frozen_stdout
            checks.append(make(key, want[key]))
        return Workload(requests, checks)
    if name == "game":
        requests, checks = [], []
        for g6, record in want["graphs"]:
            decode(g6)
            requests.append(["eternal", g6])
            checks.append(_game_check(g6, record))
        key = request_key(GAME_TABLE)
        requests.append(GAME_TABLE)
        checks.append(_frozen_stdout(key, want[key]))
        for label, record, sizes in want["circulants"]:
            adj = circulant_adjacency(label)
            g6 = graph6_of(adj)
            decode(g6)
            requests.append(["eternal", g6, "--trace", str(GUARD_TRACE_STEPS),
                             "--seed", str(seed)])
            checks.append(_guard_check(label, adj, [record, sizes]))
        return Workload(requests, checks)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
