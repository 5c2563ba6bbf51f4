"""A speedometer for a shared host: the time of a fixed reference routine,
sampled while the program answers requests.

On a host whose other tenants share the processor, the same code runs up
to 1.8x slower in spells that can last longer than a whole run, so raw
pass times of identical code spread far more than any change worth
measuring.  Code running in the same process on the same core at the same
moment is slowed much alike.  So while a request runs, a SIGALRM every
``PERIOD_S`` seconds of wall time interrupts it between two bytecodes and
times ``reference()``, the benchmark's own pure-Python routine, which
never changes with the program.  A pass time divided by the mean sampled
reference time is the pass time in units of that routine: it moves when
the program gets faster or slower, and far less when the host does.

The routine mixes the kinds of work the program does, because how much
contention slows code depends on the code: a tight bit-mask loop alone
slowed less than the program did, and a mix of loops, calls, generators,
sets and dicts tracked it closest.

The interruptions' own time is taken out of the request times.  One
sample is also taken before every request, so a request that stays
inside one long native call still gets a sample next to it.
"""

from __future__ import annotations

import signal
import statistics
import time
from itertools import combinations

perf_counter = time.perf_counter

PERIOD_S = 0.1


def _circulant(n: int, jumps: tuple[int, ...]) -> list[int]:
    return [sum(1 << (i + s * j) % n for j in jumps for s in (1, -1)) for i in range(n)]


def _dominating_sets(adj: list[int], k: int) -> set[int]:
    full = (1 << len(adj)) - 1
    found = set()
    for subset in combinations(range(len(adj)), k):
        mask = covered = 0
        for v in subset:
            mask |= 1 << v
            covered |= adj[v] | 1 << v
        if covered == full:
            found.add(mask)
    return found


def _survey(n: int = 5) -> int:
    """Classes of a sample of n-vertex graphs by degree sequence and
    domination number."""
    pairs = list(combinations(range(n), 2))
    classes: dict[str, list[int]] = {}
    for code in range(0, 1 << len(pairs), 9):
        adj = [0] * n
        for i, (a, b) in enumerate(pairs):
            if code >> i & 1:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        degrees = tuple(sorted(bin(row).count("1") for row in adj))
        gamma = next(k for k in range(1, n + 1) if _dominating_sets(adj, k))
        classes.setdefault(f"{degrees}:{gamma}", []).append(code)
    return len(classes)


def _prune(adj: list[int], k: int) -> int:
    """Configurations removed by a guard-game style fixpoint."""
    n = len(adj)
    configs = _dominating_sets(adj, k)
    start = len(configs)
    changed = True
    while changed:
        changed = False
        for m in list(configs):
            for v in range(n):
                if m >> v & 1:
                    continue
                if not any(m >> u & 1 and (m ^ 1 << u | 1 << v) in configs
                           for u in range(n) if adj[v] >> u & 1):
                    configs.discard(m)
                    changed = True
                    break
    return start - len(configs)


_C14 = _circulant(14, (1, 3, 6))
_C10 = _circulant(10, (1, 4))
# 560 dominating 4-sets of C14[1,3,6], 24 classes of 5-vertex graphs,
# 165 configurations of C10[1,4] pruned
REFERENCE_COUNT = 560 + 24 + 165


def reference() -> int:
    """About 4.5 ms of pure Python on the machine the benchmark was
    written on."""
    return len(_dominating_sets(_C14, 4)) + _survey() + _prune(_C10, 4)


class Speedometer:
    """Samples ``reference()`` while it is running (``with meter:``).

    ``samples`` holds the time of every sample; ``spent`` the total time
    taken by samples, which callers subtract from what they time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.wrong = 0  # samples whose routine returned a wrong count
        self._previous = None

    def sample(self, *_):
        t0 = perf_counter()
        count = reference()
        seconds = perf_counter() - t0
        self.wrong += count != REFERENCE_COUNT
        self.samples.append(seconds)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean(self) -> float:
        return statistics.fmean(self.samples)
