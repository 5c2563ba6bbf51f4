#!/usr/bin/env python3
"""Benchmark the compiled kernel against the pure-Python fallback.

Runs the hot operations on identical workloads and prints a speedup
table.  Usage: python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import random
import time

from etdom._kernel import _purecore
from etdom.eternal import DEFAULT_CONFIG_CAP

try:
    from etdom._kernel import _fastcore
except ImportError:
    _fastcore = None


def rand_adj(rng, n, p):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def bench(label, fn_pure, fn_fast, repeat=1):
    t0 = time.perf_counter()
    for _ in range(repeat):
        fn_pure()
    pure_t = (time.perf_counter() - t0) / repeat
    if fn_fast is None:
        print(f"{label:<38} pure {pure_t * 1e3:9.1f} ms   (no compiled kernel)")
        return
    t0 = time.perf_counter()
    for _ in range(repeat):
        fn_fast()
    fast_t = (time.perf_counter() - t0) / repeat
    print(
        f"{label:<38} pure {pure_t * 1e3:9.1f} ms   fast {fast_t * 1e3:8.1f} ms"
        f"   x{pure_t / fast_t:6.1f}"
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="smaller workloads")
    args = ap.parse_args()

    rng = random.Random(20240)
    scale = 0.3 if args.quick else 1.0

    graphs10 = [rand_adj(rng, 10, 0.5) for _ in range(int(400 * scale))]
    graphs13 = [rand_adj(rng, 13, 0.4) for _ in range(int(200 * scale))]

    def run_canon(mod, batch):
        for adj in batch:
            mod.canon(len(adj), adj)

    def run_cover(mod, batch):
        for adj in batch:
            mod.clique_cover(len(adj), adj, 0)

    def run_matching(mod, batch):
        for adj in batch:
            mod.max_matching(len(adj), adj)

    def run_fixpoint(mod, batch):
        for adj in batch:
            n = len(adj)
            k = max(2, n // 3)
            configs = mod.dominating_sets(n, adj, k, DEFAULT_CONFIG_CAP)
            mod.eternal_fixpoint(n, adj, k, configs)

    def run_augment(mod):
        layer = [[0]]
        for _ in range(6):
            nxt = []
            for adj in layer:
                for cert in mod.augment(len(adj), adj, 0):
                    nxt.append(list(cert))
            layer = nxt
        return len(layer)

    fast = _fastcore
    bench(
        "canonical labelling, 10-vertex x400",
        lambda: run_canon(_purecore, graphs10),
        (lambda: run_canon(fast, graphs10)) if fast else None,
    )
    bench(
        "canonical labelling, 13-vertex x200",
        lambda: run_canon(_purecore, graphs13),
        (lambda: run_canon(fast, graphs13)) if fast else None,
    )
    bench(
        "clique cover, 13-vertex x200",
        lambda: run_cover(_purecore, graphs13),
        (lambda: run_cover(fast, graphs13)) if fast else None,
    )
    bench(
        "blossom matching, 13-vertex x200",
        lambda: run_matching(_purecore, graphs13),
        (lambda: run_matching(fast, graphs13)) if fast else None,
    )
    bench(
        "guard-game fixpoint, 10-vertex x400",
        lambda: run_fixpoint(_purecore, graphs10),
        (lambda: run_fixpoint(fast, graphs10)) if fast else None,
    )
    bench(
        "exhaustive generation to order 7",
        lambda: run_augment(_purecore),
        (lambda: run_augment(fast)) if fast else None,
    )


if __name__ == "__main__":
    main()
