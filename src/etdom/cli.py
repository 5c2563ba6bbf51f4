"""Command-line surface.

Exit codes: 0 success, 1 verification mismatch, 2 input error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import _kernel, pipeline
from ._kernel import BudgetExceeded
from .constructions import CirculantSpec, bowtie, circulant, mycielski_family
from .eternal import DEFAULT_CONFIG_CAP, defense_move, eternal_decision, guard_space
from .generate import GenerationBudgetError, generate_packed
from .graph6 import Graph6Error, decode, encode, encode_packed, read_file, read_stream
from .graphs import GraphError, bits, from_edges, is_connected
from .invariants import independence_number, clique_cover_number

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# batch commands name the kernel and pool size on stderr; stdout is unchanged
_ANNOUNCED = ("gen", "filter", "table", "appendix")


def _graph_source(args):
    if args.input == "-":
        yield from read_stream(sys.stdin, on_error=args.on_error)
    else:
        yield from read_file(args.input, on_error=args.on_error)


def cmd_analyze(args) -> int:
    for line in pipeline.analyze_stream(
        _graph_source(args), criticality=args.criticality
    ):
        print(line)
    return EXIT_OK


def cmd_gen(args) -> int:
    count = 0
    for p in generate_packed(
        args.n, args.constraint, allow_large=args.large, workers=args.workers
    ):
        print(encode_packed(args.n, p))
        count += 1
    print(f"# {count} graphs", file=sys.stderr)
    return EXIT_OK


def cmd_filter(args) -> int:
    names = [nm.strip() for nm in args.filters.split(",") if nm.strip()]
    if args.gen is not None:
        n = args.gen
        packed = generate_packed(
            n, args.constraint, allow_large=args.large, workers=args.workers
        )
        chunks = ((n, batch) for batch in pipeline._batches(packed, 1024))
    else:
        n = None
        chunks = pipeline._packed(g for _, g in _graph_source(args))
    row = pipeline.run_filter(chunks, names, n=n, workers=args.workers)
    print(f"total\t{row.total}")
    for name, count in row.stages:
        print(f"{name}\t{count}")
    print(f"elapsed\t{row.elapsed:.2f}s")
    for line in row.matches:
        print(line)
    if row.aborted:
        print(f"NON-AUTHORITATIVE: {row.aborted} graphs hit the configuration "
              f"budget and were not classified", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_table(args) -> int:
    if args.large:
        print(f"# --large: {pipeline.TABLES[args.table].large_note}", file=sys.stderr)
    report = pipeline.reproduce_table(
        args.table, max_n=args.max_n, large=args.large, workers=args.workers
    )
    sys.stdout.write(report.to_tsv())
    if not report.ok():
        print("DIVERGENT: computed cells differ from the reference", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_appendix(args) -> int:
    report = pipeline.check_catalogue(
        args.list, path=args.file,
        completeness=args.completeness, large=args.large, workers=args.workers,
    )
    print(f"{report.list_id}: {report.checked} graphs checked, "
          f"{len(report.failures)} failures")
    if report.completeness_checked:
        orders = ",".join(str(n) for n in report.completeness_checked)
        print(f"completeness confirmed by exhaustive search at orders {orders}")
    for n in report.completeness_skipped:
        print(f"completeness at order {n} skipped"
              f"{' (needs --large)' if n == 10 else ' (beyond order 10)'}")
    for idx, line, why in report.failures:
        print(f"FAIL line {idx}: {line}  ({why})")
    return EXIT_OK if report.ok() else EXIT_MISMATCH


def cmd_construct(args) -> int:
    if args.kind == "circulant":
        spec = CirculantSpec(args.n, tuple(int(k) for k in args.keys.split(",")))
        graphs = [circulant(spec)]
    elif args.kind == "mycielski":
        graphs = [mycielski_family(args.n)]
    else:  # bowtie-k2
        spec = CirculantSpec(args.n, tuple(int(k) for k in args.keys.split(",")))
        graphs = [bowtie(circulant(spec), from_edges(2, [(0, 1)]))]
    for g in graphs:
        if args.analyze:
            print(next(pipeline.analyze_stream([(0, g)])))
        else:
            print(encode(g))
    return EXIT_OK


def _trace(g, space, current: int, steps: int, rng: random.Random) -> list[str]:
    """The lines of a seeded random attack sequence answered from current.

    Each configuration's open vertices and guard text are built once,
    however often the trace returns to it."""
    names = [str(v) for v in range(g.n)]
    seen = {}

    def state(mask):
        if mask not in seen:
            open_vertices, guards = [], []
            for v in range(g.n):
                if mask >> v & 1:
                    guards.append(names[v])
                else:
                    open_vertices.append(v)
            seen[mask] = open_vertices, ",".join(guards)
        return seen[mask]

    open_vertices, guards = state(current)
    lines = [f"trace start guards {guards}"]
    for _ in range(steps):
        if not open_vertices:
            break
        attack = rng.choice(open_vertices)
        current = defense_move(g, space, current, attack)
        open_vertices, guards = state(current)
        lines.append(f"attack {attack} -> guards {guards}")
    return lines


def cmd_eternal(args) -> int:
    if args.graph6:
        g = decode(args.graph6)
    else:
        entries = list(_graph_source(args))
        if len(entries) != 1:
            print("eternal expects exactly one graph", file=sys.stderr)
            return EXIT_INPUT
        g = entries[0][1]
    alpha = independence_number(g)
    theta = clique_cover_number(g, lower_bound=alpha)
    gi, space = eternal_decision(g, alpha=alpha, theta=theta, cap=args.cap)
    print(f"n={g.n} alpha={alpha} theta={theta} gamma_inf={gi}")
    if args.survivors or args.trace:
        if not is_connected(g):
            print("survivor listing needs a connected graph", file=sys.stderr)
            return EXIT_INPUT
        if space is None:
            space = guard_space(g, gi, cap=args.cap)
        survivors = sorted(space.surviving)
        print(f"configs={space.configs} surviving={len(survivors)}")
        lines = []
        if args.survivors:
            lines = ["guards " + ",".join(map(str, bits(mask))) for mask in survivors]
        if args.trace:
            rng = random.Random(args.seed)
            lines.extend(_trace(g, space, survivors[0], args.trace, rng))
        if lines:
            print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="etdom",
        description="Exact eternal-domination and clique-cover toolkit "
                    "for small graphs",
        fromfile_prefix_chars="@",
    )
    ap.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: ETDOM_WORKERS or all logical CPUs)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="graph6 stream -> invariant records")
    p.add_argument("input", nargs="?", default="-", help="file or - for stdin")
    p.add_argument("--on-error", choices=("raise", "skip"), default="raise")
    p.add_argument("--criticality", action="store_true",
                   help="also compute cover-criticality flags")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("gen", help="generate connected graphs as graph6")
    p.add_argument("n", type=int)
    p.add_argument("constraint", nargs="?", default="all",
                   choices=("all", "triangle_free", "maximal_triangle_free", "cubic"))
    p.add_argument("--large", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("filter", help="apply a predicate chain to a source")
    p.add_argument("filters", help="comma-separated names, e.g. "
                                   "connected,alpha_lt_theta,gamma_inf_lt_theta")
    p.add_argument("--gen", type=int, default=None,
                   help="generate order-n graphs instead of reading input")
    p.add_argument("--constraint", default="all",
                   choices=("all", "triangle_free", "maximal_triangle_free", "cubic"))
    p.add_argument("--input", default="-")
    p.add_argument("--on-error", choices=("raise", "skip"), default="raise")
    p.add_argument("--large", action="store_true")
    p.set_defaults(fn=cmd_filter)

    p = sub.add_parser("table", help="reproduce a reference count table")
    p.add_argument("table", type=str.upper, choices=pipeline.TABLES)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--large", action="store_true",
                   help="allow the long rows (prints a time warning)")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("appendix", help="verify a bundled graph catalogue")
    p.add_argument("list", type=str.upper, choices=pipeline.CATALOGUES)
    p.add_argument("--file", default=None, help="override the bundled file")
    p.add_argument("--completeness", action="store_true",
                   help="also regenerate orders up to 10 exhaustively and "
                        "require exact agreement (order 10 needs --large)")
    p.add_argument("--large", action="store_true")
    p.set_defaults(fn=cmd_appendix)

    p = sub.add_parser("construct", help="emit a constructed graph")
    p.add_argument("kind", choices=("circulant", "mycielski", "bowtie-k2"))
    p.add_argument("n", type=int, help="order (circulant) or family index")
    p.add_argument("keys", nargs="?", default="",
                   help="comma-separated circulant keys, e.g. 1,3,8")
    p.add_argument("--analyze", action="store_true")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("eternal", help="guard analysis of a single graph")
    p.add_argument("graph6", nargs="?", default=None)
    p.add_argument("--input", default="-")
    p.add_argument("--on-error", choices=("raise", "skip"), default="raise")
    p.add_argument("--survivors", action="store_true",
                   help="list surviving configurations")
    p.add_argument("--trace", type=int, default=0, metavar="STEPS",
                   help="print a seeded random attack/defence trace")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_CONFIG_CAP,
                   help="cap on stored guard configurations")
    p.set_defaults(fn=cmd_eternal)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.workers is None:
        args.workers = pipeline.default_workers()
    if args.command in _ANNOUNCED:
        print(f"# backend: {_kernel.BACKEND}, workers: {args.workers}", file=sys.stderr)
    try:
        return args.fn(args)
    except (GenerationBudgetError, BudgetExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (Graph6Error, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
