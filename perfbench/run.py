#!/usr/bin/env python3
"""End-to-end benchmark of etdom, run from the root of a checkout.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Builds the checkout in place (untimed), times set-up in fresh processes,
then sends the workload's requests to ``etdom.cli.main`` in this process,
pass after pass, until the next pass would overrun ``--seconds``.  Every
answer is checked before its time counts.  Untraced passes run under the
speedometer of ``speed.py``, which samples the host's speed, and pass
times are reported in units of its reference routine.  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` count
the checks,
``metrics`` holds the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a separate traced run (``--trace 1``).  A failed check ends
the run with exit code 1 and no metrics.  The line before it holds the
provenance of the run.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7
BUILD = [sys.executable, "setup.py", "build_ext", "--inplace"]
BUILD_TIMEOUT_S = 600
PROBE_TIMEOUT_S = 60
# Three passes give a median; a traced run's first three are traced,
# untraced, traced, so exact counts can be compared between two passes.
MIN_PASSES = 3


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_checkout() -> None:
    for path in (os.path.join(SRC, "etdom", "__init__.py"), os.path.join(ROOT, "setup.py")):
        if not os.path.isfile(path):
            die(f"{path} is missing; run from the root of an etdom checkout")


def import_program():
    """Import etdom from this checkout's sources, never from elsewhere."""
    check_checkout()
    sys.path.insert(0, SRC)
    import etdom
    import etdom.cli  # noqa: F401  (the entry point every request goes through)

    return etdom


def set_up(workload: str, seed: int):
    """Everything a fresh process does before its first request."""
    etdom = import_program()
    return etdom, workloads.build(workload, seed, workloads.load_expected(), etdom.decode)


def call(cli, argv: list[str], meter=None) -> tuple[int | None, str, float]:
    """One request: exit code (None when it raised), stdout, seconds.

    With a ``speed.Speedometer``, the request runs under it, and the time
    its samples took is not counted."""
    out = io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()),
          meter or contextlib.nullcontext()):
        spent = meter.spent if meter else 0.0
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed check, reported below
            rc = None
            out.write(f"raised {exc!r}")
        seconds = time.perf_counter() - t0 - ((meter.spent - spent) if meter else 0.0)
    return rc, out.getvalue(), seconds


# -- set-up and build, each in fresh processes -------------------------------


def build_in_place() -> dict:
    """The repository's own in-place build; its outcome is provenance."""
    t0 = time.perf_counter()
    try:
        done = subprocess.run(BUILD, cwd=ROOT, capture_output=True, text=True,
                              timeout=BUILD_TIMEOUT_S)
        returncode, tail = done.returncode, (done.stdout + done.stderr).strip()
    except subprocess.TimeoutExpired:
        returncode, tail = None, "timed out"
    return {"command": "python setup.py build_ext --inplace", "returncode": returncode,
            "seconds": time.perf_counter() - t0, "tail": tail.splitlines()[-3:]}


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", workload,
           "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - t0
        child.stdout.read()
        rc = child.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or rc != 0:
        die(f"set-up of {workload} failed in a fresh process (exit {rc})")
    return seconds


# -- passes -----------------------------------------------------------------


class Pass:
    def __init__(self):
        self.wall_s = 0.0
        self.reference_s = 0.0  # mean sampled reference time (untraced passes)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.seconds = 0.0  # including the checks
        self.layers: dict[str, float] = {}


def run_pass(cli, wl, tracer=None) -> Pass:
    """One pass; an untraced pass runs under a speedometer."""
    p = Pass()
    meter = speed.Speedometer() if tracer is None else None
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for i, argv in enumerate(wl.requests):
            rc, out, seconds = call(cli, argv, meter)
            p.wall_s += seconds
            problems = wl.check(i, rc, out)
            p.attempted += 1
            p.failed += bool(problems)
            p.failures += problems
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        p.layers = tracer.metrics()
    else:
        p.reference_s = meter.mean()
        p.attempted += 1
        if meter.wrong:
            p.failed += 1
            p.failures.append(f"reference routine miscounted in {meter.wrong} samples")
    p.seconds = time.perf_counter() - t0
    return p


def measure(cli, wl, seconds: float, traced: bool, between):
    """Passes until the next one would overrun ``seconds`` (at least
    MIN_PASSES); traced and untraced passes alternate when ``traced``.
    ``between()`` runs, untimed, before every pass.  Stops at the first
    failed pass."""
    import tracing

    plain: list[Pass] = []
    traced_passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        between()
        use_tracer = traced and len(traced_passes) <= len(plain)
        p = run_pass(cli, wl, tracing.Tracer() if use_tracer else None)
        (traced_passes if use_tracer else plain).append(p)
        if p.failures:
            break
        done = plain + traced_passes
        longest = max(q.seconds for q in done)
        if (len(done) >= MIN_PASSES
                and time.perf_counter() - start + longest > seconds):
            break
    return plain, traced_passes


def per_layer(plain: list[Pass], traced: list[Pass]) -> tuple[dict, int, list[str]]:
    """Per-layer metrics (medians over traced passes), plus the
    repeat check on exact counts."""
    import tracing

    failures = []
    first = tracing.exact_counts(traced[0].layers)
    for p in traced[1:]:
        counts = tracing.exact_counts(p.layers)
        if counts != first:
            diff = sorted(k for k in set(first) | set(counts)
                          if first.get(k) != counts.get(k))
            failures.append(f"exact counts differ between traced passes: {diff[:8]}")
    metrics = {}
    for name, unit in tracing.PER_LAYER.items():
        if name == "trace.overhead_s":
            value = (statistics.median(p.wall_s for p in traced)
                     - statistics.median(p.wall_s for p in plain))
        elif name in first:
            value = first[name]
        else:
            value = statistics.median(p.layers.get(name, 0) for p in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, len(traced) - 1, failures


# -- provenance -------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "etdom")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".pyx", ".c", ".g6")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


# -- main -------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=workloads.WORKLOADS,
                    help="set up WORKLOAD, print 'ready' and exit (used to time set-up)")
    args = ap.parse_args()

    if args.probe:
        set_up(args.probe, args.seed)
        print("ready", flush=True)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    check_checkout()

    load_start = os.getloadavg()
    build = build_in_place()
    etdom, wl = set_up(args.workload, args.seed)
    # Set-up probes run between passes, so that they sample the same spells
    # of host contention as the passes do instead of one moment of the run.
    setup_s: list[float] = []

    def probe():
        if len(setup_s) < SETUP_PROBES:
            setup_s.append(probe_setup(args.workload, args.seed))

    plain, traced = measure(etdom.cli, wl, args.seconds, bool(args.trace), probe)
    while len(setup_s) < SETUP_PROBES:
        probe()
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]
    if not failed and args.trace:
        metrics, count_checks, count_failures = per_layer(plain, traced)
        attempted += count_checks
        failed += len(count_failures)
        failures += count_failures
    elif not failed:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_ref": {"value": statistics.median(p.wall_s / p.reference_s for p in plain),
                         "unit": "ref"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": etdom.BACKEND, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "workers": 1,
        "commit": commit(), "source_sha256": source_digest(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "build": build, "setup_probe_s": setup_s,
        "pass_wall_s": [p.wall_s for p in plain],
        "pass_reference_s": [p.reference_s for p in plain],
        "wall_s": statistics.median(p.wall_s for p in plain),
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "requests_per_pass": len(wl.requests),
        "fail_ratio": failed / attempted,
    }
    print(json.dumps({"provenance": provenance}))
    for f in failures[:20]:
        print(f"FAILED: {f}", file=sys.stderr)
    if failed:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
