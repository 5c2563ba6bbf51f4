#!/usr/bin/env python3
"""Write expected.json: the answers every workload is checked against.

    python3 perfbench/freeze.py

Run it from the root of a checkout whose outputs are known to be right,
and only when an output is meant to change; the frozen file is what lets
a run tell a fast wrong answer from a fast right one.
"""

import json

import run
import workloads as w


def main() -> None:
    etdom = run.import_program()

    def stdout_of(argv):
        rc, out, _ = run.call(etdom.cli, w.WORKERS + argv)
        if rc != 0:
            raise SystemExit(f"{w.request_key(argv)} exited {rc}")
        return out

    frozen = {
        "census": {w.request_key(r): stdout_of(r) for r in w.CENSUS},
        "sparse": {w.request_key(r): stdout_of(r) for r in w.SPARSE},
    }
    t11 = etdom.pipeline.catalogue_lines("T11")[::w.GAME_STRIDE]
    circulants = []
    for n in w.GUARD_ORDERS:
        for label in etdom.pipeline.EXPECTED_T4[n]:
            g6 = w.graph6_of(w.circulant_adjacency(label))
            head = stdout_of(["eternal", g6, "--trace", "1"]).splitlines()[:2]
            circulants.append([label, *head])
    frozen["game"] = {
        "graphs": [[g6, stdout_of(["eternal", g6]).strip()] for g6 in t11],
        w.request_key(w.GAME_TABLE): stdout_of(w.GAME_TABLE),
        "circulants": circulants,
    }
    with open(w.EXPECTED_PATH, "w", encoding="ascii") as fh:
        json.dump(frozen, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
