"""Scaling table of the obligation sweep: one world count per process.

    python3 bench/scaling.py [--worlds 25,50,100,200] [--cells 5]

Each row loads one sweep document (pool index 0) with `--cells` equal
information cells, cold, and evaluates the sweep formula at every world.
It prints wall time, median op latency and the process's peak RSS.  Outcomes
are not checked here: the named `obligation-sweep` workload checks them at
200 worlds.  Each process runs under the same address-space cap as the
benchmark, so a size that outgrows it ends in MemoryError, not in the
machine's out-of-memory killer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def one(worlds: int, cells: int) -> dict:
    import worker

    oc = worker.import_package()
    doc = workloads.sweep_doc(worlds, cells, 0)
    latencies = []
    t0 = perf_counter()
    for _, op in workloads.sweep_round(oc, doc):
        t = perf_counter()
        op()
        latencies.append(perf_counter() - t)
    return {
        "worlds": worlds,
        "cells": cells,
        "wall_s": perf_counter() - t0,
        "op_p50_ms": statistics.median(latencies) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worlds", default="25,50,100,200")
    ap.add_argument("--cells", type=int, default=5)
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(one(args.one, args.cells)))
        return 0
    print(f"{'worlds':>6} {'cells':>5} {'wall_s':>9} {'op_p50_ms':>10} {'peak_rss_mb':>11}")
    for n in (int(x) for x in args.worlds.split(",")):
        proc = subprocess.run(
            [sys.executable, __file__, "--one", str(n), "--cells", str(args.cells)],
            env={**os.environ, "PYTHONHASHSEED": workloads.HASH_SEED, "PYTHONDONTWRITEBYTECODE": "1"},
            stdout=subprocess.PIPE, text=True, preexec_fn=run.cap_memory,
        )
        if proc.returncode != 0:
            print(f"{n:>6} {args.cells:>5} failed with exit code {proc.returncode}")
            continue
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        print(
            f"{row['worlds']:>6} {row['cells']:>5} {row['wall_s']:>9.3f}"
            f" {row['op_p50_ms']:>10.3f} {row['peak_rss_mb']:>11.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
