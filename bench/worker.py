"""One workload in one process: set up, run timed rounds, check every op.

Started by ``bench/run.py``, which pins PYTHONHASHSEED; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N
        [--seconds S] [--traced | --tracemalloc] [--setup-only]

A round runs the workload's whole pool once (see workloads.py).  After
set-up, the workload's untimed warm-up rounds run, if it has any.  With
`--seconds`, rounds start until that many seconds have passed and at least
MIN_OPS ops have run (a round that has started is finished), so the p99
latency has ten samples or more beyond it.  Without it, one round runs, so a
traced run and its untraced twin do the same work.  `--traced` records
per-layer spans.  `--tracemalloc` records peak traced memory in a run of its
own, so that its cost on every allocation does not distort the span times;
it stops after the round's first TRACEMALLOC_OPS ops (one sweep document),
because tracemalloc slows the axiom suite about six-fold.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import clock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 1000
TRACEMALLOC_OPS = 200


def import_package():
    sys.path.insert(0, SRC)
    try:
        import oughtcheck
    except ImportError as exc:
        raise SystemExit(f"cannot import oughtcheck from {SRC}: {exc}")
    if not os.path.abspath(oughtcheck.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"oughtcheck was imported from {oughtcheck.__file__}, not {SRC}")
    return oughtcheck


def run(workload, seconds: float, rounds: int, tracer, max_ops=None) -> dict:
    """Run rounds; a probe (clock.py) is timed before every op and after the
    last, and op latencies and round walls are reported on its scale."""
    latencies = []
    segments = []  # per op: from the end of the probe before it to its end
    round_of = []
    samples = [clock.probe()]
    failed = []
    errors = Counter()
    start = perf_counter()
    r = 0
    while (r < rounds) if rounds else (perf_counter() - start < seconds or len(latencies) < MIN_OPS):
        items = workload.round(r)
        while len(latencies) != max_ops:
            t_seg = perf_counter()
            item = next(items, None)  # a new round loads its model here
            if item is None:
                break
            op_id, expected, op = item
            t0 = perf_counter()
            got = op()
            t1 = perf_counter()
            latencies.append(t1 - t0)
            segments.append(t1 - t_seg)
            round_of.append(r)
            samples.append(clock.probe())
            for tok in got:
                if workloads.is_error(tok):
                    errors[spans.error_metric(tok)] += 1
            if len(got) != len(expected) or not all(map(workloads.matches, expected, got)):
                failed.append(op_id)
        r += 1
    latencies = clock.scale_between(latencies, samples)
    walls = [0.0] * r
    for k, x in zip(round_of, clock.scale_between(segments, samples)):
        walls[k] += x
    if tracer is not None and workload.name == "axiom-suite":
        # the suite catches CheckerError itself: count at outermost evaluate_plain
        errors.update(spans.error_metric(t) for t in tracer.eval_errors.elements())
    unexpected = [i for i in failed if i not in workload.known]
    lat_ms = sorted(x * 1000 for x in latencies)
    return {
        "rounds": r,
        "round_walls": walls,
        "round_ops": [round_of.count(k) for k in range(r)],
        "ops": len(latencies),
        "failed": len(failed),
        "unexpected": unexpected[:20],
        "unexpected_count": len(unexpected),
        "p50_ms": statistics.median(lat_ms),
        "p99_ms": statistics.quantiles(lat_ms, n=100)[98] if len(lat_ms) > 1 else lat_ms[0],
        "errors": dict(errors),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--tracemalloc", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    oc = import_package()
    workload = workloads.WORKLOADS[args.workload](oc, args.seed)
    ready = time.monotonic()
    # the host's speed just after set-up, for run.py to scale set-up time by
    out = {"ready": ready, "ready_probes": clock.probes(clock.SETUP_PROBES), "hash_seed": os.environ.get("PYTHONHASHSEED")}
    if not args.setup_only:
        for r in range(workload.warm_rounds):
            for _, _, op in workload.round(-1 - r):
                op()
        tracer = None
        if args.traced:
            tracer = spans.Tracer()
            tracer.install(oc)
        if args.tracemalloc:
            tracemalloc.start()
        try:
            rounds = 0 if args.seconds else 1
            max_ops = TRACEMALLOC_OPS if args.tracemalloc else None
            out.update(run(workload, args.seconds, rounds, tracer, max_ops))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            out["layers"] = tracer.metrics()
        if args.tracemalloc:
            out["peak_traced_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
