"""oughtcheck benchmark: obligation sweep, axiom suite and warm formula batch.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in its own single-threaded subprocess (bench/worker.py),
one at a time, under a pinned PYTHONHASHSEED.  Load is a closed loop with one
client: the next op starts when the previous one has returned.  Every op's
outcome is checked against bench/expected/.

--trace 0 prints the end-to-end metrics.  Set-up is measured nine times
(eight set-up-only processes and the timed one) and its median reported.
Every time it prints is scaled to a steady host speed by a probe timed next
to the work (bench/clock.py), because the raw speed of the shared host
drifts by up to 2x within a minute.
--trace 1 runs one round of the workload three times: untraced, with
per-layer spans (bench/spans.py), and under tracemalloc (first 200 ops).  It
prints the per-layer metrics of the span run, the tracemalloc peak, and the
span run's wall time over the untraced one.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"correct" is false when an op fails that is not listed as a known failure
of the commit the expected files were made on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import clock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170
# Address-space cap per workload process: a run that outgrows it ends in
# MemoryError (a failed op) instead of the machine's out-of-memory killer.
ADDRESS_SPACE_CAP = 3 * 2**30

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "ratio",
}


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def worker(workload: str, seed: int, *flags, deadline: float) -> tuple:
    """Run one worker process; return its JSON result and its set-up time,
    scaled by probes (clock.py) timed just before it starts and just after
    its set-up."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed), *flags]
    env = {**os.environ, "PYTHONHASHSEED": workloads.HASH_SEED, "PYTHONDONTWRITEBYTECODE": "1"}
    timeout = max(1.0, deadline - time.monotonic())
    before = clock.probes(clock.SETUP_PROBES)
    started = time.monotonic()
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout, preexec_fn=cap_memory
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["hash_seed"] != workloads.HASH_SEED:
        raise SystemExit(f"{workload} worker ran under PYTHONHASHSEED={result['hash_seed']}")
    return result, clock.scale(result["ready"] - started, before + result["ready_probes"])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    setups = [worker(workload, seed, "--setup-only", deadline=deadline)[1] for _ in range(SETUP_SAMPLES - 1)]
    main, setup = worker(workload, seed, "--seconds", str(seconds), deadline=deadline)
    setups.append(setup)
    ops = main["ops"]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(main["round_walls"]),
        "ops_per_s": statistics.median(n / t for n, t in zip(main["round_ops"], main["round_walls"])),
        "op_p50_ms": main["p50_ms"],
        "op_p99_ms": main["p99_ms"],
        "peak_rss_mb": main["rss_mb"],
        "ops_ok_ratio": (ops - main["failed"]) / ops,
    }
    return main, {k: metric(v, E2E_UNITS[k]) for k, v in values.items()}


def per_layer(workload: str, seed: int, deadline: float) -> tuple:
    base, _ = worker(workload, seed, deadline=deadline)
    traced, _ = worker(workload, seed, "--traced", deadline=deadline)
    memory, _ = worker(workload, seed, "--tracemalloc", deadline=deadline)
    for other in (base, memory):
        traced["unexpected_count"] += other["unexpected_count"]
        traced["unexpected"] += other["unexpected"]
    values = {name: metric(traced["layers"][name], unit) for name, unit in spans.LAYER_METRICS}
    for name in spans.ERROR_METRICS:
        values[name] = metric(traced["errors"].get(name, 0), "count")
    values["trace.peak_traced_mb"] = metric(memory["peak_traced_mb"], "MB")
    values["trace.overhead_ratio"] = metric(sum(traced["round_walls"]) / sum(base["round_walls"]), "ratio")
    return traced, values


def describe(workload: str, res: dict, values: dict):
    """Human-readable lines, printed before the JSON result."""
    print(
        f"# {workload}: PYTHONHASHSEED={res['hash_seed']}, {res['rounds']} rounds, "
        f"{res['ops']} ops ({res['failed']} failed, {res['unexpected_count']} not known to fail), "
        f"latency percentiles over {res['ops']} samples"
    )
    for name, m in values.items():
        print(f"#   {name:32s} {m['value']:.6g} {m['unit']}")
    if res["errors"]:
        print(f"#   error tokens at the op boundary: {json.dumps(res['errors'], sort_keys=True)}")
    if res["unexpected"]:
        print(f"#   failed ops not known to fail: {' '.join(res['unexpected'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        if args.trace:
            res, values = per_layer(name, args.seed, deadline)
        else:
            res, values = end_to_end(name, args.seed, args.seconds, deadline)
        describe(name, res, values)
        print(
            json.dumps(
                {
                    "correct": res["unexpected_count"] == 0,
                    "attempted": res["ops"],
                    "failed": res["failed"],
                    "metrics": values,
                }
            ),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
