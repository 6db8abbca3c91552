"""A time scale that is steady while the host's speed is not.

This benchmark's host hands it a share of a shared machine whose speed
drifts: a fixed piece of Python work can take twice as long from one second
to the next, with CPU time equal to wall time, so neither clock is steady.
Two pieces of work timed side by side slow down together, though.  So the
benchmark times a fixed probe (pure Python, mixing the calls, set, dict and
Fraction work the checker does) next to every op, and rescales each measured
interval by how slow the probe ran around it:

    scaled = measured * NOMINAL_PROBE_S / (median probe time nearby)

A scaled time reads as seconds on a host where the probe takes
NOMINAL_PROBE_S, and is compared only with other scaled times.  Probe time
itself is never part of a measured interval.  Garbage-collection pauses over
a large heap are bound by memory, not by the interpreter, and track the
probe less closely; they are the main spread left in the sweep's op_p99_ms.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_STEPS = 300
# The probe's time on the host the benchmark was defined on, at its fast end.
NOMINAL_PROBE_S = 0.0002
# An interval is scaled by the median of this many probes on each side of it.
WINDOW = 6
# Set-up time is scaled by this many probes before the process starts and
# as many after its set-up.
SETUP_PROBES = 15


def _probe():
    acc = Fraction(0)
    seen = {}
    for i in range(PROBE_STEPS):
        key = frozenset((i % 7, i % 11, i % 13))
        seen[key] = seen.get(key, 0) + 1
        if i % 8 == 0:
            acc += Fraction(i, 7)
    return len(seen), acc


def probe() -> float:
    """Time one probe, in seconds.

    The collector is off while it runs: the probe frees all it allocates, so
    it neither runs a collection nor moves one into the measured work."""
    was_enabled = gc.isenabled()
    gc.disable()
    t = perf_counter()
    _probe()
    t = perf_counter() - t
    if was_enabled:
        gc.enable()
    return t


def probes(n: int) -> list:
    return [probe() for _ in range(n)]


def scale(seconds: float, nearby: list) -> float:
    """`seconds`, measured while the probe took `nearby`, on the nominal scale."""
    return seconds * NOMINAL_PROBE_S / statistics.median(nearby)


def scale_between(intervals: list, samples: list) -> list:
    """Scale interval k, measured between probes samples[k] and samples[k+1]."""
    if len(samples) != len(intervals) + 1:
        raise ValueError("need one probe before each interval and one after the last")
    return [
        scale(x, samples[max(0, k + 1 - WINDOW) : k + 1 + WINDOW])
        for k, x in enumerate(intervals)
    ]
