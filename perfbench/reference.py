"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares a host with other tenants, and their load changes the
speed of this process by up to half for minutes at a time: the same
operations took 1.5 times as long in one 30 s run as in another a few
minutes later. Timing this kernel between operations tracks that speed, and
dividing by it turns a wall time into reference seconds, the time the
operation would take with the kernel running at ``KERNEL_REF_S``. The
benchmark's set-up time is scaled the same way, by kernel timings taken
between its corpus builds.

The kernel imports nothing from the solver, so no change to the solver can
change its time. It does the kind of work the solver does: exact
``Fraction`` row reduction, as in the simplex, and a breadth-first search
over dict adjacency lists, as in the flow networks.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

# the kernel's mean time on an Intel Xeon (2 vCPUs) when the host was quiet
KERNEL_REF_S = 0.0030

_N = 10
_SIDE = 32


def _grid() -> dict:
    return {
        (x, y): [((x + dx) % _SIDE, (y + dy) % _SIDE)
                 for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1))]
        for x in range(_SIDE) for y in range(_SIDE)
    }


def kernel() -> tuple[Fraction, int]:
    """Row-reduce a fixed rational matrix and search a fixed torus grid."""
    a = [[Fraction(1, i + j + 1) + (i == j) for j in range(_N)]
         for i in range(_N)]
    for c in range(_N):
        pivot = a[c]
        for r in range(c + 1, _N):
            row = a[r]
            f = row[c] / pivot[c]
            for k in range(c, _N):
                row[k] -= f * pivot[k]
    adj = _grid()
    seen = {(0, 0): 0}
    queue = [(0, 0)]
    for u in queue:
        for v in adj[u]:
            if v not in seen:
                seen[v] = seen[u] + 1
                queue.append(v)
    return a[-1][-1], len(seen)


def host_speed(kernel_times: list[float]) -> float:
    """The kernel's reference time over its mean time, below 1 when the
    host is slower. The mean, not the median: the timed work lasts long
    enough to average over the slow spells that single kernel timings
    either hit or miss."""
    return KERNEL_REF_S / (sum(kernel_times) / len(kernel_times))


def time_kernel() -> float:
    """Seconds for one kernel run, with the collector off so that the
    solver's heap cannot slow the kernel down."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()
