"""Deterministic pseudorandom feasible instance generation."""
from __future__ import annotations

import random

from .core import Instance, Interval
from .flow import check_feasible


class GenerationError(RuntimeError):
    pass


def generate_instance(seed: int, n: int, machines: int, horizon: int,
                      wakeup: int, density: float = 0.5,
                      attempts: int = 500) -> Instance:
    """Rejection-sample a feasible instance with expected load near density.

    The same seed always yields the same instance. Raises GenerationError
    when no feasible draw shows up within the attempt budget.
    """
    if n < 0 or horizon < 1 or machines < 1 or not (0 < density <= 1):
        raise ValueError("generator needs jobs >= 0, machines >= 1, "
                         "horizon >= 1 and 0 < density <= 1")
    rng = random.Random(seed)
    target = max(n, int(round(density * machines * horizon)))
    for _ in range(attempts):
        jobs = []
        remaining = target
        for i in range(n):
            r = rng.randrange(0, horizon)
            d = rng.randrange(r + 1, horizon + 1)
            hi = min(d - r, max(1, remaining))
            p = rng.randint(1, hi)
            remaining -= p
            jobs.append((r, d, p))
        if not jobs:
            return Instance.build([], machines, wakeup, horizon)
        # pin the horizon and a zero release so the instance file round-trips
        r, d, p = jobs[0]
        jobs[0] = (r, horizon, p)
        r, d, p = jobs[1 % n]
        if 1 % n == 0:
            jobs[0] = (0, horizon, jobs[0][2])
        else:
            jobs[1] = (0, d, min(p, d))
        try:
            inst = Instance.build(jobs, machines, wakeup, horizon)
        except Exception:
            continue
        if not inst.jobs:
            return inst
        full = [Interval(0, inst.horizon)] * machines
        if check_feasible(inst, full).feasible:
            return inst
    raise GenerationError(f"no feasible instance in {attempts} attempts")
