"""Spans and counters recorded around calls into powersched's layers.

The solver has no trace of its own yet, so the benchmark wraps public
functions where their callers look them up: the names imported into
``powersched.pipeline``, ``lp.solve_bounded``, the network builders in
``flow`` and ``extend``, and the ``FlowNetwork`` methods. The wrappers only
read arguments and results; solver code is unchanged and every patch is
undone when the ``patched`` block exits.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` the operation's index in the
corpus. Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import powersched.extend
import powersched.flow
import powersched.lp
import powersched.pipeline
import powersched.simplex
from powersched.flow import FlowNetwork

# span name -> the names in powersched.pipeline it wraps
_PIPELINE_SPANS = {
    "lp.build": ("build_point_set", "enumerate_intervals",
                 "build_lp_single", "build_lp_multi"),
    "decompose": ("uncross", "convex_decompose"),
    "extend": ("repair_candidate",),
    "flow.check": ("check_feasible",),
    "flow.build": ("build_coarse",),
    "schedule.assign": ("assign_jobs", "expand_coarse"),
    "schedule.verify": ("verify",),
}
_BUILDERS = ("build_unit_network", "build_coarse")
_WITNESS = ("residual_source_side", "witness_from_side")


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int = 1) -> None:
        self.counts[self.op][name] += value

    def inside(self, name: str) -> bool:
        """True if an open span has this name."""
        return any(self.spans[i][0] == name for i in self._stack)


def _wrap(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(args, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _layer_hooks(tracer: Tracer) -> dict:
    """Counters read from the arguments and results of wrapped calls."""
    c = tracer.count

    def model(args, m):
        c("lp.cols", len(m.var_names))
        c("lp.rows", len(m.rows))
        c("lp.nnz", sum(len(r.coeffs) for r in m.rows))

    def intervals(args, out):
        horizon, points = args[0], (args[1] if len(args) > 1 else None)
        c("lp.points", horizon + 1 if points is None else len(set(points)))

    def network(args, net):
        c("flow.slot_nodes", len(net.slots))

    def repair(args, out):
        c("extend.candidates")
        c("extend.added_slots", out[1])

    return {
        "enumerate_intervals": intervals,
        "build_lp_single": model,
        "build_lp_multi": model,
        "uncross": lambda args, out: c("decompose.support", len(args[0])),
        "convex_decompose": lambda args, out: c("decompose.candidates",
                                                len(out)),
        "repair_candidate": repair,
        "build_coarse": network,
        "build_unit_network": network,
    }


@contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    hooks = _layer_hooks(tracer)
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for span_name, attrs in _PIPELINE_SPANS.items():
        for attr in attrs:
            fn = getattr(powersched.pipeline, attr)
            patch(powersched.pipeline, attr,
                  _wrap(tracer, span_name, fn, hooks.get(attr)))
    for module in (powersched.flow, powersched.extend):
        for attr in _BUILDERS:
            fn = getattr(module, attr)
            patch(module, attr, _wrap(tracer, "flow.build", fn, hooks[attr]))
    patch(powersched.lp, "solve_bounded",
          _wrap(tracer, "simplex.solve", powersched.lp.solve_bounded))

    base_simplex = powersched.simplex.BoundedSimplex

    class CountingSimplex(base_simplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.count("simplex.cells", len(self.tab) * self.n_cols)

    patch(powersched.simplex, "BoundedSimplex", CountingSimplex)

    max_flow = FlowNetwork.max_flow

    def traced_max_flow(net):
        tracer.count("flow.max_flow_calls")
        if tracer.inside("extend"):
            tracer.count("extend.max_flow_calls")
        with tracer.span("flow.max_flow"):
            return max_flow(net)

    patch(FlowNetwork, "max_flow", traced_max_flow)
    for attr in _WITNESS:
        patch(FlowNetwork, attr,
              _wrap(tracer, "flow.witness", getattr(FlowNetwork, attr)))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# per-layer time metric -> the span whose durations it sums
TIME_METRICS = {
    "simplex.solve_s": "simplex.solve",
    "lp.build_s": "lp.build",
    "flow.build_s": "flow.build",
    "flow.max_flow_s": "flow.max_flow",
    "flow.witness_s": "flow.witness",
    "extend.s": "extend",
    "decompose.s": "decompose",
    "schedule.assign_s": "schedule.assign",
    "schedule.verify_s": "schedule.verify",
}
COUNT_METRICS = (
    "simplex.cells", "lp.cols", "lp.rows", "lp.nnz", "lp.points",
    "flow.max_flow_calls", "flow.slot_nodes", "extend.candidates",
    "extend.added_slots", "extend.max_flow_calls", "decompose.support",
    "decompose.candidates",
)
ROOT_SOLVE = "pipeline.solve"


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation means over the traced operations with index < ops.

    Times are span durations; ``pipeline.self_s`` is each solve span's
    duration minus that of its direct children. Counts are exact for a
    given seed, because the operations they cover are fixed.
    """
    totals: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, op in tracer.spans:
        if op < ops:
            totals[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
    self_total = sum(
        end - start - child_time[idx]
        for idx, (name, start, end, parent, op) in enumerate(tracer.spans)
        if op < ops and name == ROOT_SOLVE
    )
    out = {
        metric: totals[span] / ops for metric, span in TIME_METRICS.items()
    }
    out["pipeline.self_s"] = self_total / ops
    summed: dict[str, int] = defaultdict(int)
    for op, counts in tracer.counts.items():
        if op < ops:
            for name, value in counts.items():
                summed[name] += value
    for name in COUNT_METRICS:
        out[name] = summed[name] / ops
    out["extend.flow_calls_per_slot"] = (
        summed["extend.max_flow_calls"] / max(1, summed["extend.added_slots"])
    )
    return out
