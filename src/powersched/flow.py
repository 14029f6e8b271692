"""Feasibility of deadline scheduling on supply intervals via max-flow.

The network has a source, one node per job, one node per (unit or coarse)
slot, and a sink. Job arcs carry processing time, job-to-slot arcs carry the
slot length when the slot lies inside the job's window, and slot-to-sink
arcs carry the supply capacity of the slot. The supply is feasible exactly
when the max-flow saturates every source arc, i.e. equals the total volume P.

The min cut whose source side is minimal (unique, obtained as the set of
residual-reachable nodes) yields a deficiency witness: the slots on the
source side, aggregated into maximal disjoint intervals.

Every production max-flow runs on one network, ``feasibility_network``: the
coarse slots between consecutive job and supply endpoints. Its feasible
flows are spread over unit slots by the wrap-around layout of
``spread_flow``. The unit-slot network (``build_unit_network``) is kept as
the reference for tests and for the unit-step repair, which is itself the
test reference for the batched repair.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    DisjointIntervalSet,
    Instance,
    InternalInvariantError,
    Interval,
    coverage_profile,
)


class FlowNetwork:
    """Single-owner mutable flow state over the job/slot bipartite graph."""

    def __init__(self, instance: Instance, slots: list[tuple[int, int]],
                 slot_caps: list[int]):
        self.instance = instance
        self.slots = slots
        n = len(instance.jobs)
        self.n_jobs = n
        self.source = 0
        self.sink = 1
        self.job_node = {j.id: 2 + k for k, j in enumerate(instance.jobs)}
        self.slot_node = [2 + n + k for k in range(len(slots))]
        self.n_nodes = 2 + n + len(slots)
        # arc storage: parallel lists, arcs come in residual pairs (i, i^1)
        self.arc_to: list[int] = []
        self.arc_cap: list[int] = []
        self.arc_flow: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
        self._flow_value = 0
        self._job_arcs: dict[tuple[int, int], int] = {}
        self.sink_arc: list[int] = []

        for k, j in enumerate(instance.jobs):
            self._add_arc(self.source, self.job_node[j.id], j.ptime)
        for k, (a, b) in enumerate(slots):
            length = b - a
            for j in instance.jobs:
                if j.release <= a and b <= j.deadline:
                    idx = self._add_arc(self.job_node[j.id],
                                        self.slot_node[k], length)
                    self._job_arcs[(j.id, k)] = idx
            self.sink_arc.append(
                self._add_arc(self.slot_node[k], self.sink, slot_caps[k])
            )

    def _add_arc(self, u: int, v: int, cap: int) -> int:
        idx = len(self.arc_to)
        self.arc_to += [v, u]
        self.arc_cap += [cap, 0]
        self.arc_flow += [0, 0]
        self.adj[u].append(idx)
        self.adj[v].append(idx ^ 1)
        return idx

    def _residual(self, idx: int) -> int:
        return self.arc_cap[idx] - self.arc_flow[idx]

    def max_flow(self) -> int:
        """Run Dinic to completion; callable again after capacity increases."""
        while True:
            level = self._bfs_levels()
            if level[self.sink] < 0:
                return self._flow_value
            it = [0] * self.n_nodes
            while True:
                pushed = self._dfs(self.source, 1 << 60, level, it)
                if not pushed:
                    break
                self._flow_value += pushed

    def _bfs_levels(self) -> list[int]:
        level = [-1] * self.n_nodes
        level[self.source] = 0
        queue = [self.source]
        for u in queue:
            for idx in self.adj[u]:
                v = self.arc_to[idx]
                if level[v] < 0 and self._residual(idx) > 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _dfs(self, u: int, limit: int, level: list[int], it: list[int]) -> int:
        if u == self.sink:
            return limit
        while it[u] < len(self.adj[u]):
            idx = self.adj[u][it[u]]
            v = self.arc_to[idx]
            if self._residual(idx) > 0 and level[v] == level[u] + 1:
                pushed = self._dfs(v, min(limit, self._residual(idx)), level, it)
                if pushed:
                    self.arc_flow[idx] += pushed
                    self.arc_flow[idx ^ 1] -= pushed
                    return pushed
            it[u] += 1
        return 0

    @property
    def flow_value(self) -> int:
        return self._flow_value

    def residual_source_side(self) -> set[int]:
        """Nodes reachable from the source in the residual graph.

        After a max-flow this is the unique minimum cut with minimal source
        side.
        """
        seen = {self.source}
        queue = [self.source]
        for u in queue:
            for idx in self.adj[u]:
                v = self.arc_to[idx]
                if v not in seen and self._residual(idx) > 0:
                    seen.add(v)
                    queue.append(v)
        return seen

    def cut_capacity(self, side: set[int]) -> int:
        total = 0
        for u in side:
            for idx in self.adj[u]:
                if idx % 2 == 0 and self.arc_to[idx] not in side:
                    total += self.arc_cap[idx]
        return total

    def witness_from_side(self, side: set[int]) -> DisjointIntervalSet:
        """Slots on the source side, merged into maximal disjoint intervals."""
        slots = []
        for k, node in enumerate(self.slot_node):
            if node in side:
                a, b = self.slots[k]
                slots.extend(range(a, b))
        return DisjointIntervalSet.from_slots(slots)

    def source_side_slots(self, side: set[int]) -> list[int]:
        return [k for k, node in enumerate(self.slot_node) if node in side]

    def increase_slot_capacity(self, slot_index: int, delta: int = 1) -> None:
        self.arc_cap[self.sink_arc[slot_index]] += delta

    def job_slot_flow(self) -> dict[tuple[int, int], int]:
        """Units of each job routed to each slot index (positive entries)."""
        out = {}
        for (job_id, k), idx in self._job_arcs.items():
            f = self.arc_flow[idx]
            if f > 0:
                out[(job_id, k)] = f
        return out


def build_unit_network(instance: Instance, supply: Sequence[Interval]) -> FlowNetwork:
    """Reference network with one node per unit slot; sink capacity = supply
    coverage. Only the unit-step repair and tests build it."""
    prof = coverage_profile(supply, instance.horizon)
    slots = [(t, t + 1) for t in range(instance.horizon)]
    return FlowNetwork(instance, slots, prof)


def build_coarse(instance: Instance, supply: Sequence[Interval],
                 points: Sequence[int]) -> FlowNetwork:
    """Network on coarse slots delimited by consecutive time points.

    Every job window and every supply interval must start and end on a
    point, so each either fully covers a coarse slot or misses it. A coarse
    slot of length L crossed by n supply intervals gets sink capacity n*L,
    and each job arc into it carries capacity L. With aligned endpoints this
    aggregation is exact: a coarse flow of value P spreads to a unit-slot
    flow by the wrap-around layout (``spread_flow``) and vice versa.
    """
    pts = sorted(set(points))
    if not pts or pts[0] != 0 or pts[-1] != instance.horizon:
        raise ValueError("points must cover [0, horizon]")
    point_set = set(pts)
    for j in instance.jobs:
        if j.release not in point_set or j.deadline not in point_set:
            raise ValueError(f"job {j.id} window not aligned to points")
    for iv in supply:
        if iv.start not in point_set or iv.end not in point_set:
            raise ValueError(f"supply interval {iv} not aligned to points")
    slots = list(zip(pts, pts[1:]))
    caps = []
    for a, b in slots:
        crossing = sum(1 for iv in supply if iv.start <= a and b <= iv.end)
        caps.append(crossing * (b - a))
    return FlowNetwork(instance, slots, caps)


def feasibility_network(instance: Instance, supply: Sequence[Interval]
                        ) -> FlowNetwork:
    """The coarse network on 0, D and every job and supply endpoint.

    This is Horn's interval network for preemptive deadline scheduling
    (W. A. Horn, Naval Res. Logist. Q. 21, 1974). It has O(n + |supply|)
    slot nodes instead of D, and its minimal min cut covers the same unit
    slots as the unit-slot network's, so flow values and witnesses agree.
    Supply beyond the horizon is cut off.
    """
    horizon = instance.horizon
    inside = [Interval(iv.start, min(iv.end, horizon))
              for iv in supply if iv.start < horizon]
    return build_coarse(instance, inside, aligned_points(instance, inside, ()))


def spread_flow(slots: Sequence[tuple[int, int]],
                flows: dict[tuple[int, int], int]
                ) -> dict[tuple[int, int], int]:
    """Spread coarse-slot flow over unit slots by the wrap-around layout.

    ``flows`` maps (job id, coarse slot index) to routed units. In a coarse
    slot [a, b) the volumes are laid end to end in job-id order, and unit
    position p lands in unit slot a + p mod (b - a). No job routes more than
    b - a units into the slot, so its units land in distinct unit slots, and
    a slot crossed by c supply intervals holds at most c jobs per unit slot.
    Returns (job id, unit slot) -> 1 for every unit.
    """
    by_slot: dict[int, list[tuple[int, int]]] = {}
    for (job_id, k), units in flows.items():
        if units > 0:
            by_slot.setdefault(k, []).append((job_id, units))
    out = {}
    for k, volumes in by_slot.items():
        a, b = slots[k]
        length = b - a
        cursor = 0
        for job_id, units in sorted(volumes):
            if units > length:
                raise ValueError(
                    f"slot [{a},{b}] routes job {job_id} beyond its length")
            for pos in range(cursor, cursor + units):
                out[(job_id, a + pos % length)] = 1
            cursor += units
    return out


def aligned_points(instance: Instance, supply: Sequence[Interval],
                   base: Sequence[int]) -> list[int]:
    """Base points refined with job and supply endpoints so build_coarse
    applies."""
    pts = set(base)
    pts.update((0, instance.horizon))
    for j in instance.jobs:
        pts.add(j.release)
        pts.add(j.deadline)
    for iv in supply:
        pts.add(iv.start)
        pts.add(min(iv.end, instance.horizon))
    return sorted(p for p in pts if 0 <= p <= instance.horizon)


@dataclass(frozen=True)
class Cut:
    """A source-side node set with its capacity and slot witness."""

    source_side: frozenset[int]
    capacity: int
    witness: DisjointIntervalSet


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    flow_value: int
    flows: dict[tuple[int, int], int] | None = None
    witness: DisjointIntervalSet | None = None
    deficiency: int = 0


def min_cut_minimal_source(net: FlowNetwork) -> Cut:
    """Minimum cut with minimal source side; requires max-flow already run."""
    side = net.residual_source_side()
    cap = net.cut_capacity(side)
    if cap != net.flow_value:
        raise InternalInvariantError("residual cut does not match flow value")
    return Cut(frozenset(side), cap, net.witness_from_side(side))


def check_feasible(instance: Instance, supply: Sequence[Interval]
                   ) -> FeasibilityResult:
    """Decide feasibility of the supply; infeasible verdicts carry a witness.

    Feasible verdicts carry the flow keyed by (job id, unit slot), one unit
    per key.
    """
    total = instance.total_ptime
    net = feasibility_network(instance, supply)
    value = net.max_flow()
    if value > total:
        raise InternalInvariantError("flow exceeded total volume")
    if value == total:
        return FeasibilityResult(
            True, value, flows=spread_flow(net.slots, net.job_slot_flow()))
    cut = min_cut_minimal_source(net)
    return FeasibilityResult(
        False, value, witness=cut.witness, deficiency=total - cut.capacity
    )


def augment_capacity_step(net: FlowNetwork) -> tuple[int, int]:
    """Raise one slot-to-sink capacity by 1 and re-augment.

    The slot is the leftmost slot node on the minimal source side; raising
    any such capacity increases the max-flow by exactly one. Returns the
    chosen slot index and the new flow value.
    """
    total = net.instance.total_ptime
    if net.flow_value >= total:
        raise ValueError("network already routes the full volume")
    side = net.residual_source_side()
    in_side = net.source_side_slots(side)
    if not in_side:
        raise InternalInvariantError("no slot node on the source side")
    k = min(in_side, key=lambda i: net.slots[i][0])
    net.increase_slot_capacity(k, 1)
    before = net.flow_value
    after = net.max_flow()
    if after != before + 1:
        raise InternalInvariantError("capacity increase did not gain one unit")
    return k, after
