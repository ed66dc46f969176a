"""Selfish scheduling baseline: no load sharing between agents.

Every required task runs on its owning agent, serially, in canonical task
order. The strict mode schedules nothing else and is the feasibility probe
behind validate_problem; the storage-excepted mode additionally runs
optional tasks locally and ships storage-class tasks to the designated base
station, which is both the comparison policy of the shared-vs-selfish
benchmarks and the solver's warm start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .model import (
    CommEvent,
    FORBIDDEN,
    HorizonOverflow,
    Placement,
    ProblemInstance,
    Schedule,
    comm_duration,
    frac,
    occupancy_steps,
)


def owner_of(p: ProblemInstance, task_id: str) -> str | None:
    """Owning agent: explicit assignment, else the agent its pinned ancestors
    sit on, else the cheapest capable agent (ties by agent order)."""
    if task_id in p.owners:
        return p.owners[task_id]
    by_id = p.network.by_id
    pinned_agents = set()
    stack = [task_id]
    seen = set()
    while stack:
        cur = stack.pop()
        if cur in seen or cur not in by_id:
            continue
        seen.add(cur)
        allowed = [a.id for a in p.agents if a.allows(cur)]
        if len(allowed) == 1:
            pinned_agents.add(allowed[0])
        stack.extend(by_id[cur].predecessors)
    if len(pinned_agents) == 1:
        agent = next(iter(pinned_agents))
        if p.agent(agent).allows(task_id):
            return agent
    best = None
    best_time = None
    for a in p.agents:
        t = a.time_for(task_id)
        if t is FORBIDDEN:
            continue
        if best_time is None or t < best_time:
            best, best_time = a.id, t
    return best


@dataclass
class _Timeline:
    """Per-agent busy steps with earliest-fit lookup."""

    num_steps: int
    busy: dict[str, set[int]] = field(default_factory=dict)

    def fits(self, agent: str, start: int, length: int) -> bool:
        if start < 0 or start + length > self.num_steps:
            return False
        slots = self.busy.get(agent, set())
        return all(s not in slots for s in range(start, start + length))

    def earliest(self, agent: str, after: int, length: int) -> int | None:
        for start in range(after, self.num_steps - length + 1):
            if self.fits(agent, start, length):
                return start
        return None

    def occupy(self, agent: str, start: int, length: int):
        self.busy.setdefault(agent, set()).update(range(start, start + length))


def selfish_schedule(p: ProblemInstance, mode: str = "strict") -> Schedule:
    """Serial no-sharing schedule; `mode` is "strict" or "storage_excepted"."""
    if mode not in ("strict", "storage_excepted"):
        raise ValueError(f"unknown selfish mode {mode!r}")
    order = p.network.task_ids
    by_id = p.network.by_id
    steps = p.horizon.num_steps
    dt = p.horizon.step_duration
    timeline = _Timeline(steps)
    placements: list[Placement] = []
    comms: list[CommEvent] = []
    # (agent, task) -> first step where the product is locally usable
    ready: dict[tuple[str, str], int] = {}
    for agent, prods in sorted(p.initial_products.items()):
        for t in sorted(prods):
            ready[(agent, t)] = 0
    placed_on: dict[str, str] = {}

    def place_required(task_id: str):
        task = by_id[task_id]
        agent = owner_of(p, task_id)
        if agent is None or not p.agent(agent).allows(task_id):
            raise HorizonOverflow(f"required task {task_id} has no capable owner")
        earliest = 0
        for pred in sorted(task.predecessors):
            if pred in p.done_tasks:
                at = ready.get((agent, pred))
                if at is None:
                    raise HorizonOverflow(
                        f"required task {task_id}: completed predecessor {pred} not held by {agent}"
                    )
                earliest = max(earliest, at)
                continue
            if placed_on.get(pred) != agent:
                raise HorizonOverflow(
                    f"required task {task_id} depends on {pred} owned elsewhere; selfish mode cannot share"
                )
            earliest = max(earliest, ready[(agent, pred)])
        dur = p.duration_steps(agent, task_id)
        occ = occupancy_steps(dur)
        start = timeline.earliest(agent, earliest, occ)
        if start is None:
            raise HorizonOverflow(f"required task {task_id} does not fit on {agent}")
        timeline.occupy(agent, start, occ)
        placements.append(Placement(agent, task_id, start))
        placed_on[task_id] = agent
        ready[(agent, task_id)] = start + occ

    def try_transfer(src: str, dst: str, task_id: str, after: int) -> int | None:
        """Ship a product src->dst greedily; returns availability step at dst."""
        size = by_id[task_id].product_size
        profile = p.contacts.profile(src, dst, steps)
        for start in range(after, steps):
            dur = comm_duration(size, profile, dt, start)
            if dur is None:
                return None
            dur = max(dur, 1)  # a transfer event always occupies a slot
            if start + dur > steps:
                continue
            if timeline.fits(src, start, dur) and timeline.fits(dst, start, dur):
                timeline.occupy(src, start, dur)
                timeline.occupy(dst, start, dur)
                bits = tuple(profile[k] * dt for k in range(start, start + dur))
                comms.append(CommEvent(src, dst, task_id, start, start + dur - 1, bits))
                ready[(dst, task_id)] = start + dur
                return start + dur
        return None

    def place_optional(task_id: str):
        task = by_id[task_id]
        storage = task_id in p.storage_tasks and p.base_agent is not None
        agent = p.base_agent if storage else owner_of(p, task_id)
        if agent is None or not p.agent(agent).allows(task_id):
            return
        earliest = 0
        for pred in sorted(task.predecessors):
            if pred in p.done_tasks and (agent, pred) in ready:
                earliest = max(earliest, ready[(agent, pred)])
                continue
            src = placed_on.get(pred)
            if src is None:
                return  # predecessor skipped; chain ends here
            at = ready.get((agent, pred))
            if at is None:
                if not storage:
                    return  # only storage tasks may pull data across agents
                at = try_transfer(src, agent, pred, ready[(src, pred)])
                if at is None:
                    return
            earliest = max(earliest, at)
        dur = p.duration_steps(agent, task_id)
        occ = occupancy_steps(dur)
        start = timeline.earliest(agent, earliest, occ)
        if start is None:
            return
        timeline.occupy(agent, start, occ)
        placements.append(Placement(agent, task_id, start))
        placed_on[task_id] = agent
        ready[(agent, task_id)] = start + occ

    # Required tasks claim the early slots first; optional tasks then fill
    # whatever room is left, so a crowded horizon never starves a required one.
    for task_id in order:
        if task_id not in p.done_tasks and by_id[task_id].required:
            place_required(task_id)
    if mode == "storage_excepted":
        for task_id in order:
            if task_id not in p.done_tasks and not by_id[task_id].required:
                place_optional(task_id)

    sched = Schedule(tuple(placements), tuple(comms))
    return Schedule(
        sched.placements,
        sched.comms,
        schedule_value(p, sched),
        schedule_makespan(p, sched),
    )


def schedule_makespan(p: ProblemInstance, s: Schedule) -> int:
    mk = 0
    for pl in s.placements:
        dur = p.duration_steps(pl.agent, pl.task)
        if dur is not None:
            mk = max(mk, pl.start + dur)
    return mk


def comm_capacity_bits(p: ProblemInstance, s: Schedule) -> Fraction:
    """Link capacity consumed by comm events (the energy-relevant quantity)."""
    dt = p.horizon.step_duration
    total = Fraction(0)
    for c in s.comms:
        for idx in range(len(c.bits_per_step)):
            total += p.contacts.rate(c.src, c.dst, c.start + idx) * dt
    return total


def schedule_energy(p: ProblemInstance, s: Schedule) -> Fraction:
    total = Fraction(0)
    for pl in s.placements:
        total += frac(p.agent(pl.agent).energy_for(pl.task))
    total += p.comm_energy_per_bit * comm_capacity_bits(p, s)
    return total


def schedule_value(p: ProblemInstance, s: Schedule) -> Fraction:
    """Objective value of a schedule under the instance's objective."""
    w = p.objective.weight_vector()
    by_id = p.network.by_id
    value = Fraction(0)
    if w["reward"] > 0:
        value += w["reward"] * sum(
            (by_id[pl.task].effective_reward for pl in s.placements if pl.task in by_id),
            Fraction(0),
        )
    if w["energy"] > 0:
        value -= w["energy"] * schedule_energy(p, s)
    if w["makespan"] > 0:
        value -= w["makespan"] * schedule_makespan(p, s)
    return value


@dataclass(frozen=True)
class SideMetrics:
    tasks: int
    count_by_category: tuple[tuple[str, int], ...]
    energy_total: Fraction
    avg_energy_per_task: Fraction
    makespan_steps: int
    bits_total: Fraction

    def category(self, name: str) -> int:
        return dict(self.count_by_category).get(name, 0)


@dataclass(frozen=True)
class ComparisonMetrics:
    shared: SideMetrics
    selfish: SideMetrics


def _side(p: ProblemInstance, s: Schedule) -> SideMetrics:
    by_id = p.network.by_id
    counts: dict[str, int] = {}
    for pl in s.placements:
        task = by_id.get(pl.task)
        if task is not None and not task.required and task.category:
            counts[task.category] = counts.get(task.category, 0) + 1
    tasks = len(s.placements)
    energy = schedule_energy(p, s)
    bits = sum((c.total_bits for c in s.comms), Fraction(0))
    return SideMetrics(
        tasks=tasks,
        count_by_category=tuple(sorted(counts.items())),
        energy_total=energy,
        avg_energy_per_task=energy / tasks if tasks else Fraction(0),
        makespan_steps=schedule_makespan(p, s),
        bits_total=bits,
    )


def compare(p: ProblemInstance, shared: Schedule, selfish: Schedule) -> ComparisonMetrics:
    """Shared-vs-selfish metrics for one instance."""
    return ComparisonMetrics(shared=_side(p, shared), selfish=_side(p, selfish))
