"""Domain model: tasks, agents, contact graphs, horizons, problems, schedules.

All quantities are exact rationals (``fractions.Fraction``); every operation
in this module is a pure function of its arguments, so results are identical
across runs, machines, and thread counts.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

RationalLike = Union[int, float, str, Fraction]


class CyclicDependency(ValueError):
    """The task dependency relation contains a cycle."""


class HorizonOverflow(ValueError):
    """A serial per-agent schedule does not fit inside the horizon."""


class _Forbidden:
    """Marker: a task can never be placed on a given agent."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FORBIDDEN"


FORBIDDEN = _Forbidden()

#: Returned by comm_duration when the transfer cannot finish in the horizon.
INFEASIBLE = None

CostEntry = Union[Fraction, _Forbidden]


def frac(value: RationalLike) -> Fraction:
    """Coerce ints, decimal/ratio strings, floats, or Fractions to Fraction.

    A string with an exponent is refused: `1e99999999` alone would take
    minutes and gigabytes to expand.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    if isinstance(value, str) and "e" in value.lower():
        raise ValueError(f"{value!r}: write numbers without an exponent")
    return Fraction(value)


@dataclass(frozen=True)
class Task:
    """One computation task and the data product it emits."""

    id: str
    required: bool = True
    reward: Fraction = Fraction(0)
    product_size: Fraction = Fraction(0)  # bits
    predecessors: frozenset[str] = frozenset()
    category: str = ""  # e.g. "collect", "analyze", "store"; "" = housekeeping

    def __post_init__(self):
        object.__setattr__(self, "reward", frac(self.reward))
        object.__setattr__(self, "product_size", frac(self.product_size))
        object.__setattr__(self, "predecessors", frozenset(self.predecessors))

    @property
    def effective_reward(self) -> Fraction:
        """Reward counted by the objective: required tasks contribute 0."""
        return Fraction(0) if self.required else self.reward


@dataclass(frozen=True)
class SoftwareNetwork:
    """Dependency DAG of tasks, stored in canonical deterministic order.

    Tasks are kept in topological order with ties broken by id, so
    `task_ids` is the canonical order every consumer walks. A dependency
    cycle raises CyclicDependency at construction; predecessors outside
    the network are ignored here and reported by validate_problem.
    """

    tasks: tuple[Task, ...]

    def __init__(self, tasks: Iterable[Task]):
        items = tuple(tasks)
        by_id = {t.id: t for t in items}
        if len(by_id) != len(items):
            raise ValueError("duplicate task ids in software network")
        object.__setattr__(self, "tasks", tuple(by_id[i] for i in topological_order_of(items)))

    @property
    def M(self) -> int:
        return len(self.tasks)

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.tasks)

    @property
    def by_id(self) -> dict[str, Task]:
        return {t.id: t for t in self.tasks}


@dataclass(frozen=True)
class AgentProfile:
    """Per-agent compute cost tables; a missing task entry means FORBIDDEN."""

    id: str
    compute_time: Mapping[str, CostEntry] = field(default_factory=dict)
    compute_energy: Mapping[str, CostEntry] = field(default_factory=dict)

    def __post_init__(self):
        time = {k: (v if v is FORBIDDEN else frac(v)) for k, v in self.compute_time.items()}
        energy = {k: (v if v is FORBIDDEN else frac(v)) for k, v in self.compute_energy.items()}
        fb_time = {k for k, v in time.items() if v is FORBIDDEN}
        fb_energy = {k for k, v in energy.items() if v is FORBIDDEN}
        known = (set(time) - fb_time) | (set(energy) - fb_energy)
        if (fb_time & known) or (fb_energy & known):
            raise ValueError(f"agent {self.id}: time and energy must be FORBIDDEN for the same tasks")
        object.__setattr__(self, "compute_time", time)
        object.__setattr__(self, "compute_energy", energy)

    def allows(self, task_id: str) -> bool:
        entry = self.compute_time.get(task_id, FORBIDDEN)
        return entry is not FORBIDDEN

    def time_for(self, task_id: str) -> CostEntry:
        return self.compute_time.get(task_id, FORBIDDEN)

    def energy_for(self, task_id: str) -> CostEntry:
        entry = self.compute_energy.get(task_id, FORBIDDEN)
        if entry is FORBIDDEN and self.allows(task_id):
            return Fraction(0)
        return entry


@dataclass(frozen=True)
class InterferenceSet:
    """Directed links sharing a wireless channel of bounded total capacity."""

    links: frozenset[tuple[str, str]]
    capacity_bps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "links", frozenset(self.links))
        object.__setattr__(self, "capacity_bps", frac(self.capacity_bps))


@dataclass(frozen=True)
class ContactGraph:
    """Per-(src, dst, step) data rates in bits/second; absent entries are 0.

    Self loops are infinitely fast by convention and must not be stored.
    """

    rates: Mapping[tuple[str, str, int], Fraction] = field(default_factory=dict)
    interference_sets: tuple[InterferenceSet, ...] = ()

    def __post_init__(self):
        norm = {}
        for (src, dst, step), rate in self.rates.items():
            if src == dst:
                raise ValueError("self-loop rates are implicit and must not be given")
            norm[(src, dst, int(step))] = frac(rate)
        object.__setattr__(self, "rates", norm)
        object.__setattr__(self, "interference_sets", tuple(self.interference_sets))

    def rate(self, src: str, dst: str, step: int) -> Fraction:
        if src == dst:
            raise ValueError("self-loop rate is infinite by convention")
        return self.rates.get((src, dst, step), Fraction(0))

    def profile(self, src: str, dst: str, num_steps: int) -> tuple[Fraction, ...]:
        return tuple(self.rate(src, dst, k) for k in range(num_steps))


@dataclass(frozen=True)
class Horizon:
    """Planning window: wall-clock length split into equal discrete steps."""

    wall_clock_s: Fraction
    num_steps: int

    def __post_init__(self):
        object.__setattr__(self, "wall_clock_s", frac(self.wall_clock_s))
        if self.num_steps < 1:
            raise ValueError("horizon needs at least one step")
        if self.wall_clock_s <= 0:
            raise ValueError("horizon length must be positive")

    @property
    def step_duration(self) -> Fraction:
        return self.wall_clock_s / self.num_steps


@dataclass(frozen=True)
class Objective:
    """Optimization objective; weighted mixes combine the three base kinds."""

    kind: str  # "reward" | "makespan" | "energy" | "weighted"
    weights: tuple[tuple[str, Fraction], ...] = ()

    KINDS = ("reward", "makespan", "energy", "weighted")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        norm = tuple((k, frac(w)) for k, w in self.weights)
        if self.kind == "weighted":
            if not norm or all(w == 0 for _, w in norm):
                raise ValueError("weighted objective needs at least one positive weight")
            if any(w < 0 for _, w in norm):
                raise ValueError("weights must be non-negative")
            if any(k not in ("reward", "makespan", "energy") for k, _ in norm):
                raise ValueError("weighted terms must be base objectives")
        object.__setattr__(self, "weights", norm)

    @classmethod
    def reward(cls) -> "Objective":
        return cls("reward")

    @classmethod
    def makespan(cls) -> "Objective":
        return cls("makespan")

    @classmethod
    def energy(cls) -> "Objective":
        return cls("energy")

    @classmethod
    def weighted(cls, weights: Iterable[tuple[str, RationalLike]]) -> "Objective":
        return cls("weighted", tuple((k, frac(w)) for k, w in weights))

    def weight_vector(self) -> dict[str, Fraction]:
        """Weights of (reward, makespan, energy) as a dense mapping."""
        if self.kind != "weighted":
            return {k: Fraction(1 if k == self.kind else 0) for k in ("reward", "makespan", "energy")}
        vec = {k: Fraction(0) for k in ("reward", "makespan", "energy")}
        for k, w in self.weights:
            vec[k] += w
        return vec


@dataclass(frozen=True)
class ProblemInstance:
    """Everything the encoder and solvers need for one scheduling problem."""

    network: SoftwareNetwork
    agents: tuple[AgentProfile, ...]
    contacts: ContactGraph
    horizon: Horizon
    objective: Objective
    owners: Mapping[str, str] = field(default_factory=dict)
    storage_tasks: frozenset[str] = frozenset()
    base_agent: str | None = None
    comm_energy_per_bit: Fraction = Fraction(0)
    # Cross-cycle rescheduling state: tasks already executed, and the agents
    # holding each data product at step 0.
    done_tasks: frozenset[str] = frozenset()
    initial_products: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate agent ids")
        object.__setattr__(self, "owners", dict(self.owners))
        object.__setattr__(self, "storage_tasks", frozenset(self.storage_tasks))
        object.__setattr__(self, "comm_energy_per_bit", frac(self.comm_energy_per_bit))
        object.__setattr__(self, "done_tasks", frozenset(self.done_tasks))
        object.__setattr__(
            self, "initial_products", {k: frozenset(v) for k, v in self.initial_products.items()}
        )

    @property
    def agent_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.agents)

    def agent(self, agent_id: str) -> AgentProfile:
        for a in self.agents:
            if a.id == agent_id:
                return a
        raise KeyError(agent_id)

    def duration_steps(self, agent_id: str, task_id: str):
        """Discrete duration of a task on an agent, or None when forbidden."""
        entry = self.agent(agent_id).time_for(task_id)
        if entry is FORBIDDEN:
            return None
        return discretize_cost(entry, self.horizon)


@dataclass(frozen=True)
class Placement:
    agent: str
    task: str
    start: int
    duration: int | None = None  # as a schedule file states it; None when unstated


@dataclass(frozen=True)
class CommEvent:
    """Transfer of one data product over one link; steps are inclusive."""

    src: str
    dst: str
    task: str
    start: int
    end: int
    bits_per_step: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits_per_step", tuple(frac(b) for b in self.bits_per_step))
        if len(self.bits_per_step) != self.end - self.start + 1:
            raise ValueError("bits_per_step length must match the step span")

    @property
    def total_bits(self) -> Fraction:
        return sum(self.bits_per_step, Fraction(0))


@dataclass(frozen=True)
class Schedule:
    """Task placements plus communication events, with the achieved value."""

    placements: tuple[Placement, ...]
    comms: tuple[CommEvent, ...]
    objective_value: Fraction = Fraction(0)
    makespan_steps: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "placements", tuple(sorted(self.placements, key=lambda p: (p.start, p.agent, p.task)))
        )
        object.__setattr__(
            self, "comms", tuple(sorted(self.comms, key=lambda c: (c.start, c.src, c.dst, c.task)))
        )
        object.__setattr__(self, "objective_value", frac(self.objective_value))

    def placement_of(self, task_id: str) -> Placement | None:
        for p in self.placements:
            if p.task == task_id:
                return p
        return None

    def to_text(self, p: ProblemInstance | None = None) -> str:
        """Canonical line-oriented form; byte-identical for equal schedules."""
        lines = ["SCHEDULE v1"]
        lines.append(f"value {self.objective_value}")
        lines.append(f"makespan {self.makespan_steps}")
        for pl in self.placements:
            steps = pl.duration if p is None else p.duration_steps(pl.agent, pl.task)
            dur = "" if steps is None else f" duration={steps}"
            lines.append(f"placement agent={pl.agent} task={pl.task} start={pl.start}{dur}")
        for c in self.comms:
            bits = ",".join(str(b) for b in c.bits_per_step)
            lines.append(
                f"comm src={c.src} dst={c.dst} task={c.task} start={c.start} end={c.end} bits={bits}"
            )
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


def kv_fields(
    parts: Sequence[str], where: str, required: Sequence[str], optional: Sequence[str] = (),
    error: type[ValueError] = ValueError,
) -> dict[str, str]:
    """The key=value fields of one record; an unknown, repeated or missing key raises `error`."""
    kv = {}
    for part in parts:
        if "=" not in part:
            raise error(f"{where}: expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        if key not in required and key not in optional:
            raise error(f"{where}: unknown field {key!r}")
        if key in kv:
            raise error(f"{where}: duplicate field {key!r}")
        kv[key] = value
    for key in required:
        if key not in kv:
            raise error(f"{where}: missing field {key!r}")
    return kv


def read_head(text: str, header: str, fields) -> tuple[list, list[str]]:
    """Split off the `header` line and the `key VALUE` lines for `fields`,
    (key, cast) pairs in order: (their values, the other non-blank lines).
    A missing or malformed line raises a ValueError naming it."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines[:1] != [header] or len(lines) <= len(fields):
        raise ValueError(f"expected {header!r}, then {', '.join(key for key, _ in fields)} lines")
    values = []
    for ln, (key, cast) in zip(lines[1:], fields):
        parts = ln.split()
        try:
            if len(parts) != 2 or parts[0] != key:
                raise ValueError(f"expected {key!r} and one value")
            values.append(cast(parts[1]))
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(f"{ln}: {exc}") from None
    return values, lines[len(fields) + 1 :]


def schedule_from_text(text: str) -> Schedule:
    """Read what `Schedule.to_text` writes; any other line raises a ValueError naming it."""
    (value, makespan), lines = read_head(text, "SCHEDULE v1", (("value", frac), ("makespan", int)))
    placements, comms = [], []
    for ln in lines:
        kind, *parts = ln.split()
        if kind == "placement":
            kv = kv_fields(parts, ln, ("agent", "task", "start"), ("duration",))
        elif kind == "comm":
            kv = kv_fields(parts, ln, ("src", "dst", "task", "start", "end", "bits"))
        else:
            raise ValueError(f"{ln}: unknown schedule record {kind!r}")
        try:
            if kind == "placement":
                duration = int(kv["duration"]) if "duration" in kv else None
                placements.append(Placement(kv["agent"], kv["task"], int(kv["start"]), duration))
            else:
                bits = tuple(frac(b) for b in kv["bits"].split(",")) if kv["bits"] else ()
                comms.append(
                    CommEvent(kv["src"], kv["dst"], kv["task"], int(kv["start"]), int(kv["end"]), bits)
                )
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(f"{ln}: {exc}") from None
    return Schedule(tuple(placements), tuple(comms), value, makespan)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def topological_order_of(tasks: Sequence[Task]) -> list[str]:
    """Kahn's algorithm with a lexicographic tie-break on task ids."""
    ids = {t.id for t in tasks}
    indeg = {t.id: 0 for t in tasks}
    succ: dict[str, list[str]] = {t.id: [] for t in tasks}
    for t in tasks:
        for p in t.predecessors:
            if p in ids:
                succ[p].append(t.id)
                indeg[t.id] += 1
    ready = [i for i, d in sorted(indeg.items()) if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        cur = heapq.heappop(ready)
        order.append(cur)
        for nxt in succ[cur]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(tasks):
        cyclic = sorted(i for i, d in indeg.items() if d > 0)
        raise CyclicDependency(f"dependency cycle through: {', '.join(cyclic)}")
    return order


def discretize_cost(seconds: RationalLike, horizon: Horizon) -> int:
    """Ceiling of seconds/step_duration; conservative so decoded schedules
    never undershoot the true cost in continuous time."""
    s = frac(seconds)
    if s < 0:
        raise ValueError("cost must be non-negative")
    q = s / horizon.step_duration
    return -(-q.numerator // q.denominator)  # ceil for exact rationals


def occupancy_steps(duration: int) -> int:
    """Slots blocked on the agent; zero-duration tasks still use their start slot."""
    return max(duration, 1)


def comm_duration(
    size: RationalLike,
    rate_profile: Sequence[RationalLike],
    step_duration: RationalLike,
    start_step: int = 0,
):
    """Smallest step count whose cumulative rate*step_duration reaches `size`.

    Returns 0 for empty products and INFEASIBLE (None) when the profile ends
    before enough bits fit.
    """
    s = frac(size)
    if s < 0:
        raise ValueError("size must be non-negative")
    if s == 0:
        return 0
    dt = frac(step_duration)
    acc = Fraction(0)
    for tau, rate in enumerate(rate_profile[start_step:]):
        acc += frac(rate) * dt
        if acc >= s:
            return tau + 1
    return INFEASIBLE


def validate_problem(p: ProblemInstance) -> ValidationReport:
    """Check admissibility; an empty report means the instance is usable."""
    violations: list[str] = []
    known = set(p.network.task_ids)
    for t in p.network.tasks:
        missing = sorted(t.predecessors - known)
        if missing:
            violations.append(f"task {t.id}: unknown predecessors {', '.join(missing)}")
        if t.reward < 0:
            violations.append(f"task {t.id}: negative reward")
        if t.product_size < 0:
            violations.append(f"task {t.id}: negative product size")
    for a in p.agents:
        for task_id, entry in sorted(a.compute_time.items()):
            if entry is not FORBIDDEN and entry < 0:
                violations.append(f"agent {a.id}: negative compute time for {task_id}")
        for task_id, entry in sorted(a.compute_energy.items()):
            if entry is not FORBIDDEN and entry < 0:
                violations.append(f"agent {a.id}: negative energy for {task_id}")
    for (src, dst, step), rate in sorted(p.contacts.rates.items()):
        if rate < 0:
            violations.append(f"link {src}->{dst} step {step}: negative rate")
    for si, iset in enumerate(p.contacts.interference_sets):
        if iset.capacity_bps < 0:
            violations.append(f"interference set {si}: negative capacity")
    for t in p.network.tasks:
        if t.required and t.id not in p.done_tasks:
            if not any(a.allows(t.id) for a in p.agents):
                violations.append(f"required task {t.id} is forbidden on every agent")
    if not violations:
        from . import baseline  # local import: baseline depends on this module

        try:
            baseline.selfish_schedule(p, mode="strict")
        except HorizonOverflow as exc:
            violations.append(f"selfish schedule does not fit the horizon: {exc}")
    return ValidationReport(tuple(violations))


def check_schedule(p: ProblemInstance, s: Schedule) -> list[str]:
    """Independent semantic check of a schedule against the problem rules.

    Simulates holdings step by step (no ILP involved) and reports violations:
    overlapping activities, missing or duplicated required tasks, precedence
    and data-product delivery failures, horizon and capacity breaches.

    A comm event counts over its whole span, dead steps included: both
    endpoints are busy at every step, and the sender must hold the product at
    the first. The encoding counts an event's live steps only, so this check
    and `encoder.check_assignment` agree on schedules whose every comm step
    is live, not on one with an event that spans a dead step.
    """
    errors: list[str] = []
    tasks = p.network.by_id
    num_steps = p.horizon.num_steps
    dt = p.horizon.step_duration

    seen: dict[str, int] = {}
    for pl in s.placements:
        seen[pl.task] = seen.get(pl.task, 0) + 1
    for task_id, count in sorted(seen.items()):
        if count > 1:
            errors.append(f"task {task_id} placed {count} times")
    for t in p.network.tasks:
        if t.required and t.id not in p.done_tasks and t.id not in seen:
            errors.append(f"required task {t.id} not scheduled")
    for task_id in p.done_tasks:
        if task_id in seen:
            errors.append(f"already-done task {task_id} scheduled again")

    # Per-agent busy map: one activity per step (computation or comm endpoint).
    busy: dict[tuple[str, int], str] = {}

    def occupy(agent: str, step: int, what: str):
        if step < 0 or step >= num_steps:
            errors.append(f"{what}: step {step} outside horizon")
            return
        key = (agent, step)
        if key in busy:
            errors.append(f"agent {agent} step {step}: {what} overlaps {busy[key]}")
        else:
            busy[key] = what

    durations: dict[str, int] = {}
    for pl in s.placements:
        if pl.task not in tasks:
            errors.append(f"placement of unknown task {pl.task}")
            continue
        dur = p.duration_steps(pl.agent, pl.task)
        if dur is None:
            errors.append(f"task {pl.task} is forbidden on agent {pl.agent}")
            continue
        durations[pl.task] = dur
        if pl.start + dur > num_steps or pl.start + occupancy_steps(dur) > num_steps:
            errors.append(f"task {pl.task} on {pl.agent} does not finish inside the horizon")
        for step in range(pl.start, min(pl.start + occupancy_steps(dur), num_steps)):
            occupy(pl.agent, step, f"task {pl.task}")
    for c in s.comms:
        if c.src == c.dst:
            errors.append(f"comm of {c.task} has identical endpoints {c.src}")
            continue
        for step in range(c.start, c.end + 1):
            occupy(c.src, step, f"send {c.task}")
            occupy(c.dst, step, f"recv {c.task}")

    # Holdings simulation: products appear at placement start + duration
    # (zero-duration tasks become usable one step later, when the busy slot
    # frees up), or once a receiver has accumulated the full product size.
    available_at: dict[tuple[str, str], int] = {}
    for agent_id, products in sorted(p.initial_products.items()):
        for task_id in sorted(products):
            available_at[(agent_id, task_id)] = 0
    for pl in s.placements:
        if pl.task in durations:
            ready = pl.start + occupancy_steps(durations[pl.task])
            key = (pl.agent, pl.task)
            available_at[key] = min(available_at.get(key, ready), ready)

    # Iteratively credit transfers until stable (events may chain via relays).
    for _ in range(len(s.comms) + 1):
        changed = False
        for c in s.comms:
            size = tasks[c.task].product_size if c.task in tasks else Fraction(0)
            src_ready = available_at.get((c.src, c.task))
            if src_ready is None or src_ready > c.start:
                continue  # sender lacks the product; reported below
            acc = Fraction(0)
            got = None
            for idx, bits in enumerate(c.bits_per_step):
                step = c.start + idx
                acc += bits
                live = p.contacts.rate(c.src, c.dst, step) > 0
                if (size > 0 and acc >= size) or (size == 0 and live):
                    got = step + 1
                    break
            if got is not None:
                key = (c.dst, c.task)
                if key not in available_at or got < available_at[key]:
                    available_at[key] = got
                    changed = True
        if not changed:
            break

    for c in s.comms:
        src_ready = available_at.get((c.src, c.task))
        if src_ready is None or src_ready > c.start:
            errors.append(f"comm {c.task} {c.src}->{c.dst}: sender lacks the product at step {c.start}")
        for idx, bits in enumerate(c.bits_per_step):
            step = c.start + idx
            limit = p.contacts.rate(c.src, c.dst, step) * dt
            if bits > limit:
                errors.append(
                    f"comm {c.task} {c.src}->{c.dst} step {step}: {bits} bits exceeds link capacity {limit}"
                )
    for pl in s.placements:
        if pl.task not in tasks or pl.task not in durations:
            continue
        for pred in sorted(tasks[pl.task].predecessors):
            if pred in p.done_tasks and (pl.agent, pred) not in available_at:
                # Done in an earlier cycle but never delivered here.
                errors.append(f"task {pl.task} on {pl.agent}: done predecessor {pred} not held locally")
                continue
            ready = available_at.get((pl.agent, pred))
            if ready is None or ready > pl.start:
                errors.append(f"task {pl.task} on {pl.agent}: predecessor {pred} not available at step {pl.start}")

    if p.contacts.interference_sets:
        per_step: dict[tuple[int, int], Fraction] = {}
        for c in s.comms:
            for idx, bits in enumerate(c.bits_per_step):
                step = c.start + idx
                for si, iset in enumerate(p.contacts.interference_sets):
                    if (c.src, c.dst) in iset.links:
                        key = (si, step)
                        per_step[key] = per_step.get(key, Fraction(0)) + bits
        for (si, step), total in sorted(per_step.items()):
            cap = p.contacts.interference_sets[si].capacity_bps * dt
            if total > cap:
                errors.append(f"interference set {si} step {step}: {total} bits exceeds capacity {cap}")

    return errors
