"""Discrete-time simulation of the distributed broadcast-plan-execute cycle.

Each cycle: agents flood their compact states over the current network,
independently build the same planning instance from the agreed view, run the
deterministic solver with the same budget (identical inputs must yield
identical schedules), then execute their own placements and transfers
against the scripted world. Tasks or transfers whose runtime preconditions
fail are marked missed and return to the next cycle's pool; partially
delivered products are dropped.

Agents that end a broadcast phase with an incomplete view plan on the
partial view; the divergence is recorded in the trace rather than repaired.

A template that declares interference sets (links sharing one channel) is
planned with them, as `solve` plans it. The execute phase still moves each
transfer's bits at its link's full rate and does not share the channel.

The template must fit the protocol (see `simulation_errors`): its horizon
fits the execute phase, and no agent owns more optional tasks than the
REWARD_SLOTS of its broadcast state.

The planning instance is a pure function of the flooded view, never of the
agent that holds it, so the simulator computes each distinct view's plan once
per cycle and hands it to every agent holding that view. Each agent still
gets its own trace lines. Under complete flooding the agreement check thus
guards the flood; that independent solves agree is the determinism contract,
tested across processes in the test suite.

Flood timing: with n agents enabled, N in the catalog and r_min the lowest
rate-rung floor over the live links (0 when there is none), a round takes
n(3N + 23)/r_min seconds, 0 for a lone agent and the whole broadcast phase
when r_min is 0. The phase fits max(1, floor(broadcast_s / round)) rounds,
and an incomplete flood is charged for all of them.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping, Sequence

from . import baseline
from .encoder import encode, encode_objective
from .model import (
    AgentProfile,
    CommEvent,
    ContactGraph,
    FORBIDDEN,
    ProblemInstance,
    Schedule,
    discretize_cost,
    frac,
    occupancy_steps,
    validate_problem,
)
from .solver import SolveBudget, SolveResult, solve

#: Link bandwidth quantization rungs (bits/second), 3 bits -> 8 levels.
#: Planning uses the rung floor, so planned transfers never outrun reality.
RATE_LEVELS = (0, 1_000, 10_000, 100_000, 1_000_000, 2_000_000, 5_500_000, 11_000_000)

#: Optional-task reward rungs, 2 bits -> 4 levels; level 0 withdraws the task.
REWARD_LEVELS = (0, 5, 10, 20)

#: Capability level scales the shared cost catalog: level 7 is nominal,
#: each level below doubles compute times.
CAPABILITY_SCALE = tuple(Fraction(2) ** (7 - lvl) for lvl in range(8))

#: Broadcast slots for optional-task rewards in one agent state.
REWARD_SLOTS = 10


def rung(levels: Sequence[int], value: Fraction) -> int:
    """Level of the highest rung of `levels` at or below `value`; 0 below all."""
    return max(bisect_right(levels, value) - 1, 0)


def rate_floor(rate_bps: Fraction) -> Fraction:
    """The floor of the rate rung that `rate_bps` falls on."""
    return Fraction(RATE_LEVELS[rung(RATE_LEVELS, rate_bps)])


@dataclass(frozen=True)
class AgentState:
    """Compact per-agent state flooded during the broadcast phase.

    The wire form is 3 bits of bandwidth level per agent, 3 bits of
    capability, and 10 reward slots of 2 bits: 3N + 23 bits overall.
    Owned tasks and held products ride along for pool bookkeeping.
    """

    agent_id: str
    bandwidth_levels: tuple[int, ...]  # to every agent, canonical order
    capability: int
    reward_levels: tuple[int, ...]  # exactly REWARD_SLOTS entries
    owned_tasks: tuple[str, ...] = ()
    products: frozenset[str] = frozenset()

    def __post_init__(self):
        if len(self.reward_levels) != REWARD_SLOTS:
            raise ValueError(f"reward_levels must have {REWARD_SLOTS} entries")
        if not 0 <= self.capability <= 7:
            raise ValueError("capability is a 3-bit level")
        if any(not 0 <= lvl <= 7 for lvl in self.bandwidth_levels):
            raise ValueError("bandwidth levels are 3-bit")
        if any(not 0 <= lvl <= 3 for lvl in self.reward_levels):
            raise ValueError("reward levels are 2-bit")
        object.__setattr__(self, "products", frozenset(self.products))

    def to_bits(self) -> str:
        parts = [format(lvl, "03b") for lvl in self.bandwidth_levels]
        parts.append(format(self.capability, "03b"))
        parts.extend(format(lvl, "02b") for lvl in self.reward_levels)
        return "".join(parts)


def state_size_bits(num_agents: int) -> int:
    return 3 * num_agents + 23


def flooding_time_bound(num_agents: int, rate_bps) -> Fraction:
    """Worst-case seconds for flooding consensus on a strongly connected net."""
    if num_agents < 2:
        raise ValueError("need at least two agents")
    rate = frac(rate_bps)
    if rate <= 0:
        raise ValueError("rate must be positive")
    return Fraction(num_agents * (num_agents - 1) * state_size_bits(num_agents)) / rate


@dataclass(frozen=True)
class FloodResult:
    views: Mapping[str, dict[str, AgentState]]
    rounds_used: int | None  # None when some view stayed incomplete
    messages_sent: int


def flood(
    states: Mapping[str, AgentState], links: AbstractSet[tuple[str, str]], rounds: int
) -> FloodResult:
    """Synchronous flooding: each round every agent forwards every message it
    holds on every link (src, dst) of `links`, at most once per (message, link).

    Returns the assembled views and the first round after which every agent
    held every state (None if the budget ran out first).
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    agents = sorted(states)
    views: dict[str, dict[str, AgentState]] = {a: {a: states[a]} for a in agents}
    sent: set[tuple[str, str, str]] = set()  # (origin, src, dst)
    complete_round = None
    messages = 0
    ordered = sorted(links)
    for rnd in range(1, rounds + 1):
        deliveries: list[tuple[str, str]] = []
        for src, dst in ordered:
            if src not in views or dst not in views:
                continue
            for origin in sorted(views[src]):
                if (origin, src, dst) not in sent:
                    sent.add((origin, src, dst))
                    deliveries.append((origin, dst))
                    messages += 1
        for origin, dst in deliveries:
            views[dst][origin] = states[origin]
        if complete_round is None and all(len(views[a]) == len(agents) for a in agents):
            complete_round = rnd
            break
    return FloodResult(views=views, rounds_used=complete_round, messages_sent=messages)


@dataclass(frozen=True)
class ScriptEvent:
    """One timed world change; state persists until overridden."""

    time_s: Fraction
    kind: str  # "link" | "agent" | "zone"
    subject: str  # link src / agent id
    target: str = ""  # link dst
    value: Fraction | int = 0  # link: bps; agent: enabled 0/1; zone: in 0/1

    KINDS = ("link", "agent", "zone")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown script event kind {self.kind!r}")
        object.__setattr__(self, "time_s", frac(self.time_s))
        if self.kind == "link":
            object.__setattr__(self, "value", frac(self.value))
            if self.value < 0:
                raise ValueError(f"link {self.subject}->{self.target}: negative rate")
        else:
            object.__setattr__(self, "value", int(self.value))


@dataclass(frozen=True)
class WorldScript:
    events: tuple[ScriptEvent, ...] = ()

    def __post_init__(self):
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time_s, e.kind, e.subject, e.target))
        )
        object.__setattr__(self, "events", ordered)


@dataclass
class _WorldState:
    """Script-driven dynamics folded over time."""

    script: WorldScript
    enabled: dict[str, bool]
    in_zone: dict[str, bool]
    link_override: dict[tuple[str, str], Fraction] = field(default_factory=dict)
    applied: int = 0

    def advance_to(self, t: Fraction):
        events = self.script.events
        while self.applied < len(events) and events[self.applied].time_s <= t:
            ev = events[self.applied]
            self.applied += 1
            if ev.kind == "link":
                self.link_override[(ev.subject, ev.target)] = ev.value
            elif ev.kind == "agent":
                self.enabled[ev.subject] = bool(ev.value)
            else:
                self.in_zone[ev.subject] = bool(ev.value)

    def rate(self, p: ProblemInstance, src: str, dst: str, step: int) -> Fraction:
        if (src, dst) in self.link_override:
            return self.link_override[(src, dst)]
        return p.contacts.rate(src, dst, step)


@dataclass(frozen=True)
class CycleConfig:
    """Phase durations (seconds) and the per-cycle solver budget."""

    broadcast_s: Fraction = Fraction(5)
    plan_s: Fraction = Fraction(10)
    execute_s: Fraction = Fraction(30)
    budget: SolveBudget = SolveBudget(2000)

    def __post_init__(self):
        object.__setattr__(self, "broadcast_s", frac(self.broadcast_s))
        object.__setattr__(self, "plan_s", frac(self.plan_s))
        object.__setattr__(self, "execute_s", frac(self.execute_s))
        if min(self.broadcast_s, self.plan_s, self.execute_s) <= 0:
            raise ValueError("phase durations must be positive")

    @property
    def total_s(self) -> Fraction:
        return self.broadcast_s + self.plan_s + self.execute_s


@dataclass(frozen=True)
class TraceRecord:
    cycle: int
    phase: str  # "broadcast" | "plan" | "execute"
    agent: str  # "*" for system-wide records
    event: str
    payload: str

    def line(self) -> str:
        return f"{self.cycle} {self.phase} {self.agent} {self.event} {self.payload}".rstrip()

    def fields(self) -> dict[str, str]:
        """The payload's key=value pairs."""
        return dict(kv.split("=", 1) for kv in self.payload.split())


@dataclass
class ExecutionTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def add(self, cycle: int, phase: str, agent: str, event: str, payload: str = ""):
        self.records.append(TraceRecord(cycle, phase, agent, event, payload))

    def to_text(self) -> str:
        return "\n".join(r.line() for r in self.records) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def select(self, phase: str | None = None, event: str | None = None) -> list[TraceRecord]:
        return [
            r
            for r in self.records
            if (phase is None or r.phase == phase) and (event is None or r.event == event)
        ]

    def executed_tasks(self) -> list[str]:
        return [r.fields().get("task", "") for r in self.select(event="task_done")]


def trace_from_text(text: str) -> ExecutionTrace:
    """Read the form `ExecutionTrace.to_text` writes; blank lines are skipped."""
    trace = ExecutionTrace()
    for line in text.splitlines():
        if not line.strip():
            continue
        parts = line.split(" ", 4)
        if len(parts) < 4 or not parts[0].isdecimal() or parts[1] not in ("broadcast", "plan", "execute"):
            raise ValueError(f"bad trace line: {line!r}")
        cycle, phase, agent, event = parts[:4]
        payload = parts[4] if len(parts) > 4 else ""
        trace.add(int(cycle), phase, agent, event, payload)
    if not trace.records:
        raise ValueError("empty trace")
    return trace


def agent_state(
    p: ProblemInstance,
    world: _WorldState,
    agent_id: str,
    capability: int,
    owned: Iterable[str],
    products: Iterable[str],
) -> AgentState:
    """Snapshot one agent's broadcastable state at a cycle start."""
    levels = tuple(
        7 if other == agent_id else rung(RATE_LEVELS, world.rate(p, agent_id, other, 0))
        for other in p.agent_ids
    )
    by_id = p.network.by_id
    rewards = []
    for task_id in owned:
        task = by_id.get(task_id)
        if task is None or task.required:
            continue
        offered = not (task.category == "collect" and not world.in_zone.get(agent_id, False))
        rewards.append(rung(REWARD_LEVELS, task.reward) if offered else 0)
    rewards.extend([0] * (REWARD_SLOTS - len(rewards)))
    return AgentState(
        agent_id=agent_id,
        bandwidth_levels=levels,
        capability=capability,
        reward_levels=tuple(rewards),
        owned_tasks=tuple(owned),
        products=frozenset(products),
    )


def simulation_errors(p: ProblemInstance, cfg: CycleConfig) -> list[str]:
    """Why the simulator cannot run `p` under `cfg`; empty when it can."""
    errors = []
    if p.horizon.wall_clock_s > cfg.execute_s:
        errors.append(
            f"the horizon ({p.horizon.wall_clock_s} s) is longer than"
            f" the execute phase ({cfg.execute_s} s)"
        )
    optional: dict[str, int] = {}
    for t in p.network.tasks:
        owner = None if t.required else baseline.owner_of(p, t.id)
        if owner is not None:
            optional[owner] = optional.get(owner, 0) + 1
    for a, count in sorted(optional.items()):
        if count > REWARD_SLOTS:
            errors.append(
                f"agent {a} owns {count} optional tasks, more than its {REWARD_SLOTS} reward slots"
            )
    return errors


class _CycleEngine:
    def __init__(
        self,
        p: ProblemInstance,
        script: WorldScript,
        cfg: CycleConfig,
        capabilities: Mapping[str, int] | None = None,
    ):
        errors = simulation_errors(p, cfg)
        if errors:
            raise ValueError("; ".join(errors))
        self.p = p
        self.cfg = cfg
        self.caps = {a: 7 for a in p.agent_ids}
        if capabilities:
            self.caps.update(capabilities)
        in_zone = {a: False for a in p.agent_ids}
        self.owner = {t.id: baseline.owner_of(p, t.id) for t in p.network.tasks}
        self.owned: dict[str, list[str]] = {a: [] for a in p.agent_ids}
        for t in p.network.tasks:
            owner = self.owner[t.id]
            if owner is not None:
                self.owned[owner].append(t.id)
                if t.category == "collect":
                    in_zone[owner] = True
        self.world = _WorldState(script, {a: True for a in p.agent_ids}, in_zone)
        self.products: dict[str, set[str]] = {a: set() for a in p.agent_ids}
        for a, prods in p.initial_products.items():
            self.products[a] |= set(prods)
        self.executed: set[str] = set(p.done_tasks)

    def scaled_duration(self, agent: str, task: str) -> int | None:
        """True step count on this agent, including its capability factor."""
        entry = self.p.agent(agent).time_for(task)
        if entry is FORBIDDEN:
            return None
        return discretize_cost(entry * CAPABILITY_SCALE[self.caps[agent]], self.p.horizon)

    # -- view reconstruction ------------------------------------------------

    def _planned_rates(self, view: dict[str, AgentState]) -> dict[tuple[str, str, int], Fraction]:
        """Common-knowledge contact profile from broadcast bandwidth levels.

        The template's time profile is shared knowledge; a mismatch between a
        link's broadcast level and the template's current level signals an
        override, which planners model as a constant rate at the rung floor.
        """
        p = self.p
        steps = p.horizon.num_steps
        rates: dict[tuple[str, str, int], Fraction] = {}
        order = list(p.agent_ids)
        for src in sorted(view):
            state = view[src]
            for dst in sorted(view):
                if src == dst:
                    continue
                level = state.bandwidth_levels[order.index(dst)]
                if level == rung(RATE_LEVELS, p.contacts.rate(src, dst, 0)):
                    profile = [rate_floor(p.contacts.rate(src, dst, k)) for k in range(steps)]
                else:
                    profile = [Fraction(RATE_LEVELS[level])] * steps
                for k, r in enumerate(profile):
                    if r > 0:
                        rates[(src, dst, k)] = r
        return rates

    def _instance_from_view(self, view: dict[str, AgentState]) -> ProblemInstance | None:
        p = self.p
        visible = sorted(view)
        by_id = p.network.by_id
        done = {t for t in p.network.task_ids if any(t in view[a].products for a in view)}

        offered: dict[str, Fraction] = {}
        for a in visible:
            state = view[a]
            idx = 0
            for task_id in state.owned_tasks:
                task = by_id.get(task_id)
                if task is None or task.required:
                    continue
                level = state.reward_levels[idx]
                idx += 1
                if level > 0:
                    offered[task_id] = Fraction(REWARD_LEVELS[level])

        # One pass in topological order: a task whose predecessors are
        # neither done nor in the pool stays out.
        pool: set[str] = set()
        tasks = []
        for task in p.network.tasks:
            if task.id in done:
                tasks.append(task)  # kept for product routing
                continue
            if self.owner[task.id] not in visible:
                continue
            if not task.required and task.id not in offered:
                continue
            if all(q in done or q in pool for q in task.predecessors):
                pool.add(task.id)
                tasks.append(task if task.required else replace(task, reward=offered[task.id]))
        if not pool and not done:
            return None

        profiles = []
        for a in visible:
            scale = CAPABILITY_SCALE[view[a].capability]
            base_prof = p.agent(a)
            time = {}
            energy = {}
            for t in tasks:
                entry = base_prof.time_for(t.id)
                if entry is FORBIDDEN:
                    continue
                time[t.id] = entry * scale
                energy[t.id] = base_prof.energy_for(t.id)
            profiles.append(AgentProfile(a, time, energy))
        contacts = ContactGraph(self._planned_rates(view), p.contacts.interference_sets)
        holdings = {a: frozenset(view[a].products) for a in visible}
        try:
            inst = ProblemInstance(
                network=type(p.network)(tasks),
                agents=tuple(profiles),
                contacts=contacts,
                horizon=p.horizon,
                objective=p.objective,
                owners={t: a for t, a in p.owners.items() if a in visible},
                storage_tasks=p.storage_tasks,
                base_agent=p.base_agent if p.base_agent in visible else None,
                comm_energy_per_bit=p.comm_energy_per_bit,
                done_tasks=frozenset(done),
                initial_products=holdings,
            )
        except ValueError:
            return None
        return inst

    def _plan(self, view: dict[str, AgentState]) -> SolveResult | None:
        """The plan every agent holding `view` computes; None for an invalid instance."""
        inst_p = self._instance_from_view(view)
        if inst_p is None or not validate_problem(inst_p).ok:
            return None
        seed = baseline.selfish_schedule(inst_p, mode="storage_excepted")
        interference = bool(inst_p.contacts.interference_sets)
        ilp = encode_objective(inst_p, inst_p.objective, encode(inst_p, interference=interference))
        return solve(ilp, seed, self.cfg.budget)

    # -- one cycle ----------------------------------------------------------

    def run_cycle(self, cycle: int, trace: ExecutionTrace):
        p = self.p
        cfg = self.cfg
        t0 = cfg.total_s * cycle
        self.world.advance_to(t0)
        enabled = sorted(a for a in p.agent_ids if self.world.enabled[a])
        if not enabled:
            trace.add(cycle, "broadcast", "*", "no_agents")
            return
        n = len(enabled)
        bits = state_size_bits(len(p.agent_ids))  # catalog size is common knowledge

        states = {
            a: agent_state(p, self.world, a, self.caps[a], self.owned[a], self.products[a])
            for a in enabled
        }
        live_links = frozenset(
            (i, j)
            for i in enabled
            for j in enabled
            if i != j and self.world.rate(p, i, j, 0) > 0
        )
        r_min = min((rate_floor(self.world.rate(p, i, j, 0)) for i, j in live_links), default=0)
        if n == 1:
            round_time, rounds_avail = Fraction(0), 1
        else:
            round_time = Fraction(n * bits) / r_min if r_min else cfg.broadcast_s
            rounds_avail = max(1, int(cfg.broadcast_s / round_time))
        result = flood(states, live_links, rounds_avail)
        complete = result.rounds_used is not None
        consensus_time = (result.rounds_used or rounds_avail) * round_time
        trace.add(
            cycle,
            "broadcast",
            "*",
            "flood",
            f"agents={','.join(enabled)} rounds={result.rounds_used if complete else 'none'}"
            f" complete={int(complete)} time_s={consensus_time} messages={result.messages_sent}",
        )

        plans: dict[str, Schedule | None] = {}
        digests: dict[str, str] = {}
        planned: dict[tuple, SolveResult | None] = {}  # flooded view -> its plan
        for a in enabled:
            view = result.views[a]
            if len(view) < n:
                trace.add(cycle, "plan", a, "partial_view", f"agents={','.join(sorted(view))}")
            key = tuple(sorted(view.items()))
            if key not in planned:
                planned[key] = self._plan(view)
            res = planned[key]
            if res is None:
                plans[a] = None
                trace.add(cycle, "plan", a, "plan_failed", "reason=invalid_instance")
                continue
            plans[a] = res.incumbent
            digests[a] = res.incumbent.digest()
            trace.add(
                cycle,
                "plan",
                a,
                "digest",
                f"sha={digests[a]} value={res.incumbent_value} status={res.status}"
                f" nodes={res.nodes_explored}",
            )
        if complete and len({d for d in digests.values()}) > 1:
            trace.add(cycle, "plan", "*", "agreement_violation", f"digests={sorted(set(digests.values()))}")

        self._execute(cycle, trace, enabled, plans, t0 + cfg.broadcast_s + cfg.plan_s)
        remaining = sorted(t.id for t in p.network.tasks if t.id not in self.executed)
        trace.add(cycle, "execute", "*", "pool", f"remaining={','.join(remaining)}")

    def _execute(self, cycle, trace, enabled, plans, t_start):
        p = self.p
        world = self.world
        dt = p.horizon.step_duration
        by_id = p.network.by_id
        energy: dict[str, Fraction] = {a: Fraction(0) for a in enabled}

        listening = {
            a: {(e.src, e.dst, e.task, e.start, e.end) for e in plan.comms}
            for a, plan in plans.items()
            if plan is not None
        }
        starts: dict[int, list[tuple[str, str]]] = {}  # step -> (agent, task) in start order
        transfers: list[CommEvent] = []  # sends the receiver also planned
        for a in enabled:
            plan = plans.get(a)
            if plan is None:
                continue
            for pl in plan.placements:
                if pl.agent == a:
                    starts.setdefault(pl.start, []).append((a, pl.task))
            for c in plan.comms:
                if c.src != a:
                    continue
                if (c.src, c.dst, c.task, c.start, c.end) in listening.get(c.dst, ()):
                    transfers.append(c)
                else:
                    trace.add(cycle, "execute", a, "comm_missed",
                              f"dst={c.dst} task={c.task} start={c.start} reason=receiver_not_listening")
        moved = [Fraction(0)] * len(transfers)  # bits each transfer has carried so far

        running: dict[str, tuple[str, int, int]] = {}  # agent -> (task, start, release)
        for k in range(p.horizon.num_steps):
            world.advance_to(t_start + k * dt)
            for a, task in starts.get(k, ()):
                if not world.enabled[a]:
                    trace.add(cycle, "execute", a, "task_missed",
                              f"task={task} start={k} reason=agent_disabled")
                elif task in self.executed:
                    trace.add(cycle, "execute", a, "task_missed",
                              f"task={task} start={k} reason=already_done")
                elif any(q not in self.products[a] for q in by_id[task].predecessors):
                    trace.add(cycle, "execute", a, "task_missed",
                              f"task={task} start={k} reason=missing_inputs")
                else:
                    running[a] = (task, k, k + occupancy_steps(self.scaled_duration(a, task)))
            # Transfers move bits at the actual, script-affected rates.
            for i, c in enumerate(transfers):
                if (
                    c.start <= k <= c.end
                    and world.enabled[c.src]
                    and world.enabled[c.dst]
                    and c.task in self.products[c.src]
                ):
                    moved[i] += world.rate(p, c.src, c.dst, k) * dt
            # Completions at the end of the step.
            for a in sorted(running):
                task, start, release = running[a]
                if not world.enabled[a]:
                    trace.add(cycle, "execute", a, "task_missed",
                              f"task={task} start={start} reason=disabled_mid_run")
                    del running[a]
                    continue
                if release == k + 1:
                    self.executed.add(task)
                    self.products[a].add(task)
                    energy[a] += frac(p.agent(a).energy_for(task))
                    trace.add(cycle, "execute", a, "task_done",
                              f"task={task} start={start} end={release - 1}")
                    del running[a]
            for c, bits in zip(transfers, moved):
                if c.end != k:
                    continue
                src, dst = c.src, c.dst
                size = by_id[c.task].product_size
                delivered = (
                    c.task in self.products[src]
                    and world.enabled[src]
                    and world.enabled[dst]
                    and (bits >= size if size > 0 else any(
                        world.rate(p, src, dst, kk) > 0 for kk in range(c.start, c.end + 1)
                    ))
                )
                if delivered:
                    self.products[dst].add(c.task)
                    energy[src] += p.comm_energy_per_bit * bits
                    trace.add(cycle, "execute", src, "comm_delivered",
                              f"dst={dst} task={c.task} start={c.start} end={c.end} bits={bits}")
                else:
                    trace.add(cycle, "execute", src, "comm_missed",
                              f"dst={dst} task={c.task} start={c.start} reason=undelivered")
        for a in sorted(running):
            task, start, _ = running[a]
            trace.add(cycle, "execute", a, "task_missed",
                      f"task={task} start={start} reason=horizon_end")
        for a in enabled:
            trace.add(cycle, "execute", a, "energy", f"spent={energy[a]}")


def run_cycles(
    p: ProblemInstance,
    script: WorldScript,
    cfg: CycleConfig,
    num_cycles: int,
    capabilities: Mapping[str, int] | None = None,
) -> ExecutionTrace:
    """Run the broadcast-plan-execute protocol for a fixed number of cycles.

    The trace is a pure function of the inputs; replaying the same template,
    script, config, and cycle count reproduces it byte for byte.
    """
    engine = _CycleEngine(p, script, cfg, capabilities)
    trace = ExecutionTrace()
    for cycle in range(num_cycles):
        engine.run_cycle(cycle, trace)
    return trace
