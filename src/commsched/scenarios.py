"""Scenario construction and the line-based scenario file format.

Ships the rover fleet task network (per-rover housekeeping chains plus
optional science chains), the range-based bandwidth model, a seeded random
scenario generator, and four hand-built scenarios whose optimal schedules
exhibit the named emergent behaviors (relay, science cluster, assembly
line, data mule).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .distsim import CycleConfig, ScriptEvent, WorldScript
from .model import (
    AgentProfile,
    ContactGraph,
    CostEntry,
    FORBIDDEN,
    Horizon,
    InterferenceSet,
    Objective,
    ProblemInstance,
    SoftwareNetwork,
    Task,
    frac,
    kv_fields,
)
from .solver import SolveBudget


class UnknownScenario(KeyError):
    pass


class ScenarioFormatError(ValueError):
    pass


#: Default task timings in seconds. Localization plus path planning (the
#: relocatable housekeeping) cost exactly twice one science task, which is
#: the structure behind the threefold science ceiling.
DEFAULT_COSTS = {
    "capture": Fraction(1),
    "localize": Fraction(3),
    "plan": Fraction(3),
    "drive": Fraction(1),
    "collect": Fraction(3),
    "analyze": Fraction(3),
    "store": Fraction(1),
}

#: Data product sizes in bits.
DEFAULT_SIZES = {
    "capture": Fraction(1_000_000),
    "localize": Fraction(200_000),
    "plan": Fraction(100_000),
    "drive": Fraction(0),
    "collect": Fraction(2_000_000),
    "analyze": Fraction(400_000),
    "store": Fraction(0),
}

#: Science task rewards: collection 5, analysis 10, storage 20.
REWARDS = {"collect": Fraction(5), "analyze": Fraction(10), "store": Fraction(20)}

#: Base stations run the shared catalog faster and far cheaper than rovers.
BASE_TIME_FACTOR = Fraction(1, 2)
BASE_ENERGY_FACTOR = Fraction(1, 10)

MBPS = Fraction(1_000_000)

#: Largest encoding `ScenarioFile.to_problem` builds, in binary columns as
#: predicted by the count law N^2*M*C + 2*N*M*C (N agents, M tasks, C steps).
#: A 12-agent generated fleet predicts 161,280 and encodes in about 2 s.
MAX_BINARY_COLUMNS = 200_000


def puffer_network(
    num_rovers: int,
    science_flags: Mapping[int, int] | Iterable[int] = (),
    samples_per_zone: int = 1,
) -> tuple[SoftwareNetwork, dict[str, str]]:
    """Per-rover housekeeping chain plus science chains for flagged rovers.

    Every rover r gets capture -> localize -> plan -> drive; rovers in
    `science_flags` (1-based indices, or a mapping index -> sample count)
    additionally get collect -> analyze -> store chains per sample slot.
    Returns the network and the task ownership map (stores belong to the
    base station).
    """
    if num_rovers < 1:
        raise ValueError("need at least one rover")
    if isinstance(science_flags, Mapping):
        flags = {int(k): int(v) for k, v in science_flags.items()}
    else:
        flags = {int(idx): samples_per_zone for idx in science_flags}
    tasks: list[Task] = []
    owners: dict[str, str] = {}
    for r in range(1, num_rovers + 1):
        rover = f"p{r}"
        chain = ["capture", "localize", "plan", "drive"]
        for i, kind in enumerate(chain):
            tid = f"{kind}_{rover}"
            preds = {f"{chain[i - 1]}_{rover}"} if i else set()
            tasks.append(
                Task(tid, required=True, product_size=DEFAULT_SIZES[kind],
                     predecessors=preds, category=kind)
            )
            owners[tid] = rover
        for s in range(1, flags.get(r, 0) + 1):
            collect = f"collect_{rover}_s{s}"
            analyze = f"analyze_{rover}_s{s}"
            store = f"store_{rover}_s{s}"
            tasks.append(Task(collect, required=False, reward=REWARDS["collect"],
                              product_size=DEFAULT_SIZES["collect"], category="collect"))
            tasks.append(Task(analyze, required=False, reward=REWARDS["analyze"],
                              product_size=DEFAULT_SIZES["analyze"],
                              predecessors={collect}, category="analyze"))
            tasks.append(Task(store, required=False, reward=REWARDS["store"],
                              product_size=DEFAULT_SIZES["store"],
                              predecessors={analyze}, category="store"))
            owners[collect] = rover
            owners[analyze] = rover
            owners[store] = "base"
    return SoftwareNetwork(tasks), owners


def _category(task_id: str) -> str:
    return task_id.split("_", 1)[0]


def puffer_costs(
    agent_ids: Sequence[str],
    tasks: Sequence[Task],
    owners: Mapping[str, str],
    base_id: str | None,
) -> dict[tuple[str, str], tuple[CostEntry, CostEntry]]:
    """Cost table with the standard pinning: capture/drive/collect stay on
    the owning rover, stores stay on the base, the rest is relocatable."""
    costs: dict[tuple[str, str], tuple[CostEntry, CostEntry]] = {}
    for t in tasks:
        kind = t.category or _category(t.id)
        base_time = DEFAULT_COSTS.get(kind, Fraction(1))
        for a in agent_ids:
            pinned_rover = kind in ("capture", "drive", "collect") and owners.get(t.id) != a
            pinned_base = kind == "store" and a != base_id
            if pinned_rover or pinned_base:
                continue
            if a == base_id:
                costs[(a, t.id)] = (base_time * BASE_TIME_FACTOR, base_time * BASE_ENERGY_FACTOR)
            else:
                costs[(a, t.id)] = (base_time, base_time)
    return costs


# -- geometric bandwidth model ---------------------------------------------

Point = tuple[Fraction, Fraction]


def _orient(a: Point, b: Point, c: Point) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_segment(a: Point, b: Point, c: Point) -> bool:
    return (
        min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
    )


def _segments_cross(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if d1 != d2 and d3 != d4:
        return True
    if d1 == 0 and _on_segment(q1, q2, p1):
        return True
    if d2 == 0 and _on_segment(q1, q2, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, q1):
        return True
    if d4 == 0 and _on_segment(p1, p2, q2):
        return True
    return False


def _point_in_polygon(pt: Point, poly: Sequence[Point]) -> bool:
    inside = False
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if (a[1] > pt[1]) != (b[1] > pt[1]):
            t = (pt[1] - a[1]) / (b[1] - a[1])
            x = a[0] + t * (b[0] - a[0])
            if pt[0] < x:
                inside = not inside
    return inside


def _blocked(p1: Point, p2: Point, polygons: Sequence[Sequence[Point]]) -> bool:
    mid = ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2)
    for poly in polygons:
        n = len(poly)
        for i in range(n):
            if _segments_cross(p1, p2, poly[i], poly[(i + 1) % n]):
                return True
        if _point_in_polygon(mid, poly):
            return True
    return False


def geometric_rates(pos_i, pos_j, obstructions: Sequence[Sequence[Point]] = ()) -> Fraction:
    """Range-tiered bandwidth: 11 Mbps inside 5 m, 5.5 Mbps to 15 m (the
    intermediate rung; only the extreme tiers are field-calibrated), 1 Mbps
    to 200 m, zero beyond or when the line of sight crosses an obstruction.
    """
    a = (frac(pos_i[0]), frac(pos_i[1]))
    b = (frac(pos_j[0]), frac(pos_j[1]))
    if _blocked(a, b, obstructions):
        return Fraction(0)
    d2 = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
    if d2 <= 25:
        return 11 * MBPS
    if d2 <= 225:
        return Fraction(11, 2) * MBPS
    if d2 <= 40000:
        return MBPS
    return Fraction(0)


# -- scenario files ----------------------------------------------------------

@dataclass(frozen=True)
class ScenarioAgent:
    id: str
    track: tuple[tuple[Fraction, Fraction, Fraction], ...] = ()  # (t, x, y)
    base: bool = False
    capability: int = 7

    def position_at(self, t: Fraction) -> Point | None:
        if not self.track:
            return None
        current = self.track[0]
        for entry in self.track:
            if entry[0] <= t:
                current = entry
        return (current[1], current[2])


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario: everything needed to build a ProblemInstance plus
    the cycle configuration and world script for the simulator."""

    agents: tuple[ScenarioAgent, ...]
    tasks: tuple[Task, ...]
    owners: Mapping[str, str]
    storage_tasks: frozenset[str]
    costs: Mapping[tuple[str, str], tuple[CostEntry, CostEntry]]
    rates: tuple[tuple[str, str, int, int, Fraction], ...]  # (src, dst, first, last, bps)
    geometry: bool
    obstructions: tuple[tuple[Point, ...], ...]
    horizon_s: Fraction
    steps: int
    objective: Objective
    cycle: CycleConfig
    script: WorldScript
    interference: tuple[InterferenceSet, ...]
    comm_energy_per_bit: Fraction

    @property
    def base_agent(self) -> str | None:
        for a in self.agents:
            if a.base:
                return a.id
        return None

    def to_problem(self) -> ProblemInstance:
        """The problem instance; a ValueError when its encoding would exceed
        `MAX_BINARY_COLUMNS`, checked before any per-step table is built."""
        n, m = len(self.agents), len(self.tasks)
        predicted = n * n * m * self.steps + 2 * n * m * self.steps
        if predicted > MAX_BINARY_COLUMNS:
            raise ValueError(
                f"the encoding would have {predicted} binary columns (N^2*M*C + 2*N*M*C"
                f" for {n} agents, {m} tasks, {self.steps} steps), more than {MAX_BINARY_COLUMNS}"
            )
        agent_ids = [a.id for a in self.agents]
        profiles = []
        for a in self.agents:
            time: dict[str, CostEntry] = {}
            energy: dict[str, CostEntry] = {}
            for t in self.tasks:
                entry = self.costs.get((a.id, t.id))
                if entry is None or entry[0] is FORBIDDEN:
                    continue
                time[t.id], energy[t.id] = entry
            profiles.append(AgentProfile(a.id, time, energy))
        horizon = Horizon(self.horizon_s, self.steps)
        dt = horizon.step_duration
        rates: dict[tuple[str, str, int], Fraction] = {}
        if self.geometry:
            by_id = {a.id: a for a in self.agents}
            for src in agent_ids:
                for dst in agent_ids:
                    if src == dst:
                        continue
                    for k in range(self.steps):
                        pi = by_id[src].position_at(dt * k)
                        pj = by_id[dst].position_at(dt * k)
                        if pi is None or pj is None:
                            continue
                        rate = geometric_rates(pi, pj, self.obstructions)
                        if rate > 0:
                            rates[(src, dst, k)] = rate
        else:
            for src, dst, first, last, bps in self.rates:
                for k in range(max(0, first), min(self.steps - 1, last) + 1):
                    if bps > 0:
                        rates[(src, dst, k)] = bps
        return ProblemInstance(
            network=SoftwareNetwork(self.tasks),
            agents=tuple(profiles),
            contacts=ContactGraph(rates, self.interference),
            horizon=horizon,
            objective=self.objective,
            owners=dict(self.owners),
            storage_tasks=self.storage_tasks,
            base_agent=self.base_agent,
            comm_energy_per_bit=self.comm_energy_per_bit,
        )

    def capabilities(self) -> dict[str, int]:
        return {a.id: a.capability for a in self.agents}

    def to_text(self) -> str:
        out = ["SCENARIO v1", "[AGENTS]"]
        for a in self.agents:
            track = ";".join(f"{t}:{x},{y}" for t, x, y in a.track)
            pos = f" pos={track}" if track else ""
            out.append(f"agent id={a.id} base={int(a.base)} capability={a.capability}{pos}")
        for (agent, task), (time, energy) in sorted(self.costs.items()):
            tv = "forbidden" if time is FORBIDDEN else str(time)
            ev = "forbidden" if energy is FORBIDDEN else str(energy)
            out.append(f"cost agent={agent} task={task} time={tv} energy={ev}")
        out.append("[TASKS]")
        for t in self.tasks:
            preds = ",".join(sorted(t.predecessors))
            out.append(
                f"task id={t.id} required={int(t.required)} reward={t.reward} size={t.product_size}"
                f" preds={preds} owner={self.owners.get(t.id, '')}"
                f" category={t.category} storage={int(t.id in self.storage_tasks)}"
            )
        if self.geometry:
            out.append("[GEOMETRY]")
            for poly in self.obstructions:
                pts = ";".join(f"{x},{y}" for x, y in poly)
                out.append(f"obstruction points={pts}")
        else:
            out.append("[CONTACTS]")
            for src, dst, first, last, bps in self.rates:
                out.append(f"rate src={src} dst={dst} start={first} end={last} bps={bps}")
        out.append("[SCRIPT]")
        for ev in self.script.events:
            if ev.kind == "link":
                out.append(f"at t={ev.time_s} link src={ev.subject} dst={ev.target} bps={ev.value}")
            elif ev.kind == "agent":
                out.append(f"at t={ev.time_s} agent id={ev.subject} enabled={ev.value}")
            else:
                out.append(f"at t={ev.time_s} zone agent={ev.subject} in={ev.value}")
        out.append("[CONFIG]")
        out.append(f"horizon seconds={self.horizon_s} steps={self.steps}")
        if self.objective.kind == "weighted":
            terms = ",".join(f"{k}:{w}" for k, w in self.objective.weights)
            out.append(f"objective kind=weighted terms={terms}")
        else:
            out.append(f"objective kind={self.objective.kind}")
        out.append(
            f"cycle broadcast={self.cycle.broadcast_s} plan={self.cycle.plan_s}"
            f" execute={self.cycle.execute_s} budget_nodes={self.cycle.budget.max_nodes}"
        )
        for iset in self.interference:
            links = ",".join(f"{s}>{d}" for s, d in sorted(iset.links))
            out.append(f"interference cap={iset.capacity_bps} links={links}")
        out.append(f"comm_energy per_bit={self.comm_energy_per_bit}")
        out.append("[END]")
        return "\n".join(out) + "\n"


_kv = partial(kv_fields, error=ScenarioFormatError)


def _cost_entry(text: str) -> CostEntry:
    return FORBIDDEN if text == "forbidden" else frac(text)


def parse_scenario(text: str) -> ScenarioFile:
    """Strict parser for the scenario format.

    Unknown fields, a `pos` track whose times do not strictly increase, a
    second `cost` for one (agent, task) and a repeated `horizon`,
    `objective`, `cycle` or `comm_energy` record are rejected; `rate` and
    `interference` records may repeat.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "SCENARIO v1":
        raise ScenarioFormatError("missing 'SCENARIO v1' header")
    agents: list[ScenarioAgent] = []
    costs: dict[tuple[str, str], tuple[CostEntry, CostEntry]] = {}
    tasks: list[Task] = []
    owners: dict[str, str] = {}
    storage: set[str] = set()
    rates: list[tuple[str, str, int, int, Fraction]] = []
    obstructions: list[tuple[Point, ...]] = []
    events: list[ScriptEvent] = []
    config: dict[str, object] = {}
    interference: list[InterferenceSet] = []
    named: list[tuple[str, str]] = []  # (line, agent id) for every agent a record names
    costed: list[tuple[str, str]] = []  # (line, task id) for every cost record
    config_records: set[str] = set()  # the [CONFIG] record kinds seen, except `interference`
    geometry_seen = contacts_seen = False
    section = None
    try:
        for ln in lines[1:]:
            if ln.startswith("["):
                if ln not in ("[AGENTS]", "[TASKS]", "[CONTACTS]", "[GEOMETRY]", "[SCRIPT]", "[CONFIG]", "[END]"):
                    raise ScenarioFormatError(f"unknown section {ln}")
                section = ln
                geometry_seen |= ln == "[GEOMETRY]"
                contacts_seen |= ln == "[CONTACTS]"
                continue
            parts = ln.split()
            kind = parts[0]
            if section == "[AGENTS]":
                if kind == "agent":
                    kv = _kv(parts[1:], ln, ("id",), ("base", "capability", "pos"))
                    capability = int(kv.get("capability", "7"))
                    if not 0 <= capability <= 7:
                        raise ScenarioFormatError(f"{ln}: capability {capability} is not a level 0-7")
                    track = []
                    for chunk in kv.get("pos", "").split(";"):
                        if not chunk:
                            continue
                        t, xy = chunk.split(":", 1)
                        x, y = xy.split(",")
                        track.append((frac(t), frac(x), frac(y)))
                    if any(a[0] >= b[0] for a, b in zip(track, track[1:])):
                        raise ScenarioFormatError(f"{ln}: pos times must strictly increase")
                    agents.append(
                        ScenarioAgent(
                            kv["id"],
                            tuple(track),
                            base=kv.get("base", "0") == "1",
                            capability=capability,
                        )
                    )
                elif kind == "cost":
                    kv = _kv(parts[1:], ln, ("agent", "task", "time", "energy"))
                    named.append((ln, kv["agent"]))
                    costed.append((ln, kv["task"]))
                    if (kv["agent"], kv["task"]) in costs:
                        raise ScenarioFormatError(f"{ln}: a second cost for this agent and task")
                    costs[(kv["agent"], kv["task"])] = (_cost_entry(kv["time"]), _cost_entry(kv["energy"]))
                else:
                    raise ScenarioFormatError(f"unexpected {kind!r} in [AGENTS]")
            elif section == "[TASKS]":
                if kind != "task":
                    raise ScenarioFormatError(f"unexpected {kind!r} in [TASKS]")
                kv = _kv(
                    parts[1:], ln, ("id",), ("required", "reward", "size", "preds", "owner", "category", "storage")
                )
                preds = {q for q in kv.get("preds", "").split(",") if q}
                tasks.append(
                    Task(
                        kv["id"],
                        required=kv.get("required", "1") == "1",
                        reward=frac(kv.get("reward", "0")),
                        product_size=frac(kv.get("size", "0")),
                        predecessors=preds,
                        category=kv.get("category", ""),
                    )
                )
                if kv.get("owner"):
                    owners[kv["id"]] = kv["owner"]
                    named.append((ln, kv["owner"]))
                if kv.get("storage", "0") == "1":
                    storage.add(kv["id"])
            elif section == "[CONTACTS]":
                if kind != "rate":
                    raise ScenarioFormatError(f"unexpected {kind!r} in [CONTACTS]")
                kv = _kv(parts[1:], ln, ("src", "dst", "start", "end", "bps"))
                named += [(ln, kv["src"]), (ln, kv["dst"])]
                rates.append((kv["src"], kv["dst"], int(kv["start"]), int(kv["end"]), frac(kv["bps"])))
            elif section == "[GEOMETRY]":
                if kind != "obstruction":
                    raise ScenarioFormatError(f"unexpected {kind!r} in [GEOMETRY]")
                kv = _kv(parts[1:], ln, ("points",))
                poly = []
                for chunk in kv["points"].split(";"):
                    x, y = chunk.split(",")
                    poly.append((frac(x), frac(y)))
                if len(poly) < 3:
                    raise ScenarioFormatError("obstruction needs at least 3 points")
                obstructions.append(tuple(poly))
            elif section == "[SCRIPT]":
                if kind != "at":
                    raise ScenarioFormatError(f"unexpected {kind!r} in [SCRIPT]")
                if len(parts) < 3:
                    raise ScenarioFormatError(f"bad script line {ln!r}")
                t = _kv(parts[1:2], ln, ("t",))["t"]
                ev_kind = parts[2]
                if ev_kind == "link":
                    kv = _kv(parts[3:], ln, ("src", "dst", "bps"))
                    named += [(ln, kv["src"]), (ln, kv["dst"])]
                    events.append(ScriptEvent(frac(t), "link", kv["src"], kv["dst"], frac(kv["bps"])))
                elif ev_kind == "agent":
                    kv = _kv(parts[3:], ln, ("id", "enabled"))
                    named.append((ln, kv["id"]))
                    events.append(ScriptEvent(frac(t), "agent", kv["id"], "", int(kv["enabled"])))
                elif ev_kind == "zone":
                    kv = _kv(parts[3:], ln, ("agent", "in"))
                    named.append((ln, kv["agent"]))
                    events.append(ScriptEvent(frac(t), "zone", kv["agent"], "", int(kv["in"])))
                else:
                    raise ScenarioFormatError(f"unknown script event {ev_kind!r}")
            elif section == "[CONFIG]":
                if kind in config_records:
                    raise ScenarioFormatError(f"{ln}: a second {kind!r} record")
                if kind != "interference":  # shared channels may be declared one per line
                    config_records.add(kind)
                if kind == "horizon":
                    kv = _kv(parts[1:], ln, ("seconds", "steps"))
                    config["horizon_s"] = frac(kv["seconds"])
                    config["steps"] = int(kv["steps"])
                elif kind == "objective":
                    kv = _kv(parts[1:], ln, ("kind",), ("terms",))
                    if kv["kind"] == "weighted":
                        terms = []
                        for chunk in kv.get("terms", "").split(","):
                            name, w = chunk.split(":")
                            terms.append((name, frac(w)))
                        config["objective"] = Objective.weighted(terms)
                    else:
                        config["objective"] = Objective(kv["kind"])
                elif kind == "cycle":
                    kv = _kv(parts[1:], ln, ("broadcast", "plan", "execute", "budget_nodes"))
                    config["cycle"] = CycleConfig(
                        frac(kv["broadcast"]),
                        frac(kv["plan"]),
                        frac(kv["execute"]),
                        SolveBudget(int(kv["budget_nodes"])),
                    )
                elif kind == "interference":
                    kv = _kv(parts[1:], ln, ("cap", "links"))
                    links = set()
                    for chunk in kv["links"].split(","):
                        src, dst = chunk.split(">")
                        links.add((src, dst))
                        named += [(ln, src), (ln, dst)]
                    interference.append(InterferenceSet(frozenset(links), frac(kv["cap"])))
                elif kind == "comm_energy":
                    kv = _kv(parts[1:], ln, ("per_bit",))
                    config["comm_energy"] = frac(kv["per_bit"])
                else:
                    raise ScenarioFormatError(f"unexpected {kind!r} in [CONFIG]")
            elif section == "[END]":
                raise ScenarioFormatError(f"content after [END]: {ln!r}")
            else:
                raise ScenarioFormatError(f"line outside any section: {ln!r}")
    except ZeroDivisionError:
        raise ScenarioFormatError(f"{ln}: a number has a zero denominator") from None
    if geometry_seen and contacts_seen:
        raise ScenarioFormatError("scenario may use [CONTACTS] or [GEOMETRY], not both")
    if "horizon_s" not in config:
        raise ScenarioFormatError("missing horizon line in [CONFIG]")
    declared = {a.id for a in agents}
    for ln, agent in named:
        if agent not in declared:
            raise ScenarioFormatError(f"{ln}: unknown agent {agent!r}")
    declared = {t.id for t in tasks}
    for ln, task in costed:
        if task not in declared:
            raise ScenarioFormatError(f"{ln}: unknown task {task!r}")
    return ScenarioFile(
        agents=tuple(agents),
        tasks=tuple(tasks),
        owners=owners,
        storage_tasks=frozenset(storage),
        costs=costs,
        rates=tuple(rates),
        geometry=geometry_seen,
        obstructions=tuple(obstructions),
        horizon_s=config["horizon_s"],
        steps=config["steps"],
        objective=config.get("objective", Objective.reward()),
        cycle=config.get("cycle", CycleConfig()),
        script=WorldScript(tuple(events)),
        interference=tuple(interference),
        comm_energy_per_bit=config.get("comm_energy", Fraction(0)),
    )


def generate_random(
    num_agents: int,
    science_fraction: float,
    samples_per_zone: int,
    seed: int,
) -> ScenarioFile:
    """Seeded geometric scenario: one base station plus rovers at random grid
    positions, with the range-tiered bandwidth model and the standard task
    network. A pure function of its arguments."""
    if not 2 <= num_agents <= 50:
        raise ValueError("num_agents must be in [2, 50]")
    if not 0 <= science_fraction <= 1:
        raise ValueError("science_fraction must be in [0, 1]")
    if samples_per_zone < 0:
        raise ValueError("samples_per_zone must not be negative")
    rng = random.Random(seed)
    num_rovers = num_agents - 1
    rover_ids = [f"p{r}" for r in range(1, num_rovers + 1)]
    count = round(science_fraction * num_rovers)
    science = sorted(rng.sample(range(1, num_rovers + 1), min(num_rovers, count)))
    network, owners = puffer_network(num_rovers, science, samples_per_zone)
    agents = [ScenarioAgent("base", ((Fraction(0), Fraction(0), Fraction(0)),), base=True)]
    for rid in rover_ids:
        x, y = rng.randint(-80, 80), rng.randint(-80, 80)
        agents.append(ScenarioAgent(rid, ((Fraction(0), frac(x), frac(y)),)))
    costs = puffer_costs(["base"] + rover_ids, network.tasks, owners, "base")
    return ScenarioFile(
        agents=tuple(agents),
        tasks=network.tasks,
        owners=owners,
        storage_tasks=frozenset(t.id for t in network.tasks if t.category == "store"),
        costs=costs,
        rates=(),
        geometry=True,
        obstructions=(),
        horizon_s=Fraction(24),
        steps=12,
        objective=Objective.reward(),
        cycle=CycleConfig(),
        script=WorldScript(),
        interference=(),
        comm_energy_per_bit=Fraction(0),
    )


def canned_scenario(name: str) -> ScenarioFile:
    """Hand-built scenarios whose optima exhibit the named behaviors."""
    if name == "relay":
        return _relay_scenario()
    if name == "science_cluster":
        return _science_cluster_scenario()
    if name == "assembly_line":
        return _assembly_line_scenario()
    if name == "data_mule":
        return _data_mule_scenario()
    raise UnknownScenario(name)


def _scenario(
    agents,
    tasks,
    owners,
    storage,
    costs,
    rates,
    horizon_s,
    steps,
    objective,
    script=WorldScript(),
) -> ScenarioFile:
    return ScenarioFile(
        agents=tuple(agents),
        tasks=tuple(tasks),
        owners=dict(owners),
        storage_tasks=frozenset(storage),
        costs=dict(costs),
        rates=tuple(rates),
        geometry=False,
        obstructions=(),
        horizon_s=frac(horizon_s),
        steps=steps,
        objective=objective,
        cycle=CycleConfig(),
        script=script,
        interference=(),
        comm_energy_per_bit=Fraction(0),
    )


def _relay_scenario() -> ScenarioFile:
    """No direct rover-base link: storing the sample forces a two-hop route
    through the relay agent."""
    agents = [
        ScenarioAgent("rover", ((0, 0, 0),)),
        ScenarioAgent("relay", ((0, 10, 0),)),
        ScenarioAgent("base", ((0, 20, 0),), base=True),
    ]
    tasks = [
        Task("sample_rover", required=True, product_size=2 * MBPS, category="collect"),
        Task("deliver_base", required=False, reward=20, predecessors={"sample_rover"},
             category="store"),
    ]
    owners = {"sample_rover": "rover", "deliver_base": "base"}
    costs = {
        ("rover", "sample_rover"): (Fraction(1), Fraction(1)),
        ("base", "deliver_base"): (Fraction(1), Fraction(1)),
    }
    rates = [
        ("rover", "relay", 0, 7, MBPS),
        ("relay", "rover", 0, 7, MBPS),
        ("relay", "base", 0, 7, MBPS),
        ("base", "relay", 0, 7, MBPS),
    ]
    script = WorldScript((ScriptEvent(0, "link", "rover", "base", 0),))
    return _scenario(agents, tasks, owners, {"deliver_base"}, costs, rates, 8, 8,
                     Objective.reward(), script)


def _science_cluster_scenario() -> ScenarioFile:
    """A rover in a science zone offloads localization and planning to a
    nearby helper, freeing exactly enough time for three sample collections
    (the selfish schedule fits one)."""
    network, owners = puffer_network(1, {1: 3})
    tasks = [t for t in network.tasks if t.category in ("capture", "localize", "plan", "drive", "collect")]
    owners = {t.id: "p1" for t in tasks}
    agents = [ScenarioAgent("p1", ((0, 0, 0),)), ScenarioAgent("h1", ((0, 4, 0),))]
    costs = {}
    for t in tasks:
        kind = t.category
        costs[("p1", t.id)] = (DEFAULT_COSTS[kind], DEFAULT_COSTS[kind])
        if kind in ("localize", "plan"):
            costs[("h1", t.id)] = (DEFAULT_COSTS[kind], DEFAULT_COSTS[kind])
    rates = [("p1", "h1", 0, 12, 11 * MBPS), ("h1", "p1", 0, 12, 11 * MBPS)]
    return _scenario(agents, tasks, owners, set(), costs, rates, 13, 13, Objective.reward())


def _assembly_line_scenario() -> ScenarioFile:
    """The relay between the science zone and the base station analyzes the
    sample while it is in transit: shipping the raw product onward would be
    too slow, and the origin rover is too weak to analyze in time."""
    agents = [
        ScenarioAgent("p1", ((0, 0, 0),)),
        ScenarioAgent("h1", ((0, 10, 0),)),
        ScenarioAgent("base", ((0, 20, 0),), base=True),
    ]
    tasks = [
        Task("collect_p1_s1", required=False, reward=5, product_size=2 * MBPS, category="collect"),
        Task("analyze_p1_s1", required=False, reward=10, product_size=Fraction(200_000),
             predecessors={"collect_p1_s1"}, category="analyze"),
        Task("store_p1_s1", required=False, reward=20, predecessors={"analyze_p1_s1"},
             category="store"),
    ]
    owners = {"collect_p1_s1": "p1", "analyze_p1_s1": "p1", "store_p1_s1": "base"}
    costs = {
        ("p1", "collect_p1_s1"): (Fraction(3), Fraction(3)),
        ("p1", "analyze_p1_s1"): (Fraction(6), Fraction(6)),
        ("h1", "analyze_p1_s1"): (Fraction(1), Fraction(1)),
        ("base", "analyze_p1_s1"): (Fraction(1), Fraction(1, 10)),
        ("base", "store_p1_s1"): (Fraction(1), Fraction(1, 10)),
    }
    rates = [
        ("p1", "h1", 0, 7, MBPS),
        ("h1", "p1", 0, 7, MBPS),
        ("h1", "base", 0, 7, Fraction(200_000)),
        ("base", "h1", 0, 7, Fraction(200_000)),
    ]
    return _scenario(agents, tasks, owners, {"store_p1_s1"}, costs, rates, 8, 8,
                     Objective.reward())


def _data_mule_scenario() -> ScenarioFile:
    """Everyone has a weak background link to the base station (enough to
    flood compact states, far too slow for the sample product); the mule's
    link to the base turns strong later, when it has driven over. The plan
    therefore parks the product on the mule ahead of that contact window."""
    weak = Fraction(1_000)
    agents = [
        ScenarioAgent("rover", ((0, 0, 0),)),
        ScenarioAgent("mule", ((0, 10, 0), (5, 100, 0))),
        ScenarioAgent("base", ((0, 200, 0),), base=True),
    ]
    tasks = [
        Task("sample_rover", required=True, product_size=MBPS, category="collect"),
        Task("deliver_base", required=False, reward=20, predecessors={"sample_rover"},
             category="store"),
    ]
    owners = {"sample_rover": "rover", "deliver_base": "base"}
    costs = {
        ("rover", "sample_rover"): (Fraction(1), Fraction(1)),
        ("base", "deliver_base"): (Fraction(1), Fraction(1)),
    }
    rates = [
        ("rover", "mule", 0, 2, MBPS),
        ("mule", "rover", 0, 2, MBPS),
        ("rover", "base", 0, 7, weak),
        ("base", "rover", 0, 7, weak),
        ("mule", "base", 0, 4, weak),
        ("base", "mule", 0, 4, weak),
        ("mule", "base", 5, 7, MBPS),
        ("base", "mule", 5, 7, MBPS),
    ]
    return _scenario(agents, tasks, owners, {"deliver_base"}, costs, rates, 8, 8,
                     Objective.reward())
