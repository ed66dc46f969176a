"""Workload corpora and the timed operations, with their output checks.

Every input is built from the workload seed and handed to the library as
scenario text, so each operation starts where a user of `commsched solve` or
`commsched simulate` starts: parsing a scenario file.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from commsched import distsim, lp
from commsched.baseline import selfish_schedule
from commsched.distsim import CycleConfig, ScriptEvent, WorldScript, run_cycles, state_size_bits
from commsched.encoder import encode, encode_objective
from commsched.model import InterferenceSet, Objective, Task, check_schedule, validate_problem
from commsched.oracle import TooLarge, brute_force
from commsched.scenarios import (
    ScenarioAgent,
    ScenarioFile,
    canned_scenario,
    generate_random,
    parse_scenario,
)
from commsched.solver import SolveBudget, solve

from tracing import NULL_TRACER, Rebinding

CANNED = ("relay", "science_cluster", "assembly_line", "data_mule")
OBJECTIVES = {"reward": Objective.reward, "makespan": Objective.makespan, "energy": Objective.energy}

#: Budget for plans meant to end proven optimal; the largest needs ~2,100 nodes.
OPTIMUM_BUDGET = 200_000
#: Budget of the canned scenarios in interference mode; a fixed cut-off, not an optimum.
INTERFERENCE_BUDGET = 200
FLEET_BUDGET = 2000

#: Shared-channel instances: (steps, rate, size) and the sink reward are
#: fixed, so every seed does about the same search and scores the same; the
#: seed draws each channel's capacity (one or two links' worth). With a size
#: no larger than the rate the sink can be served, in 39 nodes at 4 steps
#: and 95 at 5; at 5-4-8 it cannot, and proving that takes 2,101 nodes. The
#: group sizes place `op_s_p50` among the 4-step plans and `op_s_tail` among
#: the 5-step ones (see NOTES.md).
SERVABLE = tuple((r, z) for r in (4, 8, 12, 16, 20, 24) for z in (4, 8, 12, 16, 20, 24) if z <= r)
CHANNEL_GRID = (
    tuple((4, r, z) for r, z in SERVABLE)
    + tuple((5, r, z) for r, z in SERVABLE[:9])
    + ((5, 4, 8), (6, 4, 4), (6, 8, 8))
)

#: Criterion 7's link cut, zone exit and link upgrade, plus an outage of p2
#: from t=20 to t=50 so that tasks are missed and rescheduled.
DYN5_SCRIPT = WorldScript(
    (
        ScriptEvent(20, "agent", "p2", "", 0),
        ScriptEvent(46, "link", "p1", "p2", 0),
        ScriptEvent(50, "agent", "p2", "", 1),
        ScriptEvent(91, "zone", "p1", "", 0),
        ScriptEvent(136, "link", "p2", "base", 11_000_000),
    )
)
DYN5_CYCLE = CycleConfig(5, 10, 30, SolveBudget(400))
DYN5_CYCLES = 4  # the script's last event falls in cycle 3


@dataclass(frozen=True)
class PlanOp:
    name: str
    text: str
    interference: bool
    budget_nodes: int


@dataclass(frozen=True)
class SimOp:
    name: str
    text: str
    cycles: int


def shared_channel(steps: int, rate: int, size: int, cap: int, reward: int) -> ScenarioFile:
    """Two sources feed one sink over links that share one channel."""
    one = (Fraction(1), Fraction(1))
    links = frozenset({("a0", "a2"), ("a1", "a2")})
    return ScenarioFile(
        agents=(ScenarioAgent("a0"), ScenarioAgent("a1"), ScenarioAgent("a2")),
        tasks=(
            Task("src0", required=True, product_size=size),
            Task("src1", required=True, product_size=size),
            Task("sink", required=False, reward=reward, predecessors={"src0", "src1"}),
        ),
        owners={"src0": "a0", "src1": "a1"},
        storage_tasks=frozenset(),
        costs={("a0", "src0"): one, ("a1", "src1"): one, ("a2", "sink"): one},
        rates=tuple((src, dst, 0, steps - 1, Fraction(rate)) for src, dst in sorted(links)),
        geometry=False,
        obstructions=(),
        horizon_s=Fraction(steps),
        steps=steps,
        objective=Objective.reward(),
        cycle=CycleConfig(),
        script=WorldScript(),
        interference=(InterferenceSet(links, Fraction(cap)),),
        comm_energy_per_bit=Fraction(0),
    )


def plan_fleet5(seed: int) -> list[PlanOp]:
    text = generate_random(5, 0.5, 2, seed).to_text()
    return [PlanOp(f"gen5/seed{seed}", text, False, FLEET_BUDGET)]


def plan_mix(seed: int) -> list[PlanOp]:
    ops = []
    for name in CANNED:
        sc = canned_scenario(name)
        for kind, make in OBJECTIVES.items():
            text = replace(sc, objective=make()).to_text()
            ops.append(PlanOp(f"{name}/{kind}", text, False, OPTIMUM_BUDGET))
        ops.append(PlanOp(f"{name}/interference", sc.to_text(), True, INTERFERENCE_BUDGET))
    rng = random.Random(seed)
    for steps, rate, size in CHANNEL_GRID:
        sc = shared_channel(steps, rate, size, rate * rng.choice((1, 2)), 10)
        ops.append(PlanOp(f"channel/{steps}-{rate}-{size}", sc.to_text(), True, OPTIMUM_BUDGET))
    # A seeded order spreads plans of one kind over the pass, so that a slow
    # spell of the host does not fall on all of them.
    rng.shuffle(ops)
    return ops


def simulate_dyn5(seed: int) -> list[SimOp]:
    sc = replace(generate_random(5, 0.5, 1, seed), script=DYN5_SCRIPT, cycle=DYN5_CYCLE)
    return [SimOp(f"dyn5/seed{seed}", sc.to_text(), DYN5_CYCLES)]


WORKLOADS = {"plan-fleet5": plan_fleet5, "plan-mix": plan_mix, "simulate-dyn5": simulate_dyn5}


@dataclass
class Plan:
    """One solved plan and what the checks need from it."""

    value: Fraction
    bound: Fraction
    status: str
    nodes: int
    digest: str
    columns: int
    rows: int
    nnz: int
    selfish_value: Fraction
    reward: Fraction  # effective reward of the tasks the plan places
    seed_digest: str
    # Kept only for the traced run's solver probes, so that untraced runs
    # hold no instance longer than the library does.
    inst: object = field(repr=False, default=None)
    seed: object = field(repr=False, default=None)


@dataclass
class Outcome:
    op: str
    wall_s: float
    plans: list[Plan]
    errors: list[str]
    sim: dict = field(default_factory=dict)  # simulation counts, empty for plan ops


def _plan(p, inst, seed, res, keep: bool) -> Plan:
    by_id = p.network.by_id
    return Plan(
        value=res.incumbent_value,
        bound=res.best_bound,
        status=res.status,
        nodes=res.nodes_explored,
        digest=res.incumbent.digest(),
        columns=len(inst.variables),
        rows=len(inst.rows),
        nnz=sum(len(row.coeffs) for row in inst.rows),
        selfish_value=seed.objective_value,
        reward=sum((by_id[pl.task].effective_reward for pl in res.incumbent.placements), Fraction(0)),
        seed_digest=seed.digest(),
        inst=inst if keep else None,
        seed=seed if keep else None,
    )


def check_plan(plan: Plan) -> list[str]:
    """Value and bound checks every plan must pass."""
    errors = []
    if plan.value < plan.selfish_value:
        errors.append(f"value {plan.value} below the selfish value {plan.selfish_value}")
    if plan.bound < plan.value:
        errors.append(f"bound {plan.bound} below value {plan.value}")
    if plan.status == "optimal" and plan.bound != plan.value:
        errors.append(f"optimal with bound {plan.bound} != value {plan.value}")
    return errors


def oracle_value(op: PlanOp) -> Fraction | None:
    """brute_force's optimum for oracle-sized instances, else None."""
    p = parse_scenario(op.text).to_problem()
    try:
        return brute_force(p, interference=op.interference).objective_value
    except TooLarge:
        return None


def run_plan(op: PlanOp, tracer=NULL_TRACER, speed=None) -> Outcome:
    """Scenario text to a checked Schedule; only this path is timed.

    With a `HostSpeed`, the reference loop is sampled inside the solve, at
    the LP calls of interference mode, whenever a sample is due; that time
    is taken out of the operation's wall time.
    """
    paused = 0.0

    def on_lp(args, result):
        nonlocal paused
        paused += speed.sample_due()

    with Rebinding() as rb:
        if speed:
            rb.observe(lp, "solve_lp", on_lp)
        span = tracer.span
        started = time.perf_counter()
        with span("bench.plan"):
            with span("scenarios.parse"):
                sc = parse_scenario(op.text)
            with span("scenarios.to_problem"):
                p = sc.to_problem()
            with span("model.validate"):
                report = validate_problem(p)
            if not report.ok:
                raise ValueError(f"{op.name}: invalid instance: {report.violations[:3]}")
            with span("baseline.selfish"):
                seed = selfish_schedule(p, mode="storage_excepted")
            with span("encoder.encode"):
                inst = encode(p, interference=op.interference)
            with span("encoder.objective"):
                inst = encode_objective(p, p.objective, inst)
            with span("solver.solve"):
                res = solve(inst, seed, SolveBudget(op.budget_nodes))
            with span("model.check_schedule"):
                schedule_errors = check_schedule(p, res.incumbent)
        wall = time.perf_counter() - started - paused
    plan = _plan(p, inst, seed, res, keep=tracer.enabled)
    errors = [f"check_schedule: {e}" for e in schedule_errors] + check_plan(plan)
    return Outcome(op.name, wall, [plan], errors)


def _payload(record) -> dict[str, str]:
    return dict(kv.split("=", 1) for kv in record.payload.split())


def run_sim(op: SimOp, tracer=NULL_TRACER, speed=None) -> Outcome:
    """Scenario text through `run_cycles`; every agent plan is checked after.

    The agent plans are captured by observing the names `distsim` calls:
    `encode` gives each agent's instance, `solve` its result. The observer
    keeps a summary of each plan, not the encoding, and every check runs
    after the timed region. With a `HostSpeed`, the observers also sample
    the reference loop before and after each solve, whenever a sample is
    due; that time is taken out of the operation's wall time.
    """
    encoded: list = []
    plans: list[Plan] = []
    schedules: list = []
    paused = 0.0

    def on_encode(args, inst):
        nonlocal paused
        encoded.append(args[0])
        if speed:
            paused += speed.sample_due()

    def on_solve(args, res):
        nonlocal paused
        plans.append(_plan(encoded[-1], args[0], args[1], res, keep=tracer.enabled))
        schedules.append(res.incumbent)
        if speed:
            paused += speed.sample_due()

    with Rebinding() as rb:
        rb.observe(distsim, "encode", on_encode)
        rb.observe(distsim, "solve", on_solve)
        span = tracer.span
        started = time.perf_counter()
        with span("bench.simulate"):
            with span("scenarios.parse"):
                sc = parse_scenario(op.text)
            with span("scenarios.to_problem"):
                p = sc.to_problem()
            with span("model.validate"):
                report = validate_problem(p)
            if not report.ok:
                raise ValueError(f"{op.name}: invalid instance: {report.violations[:3]}")
            with span("distsim.run_cycles"):
                trace = run_cycles(p, sc.script, sc.cycle, op.cycles, sc.capabilities())
        wall = time.perf_counter() - started - paused

    errors = [f"cycle {r.cycle}: agreement violation {r.payload}" for r in trace.select(event="agreement_violation")]
    digests: dict[int, set[str]] = {}
    for r in trace.select(phase="plan", event="digest"):
        digests.setdefault(r.cycle, set()).add(_payload(r)["sha"])
    n_catalog = len(p.agent_ids)
    flood_rounds = messages = 0
    ratios = []
    for r in trace.select(phase="broadcast", event="flood"):
        kv = _payload(r)
        messages += int(kv["messages"])
        n = len(kv["agents"].split(","))
        if kv["complete"] == "1":
            if len(digests.get(r.cycle, ())) != 1:
                errors.append(f"cycle {r.cycle}: {len(digests.get(r.cycle, ()))} digests under complete consensus")
            rounds = int(kv["rounds"])
            flood_rounds += rounds
            if n > 1:
                # Equals time_s / flooding_time_bound(n, r_min): the trace's
                # time_s is rounds * n * state_size_bits(N) / r_min, so r_min cancels.
                ratios.append(Fraction(rounds * state_size_bits(n_catalog), (n - 1) * state_size_bits(n)))
    for agent_p, plan, schedule in zip(encoded, plans, schedules):
        with span("model.check_schedule"):
            schedule_errors = check_schedule(agent_p, schedule)
        errors += [f"check_schedule: {e}" for e in schedule_errors] + check_plan(plan)
    by_id = p.network.by_id
    done = trace.executed_tasks()
    sim = {
        "cycles": op.cycles,
        "plan_s": sc.cycle.plan_s,
        "trace_digest": trace.digest(),
        "executed_reward": sum((by_id[t].effective_reward for t in done), Fraction(0)),
        "tasks_done": len(done),
        "tasks_missed": len(trace.select(event="task_missed")),
        "comms_missed": len(trace.select(event="comm_missed")),
        "flood_rounds": flood_rounds,
        "messages": messages,
        "flood_time_vs_bound": float(sum(ratios) / len(ratios)) if ratios else 0.0,
        "distinct_plans": sum(len(d) for d in digests.values()),
    }
    return Outcome(op.name, wall, plans, errors, sim)
