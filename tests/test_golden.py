"""Golden digest over LP exports and solve results: the refactor gate.

A change that keeps this digest keeps every encoding, every search tree and
every decoded schedule on the corpus byte-identical. A change that alters
any of them on purpose must pin the new digest and say why. A second digest
pins `propagate` and `bound` on partial fixings of the same corpus, many of
them conflicting, which `solve` alone never reaches. A third pins the
simulator's traces, including a lone agent, no live link, links below the
lowest rate rung, no agent at all, a slower agent and a mid-execute outage.
The same corpus checks the column layout that states each column's kind,
and that each schedule and result text reads back to the same text. A fourth
digest pins the SVG renders of schedules, results and traces.
"""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

from commsched import (
    CONFLICT,
    Objective,
    SolveBudget,
    bound,
    encode,
    encode_objective,
    export_lp,
    propagate,
    solve,
)
from commsched.baseline import selfish_schedule
from commsched.distsim import ScriptEvent, WorldScript, run_cycles
from commsched.model import Schedule, schedule_from_text
from commsched.render import render_schedule_svg, render_trace_svg
from commsched.scenarios import canned_scenario, generate_random
from commsched.solver import result_from_text

from helpers import interference_instance, random_instance

GOLDEN_SHA256 = "1f01ef356a83cc363cdedf695598cc24f336b1c7d5cde62132b20227cc5939ce"
PROPAGATE_SHA256 = "09085e168464b8d56a685c12aae224c01deae88020e3fff478eba9b8737c9260"
TRACE_SHA256 = "fa3839eef381cfbf62f629d5b11e54dce166bd7922c5da03ac84f04ef076bd81"
SVG_SHA256 = "b7b89e0a5ee73e059ddeeac8215a3ef425c646197a37dbb4fcf06608a6db902e"

CANNED = ("relay", "science_cluster", "assembly_line", "data_mule")
OBJECTIVES = (Objective.reward, Objective.makespan, Objective.energy)


def corpus():
    """(problem, interference mode, node budget) in digest order."""
    for name in CANNED:
        for make in OBJECTIVES:
            for interference in (False, True):
                p = replace(canned_scenario(name).to_problem(), objective=make())
                yield p, interference, 300
    for seed in range(30):
        yield random_instance(seed), False, 2000
        yield interference_instance(seed), True, 2000


def test_exports_and_results_match_golden_digest():
    h = hashlib.sha256()
    for p, interference, nodes in corpus():
        inst = encode_objective(p, p.objective, encode(p, interference=interference))
        h.update(export_lp(inst).encode())
        res = solve(inst, selfish_schedule(p, mode="storage_excepted"), SolveBudget(nodes))
        text = res.to_text(p)
        h.update(text.encode())
        assert result_from_text(text).to_text() == text
        for t in (res.incumbent.to_text(p), res.incumbent.to_text()):
            assert schedule_from_text(t).to_text() == t
        assert type(res.incumbent_value) is Fraction
        assert type(res.best_bound) is Fraction
        assert type(res.incumbent.objective_value) is Fraction
    assert h.hexdigest() == GOLDEN_SHA256


def test_column_layout_states_each_kind():
    """X, C and D columns are [0, num_binary), then R and z; bounds are two arrays."""
    for p, interference, _ in corpus():
        inst = encode_objective(p, p.objective, encode(p, interference=interference))
        n, nb = len(inst.variables), inst.num_binary
        assert n == len(inst.lb) == len(inst.ub)
        blocks = {"x": inst.x_index, "c": inst.c_index, "d": inst.d_index, "r": inst.r_index}
        for prefix, index in blocks.items():
            assert all(inst.variables[col].startswith(prefix + "_") for col in index.values())
        binary = [*inst.x_index.values(), *inst.c_index.values(), *inst.d_index.values()]
        continuous = [*inst.r_index.values(), *([] if inst.z_col is None else [inst.z_col])]
        assert sorted(binary) == list(range(nb))
        assert sorted(continuous) == list(range(nb, n))
        xc = sorted([*inst.x_index.values(), *inst.c_index.values()])
        assert inst.branch_cols == tuple(col for col in xc if inst.lb[col] != inst.ub[col])


def fixings(inst, rng):
    """The root, then random partial fixings of the free binary columns.

    Values lean to 0, as a dive's do. The densest tier conflicts in most
    instances, the sparsest in almost none.
    """
    free = [col for col in range(inst.num_binary) if inst.lb[col] != inst.ub[col]]
    yield {}
    for density in (0.01, 0.04, 0.15):
        yield {col: int(rng.random() < 0.25) for col in free if rng.random() < density}


def test_propagate_and_bound_match_golden_digest():
    h = hashlib.sha256()
    for i, (p, interference, _) in enumerate(corpus()):
        inst = encode_objective(p, p.objective, encode(p, interference=interference))
        for fixing in fixings(inst, random.Random(i)):
            fixed = propagate(inst, fixing)
            if fixed is CONFLICT:
                text = "conflict"
            else:
                text = " ".join(f"{col}={v}" for col, v in sorted(fixed.items()))
            h.update(f"{text}\nbound {bound(inst, fixing)}\n".encode())
    assert h.hexdigest() == PROPAGATE_SHA256


def simulations():
    """(scenario, script, capabilities, cycles) in digest order."""
    for name in CANNED:
        sc = canned_scenario(name)
        yield sc, sc.script, sc.capabilities(), 3
    sc = canned_scenario("relay")
    agents = [a.id for a in sc.agents]

    def with_events(*events):
        return WorldScript(sc.script.events + events)

    def all_links(bps):
        return with_events(
            *(ScriptEvent(0, "link", i, j, bps) for i in agents for j in agents if i != j)
        )

    yield sc, with_events(
        *(ScriptEvent(0, "agent", a, "", 0) for a in agents if a != "rover")
    ), sc.capabilities(), 2
    yield sc, all_links(0), sc.capabilities(), 2
    yield sc, all_links(500), sc.capabilities(), 2
    yield sc, with_events(*(ScriptEvent(0, "agent", a, "", 0) for a in agents)), sc.capabilities(), 2
    yield sc, sc.script, sc.capabilities() | {"rover": 6}, 2
    yield sc, with_events(
        ScriptEvent(18, "agent", "relay", "", 0), ScriptEvent(60, "agent", "relay", "", 1)
    ), sc.capabilities(), 3
    sc = generate_random(4, 0.5, 1, seed=3)
    sc = replace(sc, cycle=replace(sc.cycle, budget=SolveBudget(200)))
    yield sc, sc.script, sc.capabilities(), 2


def test_simulation_traces_match_golden_digest():
    h = hashlib.sha256()
    for sc, script, capabilities, cycles in simulations():
        trace = run_cycles(sc.to_problem(), script, sc.cycle, cycles, capabilities)
        h.update(trace.to_text().encode())
    assert h.hexdigest() == TRACE_SHA256


def renders():
    """The SVG texts in digest order: each canned plan as a schedule and as a
    result, with and without durations; traces; the empty schedule."""
    for name in CANNED:
        for make in OBJECTIVES:
            p = replace(canned_scenario(name).to_problem(), objective=make())
            inst = encode_objective(p, p.objective, encode(p))
            res = solve(inst, selfish_schedule(p, mode="storage_excepted"), SolveBudget(300))
            for q in (p, None):
                yield render_schedule_svg(res.incumbent.to_text(q))
                yield render_schedule_svg(res.to_text(q))
    for sc, script, capabilities, _ in list(simulations())[:4]:
        yield render_trace_svg(run_cycles(sc.to_problem(), script, sc.cycle, 3, capabilities).to_text())
    sc = generate_random(4, 0.5, 1, seed=3)
    sc = replace(sc, cycle=replace(sc.cycle, budget=SolveBudget(200)))
    yield render_trace_svg(run_cycles(sc.to_problem(), sc.script, sc.cycle, 3, sc.capabilities()).to_text())
    yield render_schedule_svg(Schedule((), ()).to_text())


def test_renders_match_golden_digest():
    h = hashlib.sha256()
    count = 0
    for svg in renders():
        h.update(svg.encode())
        count += 1
    assert count == 54
    assert h.hexdigest() == SVG_SHA256
