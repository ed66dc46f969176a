"""Flooding consensus and the broadcast-plan-execute simulation."""

import os
import pickle
import random
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal, ROUND_HALF_UP
from fractions import Fraction

import pytest

from commsched import distsim
from commsched.distsim import (
    AgentState,
    CycleConfig,
    RATE_LEVELS,
    REWARD_LEVELS,
    REWARD_SLOTS,
    ScriptEvent,
    WorldScript,
    flood,
    flooding_time_bound,
    rate_floor,
    rung,
    run_cycles,
    state_size_bits,
    trace_from_text,
    _CycleEngine,
)
from commsched.model import CyclicDependency, SoftwareNetwork
from commsched.scenarios import canned_scenario, generate_random
from commsched.solver import SolveBudget


def make_states(n):
    agents = [f"a{i}" for i in range(n)]
    return {
        a: AgentState(a, tuple([7] * n), 7, tuple([0] * REWARD_SLOTS))
        for a in agents
    }


def ring(n):
    return {(f"a{i}", f"a{(i + 1) % n}") for i in range(n)}


def line(n):
    links = set()
    for i in range(n - 1):
        links.add((f"a{i}", f"a{i + 1}"))
        links.add((f"a{i + 1}", f"a{i}"))
    return links


def strongly_connected(links, agents):
    def reach(start, edges):
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for s, d in edges:
                if s == cur and d not in seen:
                    seen.add(d)
                    stack.append(d)
        return seen

    return all(reach(a, links) == set(agents) for a in agents)


class TestFlood:
    def test_complete_graph_one_round(self):
        n = 5
        states = make_states(n)
        links = {(a, b) for a in states for b in states if a != b}
        result = flood(states, links, rounds=5)
        assert result.rounds_used == 1

    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    def test_line_needs_diameter_rounds(self, n):
        states = make_states(n)
        result = flood(states, line(n), rounds=n)
        assert result.rounds_used == n - 1

    def test_incomplete_when_budget_too_small(self):
        states = make_states(6)
        result = flood(states, line(6), rounds=2)
        assert result.rounds_used is None

    def test_views_collect_every_state(self):
        states = make_states(4)
        result = flood(states, ring(4), rounds=4)
        assert result.rounds_used == 3  # directed ring: diameter n-1
        for a, view in result.views.items():
            assert set(view) == set(states)

    def test_random_strongly_connected_within_n_minus_1(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(2, 12)
            agents = [f"a{i}" for i in range(n)]
            links = ring(n) if rng.random() < 0.2 else set()
            links |= {(a, b) for a in agents for b in agents if a != b and rng.random() < 0.35}
            if not strongly_connected(links, agents):
                links |= ring(n)
            states = make_states(n)
            result = flood(states, links, rounds=n - 1 if n > 1 else 1)
            assert result.rounds_used is not None and result.rounds_used <= n - 1


class TestStateSize:
    def test_bit_length_matches_accounting(self):
        for n in (2, 5, 10, 50):
            states = make_states(n)
            for st in states.values():
                assert len(st.to_bits()) == state_size_bits(n) == 3 * n + 23

    def test_reward_slots_enforced(self):
        with pytest.raises(ValueError):
            AgentState("a0", (7,), 7, tuple([0] * (REWARD_SLOTS + 1)))


class TestRungs:
    @pytest.mark.parametrize(
        "rate, level",
        [(-5, 0), (0, 0), (Fraction(999), 0), (1_000, 1), (Fraction(20_001, 2), 2),
         (10_999_999, 6), (11_000_000, 7), (10**9, 7)],
    )
    def test_rate_rungs(self, rate, level):
        assert rung(RATE_LEVELS, rate) == level
        assert rate_floor(rate) == RATE_LEVELS[level]

    @pytest.mark.parametrize(
        "reward, level", [(-1, 0), (0, 0), (Fraction(9, 2), 0), (5, 1), (19, 2), (50, 3)]
    )
    def test_reward_rungs(self, reward, level):
        assert rung(REWARD_LEVELS, reward) == level


class TestFloodingBound:
    def test_ten_agents_at_5kbps(self):
        assert flooding_time_bound(10, 5000) == Fraction(954, 1000)

    def test_fifty_agents_at_1mbps(self):
        exact = flooding_time_bound(50, 1_000_000)
        assert exact == Fraction(50 * 49 * 173, 1_000_000) == Fraction(42385, 100000)
        rounded = Decimal("0.42385").quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP)
        assert rounded == Decimal("0.4239")

    def test_formula_identity(self):
        assert flooding_time_bound(2, 29) == 2

    def test_simulated_consensus_stays_under_bound(self):
        for seed in range(25):
            rng = random.Random(seed)
            n = rng.randint(2, 10)
            agents = [f"a{i}" for i in range(n)]
            links = ring(n) | {
                (a, b) for a in agents for b in agents if a != b and rng.random() < 0.3
            }
            states = make_states(n)
            result = flood(states, links, rounds=n)
            assert result.rounds_used is not None
            rate = Fraction(5000)
            per_round = Fraction(n * state_size_bits(n)) / rate
            assert result.rounds_used * per_round <= flooding_time_bound(n, rate)


class TestRunCycles:
    def test_static_scenario_agrees_every_cycle(self):
        sc = canned_scenario("relay")
        p = sc.to_problem()
        trace = run_cycles(p, sc.script, sc.cycle, 2, sc.capabilities())
        assert not trace.select(event="agreement_violation")
        for cycle in (0, 1):
            digests = {
                r.payload.split()[0]
                for r in trace.select(phase="plan", event="digest")
                if r.cycle == cycle
            }
            assert len(digests) == 1

    def test_relay_route_appears_in_trace(self):
        sc = canned_scenario("relay")
        p = sc.to_problem()
        trace = run_cycles(p, sc.script, sc.cycle, 1, sc.capabilities())
        hops = [r.fields() | {"src": r.agent} for r in trace.select(event="comm_delivered")]
        legs = {(h["src"], h["dst"]) for h in hops if h["task"] == "sample_rover"}
        assert ("rover", "relay") in legs and ("relay", "base") in legs

    def test_data_mule_stores_then_forwards(self):
        sc = canned_scenario("data_mule")
        p = sc.to_problem()
        trace = run_cycles(p, sc.script, sc.cycle, 1, sc.capabilities())
        deliveries = [(r.agent, r.fields()) for r in trace.select(event="comm_delivered")]
        to_mule = [int(kv["end"]) for agent, kv in deliveries if kv["dst"] == "mule"]
        from_mule = [int(kv["start"]) for agent, kv in deliveries if agent == "mule"]
        assert to_mule and from_mule
        assert max(to_mule) < min(from_mule)
        assert min(from_mule) >= 5  # the outbound window opens at step 5

    def test_disabled_agent_tasks_return_to_pool(self):
        sc = canned_scenario("relay")
        p = sc.to_problem()
        events = tuple(sc.script.events) + (
            ScriptEvent(18, "agent", "relay", "", 0),  # mid-execute outage
            ScriptEvent(60, "agent", "relay", "", 1),
        )
        trace = run_cycles(p, WorldScript(events), sc.cycle, 3, sc.capabilities())
        missed = trace.select(event="task_missed") + trace.select(event="comm_missed")
        assert missed, "the outage must cause at least one miss"
        pools = [r.payload for r in trace.select(event="pool")]
        assert pools[0] == "remaining=deliver_base"  # rescheduled later
        assert pools[-1] == "remaining="
        done = trace.executed_tasks()
        assert done.count("deliver_base") == 1

    def test_replay_is_byte_identical(self):
        sc = canned_scenario("data_mule")
        p = sc.to_problem()
        a = run_cycles(p, sc.script, sc.cycle, 2, sc.capabilities())
        b = run_cycles(p, sc.script, sc.cycle, 2, sc.capabilities())
        assert a.to_text() == b.to_text()
        assert a.digest() == b.digest()

    def test_trace_text_round_trip(self):
        sc = canned_scenario("relay")
        p = sc.to_problem()
        trace = run_cycles(p, sc.script, sc.cycle, 1, sc.capabilities())
        again = trace_from_text(trace.to_text())
        assert again.to_text() == trace.to_text()

    @pytest.mark.parametrize(
        "text", ["", "\n", "1 x y z\n", "one plan a0 digest\n", "0 plan a0\n"]
    )
    def test_reader_rejects_what_the_writer_never_writes(self, text):
        with pytest.raises(ValueError):
            trace_from_text(text)

    def test_capability_scaling_doubles_cost(self):
        sc = canned_scenario("relay")
        p = sc.to_problem()
        caps = dict(sc.capabilities())
        caps["rover"] = 6  # one level down: twice the compute time
        trace = run_cycles(p, sc.script, sc.cycle, 1, caps)
        done = {
            kv["task"]: (int(kv["start"]), int(kv["end"]))
            for kv in (r.fields() for r in trace.select(event="task_done"))
        }
        start, end = done["sample_rover"]
        assert end - start + 1 == 2  # 1 s task at half speed spans 2 steps

    def test_template_outside_the_protocol_rejected(self):
        sc = generate_random(2, 1.0, 6, seed=0)
        with pytest.raises(ValueError, match="agent p1 owns 12 optional tasks"):
            run_cycles(sc.to_problem(), sc.script, sc.cycle, 1, sc.capabilities())
        short = replace(sc.cycle, execute_s=sc.horizon_s - 1)
        assert distsim.simulation_errors(sc.to_problem(), short)[0].startswith("the horizon (24 s)")

    def test_cyclic_template_cannot_be_built(self):
        p = canned_scenario("relay").to_problem()
        tasks = [
            replace(t, predecessors=frozenset({"deliver_base"})) if t.id == "sample_rover" else t
            for t in p.network.tasks
        ]
        with pytest.raises(CyclicDependency, match="cycle"):
            SoftwareNetwork(tasks)


def dynamic4():
    """`generate_random(4, 0.5, 1, seed=3)` at 200 nodes with the p1-p2 link cut."""
    sc = generate_random(4, 0.5, 1, seed=3)
    cut = WorldScript((ScriptEvent(0, "link", "p1", "p2", 0), ScriptEvent(0, "link", "p2", "p1", 0)))
    return replace(sc, script=cut, cycle=replace(sc.cycle, budget=SolveBudget(200)))


def plan_digest(result) -> str:
    return result.incumbent.digest() if result is not None else "plan_failed"


#: Rebuilds one agent's plans in a fresh interpreter: reads the scenario text
#: and that agent's flooded views (pickled on stdin), prints one digest a view.
REBUILD_ALONE = """
import pickle, sys
from commsched.distsim import _CycleEngine
from commsched.scenarios import parse_scenario
text, views = pickle.load(sys.stdin.buffer)
sc = parse_scenario(text)
engine = _CycleEngine(sc.to_problem(), sc.script, sc.cycle, sc.capabilities())
for view in views:
    res = engine._plan(view)
    print(res.incumbent.digest() if res is not None else "plan_failed")
"""


class TestPlanSharing:
    """The simulator plans once per distinct view; agents solving alone agree with it."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        real = distsim.solve

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(distsim, "solve", counting)
        return calls

    def test_each_agent_solving_alone_matches_the_trace(self, monkeypatch):
        sc = dynamic4()
        views_by_cycle = []

        def recording(states, links, rounds):
            result = flood(states, links, rounds)
            views_by_cycle.append(result.views)
            return result

        monkeypatch.setattr(distsim, "flood", recording)
        trace = run_cycles(sc.to_problem(), sc.script, sc.cycle, 3, sc.capabilities())
        cycles = [r.cycle for r in trace.select(event="flood")]
        traced = {(r.cycle, r.agent): r.fields()["sha"] for r in trace.select(event="digest")}
        traced |= {(r.cycle, r.agent): "plan_failed" for r in trace.select(event="plan_failed")}

        # Every enabled agent, every cycle, rebuilds its plan from its own view.
        engine = _CycleEngine(sc.to_problem(), sc.script, sc.cycle, sc.capabilities())
        alone = {
            (cycle, a): plan_digest(engine._plan(view))
            for cycle, views in zip(cycles, views_by_cycle)
            for a, view in views.items()
        }
        assert alone == traced
        assert len(alone) == 3 * 4

        # Real agents are separate processes: one rebuilds under another hash seed.
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(distsim.__file__))
        views = [views["p3"] for views in views_by_cycle]
        proc = subprocess.run(
            [sys.executable, "-c", REBUILD_ALONE],
            input=pickle.dumps((sc.to_text(), views)),
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().split() == [traced[(cycle, "p3")] for cycle in cycles]

    def test_complete_consensus_solves_once(self, solves):
        sc = dynamic4()
        trace = run_cycles(sc.to_problem(), sc.script, sc.cycle, 1, sc.capabilities())
        assert trace.select(event="flood")[0].fields()["complete"] == "1"
        assert len(solves) == 1
        digests = trace.select(event="digest")
        assert [r.agent for r in digests] == ["base", "p1", "p2", "p3"]
        assert len({r.fields()["sha"] for r in digests}) == 1

    def test_incomplete_flood_solves_once_per_distinct_view(self, solves):
        # A line base - p1 - p2 - p3 at 1 kbps: a round takes 4 * 35 / 1000 s,
        # so a 0.3 s broadcast fits 2 of the 3 rounds the line needs.
        sc = dynamic4()
        order = ["base", "p1", "p2", "p3"]
        links = tuple(
            ScriptEvent(0, "link", i, j, 1000 if abs(order.index(i) - order.index(j)) == 1 else 0)
            for i in order
            for j in order
            if i != j
        )
        cfg = CycleConfig(Fraction(3, 10), sc.cycle.plan_s, sc.cycle.execute_s, sc.cycle.budget)
        trace = run_cycles(sc.to_problem(), WorldScript(links), cfg, 1, sc.capabilities())
        assert trace.select(event="flood")[0].fields()["complete"] == "0"
        plan_lines = [(r.agent, r.event, r.payload.split()[0]) for r in trace.select(phase="plan")]
        shas = {r.agent: r.payload.split()[0] for r in trace.select(event="digest")}
        assert plan_lines == [
            ("base", "partial_view", "agents=base,p1,p2"),
            ("base", "digest", shas["base"]),
            ("p1", "digest", shas["p1"]),
            ("p2", "digest", shas["p2"]),
            ("p3", "partial_view", "agents=p1,p2,p3"),
            ("p3", "digest", shas["p3"]),
        ]
        assert len(solves) == 3  # p1 and p2 hold the same complete view
        assert shas["p1"] == shas["p2"]
