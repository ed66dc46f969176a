"""Encoding: variable layout, rows, objectives, decode, LP export."""

import functools
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from commsched import (
    AgentProfile,
    ContactGraph,
    Horizon,
    InfeasibleAssignment,
    InfeasibleHorizon,
    Objective,
    ProblemInstance,
    SoftwareNetwork,
    Task,
    SolveBudget,
    brute_force,
    check_assignment,
    check_schedule,
    decode,
    encode,
    encode_objective,
    export_lp,
    solve,
)
from commsched.baseline import selfish_schedule
from commsched.encoder import assignment_from_schedule
from commsched.model import CommEvent, Placement, Schedule

from helpers import interference_instance, random_instance


def grid_instance(na: int, nt: int, steps: int) -> ProblemInstance:
    """All tasks one step everywhere, full mesh contacts: nothing is pruned."""
    tasks = [Task(f"t{i}", required=False, reward=1, product_size=4) for i in range(nt)]
    agents = [
        AgentProfile(f"a{j}", {t.id: 1 for t in tasks}, {t.id: 1 for t in tasks})
        for j in range(na)
    ]
    rates = {
        (f"a{i}", f"a{j}", k): 8
        for i in range(na)
        for j in range(na)
        if i != j
        for k in range(steps)
    }
    return ProblemInstance(
        network=SoftwareNetwork(tasks),
        agents=tuple(agents),
        contacts=ContactGraph(rates),
        horizon=Horizon(steps, steps),
        objective=Objective.reward(),
    )


class TestVariableCount:
    def test_paper_example_600_binaries(self):
        # N=3, M=4, steps=10: 9*4*10 + 2*3*4*10 = 600
        inst = encode(grid_instance(3, 4, 10))
        assert inst.num_binary == 600

    @pytest.mark.parametrize("na,nt,steps", [(1, 1, 1), (2, 3, 5), (3, 5, 8), (4, 2, 6)])
    def test_count_law_holds_on_grid(self, na, nt, steps):
        inst = encode(grid_instance(na, nt, steps))
        assert inst.num_binary == na * na * nt * steps + 2 * na * nt * steps

    def test_empty_network(self):
        p = grid_instance(2, 1, 3)
        from dataclasses import replace

        p = replace(p, network=SoftwareNetwork([]))
        inst = encode(p)
        assert len(inst.variables) == 0 and len(inst.rows) == 0
        res = solve(encode_objective(p, p.objective, inst),
                    selfish_schedule(p), SolveBudget(10))
        assert res.incumbent.placements == () and res.incumbent_value == 0

    def test_forbidden_pairs_have_no_x_columns(self):
        p = grid_instance(2, 2, 4)
        from dataclasses import replace

        agents = (
            AgentProfile("a0", {"t0": 1}, {"t0": 1}),
            AgentProfile("a1", {"t0": 1, "t1": 1}, {"t0": 1, "t1": 1}),
        )
        inst = encode(replace(p, agents=agents))
        assert all(key[1] != 1 or key[0] != 0 for key in inst.x_index)  # (a0, t1) absent
        # count shrinks by exactly the missing task-agent block
        assert inst.num_binary == 2 * 2 * 2 * 4 + 2 * 2 * 2 * 4 - 4

    def test_infeasible_horizon_raises(self):
        p = grid_instance(1, 1, 2)
        from dataclasses import replace

        agents = (AgentProfile("a0", {"t0": 5}, {"t0": 1}),)
        tasks = SoftwareNetwork([Task("t0", required=True)])
        with pytest.raises(InfeasibleHorizon):
            encode(replace(p, agents=agents, network=tasks))


class TestObjectives:
    def test_single_optional_reward(self):
        tasks = SoftwareNetwork([Task("t0", required=False, reward=7)])
        p = ProblemInstance(
            network=tasks,
            agents=(AgentProfile("a0", {"t0": 1}, {"t0": 1}),),
            contacts=ContactGraph(),
            horizon=Horizon(4, 4),
            objective=Objective.reward(),
        )
        inst = encode_objective(p, p.objective, encode(p))
        res = solve(inst, selfish_schedule(p), SolveBudget(1000))
        assert res.incumbent_value == 7 and res.status == "optimal"

    def test_energy_with_no_choice(self):
        tasks = SoftwareNetwork([Task("t0"), Task("t1")])
        p = ProblemInstance(
            network=tasks,
            agents=(AgentProfile("a0", {"t0": 1, "t1": 1}, {"t0": 3, "t1": 4}),),
            contacts=ContactGraph(),
            horizon=Horizon(6, 6),
            objective=Objective.energy(),
        )
        inst = encode_objective(p, p.objective, encode(p))
        res = solve(inst, selfish_schedule(p), SolveBudget(5000))
        assert res.incumbent_value == -7

    def test_makespan_matches_brute_force_when_offloading_helps(self):
        tasks = SoftwareNetwork(
            [Task("gen", product_size=8), Task("use", predecessors={"gen"})]
        )
        p = ProblemInstance(
            network=tasks,
            agents=(
                AgentProfile("a0", {"gen": 1, "use": 4}, {"gen": 1, "use": 1}),
                AgentProfile("a1", {"use": 1}, {"use": 1}),
            ),
            contacts=ContactGraph({("a0", "a1", k): 8 for k in range(8)}),
            horizon=Horizon(8, 8),
            objective=Objective.makespan(),
        )
        inst = encode_objective(p, p.objective, encode(p))
        res = solve(inst, selfish_schedule(p), SolveBudget(100000))
        bf = brute_force(p)
        assert res.incumbent_value == bf.objective_value == -3

    def test_reward_scaling_keeps_argmax(self):
        from dataclasses import replace

        p = random_instance(11, objective=Objective.reward())
        base = solve(
            encode_objective(p, p.objective, encode(p)),
            selfish_schedule(p, mode="storage_excepted"),
            SolveBudget(100000),
        )
        scaled_tasks = [
            replace(t, reward=t.reward * 3) for t in p.network.tasks
        ]
        p3 = replace(p, network=SoftwareNetwork(scaled_tasks))
        res3 = solve(
            encode_objective(p3, p3.objective, encode(p3)),
            selfish_schedule(p3, mode="storage_excepted"),
            SolveBudget(100000),
        )
        assert res3.incumbent_value == 3 * base.incumbent_value
        assert res3.incumbent.placements == base.incumbent.placements


class TestDecode:
    def decode_setup(self):
        tasks = SoftwareNetwork(
            [Task("gen", product_size=8), Task("use", required=False, reward=2, predecessors={"gen"})]
        )
        p = ProblemInstance(
            network=tasks,
            agents=(
                AgentProfile("a0", {"gen": 1}, {"gen": 1}),
                AgentProfile("a1", {"use": 1}, {"use": 1}),
            ),
            contacts=ContactGraph({("a0", "a1", k): 4 for k in range(6)}),
            horizon=Horizon(6, 6),
            objective=Objective.reward(),
        )
        return p, encode_objective(p, p.objective, encode(p))

    def test_all_zero_assignment_when_nothing_required(self):
        tasks = SoftwareNetwork([Task("t0", required=False, reward=1)])
        p = ProblemInstance(
            network=tasks,
            agents=(AgentProfile("a0", {"t0": 1}, {"t0": 1}),),
            contacts=ContactGraph(),
            horizon=Horizon(3, 3),
            objective=Objective.reward(),
        )
        inst = encode_objective(p, p.objective, encode(p))
        s = decode(inst, {})
        assert s.placements == () and s.comms == () and s.objective_value == 0

    def test_hand_built_assignment_decodes(self):
        p, inst = self.decode_setup()
        values = {inst.x_index[(0, 0, 0)]: 1, inst.x_index[(1, 1, 4)]: 1}
        # transfer gen's 8 bits at 4 bits/step over steps 2..3
        values[inst.c_index[(0, 1, 0, 2)]] = 1
        values[inst.c_index[(0, 1, 0, 3)]] = 1
        for k in range(1, 6):
            values[inst.d_index[(0, 0, k)]] = 1
        for k in range(4, 6):
            values[inst.d_index[(1, 0, k)]] = 1
        values[inst.d_index[(1, 1, 5)]] = 1
        s = decode(inst, values)
        assert len(s.placements) == 2 and len(s.comms) == 1
        comm = s.comms[0]
        assert (comm.src, comm.dst, comm.start, comm.end) == ("a0", "a1", 2, 3)
        assert not check_schedule(p, s)

    def test_resource_violation_rejected(self):
        p, inst = self.decode_setup()
        from dataclasses import replace

        agents = (
            AgentProfile("a0", {"gen": 1, "use": 1}, {"gen": 1, "use": 1}),
            AgentProfile("a1", {}, {}),
        )
        p2 = replace(p, network=SoftwareNetwork(
            [Task("gen", product_size=0), Task("use", required=False, reward=2)]))
        p2 = replace(p2, agents=agents)
        inst2 = encode_objective(p2, p2.objective, encode(p2))
        values = {inst2.x_index[(0, 0, 0)]: 1, inst2.x_index[(0, 1, 0)]: 1}
        with pytest.raises(InfeasibleAssignment):
            decode(inst2, values)

    def test_bound_violation_is_exact(self):
        p = interference_instance(0)
        inst = encode_objective(p, p.objective, encode(p, interference=True))
        col = next(c for c in sorted(inst.r_index.values()) if inst.ub[c] > 0)
        name, ub = inst.variables[col], inst.ub[col]
        values = assignment_from_schedule(inst, selfish_schedule(p))
        assert not check_assignment(inst, values)
        values[col] = ub + Fraction(1, 10**9)
        errors = check_assignment(inst, values)
        assert f"{name}: value {values[col]} outside bounds [0,{ub}]" in errors

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "make, interference",
        [(random_instance, False), (random_instance, True), (interference_instance, True)],
    )
    def test_int_and_fraction_forms_check_and_decode_alike(self, seed, make, interference):
        p = make(seed)
        inst = encode_objective(p, p.objective, encode(p, interference=interference))
        seed_values = assignment_from_schedule(inst, selfish_schedule(p))
        cases = [seed_values]
        if inst.branch_cols:
            flipped = dict(seed_values)
            col = inst.branch_cols[seed % len(inst.branch_cols)]
            flipped[col] = 1 - flipped.get(col, 0)
            cases.append(flipped)
        live_r = [c for c in sorted(inst.r_index.values()) if inst.ub[c] > 0]
        if live_r:
            over = dict(seed_values)
            col = live_r[seed % len(live_r)]
            over[col] = inst.ub[col] + Fraction(1, 10**9)
            cases.append(over)
        for values in cases:
            wrapped = {col: Fraction(v) for col, v in values.items()}
            errors = check_assignment(inst, values)
            assert errors == check_assignment(inst, wrapped)
            if not errors:
                assert decode(inst, values) == decode(inst, wrapped)
        assert not check_assignment(inst, seed_values)
        if live_r:
            col = live_r[0]
            as_float = check_assignment(inst, {**seed_values, col: 0.5})
            assert as_float and as_float == check_assignment(inst, {**seed_values, col: Fraction(1, 2)})

    def test_round_trip_through_schedule(self):
        p, inst = self.decode_setup()
        sched = brute_force(p)
        values = assignment_from_schedule(inst, sched)
        assert not check_assignment(inst, values)
        again = decode(inst, values)
        assert again.placements == sched.placements
        assert not check_schedule(p, again)


class TestExport:
    def test_empty_instance_exports(self):
        p = grid_instance(2, 1, 3)
        from dataclasses import replace

        inst = encode(replace(p, network=SoftwareNetwork([])))
        text = export_lp(inst)
        assert text.startswith("\\")
        assert "Maximize" in text and "Binaries" in text and text.endswith("End\n")

    def test_declares_exactly_600_binaries(self):
        inst = encode(grid_instance(3, 4, 10))
        text = export_lp(inst)
        section = text.split("Binaries", 1)[1].rsplit("End", 1)[0]
        assert len(section.split()) == 600

    def test_byte_identical_reexport(self):
        p = grid_instance(2, 2, 4)
        inst = encode_objective(p, p.objective, encode(p))
        assert export_lp(inst) == export_lp(encode_objective(p, p.objective, encode(p)))


class TestEncodingEquivalence:
    def test_pinned_predecessor_instance_matches_oracle(self):
        tasks = SoftwareNetwork(
            [Task("gen", product_size=8), Task("use", predecessors={"gen"})]
        )
        p = ProblemInstance(
            network=tasks,
            agents=(
                AgentProfile("a0", {"gen": 1, "use": 2}, {"gen": 1, "use": 2}),
                AgentProfile("a1", {"use": 1}, {"use": 1}),
            ),
            contacts=ContactGraph({("a0", "a1", k): 8 for k in range(6)}),
            horizon=Horizon(6, 6),
            objective=Objective.makespan(),
        )
        inst = encode_objective(p, p.objective, encode(p))
        res = solve(inst, selfish_schedule(p), SolveBudget(100000))
        assert res.status == "optimal"
        assert res.incumbent_value == brute_force(p).objective_value

    @pytest.mark.parametrize("seed", range(0, 24))
    def test_small_instances_match_oracle(self, seed):
        p = random_instance(seed + 1000)
        inst = encode_objective(p, p.objective, encode(p))
        res = solve(inst, selfish_schedule(p, mode="storage_excepted"), SolveBudget(200000))
        assert res.status == "optimal"
        assert res.incumbent_value == brute_force(p).objective_value
        assert not check_schedule(p, res.incumbent)


@functools.lru_cache(maxsize=None)
def solved(seed: int):
    """(problem, program, feasible schedule) of one `random_instance` seed."""
    p = random_instance(seed)
    inst = encode_objective(p, p.objective, encode(p))
    res = solve(inst, selfish_schedule(p, mode="storage_excepted"), SolveBudget(2000))
    return p, inst, res.incumbent


@st.composite
def perturbed(draw):
    """A solver schedule with one placement or comm event moved or dropped.

    A moved comm event keeps its length and carries each step's full link
    capacity. It is drawn only where every step of it is live, because
    `check_schedule` and the encoding count the steps of an event that spans
    a dead step differently.
    """
    p, inst, s = solved(draw(st.integers(0, 199)))
    placements, comms = list(s.placements), list(s.comms)
    kinds = (["shift", "move", "drop"] if placements else []) + (["comm"] if comms else [])
    assume(kinds)
    kind = draw(st.sampled_from(kinds))
    if kind == "comm":
        i = draw(st.integers(0, len(comms) - 1))
        c = comms[i]
        start = c.start + draw(st.sampled_from((-2, -1, 1, 2)))
        steps = range(start, start + len(c.bits_per_step))
        rates = [p.contacts.rate(c.src, c.dst, k) for k in steps]
        assume(start >= 0 and all(r > 0 for r in rates))
        dt = p.horizon.step_duration
        comms[i] = CommEvent(c.src, c.dst, c.task, start, steps[-1], tuple(r * dt for r in rates))
    else:
        i = draw(st.integers(0, len(placements) - 1))
        pl = placements[i]
        if kind == "shift":
            placements[i] = Placement(pl.agent, pl.task, pl.start + draw(st.sampled_from((-2, -1, 1, 2))))
        elif kind == "move":
            others = [a for a in p.agent_ids if a != pl.agent]
            assume(others)
            placements[i] = Placement(draw(st.sampled_from(others)), pl.task, pl.start)
        else:
            del placements[i]
    ends = [pl.start + (p.duration_steps(pl.agent, pl.task) or 0) for pl in placements]
    return p, inst, Schedule(tuple(placements), tuple(comms), s.objective_value, max(ends, default=0))


class TestCheckersAgree:
    @given(case=perturbed())
    @settings(max_examples=300, deadline=None)
    def test_check_schedule_agrees_with_check_assignment(self, case):
        p, inst, s = case
        try:
            encoding_ok = check_assignment(inst, assignment_from_schedule(inst, s)) == []
        except InfeasibleAssignment:
            encoding_ok = False
        event(f"feasible={encoding_ok}")
        assert (check_schedule(p, s) == []) == encoding_ok

    def test_comm_event_written_twice_is_rejected(self):
        from dataclasses import replace

        p, inst, s = solved(5)
        twice = replace(s, comms=(s.comms[0],) + s.comms)
        assert any("overlaps" in e for e in check_schedule(p, twice))
        with pytest.raises(InfeasibleAssignment, match="overlaps"):
            assignment_from_schedule(inst, twice)
        with pytest.raises(InfeasibleAssignment):
            solve(inst, twice, SolveBudget(10))
