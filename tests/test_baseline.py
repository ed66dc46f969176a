"""Selfish baseline and shared-vs-selfish comparison metrics."""

import pytest

from commsched import (
    AgentProfile,
    ContactGraph,
    Horizon,
    HorizonOverflow,
    Objective,
    ProblemInstance,
    SoftwareNetwork,
    SolveBudget,
    Task,
    check_schedule,
    compare,
    encode,
    encode_objective,
    solve,
)
from commsched.baseline import owner_of, selfish_schedule
from commsched.encoder import assignment_from_schedule, check_assignment
from commsched.scenarios import canned_scenario, generate_random

from helpers import random_instance


class TestSelfish:
    def test_serial_chain_timing(self):
        net = SoftwareNetwork(
            [
                Task("a"),
                Task("b", predecessors={"a"}),
                Task("c", predecessors={"b"}),
            ]
        )
        p = ProblemInstance(
            network=net,
            agents=(AgentProfile("a0", {"a": 1, "b": 2, "c": 1}, {"a": 1, "b": 1, "c": 1}),),
            contacts=ContactGraph(),
            horizon=Horizon(10, 10),
            objective=Objective.makespan(),
        )
        s = selfish_schedule(p)
        starts = {pl.task: pl.start for pl in s.placements}
        assert starts == {"a": 0, "b": 1, "c": 3}
        assert s.makespan_steps == 4

    def test_strict_mode_runs_everything_at_home(self):
        p = generate_random(4, 0.5, 1, seed=3).to_problem()
        s = selfish_schedule(p, mode="strict")
        assert s.comms == ()
        for pl in s.placements:
            assert pl.agent == owner_of(p, pl.task)
        placed = {pl.task for pl in s.placements}
        for t in p.network.tasks:
            assert t.required == (t.id in placed)

    def test_storage_excepted_ships_each_stored_sample_once(self):
        sc = generate_random(3, 1.0, 1, seed=5)
        p = sc.to_problem()
        s = selfish_schedule(p, mode="storage_excepted")
        stored = [pl for pl in s.placements if pl.task.startswith("store")]
        assert stored, "expected at least one stored sample in this scenario"
        for pl in stored:
            assert pl.agent == "base"
        # one inbound transfer chain per stored sample: the analyze product
        analyze_events = [c for c in s.comms if c.task.startswith("analyze")]
        assert len(analyze_events) == len(stored)

    def test_overflow_raises(self):
        net = SoftwareNetwork([Task("t0")])
        p = ProblemInstance(
            network=net,
            agents=(AgentProfile("a0", {"t0": 20}, {"t0": 1}),),
            contacts=ContactGraph(),
            horizon=Horizon(10, 10),
            objective=Objective.reward(),
        )
        with pytest.raises(HorizonOverflow):
            selfish_schedule(p)

    @pytest.mark.parametrize("seed", range(10))
    def test_feasible_and_seedable(self, seed):
        p = random_instance(seed + 6000)
        for mode in ("strict", "storage_excepted"):
            s = selfish_schedule(p, mode=mode)
            assert not check_schedule(p, s)
            inst = encode_objective(p, p.objective, encode(p))
            assert not check_assignment(inst, assignment_from_schedule(inst, s))

    @pytest.mark.parametrize("seed", range(8))
    def test_shared_optimum_dominates(self, seed):
        p = random_instance(seed + 6100, objective=Objective.reward())
        s = selfish_schedule(p, mode="storage_excepted")
        inst = encode_objective(p, p.objective, encode(p))
        res = solve(inst, s, SolveBudget(200000))
        assert res.incumbent_value >= s.objective_value


class TestCompare:
    def test_identical_schedules_have_zero_deltas(self):
        p = generate_random(3, 0.5, 1, seed=2).to_problem()
        s = selfish_schedule(p, mode="storage_excepted")
        m = compare(p, s, s)
        assert m.shared == m.selfish

    def test_threefold_science_cluster(self):
        sc = canned_scenario("science_cluster")
        p = sc.to_problem()
        selfish = selfish_schedule(p, mode="storage_excepted")
        inst = encode_objective(p, p.objective, encode(p))
        res = solve(inst, selfish, SolveBudget(300000))
        assert res.status == "optimal"
        m = compare(p, res.incumbent, selfish)
        assert m.shared.category("collect") == 3
        assert m.selfish.category("collect") == 1

    def test_offloading_lowers_average_energy(self):
        # A weak node's expensive task runs on the strong node instead.
        net = SoftwareNetwork([Task("own"), Task("heavy", predecessors={"own"},
                                                 product_size=8)])
        p = ProblemInstance(
            network=net,
            agents=(
                AgentProfile("weak", {"own": 1, "heavy": 2}, {"own": 1, "heavy": 10}),
                AgentProfile("strong", {"heavy": 2}, {"heavy": 1}),
            ),
            contacts=ContactGraph({("weak", "strong", k): 8 for k in range(8)}),
            horizon=Horizon(8, 8),
            objective=Objective.energy(),
            owners={"own": "weak", "heavy": "weak"},
        )
        selfish = selfish_schedule(p, mode="storage_excepted")
        inst = encode_objective(p, p.objective, encode(p))
        res = solve(inst, selfish, SolveBudget(100000))
        m = compare(p, res.incumbent, selfish)
        assert m.shared.avg_energy_per_task < m.selfish.avg_energy_per_task
