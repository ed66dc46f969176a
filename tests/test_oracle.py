"""Reference enumerator: guard, spec cases, interference handling."""

import random
from fractions import Fraction

import pytest

from commsched import (
    AgentProfile,
    ContactGraph,
    Horizon,
    Objective,
    ProblemInstance,
    SoftwareNetwork,
    SolveBudget,
    Task,
    TooLarge,
    brute_force,
    check_schedule,
    encode,
    encode_objective,
    solve,
)
from commsched.baseline import selfish_schedule

from helpers import interference_instance, random_instance


def make(tasks, agents, rates=None, steps=8, objective=None, isets=()):
    return ProblemInstance(
        network=SoftwareNetwork(tasks),
        agents=tuple(agents),
        contacts=ContactGraph(rates or {}, tuple(isets)),
        horizon=Horizon(steps, steps),
        objective=objective or Objective.reward(),
    )


class TestGuard:
    def test_too_many_steps(self):
        p = make([Task("t0")], [AgentProfile("a0", {"t0": 1}, {"t0": 1})], steps=9)
        with pytest.raises(TooLarge):
            brute_force(p)

    def test_too_many_tasks(self):
        tasks = [Task(f"t{i}", required=False) for i in range(6)]
        costs = {t.id: 1 for t in tasks}
        p = make(tasks, [AgentProfile("a0", costs, costs)])
        with pytest.raises(TooLarge):
            brute_force(p)


class TestSpecCases:
    def test_single_agent_makespan(self):
        p = make(
            [Task("t0")],
            [AgentProfile("a0", {"t0": 2}, {"t0": 1})],
            steps=4,
            objective=Objective.makespan(),
        )
        s = brute_force(p)
        assert s.placements[0].start == 0
        assert s.makespan_steps == 2
        assert s.objective_value == -2

    def test_cheap_remote_but_slow_transfer_stays_local(self):
        # Offloading would save compute time, but shipping the input takes
        # longer than just running the task at home.
        tasks = [
            Task("src", product_size=32),
            Task("opt", required=False, reward=5, predecessors={"src"}),
        ]
        agents = [
            AgentProfile("a0", {"src": 1, "opt": 3}, {"src": 1, "opt": 3}),
            AgentProfile("a1", {"opt": 1}, {"opt": 1}),
        ]
        rates = {("a0", "a1", k): 2 for k in range(8)}  # 16 steps to ship: hopeless
        p = make(tasks, agents, rates, objective=Objective.reward())
        s = brute_force(p)
        placed = s.placement_of("opt")
        assert placed is not None and placed.agent == "a0"
        assert s.comms == ()

    def test_unreachable_optional_is_skipped(self):
        tasks = [
            Task("src", product_size=1000),
            Task("opt", required=False, reward=5, predecessors={"src"}),
        ]
        agents = [
            AgentProfile("a0", {"src": 1}, {"src": 1}),
            AgentProfile("a1", {"opt": 1}, {"opt": 1}),
        ]
        rates = {("a0", "a1", k): 1 for k in range(8)}
        p = make(tasks, agents, rates)
        s = brute_force(p)
        assert s.placement_of("opt") is None
        assert s.placement_of("src") is not None

    @pytest.mark.parametrize("seed", range(10))
    def test_schedules_are_always_valid(self, seed):
        p = random_instance(seed + 4000)
        s = brute_force(p)
        assert not check_schedule(p, s)


class TestInterference:
    def test_shared_channel_serializes_transfers(self):
        # Two 8-bit products into one sink over links capped at one link's
        # rate: both can be delivered, but never at full rate simultaneously.
        p = interference_instance(0)
        s = brute_force(p, interference=True)
        assert not check_schedule(p, s)
        cap = p.contacts.interference_sets[0].capacity_bps * p.horizon.step_duration
        per_step = {}
        for c in s.comms:
            for i, bits in enumerate(c.bits_per_step):
                per_step[c.start + i] = per_step.get(c.start + i, Fraction(0)) + bits
        assert all(total <= cap for total in per_step.values())

    def test_value_never_exceeds_uncapped_variant(self):
        from dataclasses import replace

        for seed in range(4):
            p = interference_instance(seed)
            uncapped = replace(p, contacts=ContactGraph(p.contacts.rates))
            assert (
                brute_force(p, interference=True).objective_value
                <= brute_force(uncapped).objective_value
            )


def weighted_instance(seed: int) -> ProblemInstance:
    """`random_instance(seed)` under a weighted objective with weights 0-3."""
    rng = random.Random(seed)
    weights = [0, 0, 0]
    while not any(weights):
        weights = [rng.randint(0, 3) for _ in range(3)]
    return random_instance(seed, Objective.weighted(zip(("reward", "makespan", "energy"), weights)))


@pytest.mark.parametrize("seed", range(30))
def test_solver_equals_oracle_under_weighted_objective(seed):
    p = weighted_instance(seed)
    inst = encode_objective(p, p.objective, encode(p))
    res = solve(inst, selfish_schedule(p, mode="storage_excepted"), SolveBudget(200_000))
    assert res.status == "optimal"
    assert res.incumbent_value == brute_force(p).objective_value
