"""Domain model: durations, transfer arithmetic, ordering, validation."""

import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from commsched import (
    AgentProfile,
    ContactGraph,
    CyclicDependency,
    FORBIDDEN,
    Horizon,
    InterferenceSet,
    Objective,
    ProblemInstance,
    Schedule,
    SoftwareNetwork,
    Task,
    comm_duration,
    discretize_cost,
    schedule_from_text,
    validate_problem,
)
from commsched.model import CommEvent, Placement, check_schedule

from helpers import random_instance


def simple_problem(**overrides):
    net = SoftwareNetwork([Task("t0", required=True)])
    agent = AgentProfile("a0", {"t0": 1}, {"t0": 1})
    defaults = dict(
        network=net,
        agents=(agent,),
        contacts=ContactGraph(),
        horizon=Horizon(10, 10),
        objective=Objective.reward(),
    )
    defaults.update(overrides)
    return ProblemInstance(**defaults)


class TestCommDuration:
    def test_zero_size_takes_no_steps(self):
        assert comm_duration(0, [5, 5], 1) == 0

    def test_exact_fit_takes_one_step(self):
        # size == rate * step_duration reduces to size/rate at step resolution
        assert comm_duration(8, [8, 8], 1) == 1
        assert comm_duration(8, [4], 2) == 1

    def test_gap_in_profile_is_waited_out(self):
        # Cumulative-sum oracle: 4, 4, 8, 12 >= 10 first at the fourth step.
        profile = [4, 0, 4, 4]
        cumulative = []
        acc = 0
        for r in profile:
            acc += r * 1
            cumulative.append(acc)
        expected = next(i + 1 for i, c in enumerate(cumulative) if c >= 10)
        assert expected == 4
        assert comm_duration(10, profile, 1) == 4

    def test_infeasible_when_profile_ends(self):
        assert comm_duration(100, [1, 1, 1], 1) is None

    def test_start_step_offsets_the_window(self):
        assert comm_duration(8, [0, 0, 8], 1, start_step=2) == 1
        assert comm_duration(8, [8, 0, 0], 1, start_step=1) is None

    @given(
        size=st.integers(0, 40),
        extra=st.integers(0, 20),
        rates=st.lists(st.integers(0, 9), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_size(self, size, extra, rates):
        lo = comm_duration(size, rates, 1)
        hi = comm_duration(size + extra, rates, 1)
        if hi is not None:
            assert lo is not None and lo <= hi

    @given(
        size=st.integers(1, 40),
        rates=st.lists(st.integers(0, 9), min_size=1, max_size=8),
        bumps=st.lists(st.integers(0, 5), min_size=8, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_pointwise_faster_is_never_slower(self, size, rates, bumps):
        faster = [r + b for r, b in zip(rates, bumps)]
        base = comm_duration(size, rates, 1)
        quick = comm_duration(size, faster, 1)
        if base is not None:
            assert quick is not None and quick <= base

    @given(size=st.integers(1, 100), rate=st.integers(1, 10), dt=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_constant_rate_matches_ceiling(self, size, rate, dt):
        steps = comm_duration(size, [rate] * 100, dt)
        q = Fraction(size, rate * dt)
        assert steps == -(-q.numerator // q.denominator)


class TestDiscretize:
    def test_zero_seconds_is_zero_steps(self):
        assert discretize_cost(0, Horizon(10, 10)) == 0

    def test_rounds_up(self):
        assert discretize_cost("4.5", Horizon(10, 10)) == 5

    def test_fractional_step_duration(self):
        assert discretize_cost(3, Horizon(10, 20)) == 6  # half-second steps

    def test_scenario_cost_table_discretizes_by_ceiling(self):
        from commsched.scenarios import generate_random

        sc = generate_random(3, 0.5, 1, seed=1)
        p = sc.to_problem()
        dt = p.horizon.step_duration
        for a in p.agents:
            for task_id, entry in a.compute_time.items():
                if entry is FORBIDDEN:
                    continue
                q = entry / dt
                assert p.duration_steps(a.id, task_id) == -(-q.numerator // q.denominator)


class TestTopologicalOrder:
    def test_chain(self):
        net = SoftwareNetwork(
            [
                Task("c", predecessors={"b"}),
                Task("b", predecessors={"a"}),
                Task("a"),
            ]
        )
        assert net.task_ids == ("a", "b", "c")

    def test_lexicographic_tie_break(self):
        net = SoftwareNetwork([Task("b"), Task("a")])
        assert net.task_ids == ("a", "b")

    def test_rover_chain_order(self):
        from commsched.scenarios import puffer_network

        net, _ = puffer_network(1)
        pos = {t: i for i, t in enumerate(net.task_ids)}
        assert pos["capture_p1"] < pos["localize_p1"] < pos["plan_p1"] < pos["drive_p1"]

    def test_cycle_raises(self):
        tasks = [Task("a", predecessors={"b"}), Task("b", predecessors={"a"})]
        with pytest.raises(CyclicDependency, match="cycle through: a, b"):
            SoftwareNetwork(tasks)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_permutation_and_preds_first(self, seed):
        p = random_instance(seed)
        order = p.network.task_ids
        pos = {t: i for i, t in enumerate(order)}
        for t in p.network.tasks:
            for q in t.predecessors:
                assert pos[q] < pos[t.id]
        # Canonical: the construction order of the tasks does not matter.
        assert SoftwareNetwork(reversed(p.network.tasks)).task_ids == order


class TestValidation:
    def test_minimal_instance_is_admissible(self):
        assert validate_problem(simple_problem()).ok

    def test_two_cycle_cannot_be_built(self):
        tasks = [Task("a", predecessors={"b"}), Task("b", predecessors={"a"})]
        with pytest.raises(CyclicDependency):
            simple_problem(network=SoftwareNetwork(tasks))

    def test_negative_channel_capacity_is_reported(self):
        sets = (InterferenceSet({("a0", "a1")}, -8),)
        p = simple_problem(contacts=ContactGraph({}, sets))
        assert validate_problem(p).violations == ("interference set 0: negative capacity",)

    def test_generated_scenario_is_admissible(self):
        from commsched.scenarios import generate_random

        p = generate_random(3, 0.5, 1, seed=0).to_problem()
        assert validate_problem(p).ok

    def test_required_task_forbidden_everywhere(self):
        p = simple_problem(agents=(AgentProfile("a0", {}, {}),))
        report = validate_problem(p)
        assert any("forbidden on every agent" in v for v in report.violations)

    def test_selfish_overflow_is_reported(self):
        p = simple_problem(horizon=Horizon(10, 10),
                           agents=(AgentProfile("a0", {"t0": 11}, {"t0": 1}),))
        report = validate_problem(p)
        assert any("horizon" in v for v in report.violations)

    def test_negative_rate_is_reported(self):
        p = simple_problem(contacts=ContactGraph({("a0", "a1", 0): -1}))
        report = validate_problem(p)
        assert any("negative rate" in v for v in report.violations)


class TestSchedule:
    def test_text_round_trip(self):
        s = Schedule(
            placements=(Placement("a0", "t0", 0), Placement("a1", "t1", 3)),
            comms=(CommEvent("a0", "a1", "t0", 1, 2, (4, 4)),),
            objective_value=Fraction(7, 2),
            makespan_steps=5,
        )
        text = s.to_text()
        again = schedule_from_text(text)
        assert again == s
        assert again.to_text() == text

    def test_stated_duration_round_trip(self):
        s = Schedule((Placement("a0", "t0", 0, duration=3),), (), makespan_steps=3)
        text = s.to_text()
        assert "placement agent=a0 task=t0 start=0 duration=3\n" in text
        again = schedule_from_text(text)
        assert again == s and again.to_text() == text

    @pytest.mark.parametrize(
        "body, message",
        [
            ("", "expected 'SCHEDULE v1', then value, makespan lines"),
            ("value 0\n", "expected 'SCHEDULE v1', then value, makespan lines"),
            ("makespan 0\nvalue 0\n", "makespan 0: expected 'value' and one value"),
            ("value 1 2\nmakespan 0\n", "value 1 2: expected 'value' and one value"),
            ("value x\nmakespan 0\n", "value x: "),
            ("value 0\nmakespan 0\nvalue 0\n", "value 0: unknown schedule record 'value'"),
            ("value 0\nmakespan 0\nplacement agent=a task=t\n", "missing field 'start'"),
            ("value 0\nmakespan 0\nplacement agent=a task=t start=0 at=1\n", "unknown field 'at'"),
            ("value 0\nmakespan 0\nplacement agent=a task=t start=0 duration=\n", "duration=: "),
            ("value 0\nmakespan 0\ncomm src=a dst=b task=t start=0 end=1 bits=1\n", "bits=1: "),
            ("value 0\nmakespan 0\ncomm src=a dst=b task=t start=0 end=0 bits=1/0\n", "bits=1/0: "),
        ],
    )
    def test_reader_rejects_what_the_writer_never_writes(self, body, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            schedule_from_text("SCHEDULE v1\n" + body)

    def test_exponent_is_refused_at_once(self):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="without an exponent"):
            schedule_from_text("SCHEDULE v1\nvalue 1e99999999\nmakespan 0\n")
        assert time.perf_counter() - started < 1

    def test_digest_is_stable(self):
        s = Schedule((Placement("a0", "t0", 0),), ())
        assert s.digest() == s.digest()

    def test_checker_flags_overlap(self):
        p = simple_problem(
            network=SoftwareNetwork([Task("t0"), Task("t1")]),
            agents=(AgentProfile("a0", {"t0": 1, "t1": 1}, {"t0": 1, "t1": 1}),),
        )
        s = Schedule((Placement("a0", "t0", 0), Placement("a0", "t1", 0)), ())
        errors = check_schedule(p, s)
        assert any("overlaps" in e for e in errors)

    def test_checker_flags_missing_required(self):
        p = simple_problem()
        errors = check_schedule(p, Schedule((), ()))
        assert any("not scheduled" in e for e in errors)

    def test_checker_flags_undelivered_predecessor(self):
        net = SoftwareNetwork([Task("src", product_size=10), Task("use", predecessors={"src"})])
        p = simple_problem(
            network=net,
            agents=(
                AgentProfile("a0", {"src": 1}, {"src": 0}),
                AgentProfile("a1", {"use": 1}, {"use": 0}),
            ),
        )
        s = Schedule((Placement("a0", "src", 0), Placement("a1", "use", 2)), ())
        errors = check_schedule(p, s)
        assert any("predecessor src" in e for e in errors)
