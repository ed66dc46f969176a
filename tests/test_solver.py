"""Branch-and-bound: determinism, anytime behavior, propagation, bounds."""

import functools
import re
from dataclasses import replace

import pytest
from hypothesis import event, given, settings, strategies as st

import commsched.solver
from commsched import (
    AgentProfile,
    CONFLICT,
    ContactGraph,
    Horizon,
    InfeasibleSeed,
    Objective,
    ProblemInstance,
    Schedule,
    SoftwareNetwork,
    SolveBudget,
    Task,
    bound,
    brute_force,
    encode,
    encode_objective,
    propagate,
    solve,
)
from commsched.baseline import selfish_schedule
from commsched.model import Placement
from commsched.scenarios import canned_scenario
from commsched.solver import NEG_INF, _propagated, _Search, result_from_text

from helpers import interference_instance, random_instance


def single_slot_problem():
    """Exactly one feasible point: the seed itself."""
    net = SoftwareNetwork([Task("t0", required=True)])
    p = ProblemInstance(
        network=net,
        agents=(AgentProfile("a0", {"t0": 1}, {"t0": 1}),),
        contacts=ContactGraph(),
        horizon=Horizon(1, 1),
        objective=Objective.reward(),
    )
    return p, encode_objective(p, p.objective, encode(p))


def offload_problem():
    net = SoftwareNetwork([Task("gen", product_size=8), Task("use", predecessors={"gen"})])
    p = ProblemInstance(
        network=net,
        agents=(
            AgentProfile("a0", {"gen": 1, "use": 4}, {"gen": 1, "use": 4}),
            AgentProfile("a1", {"use": 1}, {"use": 1}),
        ),
        contacts=ContactGraph({("a0", "a1", k): 8 for k in range(8)}),
        horizon=Horizon(8, 8),
        objective=Objective.makespan(),
    )
    return p, encode_objective(p, p.objective, encode(p))


class TestSolve:
    def test_only_feasible_point_is_the_seed(self):
        p, inst = single_slot_problem()
        seed = selfish_schedule(p)
        res = solve(inst, seed, SolveBudget(100))
        assert res.status == "optimal"
        assert res.incumbent_value == seed.objective_value
        assert res.incumbent.placements == seed.placements

    def test_budget_one_returns_the_seed(self):
        p, inst = offload_problem()
        seed = selfish_schedule(p)
        res = solve(inst, seed, SolveBudget(1))
        assert res.status == "budget_exhausted"
        assert res.incumbent_value == seed.objective_value
        assert res.nodes_explored == 1
        assert res.best_bound >= res.incumbent_value

    def test_infeasible_seed_rejected(self):
        p, inst = offload_problem()
        bad = Schedule((Placement("a1", "use", 0),), ())  # no gen at all
        with pytest.raises(InfeasibleSeed):
            solve(inst, bad, SolveBudget(10))

    def test_bit_identical_reruns(self):
        p, inst = offload_problem()
        seed = selfish_schedule(p)
        a = solve(inst, seed, SolveBudget(100000))
        b = solve(inst, seed, SolveBudget(100000))
        assert a.to_text(p) == b.to_text(p)

    def test_agreement_across_rebuilt_instances(self):
        # Two independently built encoder+solver pipelines agree bitwise.
        p1 = random_instance(77)
        p2 = random_instance(77)
        out = []
        for p in (p1, p2):
            inst = encode_objective(p, p.objective, encode(p))
            res = solve(inst, selfish_schedule(p, mode="storage_excepted"), SolveBudget(50000))
            out.append(res.to_text(p))
        assert out[0] == out[1]

    @pytest.mark.parametrize("seed", range(6))
    def test_anytime_monotone_in_budget(self, seed):
        p = random_instance(seed + 300)
        inst = encode_objective(p, p.objective, encode(p))
        warm = selfish_schedule(p, mode="storage_excepted")
        values = [
            solve(inst, warm, SolveBudget(n)).incumbent_value for n in (1, 5, 25, 125, 100000)
        ]
        assert values == sorted(values)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle_with_generous_budget(self, seed):
        p = random_instance(seed + 2000)
        inst = encode_objective(p, p.objective, encode(p))
        res = solve(inst, selfish_schedule(p, mode="storage_excepted"), SolveBudget(200000))
        assert res.status == "optimal"
        assert res.incumbent_value == brute_force(p).objective_value

    def test_solve_and_bound_need_an_objective(self):
        p, _ = offload_problem()
        inst = encode(p)  # no encode_objective
        with pytest.raises(ValueError, match="encode_objective"):
            solve(inst, selfish_schedule(p), SolveBudget(10))
        with pytest.raises(ValueError, match="encode_objective"):
            bound(inst, {})
        assert propagate(inst, {}) is not CONFLICT

    @pytest.mark.parametrize("case", ["makespan", "reward", "interference"])
    def test_checks_only_the_seed(self, monkeypatch, case):
        # Leaves are proven by propagation and the leaf LP; the answer is
        # checked by decode, whose own call does not go through this name.
        if case == "makespan":
            p, interference = offload_problem()[0], False
        elif case == "reward":
            sc = canned_scenario("science_cluster")
            p, interference = replace(sc.to_problem(), objective=Objective.reward()), False
        else:
            p, interference = interference_instance(0), True
        calls = []
        original = commsched.solver.check_assignment

        def counting(inst, values):
            calls.append(values)
            return original(inst, values)

        monkeypatch.setattr(commsched.solver, "check_assignment", counting)
        inst = encode_objective(p, p.objective, encode(p, interference=interference))
        seed = selfish_schedule(p, mode="storage_excepted")
        res = solve(inst, seed, SolveBudget(200000))
        assert res.status == "optimal"
        assert res.nodes_explored > 1
        assert len(calls) == 1


class TestPropagate:
    def test_required_last_survivor_is_forced_true(self):
        p, inst = single_slot_problem()
        # only one X column exists; propagation must set it from nothing
        result = propagate(inst, {})
        xcol = inst.x_index[(0, 0, 0)]
        assert result is not CONFLICT
        assert result[xcol] == 1

    def test_resource_exclusion(self):
        net = SoftwareNetwork([Task("t0", required=False, reward=1),
                               Task("t1", required=False, reward=1)])
        p = ProblemInstance(
            network=net,
            agents=(AgentProfile("a0", {"t0": 2, "t1": 1}, {"t0": 1, "t1": 1}),),
            contacts=ContactGraph(),
            horizon=Horizon(6, 6),
            objective=Objective.reward(),
        )
        inst = encode_objective(p, p.objective, encode(p))
        start = inst.x_index[(0, 0, 3)]  # t0 occupies steps 3 and 4
        result = propagate(inst, {start: 1})
        assert result is not CONFLICT
        assert result[inst.x_index[(0, 1, 3)]] == 0
        assert result[inst.x_index[(0, 1, 4)]] == 0
        assert inst.x_index[(0, 1, 2)] not in result or result[inst.x_index[(0, 1, 2)]] != 0

    def test_conflict_when_required_has_no_column_left(self):
        p, inst = single_slot_problem()
        xcol = inst.x_index[(0, 0, 0)]
        assert propagate(inst, {xcol: 0}) is CONFLICT

    @pytest.mark.parametrize("seed", range(8))
    def test_never_cuts_the_oracle_optimum(self, seed):
        # Fixing a prefix of the oracle's own solution must never conflict,
        # and propagation must never force a column away from that solution.
        import random

        from commsched.encoder import assignment_from_schedule

        p = random_instance(seed + 500)
        inst = encode_objective(p, p.objective, encode(p))
        best = brute_force(p)
        values = assignment_from_schedule(inst, best)
        rng = random.Random(seed)
        cols = [c for c in inst.branch_cols if rng.random() < 0.3]
        fixing = {c: int(values.get(c, 0)) for c in cols}
        result = propagate(inst, fixing)
        assert result is not CONFLICT
        # The oracle solution completes this fixing, so every forced value
        # must agree with it.
        for col, v in result.items():
            assert v == int(values.get(col, 0))


class TestBound:
    def test_root_bound_counts_open_optionals(self):
        net = SoftwareNetwork([Task("t0", required=False, reward=7)])
        p = ProblemInstance(
            network=net,
            agents=(AgentProfile("a0", {"t0": 1}, {"t0": 1}),),
            contacts=ContactGraph(),
            horizon=Horizon(4, 4),
            objective=Objective.reward(),
        )
        inst = encode_objective(p, p.objective, encode(p))
        assert bound(inst, {}) >= 7

    def test_all_optionals_fixed_false_bounds_to_zero(self):
        net = SoftwareNetwork([Task("t0", required=False, reward=7)])
        p = ProblemInstance(
            network=net,
            agents=(AgentProfile("a0", {"t0": 1}, {"t0": 1}),),
            contacts=ContactGraph(),
            horizon=Horizon(4, 4),
            objective=Objective.reward(),
        )
        inst = encode_objective(p, p.objective, encode(p))
        fixing = {col: 0 for (ai, ti, k), col in inst.x_index.items()}
        assert bound(inst, fixing) == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_root_bound_is_admissible(self, seed):
        p = random_instance(seed + 700)
        inst = encode_objective(p, p.objective, encode(p))
        b = bound(inst, {})
        assert b is not NEG_INF
        assert b >= brute_force(p).objective_value


def reference_propagate(inst, fixing):
    """Bound propagation by plain rescans of every row, until none changes.

    Returns the decided binary columns at the fixpoint, or CONFLICT. A value
    of an open column is ruled out when the row cannot hold with it, taking
    every other open column and each continuous column at its best bound.
    """
    nb, lb, ub = inst.num_binary, inst.lb, inst.ub
    state = {col: lb[col] for col in range(nb) if lb[col] == ub[col]}
    for col, v in fixing.items():
        if state.setdefault(col, v) != v:
            return CONFLICT
    changed = True
    while changed:
        changed = False
        for row in inst.rows:
            eq = row.sense == "="
            while True:
                lo = hi = 0
                open_cols = []
                for col, a in row.coeffs:
                    if col >= nb:
                        lo += min(a * lb[col], a * ub[col])
                        hi += max(a * lb[col], a * ub[col])
                    elif col in state:
                        lo += a * state[col]
                        hi += a * state[col]
                    else:
                        lo += min(0, a)
                        hi += max(0, a)
                        open_cols.append((col, a))
                if lo > row.rhs or (eq and hi < row.rhs):
                    return CONFLICT
                forced = None
                for col, a in open_cols:
                    fits = [
                        v
                        for v in (0, 1)
                        if lo - min(0, a) + a * v <= row.rhs
                        and (not eq or hi - max(0, a) + a * v >= row.rhs)
                    ]
                    if len(fits) == 1:
                        forced = (col, fits[0])
                        break
                if forced is None:
                    break
                state[forced[0]] = forced[1]
                changed = True
    return state


@functools.cache
def _instance(kind, seed):
    interference = kind == "interference"
    p = interference_instance(seed) if interference else random_instance(seed)
    return encode_objective(p, p.objective, encode(p, interference=interference))


class TestAgainstReferenceFixpoint:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_propagate_and_bound_match_the_reference(self, data):
        inst = _instance(
            data.draw(st.sampled_from(["random", "interference"])), data.draw(st.integers(0, 40))
        )
        # Any binary column, pinned ones too, so some fixings contradict a bound.
        binary = list(range(inst.num_binary))
        fixing = data.draw(
            st.dictionaries(st.sampled_from(binary), st.integers(0, 1), max_size=len(binary) // 4)
        )
        expected = reference_propagate(inst, fixing)
        event("conflict" if expected is CONFLICT else "fixpoint")
        assert propagate(inst, fixing) == expected
        if expected is CONFLICT:
            assert bound(inst, fixing) == NEG_INF
        else:
            # The fixpoint propagates to itself, so it must bound the same.
            assert bound(inst, fixing) == bound(inst, expected)


UNDO_OBJECTIVES = {
    "reward": Objective.reward(),
    "energy": Objective.energy(),
    "makespan": Objective.makespan(),
    "weighted": Objective.weighted([("reward", 2), ("energy", 1), ("makespan", 3)]),
}


@functools.cache
def _instance_with(kind, seed, objective):
    interference = kind == "interference"
    p = interference_instance(seed) if interference else random_instance(seed)
    return encode_objective(p, UNDO_OBJECTIVES[objective], encode(p, interference=interference))


class TestBacktracking:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_undo_restores_the_state_of_the_kept_prefix(self, data):
        inst = _instance_with(
            data.draw(st.sampled_from(["random", "interference"])),
            data.draw(st.integers(0, 40)),
            data.draw(st.sampled_from(sorted(UNDO_OBJECTIVES))),
        )
        search = _Search(inst)
        assert search.propagate_pending()
        decisions = data.draw(
            st.lists(st.tuples(st.sampled_from(inst.branch_cols), st.integers(0, 1)), max_size=12)
        )
        # marks[i]: the trail length once decisions[:i] are fixed and propagated.
        marks = [len(search.trail)]
        for col, value in decisions:
            if not (search.fix(col, value) and search.propagate_pending()):
                break
            marks.append(len(search.trail))
        keep = data.draw(st.integers(0, len(marks) - 1))
        event(f"undo {len(marks) - 1 - keep} of {len(marks) - 1} decisions")
        search.undo_to(marks[keep])
        fresh = _propagated(inst, dict(decisions[:keep]))
        assert fresh is not None
        assert search.propagate_pending()
        assert search.state == fresh.state
        assert search.amin == fresh.amin
        assert search.bound() == fresh.bound()


class TestResultText:
    HEAD = "RESULT v1\nstatus optimal\nvalue 0\nbound 0\nnodes 1\n"
    EMPTY = "SCHEDULE v1\nvalue 0\nmakespan 0\n"

    def test_round_trip(self):
        text = self.HEAD + self.EMPTY
        assert result_from_text(text).to_text() == text

    @pytest.mark.parametrize(
        "text, message",
        [
            ("SCHEDULE v1\nvalue 0\nmakespan 0\n", "expected 'RESULT v1', then status, value"),
            ("RESULT v1\nstatus optimal\n", "expected 'RESULT v1', then status, value, bound, nodes lines"),
            (HEAD.replace("optimal", "infeasible_proven") + EMPTY, "status infeasible_proven: unknown status"),
            (HEAD.replace("nodes 1", "nodes one") + EMPTY, "nodes one: "),
            (HEAD.replace("bound 0", "nodes 0") + EMPTY, "nodes 0: expected 'bound' and one value"),
            (HEAD, "expected 'SCHEDULE v1', then value, makespan lines"),
            (HEAD + EMPTY + "status optimal\n", "unknown schedule record 'status'"),
        ],
    )
    def test_reader_rejects_what_the_writer_never_writes(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            result_from_text(text)
