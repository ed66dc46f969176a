"""The benchmark's use of the library.

`perfbench/` measures the library through names it imports, rebinds and
reads: `encode`, `solve` and `check_assignment` as module attributes,
`inst.variables`, `inst.rows` and `row.coeffs` for its fingerprint. These
tests run a few of its operations so that renaming one of them fails here,
not only in a benchmark run.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from commsched.scenarios import generate_random  # noqa: E402
from commsched.solver import SolveBudget  # noqa: E402

#: One plan per objective, one canned plan in interference mode, one channel plan.
PLAN_OPS = (
    "relay/reward",
    "science_cluster/makespan",
    "assembly_line/energy",
    "data_mule/interference",
    "channel/4-8-8",
)


@pytest.fixture(scope="module")
def plan_mix():
    return {op.name: op for op in workloads.plan_mix(1)}


@pytest.mark.parametrize("name", PLAN_OPS)
def test_run_plan(plan_mix, name):
    outcome = workloads.run_plan(plan_mix[name])
    assert outcome.errors == []
    (plan,) = outcome.plans
    assert plan.columns > 0 and plan.rows > 0 and plan.nnz >= plan.rows


def test_run_sim():
    sc = generate_random(3, 0.5, 1, seed=1)
    sc = replace(sc, cycle=replace(sc.cycle, budget=SolveBudget(50)))
    outcome = workloads.run_sim(workloads.SimOp("gen3", sc.to_text(), 1))
    assert outcome.errors == []
    assert outcome.plans and outcome.sim["cycles"] == 1


def test_every_traced_name_exists(plan_mix):
    tracer = tracing.Tracer()
    lp_results = []
    with tracing.Rebinding() as rb:
        run.install_tracing(rb, tracer, lp_results)
        outcome = workloads.run_plan(plan_mix["channel/4-8-8"], tracer)
    assert outcome.errors == []
    names = {sp.name for sp in tracer.spans}
    assert {"solver.solve", "encoder.check_assignment", "encoder.decode"} <= names
