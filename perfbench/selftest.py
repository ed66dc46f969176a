"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that replaying one plan and one simulation in one process gives
identical digests, that the traced run's span tree covers every layer
boundary the benchmark reports, that the rebound names are restored, how
host-speed scaling judges an interval and a set-up time, that the encoding
sizes match the baseline table in ROADMAP.md, and that the benchmark fails
without the library's source tree.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import commsched.distsim  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from commsched.distsim import CycleConfig  # noqa: E402
from commsched.encoder import encode  # noqa: E402
from commsched.scenarios import generate_random  # noqa: E402
from commsched.solver import SolveBudget  # noqa: E402
from tracing import Rebinding, Tracer, self_times  # noqa: E402
from workloads import DYN5_SCRIPT, SimOp, plan_mix, run_plan, run_sim  # noqa: E402


def small_sim() -> SimOp:
    """simulate-dyn5's script on a 3-agent fleet with a small budget."""
    sc = replace(
        generate_random(3, 0.5, 1, 5), script=DYN5_SCRIPT, cycle=CycleConfig(5, 10, 30, SolveBudget(50))
    )
    return SimOp("dyn3", sc.to_text(), 3)


def mix_ops(names):
    ops = {op.name: op for op in plan_mix(1)}
    return [ops[n] for n in names]


def edges(spans) -> set[tuple[str | None, str]]:
    """(parent name, child name) pairs present in the span tree."""
    return {(spans[sp.parent].name if sp.parent is not None else None, sp.name) for sp in spans}


#: Every boundary the per-layer metrics are computed from, as
#: (parent span, child span).
BOUNDARIES = {
    (None, "bench.plan"),
    (None, "bench.simulate"),
    ("bench.plan", "scenarios.parse"),
    ("bench.plan", "scenarios.to_problem"),
    ("bench.plan", "model.validate"),
    ("bench.plan", "baseline.selfish"),
    ("bench.plan", "encoder.encode"),
    ("bench.plan", "encoder.objective"),
    ("bench.plan", "solver.solve"),
    ("bench.plan", "model.check_schedule"),
    ("bench.simulate", "distsim.run_cycles"),
    ("distsim.run_cycles", "distsim.flood"),
    ("distsim.run_cycles", "model.validate"),
    ("distsim.run_cycles", "baseline.selfish"),
    ("distsim.run_cycles", "encoder.encode"),
    ("distsim.run_cycles", "encoder.objective"),
    ("distsim.run_cycles", "solver.solve"),
    ("solver.solve", "encoder.assignment_from_schedule"),
    ("solver.solve", "encoder.check_assignment"),
    ("solver.solve", "encoder.decode"),
    ("solver.solve", "lp.solve_lp"),
    (None, "model.check_schedule"),  # agent plans, checked after the simulation
}


class ReplayTest(unittest.TestCase):
    def test_plan_replays_identically(self):
        (op,) = mix_ops(["assembly_line/interference"])
        a, b = run_plan(op), run_plan(op)
        self.assertEqual(a.errors, [])
        self.assertEqual([p.digest for p in a.plans], [p.digest for p in b.plans])
        self.assertEqual(run.fingerprint([a])[0], run.fingerprint([b])[0])

    def test_simulation_replays_identically(self):
        op = small_sim()
        a, b = run_sim(op), run_sim(op)
        self.assertEqual(a.errors, [])
        self.assertTrue(a.plans)
        self.assertEqual(a.sim["trace_digest"], b.sim["trace_digest"])
        self.assertEqual(run.fingerprint([a])[0], run.fingerprint([b])[0])


class TraceTest(unittest.TestCase):
    def test_span_tree_covers_every_boundary(self):
        originals = {name: getattr(commsched.distsim, name) for name in ("flood", "solve", "encode")}
        tracer = Tracer()
        lp_results: list[bool] = []
        with Rebinding() as rb:
            run.install_tracing(rb, tracer, lp_results)
            outcomes = [run_plan(op, tracer) for op in mix_ops(["relay/interference", "relay/reward"])]
            outcomes.append(run_sim(small_sim(), tracer))
        self.assertEqual([o.errors for o in outcomes], [[], [], []])
        self.assertLessEqual(BOUNDARIES, edges(tracer.spans))
        self.assertEqual(len(lp_results), sum(sp.name == "lp.solve_lp" for sp in tracer.spans))
        for name, fn in originals.items():
            self.assertIs(getattr(commsched.distsim, name), fn)

        # Self times partition each root span's duration.
        own = self_times(tracer.spans)
        for root in (sp for sp in tracer.spans if sp.parent is None):
            tree = [root.id]
            for sp in tracer.spans[root.id + 1:]:
                if sp.parent in tree:
                    tree.append(sp.id)
            self.assertAlmostEqual(sum(own[i] for i in tree), root.end - root.start, places=6)
            self.assertTrue(all(own[i] >= -1e-9 for i in tree))

        metrics, _ = run.per_layer(tracer, lp_results, outcomes, 1.0, 1.0)
        self.assertGreater(metrics["lp.calls"][0], 0)
        self.assertGreater(metrics["distsim.messages"][0], 0)
        self.assertGreater(metrics["solver.fixed_s"][0], 0)


class HostSpeedTest(unittest.TestCase):
    def test_interval_judged_by_the_samples_around_it(self):
        loops = iter([0.05, 0.10, 0.10, 0.20, 0.30])
        saved = hostspeed.reference_s
        hostspeed.reference_s = lambda: next(loops)
        try:
            speed = hostspeed.HostSpeed()
            speed.sample()  # gap before the first interval: 0.05
            first = speed.scaled(1.0)  # gap after it: 0.10
            second = speed.scaled(2.0, gap=3)  # 0.10 before, then 0.10, 0.20, 0.30
        finally:
            hostspeed.reference_s = saved
        self.assertAlmostEqual(first, hostspeed.REF_NOMINAL_S / 0.075)
        self.assertAlmostEqual(second, 2.0 * hostspeed.REF_NOMINAL_S / 0.175)

    def test_sample_inside_an_operation_only_when_due(self):
        speed = hostspeed.HostSpeed()
        speed.sample()
        self.assertEqual(speed.sample_due(), 0.0)
        self.assertEqual(len(speed.samples), 1)
        speed._sampled_at -= hostspeed.SAMPLE_EVERY_S
        self.assertGreater(speed.sample_due(), 0.0)
        self.assertEqual(len(speed.samples), 2)


class SetupTest(unittest.TestCase):
    def test_setup_scaled_by_the_interpreter_start(self):
        saved = run.interpreter_start_s
        run.interpreter_start_s = lambda: 2 * hostspeed.START_NOMINAL_S
        try:
            scaled, raw = run.measure_setup("simulate-dyn5", 1)
        finally:
            run.interpreter_start_s = saved
        self.assertAlmostEqual(scaled, raw / 2)


class BaselineTableTest(unittest.TestCase):
    """Encoding sizes of generate_random(n, 0.5, 2, 1), from ROADMAP.md."""

    def test_sizes(self):
        for agents, columns, rows in ((3, 2314, 1772), (5, 10940, 9116), (8, 47238, 41806)):
            inst = encode(generate_random(agents, 0.5, 2, 1).to_problem())
            self.assertEqual((len(inst.variables), len(inst.rows)), (columns, rows), agents)


class MissingSourceTest(unittest.TestCase):
    def test_fails_without_library(self):
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "plan-mix", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
