"""commsched benchmark: plan latency, plan quality and cycle time.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload plan-mix --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists):
    plan-fleet5    one 5-agent random fleet, 2,000-node plan (not in BENCHMARK.json)
    plan-mix       canned and shared-channel scenarios, many small plans
    simulate-dyn5  4 broadcast-plan-execute cycles of a dynamic 5-agent fleet

Each workload is a closed loop: one caller in one thread sends the next
operation when the previous one has returned. A run makes one pass over the
seed's corpus, and more passes while another fits in `--seconds`. Every
operation's output is checked. The last line of standard output is one JSON
object: the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. The lines before it repeat every metric by name and unit, with
the fingerprint of the run's deterministic outputs.

The library is imported from `src/` of the checkout this file sits in; the
run fails when that source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

sys.path[:0] = [str(SRC), str(HERE)]
if not (SRC / "commsched" / "__init__.py").is_file():
    sys.exit(f"error: no commsched source tree at {SRC}")

import commsched.baseline  # noqa: E402
import commsched.distsim  # noqa: E402
import commsched.lp  # noqa: E402
import commsched.solver  # noqa: E402
from commsched.solver import SolveBudget, bound, propagate, solve  # noqa: E402
from hostspeed import REF_NOMINAL_S, START_NOMINAL_S, HostSpeed, interpreter_start_s  # noqa: E402
from tracing import NULL_TRACER, Rebinding, Tracer, totals_by_name  # noqa: E402
from workloads import WORKLOADS, Outcome, PlanOp, oracle_value, run_plan, run_sim  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 11


def run_op(op, tracer, speed=None):
    """One operation; an exception fails the operation, not the run."""
    try:
        if isinstance(op, PlanOp):
            return run_plan(op, tracer, speed)
        return run_sim(op, tracer, speed)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Outcome(op.name, math.nan, [], [f"{op.name}: exception"])


def run_pass(ops, tracer, speed=None, times=None):
    """One closed-loop pass. With `speed`, append each operation's time at
    nominal host speed to `times`. The reference loop is sampled about once
    per second of operation time: after the operation, as often as the
    operation did not already sample it."""
    outcomes = []
    for op in ops:
        taken = len(speed.samples) if speed else 0
        out = run_op(op, tracer, speed)
        outcomes.append(out)
        if speed:
            inside = len(speed.samples) - taken
            gap = 1 if math.isnan(out.wall_s) else max(1, math.ceil(out.wall_s) - inside)
            times.append(speed.scaled(out.wall_s, gap))
    return outcomes


def check_oracle(ops, outcomes):
    """Oracle-sized plans: value at most brute_force's, equal when optimal."""
    for op, out in zip(ops, outcomes):
        if not isinstance(op, PlanOp) or not out.plans:
            continue
        best = oracle_value(op)
        plan = out.plans[0]
        if best is None:
            continue
        if plan.value > best or (plan.status == "optimal" and plan.value != best):
            out.errors.append(f"{op.name}: value {plan.value} ({plan.status}) vs oracle {best}")


def check_repeat(first, again):
    """A repeated operation must reproduce its first outputs exactly."""
    for a, b in zip(first, again):
        if [p.digest for p in a.plans] != [p.digest for p in b.plans] or a.sim.get(
            "trace_digest"
        ) != b.sim.get("trace_digest"):
            b.errors.append(f"{b.op}: output differs from the first pass")


def fingerprint(outcomes) -> tuple[str, list[str]]:
    lines = []
    for o in outcomes:
        for p in o.plans:
            lines.append(
                f"{o.op} columns={p.columns} rows={p.rows} nnz={p.nnz} nodes={p.nodes}"
                f" value={p.value} bound={p.bound} status={p.status} schedule={p.digest[:16]}"
            )
        if o.sim:
            lines.append(f"{o.op} trace={o.sim['trace_digest'][:16]}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), lines


def tail(samples: list[float], corpus_size: int) -> tuple[int, float]:
    """Nearest-rank percentile that leaves at least 10 samples beyond it.

    The percentile is fixed by the corpus size, so it is the same in every
    run of a workload however many passes fit; with fewer than 11
    operations per pass it is the maximum.
    """
    if corpus_size <= 10:
        return 100, max(samples)
    q = 100 * (corpus_size - 10) // corpus_size
    ordered = sorted(samples)
    return q, ordered[math.ceil(q / 100 * len(ordered)) - 1]


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time of fresh processes that import and build the corpus,
    each scaled by a bare interpreter start timed just before it; and the
    unscaled median."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        bare = interpreter_start_s()
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            check=True,
        )
        wall = time.perf_counter() - started
        raw.append(wall)
        scaled.append(wall * START_NOMINAL_S / bare)
    return statistics.median(scaled), statistics.median(raw)


def _plans(outcomes):
    return [p for o in outcomes for p in o.plans]


def end_to_end(first, samples, corpus_size, setup_s):
    plans = _plans(first)
    q, tail_s = tail(samples, corpus_size)
    sims = [o.sim for o in first if o.sim]
    reward = sum((o.sim["executed_reward"] for o in first if o.sim), Fraction(0))
    reward += sum((p.reward for o in first if not o.sim for p in o.plans), Fraction(0))
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(samples), "s"),
        "op_s_tail": (tail_s, "s"),
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "executed_reward": (float(reward), "value"),
        "gap_total": (float(sum(p.bound - p.value for p in plans)), "value"),
        "optimal_frac": (sum(p.status == "optimal" for p in plans) / len(plans), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    op_kind = "simulation" if sims else "plan"
    notes = [
        f"op_s_tail is p{q} of {len(samples)} {op_kind} samples",
        f"objective_total {float(sum(p.value for p in plans))} value",
    ]
    if sims:
        cycles = sum(s["cycles"] for s in sims)
        notes.append(f"sim_cycle_s {statistics.median(samples) / (cycles / len(sims))} s (run_cycles wall / cycles)")
    else:
        notes.append(f"plan_s_p50 {metrics['op_s_p50'][0]} s, plans_per_s {metrics['ops_per_s'][0]} 1/s")
    return metrics, notes


def probe_solver(plans):
    """Fixed cost and root figures of each distinct instance, timed untraced."""
    fixed = root_prop = 0.0
    root_bound = Fraction(0)
    seen = set()
    for p in plans:
        key = (p.columns, p.rows, p.nnz, p.seed_digest, p.digest)
        if key in seen:
            continue
        seen.add(key)
        started = time.perf_counter()
        solve(p.inst, p.seed, SolveBudget(1))
        fixed += time.perf_counter() - started
        started = time.perf_counter()
        propagate(p.inst, {})
        root_prop += time.perf_counter() - started
        root_bound += Fraction(bound(p.inst, {}))
    return fixed, root_prop, root_bound, len(seen)


def install_tracing(rb, tracer, lp_results):
    """Rebind the names each layer imports from the next."""
    boundaries = [
        (commsched.distsim, "flood", "distsim.flood"),
        (commsched.distsim, "solve", "solver.solve"),
        (commsched.distsim, "encode", "encoder.encode"),
        (commsched.distsim, "encode_objective", "encoder.objective"),
        (commsched.distsim, "validate_problem", "model.validate"),
        (commsched.baseline, "selfish_schedule", "baseline.selfish"),
        (commsched.solver, "check_assignment", "encoder.check_assignment"),
        (commsched.solver, "decode", "encoder.decode"),
        (commsched.solver, "assignment_from_schedule", "encoder.assignment_from_schedule"),
        (commsched.lp, "solve_lp", "lp.solve_lp"),
    ]
    for module, attr, name in boundaries:
        rb.wrap(module, attr, lambda fn, name=name: tracer.wrap(name, fn))
    rb.observe(commsched.lp, "solve_lp", lambda args, result: lp_results.append(result is not None))


def agent_plan_times(spans) -> list[float]:
    """Per agent plan inside run_cycles: from validating its instance to the
    end of its solve."""
    cycles_ids = {sp.id for sp in spans if sp.name == "distsim.run_cycles"}
    out = []
    start = None
    for sp in spans:
        if sp.parent not in cycles_ids:
            continue
        if sp.name == "model.validate":
            start = sp.start
        elif sp.name == "solver.solve" and start is not None:
            out.append(sp.end - start)
            start = None
    return out


def per_layer(tracer, lp_results, outcomes, untraced_s, traced_s):
    totals = totals_by_name(tracer.spans)

    def total(name):
        return totals[name].total_s if name in totals else 0.0

    def calls(name):
        return totals[name].calls if name in totals else 0

    plans = _plans(outcomes)
    sims = [o.sim for o in outcomes if o.sim]
    solve_s = total("solver.solve")
    nodes = sum(p.nodes for p in plans)
    fixed_s, root_prop_s, root_bound, distinct = probe_solver(plans)
    lp_calls = calls("lp.solve_lp")
    lp_infeasible = lp_results.count(False)
    plan_times = agent_plan_times(tracer.spans)
    plan_budget = float(sims[0]["plan_s"]) if sims else math.inf
    distinct_plans = sum(s["distinct_plans"] for s in sims) if sims else len({(o.op, p.digest) for o in outcomes for p in o.plans})

    def sim_sum(key):
        return sum(s[key] for s in sims)

    metrics = {
        "scenarios.parse_s": (total("scenarios.parse"), "s"),
        "scenarios.to_problem_s": (total("scenarios.to_problem"), "s"),
        "model.validate_s": (total("model.validate"), "s"),
        "model.check_schedule_s": (total("model.check_schedule"), "s"),
        "baseline.selfish_s": (total("baseline.selfish"), "s"),
        "baseline.selfish_value": (float(sum(p.selfish_value for p in plans)), "value"),
        "encoder.encode_s": (total("encoder.encode"), "s"),
        "encoder.objective_s": (total("encoder.objective"), "s"),
        "encoder.check_assignment_s": (total("encoder.check_assignment"), "s"),
        "encoder.check_assignment_calls": (calls("encoder.check_assignment"), "count"),
        "encoder.decode_s": (total("encoder.decode"), "s"),
        "encoder.columns": (sum(p.columns for p in plans), "count"),
        "encoder.rows": (sum(p.rows for p in plans), "count"),
        "encoder.nnz": (sum(p.nnz for p in plans), "count"),
        "solver.solve_s": (solve_s, "s"),
        "solver.self_s": (totals["solver.solve"].self_s, "s"),
        "solver.nodes": (nodes, "count"),
        "solver.ms_per_node": (1000 * solve_s / nodes, "ms"),
        "solver.fixed_s": (fixed_s, "s"),
        "solver.root_propagate_s": (root_prop_s, "s"),
        "solver.root_bound": (float(root_bound), "value"),
        "solver.value_total": (float(sum(p.value for p in plans)), "value"),
        "lp.calls": (lp_calls, "count"),
        "lp.infeasible_frac": (lp_infeasible / lp_calls if lp_calls else 0.0, "ratio"),
        "distsim.flood_rounds": (sim_sum("flood_rounds"), "count"),
        "distsim.messages": (sim_sum("messages"), "count"),
        "distsim.flood_time_vs_bound": (
            statistics.fmean(s["flood_time_vs_bound"] for s in sims) if sims else 0.0, "ratio"),
        "distsim.plan_over_budget": (sum(t > plan_budget for t in plan_times), "count"),
        "distsim.solves_per_distinct_plan": (len(plans) / distinct_plans, "ratio"),
        "distsim.tasks_done": (sim_sum("tasks_done"), "count"),
        "distsim.tasks_missed": (sim_sum("tasks_missed"), "count"),
        "distsim.comms_missed": (sim_sum("comms_missed"), "count"),
    }
    # Times of layers that only some workloads use: reported here, kept out
    # of the JSON because they read 0 on the other workloads.
    cycles_self = totals["distsim.run_cycles"].self_s if "distsim.run_cycles" in totals else 0.0
    notes = [
        f"lp.solve_s {total('lp.solve_lp')} s",
        f"distsim.flood_s {total('distsim.flood')} s",
        f"distsim.plan_s {sum(plan_times)} s over {len(plan_times)} agent plans",
        f"distsim.execute_s {cycles_self} s (run_cycles self time: views, execution)",
        f"solver probes over {distinct} distinct instances",
        f"trace overhead {traced_s - untraced_s} s ({(traced_s / untraced_s - 1) * 100:.1f}% of {untraced_s} s untraced)",
    ]
    for name, t in sorted(totals.items()):
        notes.append(f"span {name} calls={t.calls} total_s={t.total_s} self_s={t.self_s}")
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    ops = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    if args.trace:
        untraced = run_pass(ops, NULL_TRACER)
        tracer = Tracer()
        lp_results: list[bool] = []
        with Rebinding() as rb:
            install_tracing(rb, tracer, lp_results)
            traced = run_pass(ops, tracer)
        check_repeat(untraced, traced)
        outcomes = untraced + traced
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics, notes = per_layer(
            tracer, lp_results, traced, sum(o.wall_s for o in untraced), sum(o.wall_s for o in traced)
        )
        reported = traced
    else:
        setup_s, setup_raw = measure_setup(args.workload, args.seed)
        speed = HostSpeed()
        speed.sample()
        times: list[float] = []
        first = run_pass(ops, NULL_TRACER, speed, times)
        check_oracle(ops, first)
        outcomes = list(first)
        pass_s = sum(o.wall_s for o in first)
        while sum(o.wall_s for o in outcomes) + pass_s <= args.seconds:
            again = run_pass(ops, NULL_TRACER, speed, times)
            check_repeat(first, again)
            outcomes += again
        samples = [t for t in times if not math.isnan(t)]
        if not samples:
            sys.exit("error: every operation failed")
        metrics, notes = end_to_end(first, samples, len(ops), setup_s)
        raw = [o.wall_s for o in outcomes if not math.isnan(o.wall_s)]
        notes.append(
            f"operation times at nominal host speed from {len(speed.samples)} reference loops"
            f" (median {statistics.median(speed.samples)} s, nominal {REF_NOMINAL_S} s);"
            f" setup_s scaled by bare interpreter starts (nominal {START_NOMINAL_S} s);"
            f" unscaled op_s_p50 {statistics.median(raw)} s, setup_s {setup_raw} s"
        )
        reported = first

    failed = [o for o in outcomes if o.errors]
    for o in failed:
        for e in o.errors[:5]:
            print(f"FAILED {e}", file=sys.stderr)
    sha, lines = fingerprint(reported)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(f"fingerprint {line}")
    print(f"fingerprint sha256 {sha}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    for note in notes:
        print(f"note {note}")
    print(f"note error_frac {len(failed) / len(outcomes)} ratio ({len(failed)} of {len(outcomes)} operations)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
