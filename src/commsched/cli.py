"""Command-line front end.

Subcommands: solve a scenario, run the distributed simulation, benchmark
shared vs selfish scheduling over a scenario corpus, export the 0/1 program
as an LP file, render schedules/traces to SVG, and generate random
scenarios. Exit codes: 0 success, 2 parse/validation error, 3 infeasible,
4 agreement violation in the simulator.
"""

from __future__ import annotations

import argparse
import csv
import glob
import io
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import baseline, distsim, render, scenarios
from .encoder import InfeasibleHorizon, encode, encode_objective, export_lp
from .model import HorizonOverflow, Objective, validate_problem
from .solver import InfeasibleSeed, SolveBudget, solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_AGREEMENT = 4

BENCHMARK_HEADER = [
    "scenario",
    "objective",
    "budget_nodes",
    "status",
    "nodes",
    "shared_value",
    "selfish_value",
    "collected_shared",
    "analyzed_shared",
    "stored_shared",
    "collected_selfish",
    "analyzed_selfish",
    "stored_selfish",
    "energy_total_shared",
    "energy_total_selfish",
    "avg_energy_per_task_shared",
    "avg_energy_per_task_selfish",
    "makespan_shared",
    "makespan_selfish",
    "bits_shared",
    "bits_selfish",
    "wall_time_s",
    "error",
]

OBJECTIVES = {
    "reward": Objective.reward,
    "makespan": Objective.makespan,
    "energy": Objective.energy,
}


def _load(path: str, objective: str | None):
    sc = scenarios.parse_scenario(Path(path).read_text())
    p = sc.to_problem()
    if objective == "weighted":
        if p.objective.kind != "weighted":
            raise ValueError("--objective weighted needs a weighted objective in the scenario")
    elif objective:
        p = replace(p, objective=OBJECTIVES[objective]())
    return sc, p, validate_problem(p)


def _prepare(path: str, objective: str | None):
    """(scenario, problem) ready to plan, or None once the reason is printed."""
    try:
        sc, p, report = _load(path, objective)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    for v in report.violations:
        print(f"invalid scenario: {v}", file=sys.stderr)
    return (sc, p) if report.ok else None


def _emit(out: str | None, text: str) -> int:
    """Write `text` to the file `out`, or to stdout when there is none."""
    if not out:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        Path(out).write_text(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def _seed_schedule(p):
    return baseline.selfish_schedule(p, mode="storage_excepted")


def _program(p):
    """The 0/1 program of `p`; a scenario's declared shared channels are always planned."""
    interference = bool(p.contacts.interference_sets)
    return encode_objective(p, p.objective, encode(p, interference=interference))


def cmd_solve(args) -> int:
    prepared = _prepare(args.scenario, args.objective)
    if prepared is None:
        return EXIT_INPUT
    sc, p = prepared
    nodes = sc.cycle.budget.max_nodes if args.budget_nodes is None else args.budget_nodes
    budget = SolveBudget(nodes)
    try:
        seed = _seed_schedule(p)
        inst = _program(p)
        started = time.perf_counter()
        res = solve(inst, seed, budget)
        elapsed = time.perf_counter() - started
    except (InfeasibleHorizon, HorizonOverflow, InfeasibleSeed) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if _emit(args.out, res.to_text(p)) != EXIT_OK:
        return EXIT_INPUT
    print(
        f"value={res.incumbent_value} bound={res.best_bound} status={res.status}"
        f" nodes={res.nodes_explored} wall_time_s={elapsed:.3f}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    prepared = _prepare(args.scenario, None)
    if prepared is None:
        return EXIT_INPUT
    sc, p = prepared
    errors = distsim.simulation_errors(p, sc.cycle)
    for e in errors:
        print(f"invalid scenario: {e}", file=sys.stderr)
    if errors:
        return EXIT_INPUT
    trace = distsim.run_cycles(p, sc.script, sc.cycle, args.cycles, sc.capabilities())
    if args.out:
        out_dir = Path(args.out)
        digests = [
            f"{r.cycle} {r.agent} {r.fields()['sha']}"
            for r in trace.select(phase="plan", event="digest")
        ]
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "trace.txt").write_text(trace.to_text())
            (out_dir / "digests.txt").write_text("\n".join(digests) + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(trace.to_text())
    violations = trace.select(event="agreement_violation")
    if violations:
        for r in violations:
            print(f"agreement violation: cycle {r.cycle} {r.payload}", file=sys.stderr)
        return EXIT_AGREEMENT
    return EXIT_OK


def _benchmark_row(path: str, objective_name: str, budget_nodes: int) -> dict:
    row = {k: "" for k in BENCHMARK_HEADER}
    row.update(scenario=path, objective=objective_name, budget_nodes=budget_nodes)
    started = time.perf_counter()
    try:
        _, p, report = _load(path, objective_name)
        if not report.ok:
            raise ValueError("; ".join(report.violations))
        selfish = _seed_schedule(p)
        inst = _program(p)
        res = solve(inst, selfish, SolveBudget(budget_nodes))
        metrics = baseline.compare(p, res.incumbent, selfish)
        row.update(
            status=res.status,
            nodes=res.nodes_explored,
            shared_value=str(res.incumbent_value),
            selfish_value=str(selfish.objective_value),
            collected_shared=metrics.shared.category("collect"),
            analyzed_shared=metrics.shared.category("analyze"),
            stored_shared=metrics.shared.category("store"),
            collected_selfish=metrics.selfish.category("collect"),
            analyzed_selfish=metrics.selfish.category("analyze"),
            stored_selfish=metrics.selfish.category("store"),
            energy_total_shared=str(metrics.shared.energy_total),
            energy_total_selfish=str(metrics.selfish.energy_total),
            avg_energy_per_task_shared=str(metrics.shared.avg_energy_per_task),
            avg_energy_per_task_selfish=str(metrics.selfish.avg_energy_per_task),
            makespan_shared=metrics.shared.makespan_steps,
            makespan_selfish=metrics.selfish.makespan_steps,
            bits_shared=str(metrics.shared.bits_total),
            bits_selfish=str(metrics.selfish.bits_total),
        )
    except Exception as exc:  # per-row error column; the batch never aborts
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_time_s"] = f"{time.perf_counter() - started:.3f}"
    return row


def cmd_benchmark(args) -> int:
    paths = []
    for pattern in args.scenarios:
        matches = sorted(glob.glob(pattern))
        paths.extend(matches if matches else [pattern])
    budgets = args.budget_nodes
    objectives = [args.objective] if args.objective else ["reward", "energy"]
    rows = []
    for path in paths:
        for objective_name in objectives:
            for budget in budgets:
                rows.append(_benchmark_row(path, objective_name, budget))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCHMARK_HEADER)
    writer.writeheader()
    writer.writerows(rows)
    return _emit(args.out, buf.getvalue())


def cmd_render(args) -> int:
    try:
        text = Path(args.input).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    first = text.splitlines()[0] if text.splitlines() else ""
    try:
        if first.startswith("SCHEDULE") or first.startswith("RESULT"):
            svg = render.render_schedule_svg(text)
        else:
            svg = render.render_trace_svg(text)
    except (KeyError, ValueError) as exc:
        print(f"error: cannot parse input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return _emit(args.out, svg)


def cmd_export(args) -> int:
    prepared = _prepare(args.scenario, args.objective)
    if prepared is None:
        return EXIT_INPUT
    _, p = prepared
    try:
        inst = _program(p)
    except InfeasibleHorizon as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return _emit(args.out, export_lp(inst))


def cmd_generate(args) -> int:
    try:
        sc = scenarios.generate_random(args.agents, args.science_fraction, args.samples, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    rc = _emit(args.out, sc.to_text())
    if rc != EXIT_OK:
        return rc
    try:
        p = sc.to_problem()
    except ValueError as exc:
        print(f"warning: solve and simulate will reject this scenario: {exc}", file=sys.stderr)
        return rc
    for e in distsim.simulation_errors(p, sc.cycle):
        print(f"warning: simulate will reject this scenario: {e}", file=sys.stderr)
    return rc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _positive_ints(text: str) -> list[int]:
    return [_positive_int(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commsched",
        description="Communication-aware task scheduling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one scenario and write the schedule")
    ps.add_argument("scenario")
    ps.add_argument("--objective", choices=sorted(OBJECTIVES) + ["weighted"], default=None)
    ps.add_argument("--budget-nodes", type=_positive_int, default=None)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_solve)

    pm = sub.add_parser("simulate", help="run the broadcast-plan-execute simulation")
    pm.add_argument("scenario")
    pm.add_argument("--cycles", type=_positive_int, default=3)
    pm.add_argument("--out", default=None)
    pm.set_defaults(func=cmd_simulate)

    pb = sub.add_parser("benchmark", help="shared-vs-selfish benchmark over scenarios")
    pb.add_argument("scenarios", nargs="+")
    pb.add_argument("--budget-nodes", type=_positive_ints, default=[2000])
    pb.add_argument("--objective", choices=sorted(OBJECTIVES), default=None)
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=cmd_benchmark)

    pr = sub.add_parser("render", help="render a schedule or trace to SVG")
    pr.add_argument("input")
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_render)

    pe = sub.add_parser("export", help="export the 0/1 program in LP format")
    pe.add_argument("scenario")
    pe.add_argument("--objective", choices=sorted(OBJECTIVES), default=None)
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_export)

    pg = sub.add_parser("generate", help="generate a seeded random scenario")
    pg.add_argument("--agents", type=int, required=True)
    pg.add_argument("--science-fraction", type=float, default=0.4)
    pg.add_argument("--samples", type=int, default=1)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", default=None)
    pg.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
