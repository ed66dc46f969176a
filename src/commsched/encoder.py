"""Time-indexed 0/1 encoding of the scheduling problem, and its decoder.

Columns:
  X(i,T,k)  agent i starts computing task T at step k
  C(i,j,T,k) agent i transmits part or all of T's product to j during step k
  D(i,T,k)  agent i holds T's data product at the beginning of step k
  R(i,j,T,k) bits of T's product moved i->j during step k (interference mode)
  Z         completion-step upper envelope (makespan objective only)

The column layout is the contract that states each column's kind. The X
and C columns come first, interleaved by step (those of step k precede
those of step k+1), then the D block; these are all the binary columns,
`[0, num_binary)`. The continuous columns follow: the R block, then Z. A
column is its position: `variables[col]` is its name and `lb[col]`,
`ub[col]` are its bounds.

Busy-interval convention: a task started at step k with duration c occupies
steps k..k+c-1 (zero-duration tasks still occupy their start slot) and its
product becomes usable at step k+c. Rows are integer-scaled so that search
and propagation stay in exact integer arithmetic.

Number rule: an integral quantity (a 0/1 value, a binary bound, a unit
coefficient, a step count such as z) is an `int`; `Fraction` appears only
where a value can be non-integral: bit-flow (R) values and bounds, link
bits and objective coefficients. An assignment maps columns to values and
lists only the columns it sets; a column that is absent is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

from .model import (
    Objective,
    CommEvent,
    Placement,
    ProblemInstance,
    Schedule,
    frac,
    occupancy_steps,
)

LE = "<="
EQ = "="


class InfeasibleHorizon(ValueError):
    """A required task cannot finish on any agent within the horizon."""


class InfeasibleAssignment(ValueError):
    """An assignment violates the encoding."""


@dataclass(frozen=True)
class Row:
    """Sparse constraint with integer coefficients: sum(a*x) sense rhs."""

    name: str
    coeffs: tuple[tuple[int, int], ...]
    sense: str
    rhs: int


@dataclass(frozen=True)
class EncodingMeta:
    """Index tables shared by the encoder, decoder, and solver."""

    agent_ids: tuple[str, ...]
    task_ids: tuple[str, ...]
    required: frozenset[int]
    durations: tuple[tuple[int | None, ...], ...]  # [ai][ti]
    rewards: tuple[Fraction, ...]  # effective rewards (0 for required)
    sizes: tuple[Fraction, ...]
    num_steps: int
    link_bits: Mapping[tuple[int, int, int], Fraction]  # (ai, aj, k) -> bits/step
    interference_mode: bool
    done: frozenset[int]
    held0: frozenset[tuple[int, int]] = frozenset()  # (ai, ti) products at step 0
    objective: Objective | None = None


@dataclass(frozen=True)
class IlpInstance:
    """Immutable linear program plus the index maps into its columns."""

    variables: tuple[str, ...]  # column names
    lb: tuple[int | Fraction, ...]
    ub: tuple[int | Fraction, ...]
    num_binary: int  # the X, C and D columns are [0, num_binary)
    rows: tuple[Row, ...]
    objective: Mapping[int, Fraction]  # sparse, sense = maximize
    x_index: Mapping[tuple[int, int, int], int]  # (ai, ti, k) -> col
    c_index: Mapping[tuple[int, int, int, int], int]  # (ai, aj, ti, k) -> col
    d_index: Mapping[tuple[int, int, int], int]  # (ai, ti, k) -> col
    r_index: Mapping[tuple[int, int, int, int], int]
    z_col: int | None
    branch_cols: tuple[int, ...]  # unpinned X/C columns in canonical order
    meta: EncodingMeta


def _scale_row(
    name: str, coeffs: list[tuple[int, int | Fraction]], sense: str, rhs: int | Fraction
) -> Row:
    if type(rhs) is int and all(type(a) is int for _, a in coeffs):
        return Row(name, tuple((col, a) for col, a in coeffs if a), sense, rhs)
    denom = math.lcm(rhs.denominator, *(a.denominator for _, a in coeffs))
    scaled = tuple((col, int(a * denom)) for col, a in coeffs if a != 0)
    return Row(name, scaled, sense, int(rhs * denom))


def encode(p: ProblemInstance, interference: bool = False) -> IlpInstance:
    """Build the base feasibility encoding (objective installed separately)."""
    agents = p.agent_ids
    tasks = p.network.tasks
    task_ids = p.network.task_ids
    na, nt = len(agents), len(tasks)
    steps = p.horizon.num_steps
    dt = p.horizon.step_duration
    tindex = {t: i for i, t in enumerate(task_ids)}
    done = frozenset(tindex[t] for t in p.done_tasks if t in tindex)

    durations = tuple(
        tuple(p.duration_steps(agents[ai], task_ids[ti]) for ti in range(nt)) for ai in range(na)
    )
    rewards = tuple(t.effective_reward for t in tasks)
    sizes = tuple(t.product_size for t in tasks)
    preds = tuple(tuple(sorted(tindex[q] for q in t.predecessors)) for t in tasks)
    required = frozenset(ti for ti, t in enumerate(tasks) if t.required)

    for ti in sorted(required - done):
        if not any(
            durations[ai][ti] is not None and occupancy_steps(durations[ai][ti]) <= steps
            for ai in range(na)
        ):
            raise InfeasibleHorizon(f"required task {task_ids[ti]} fits on no agent within the horizon")

    link_bits: dict[tuple[int, int, int], Fraction] = {}
    for (src, dst, k), rate in p.contacts.rates.items():
        if rate > 0 and k < steps:
            link_bits[(agents.index(src), agents.index(dst), k)] = rate * dt

    isets = tuple(
        (
            tuple(
                sorted(
                    (agents.index(s), agents.index(d))
                    for (s, d) in iset.links
                    if s in agents and d in agents
                )
            ),
            iset.capacity_bps * dt,
        )
        for iset in p.contacts.interference_sets
    )

    held0 = frozenset(
        (agents.index(a), tindex[t])
        for a, prods in p.initial_products.items()
        if a in agents
        for t in prods
        if t in tindex
    )
    meta = EncodingMeta(
        agent_ids=tuple(agents),
        task_ids=tuple(task_ids),
        required=required,
        durations=durations,
        rewards=rewards,
        sizes=sizes,
        num_steps=steps,
        link_bits=link_bits,
        interference_mode=interference,
        done=done,
        held0=held0,
    )

    names: list[str] = []
    lb: list[int | Fraction] = []
    ub: list[int | Fraction] = []

    def column(name: str, lo: int | Fraction, hi: int | Fraction) -> int:
        names.append(name)
        lb.append(lo)
        ub.append(hi)
        return len(names) - 1

    x_index: dict[tuple[int, int, int], int] = {}
    c_index: dict[tuple[int, int, int, int], int] = {}
    d_index: dict[tuple[int, int, int], int] = {}
    r_index: dict[tuple[int, int, int, int], int] = {}

    zero, one = 0, 1
    # Chronological column order: all start and transfer decisions of step k
    # come before those of step k+1, so a depth-first dive over the canonical
    # order builds schedules step by step and propagation can resolve every
    # data-availability question from already-decided columns.
    for k in range(steps):
        for ti in range(nt):
            if ti in done:
                continue
            for ai in range(na):
                dur = durations[ai][ti]
                if dur is None or k > steps - occupancy_steps(dur):
                    continue
                x_index[(ai, ti, k)] = column(f"x_{ti}_{ai}_{k}", zero, one)
        for ti in range(nt):
            for ai in range(na):
                for aj in range(na):
                    # Self transfers are meaningless and a dead link moves no
                    # bits, so both kinds of column are pinned to zero (they
                    # stay declared to keep the column layout uniform).
                    live = ai != aj and (ai, aj, k) in link_bits
                    c_index[(ai, aj, ti, k)] = column(
                        f"c_{ti}_{ai}_{aj}_{k}", zero, one if live else zero
                    )
    branch_cols = tuple(col for col in range(len(names)) if lb[col] != ub[col])
    for ti in range(nt):
        for ai in range(na):
            for k in range(steps):
                if k == 0:
                    pinned = one if (ai, ti) in held0 else zero
                    d_index[(ai, ti, k)] = column(f"d_{ti}_{ai}_{k}", pinned, pinned)
                else:
                    d_index[(ai, ti, k)] = column(f"d_{ti}_{ai}_{k}", zero, one)
    num_binary = len(names)
    if interference:
        for ti in range(nt):
            for ai in range(na):
                for aj in range(na):
                    for k in range(steps):
                        bits = link_bits.get((ai, aj, k), zero) if ai != aj else zero
                        r_index[(ai, aj, ti, k)] = column(f"r_{ti}_{ai}_{aj}_{k}", zero, bits)

    rows: list[Row] = []

    # Every required task exactly once; optional tasks at most once.
    for ti in range(nt):
        if ti in done:
            continue
        cols = [
            (x_index[(ai, ti, k)], one)
            for ai in range(na)
            for k in range(steps)
            if (ai, ti, k) in x_index
        ]
        if ti in required:
            rows.append(_scale_row(f"req_{ti}", cols, EQ, one))
        elif cols:
            rows.append(_scale_row(f"opt_{ti}", cols, LE, one))

    # A task may start only where all predecessor products are held.
    for ti in range(nt):
        if ti in done:
            continue
        for li in preds[ti]:
            for ai in range(na):
                for k in range(steps):
                    xcol = x_index.get((ai, ti, k))
                    if xcol is None:
                        continue
                    rows.append(
                        Row(
                            f"pre_{ti}_{li}_{ai}_{k}",
                            ((xcol, one), (d_index[(ai, li, k)], -one)),
                            LE,
                            zero,
                        )
                    )

    # One activity per agent per step (computing, sending, or receiving).
    for ai in range(na):
        for k in range(steps):
            cols: list[tuple[int, int]] = []
            for ti in range(nt):
                for aj in range(na):
                    if aj == ai:
                        continue
                    cols.append((c_index[(ai, aj, ti, k)], one))
                    cols.append((c_index[(aj, ai, ti, k)], one))
                dur = durations[ai][ti]
                if dur is None or ti in done:
                    continue
                occ = occupancy_steps(dur)
                for kk in range(max(0, k - occ + 1), k + 1):
                    xcol = x_index.get((ai, ti, kk))
                    if xcol is not None:
                        cols.append((xcol, one))
            rows.append(_scale_row(f"res_{ai}_{k}", cols, LE, one))

    # Product acquisition: holding can rise only after computing the task or
    # receiving enough bits (cumulative over all earlier steps and senders).
    # Step k's row holds step k-1's terms plus its own, so each (task, agent)
    # keeps its inflow and computing terms in running lists, already scaled
    # by the lcm of their denominators and rescaled only when that lcm grows.
    for ti in range(nt):
        size = sizes[ti]
        for ai in range(na):
            dur = None if ti in done else durations[ai][ti]
            starts = [] if dur is None else [
                (tau, x_index[(ai, ti, tau)]) for tau in range(steps) if (ai, ti, tau) in x_index
            ]
            denom = 1
            inflow: list[tuple[int, int]] = []  # (C or R column, -bits/size * denom)
            computed: list[tuple[int, int]] = []  # (X column ready by step k+1, -denom)
            for k in range(steps - 1):
                for aj in range(na):
                    if aj == ai:
                        continue
                    bits = link_bits.get((aj, ai, k), zero)
                    if bits == 0:
                        continue
                    if interference and size > 0:
                        col, w = r_index[(aj, ai, ti, k)], one / size
                    else:
                        col, w = c_index[(aj, ai, ti, k)], one if size == 0 else bits / size
                    if denom % w.denominator:
                        grow = math.lcm(denom, w.denominator) // denom
                        inflow = [(c, a * grow) for c, a in inflow]
                        computed = [(c, a * grow) for c, a in computed]
                        denom *= grow
                    inflow.append((col, -w.numerator * (denom // w.denominator)))
                while len(computed) < len(starts) and starts[len(computed)][0] + dur <= k + 1:
                    computed.append((starts[len(computed)][1], -denom))
                rows.append(
                    Row(
                        f"acq_{ti}_{ai}_{k}",
                        (
                            (d_index[(ai, ti, k + 1)], denom),
                            (d_index[(ai, ti, k)], -denom),
                            *inflow,
                            *computed,
                        ),
                        LE,
                        zero,
                    )
                )

    # Agents may only transmit products they hold.
    for ti in range(nt):
        for ai in range(na):
            for aj in range(na):
                if ai == aj:
                    continue
                for k in range(steps):
                    rows.append(
                        Row(
                            f"kno_{ti}_{ai}_{aj}_{k}",
                            ((c_index[(ai, aj, ti, k)], one), (d_index[(ai, ti, k)], -one)),
                            LE,
                            zero,
                        )
                    )

    if interference:
        # Effective bits flow only while the link is actively used.
        for ti in range(nt):
            for ai in range(na):
                for aj in range(na):
                    if ai == aj:
                        continue
                    for k in range(steps):
                        bits = link_bits.get((ai, aj, k), zero)
                        if bits == 0:
                            continue  # R is pinned to 0 by its bounds
                        rows.append(
                            _scale_row(
                                f"act_{ti}_{ai}_{aj}_{k}",
                                [(r_index[(ai, aj, ti, k)], one), (c_index[(ai, aj, ti, k)], -bits)],
                                LE,
                                zero,
                            )
                        )
        # Interfering links share a channel capacity per step.
        for si, (links, cap_bits) in enumerate(isets):
            for k in range(steps):
                coeffs = [
                    (r_index[(ai, aj, ti, k)], one)
                    for (ai, aj) in links
                    if ai != aj
                    for ti in range(nt)
                ]
                if coeffs:
                    rows.append(_scale_row(f"cap_{si}_{k}", coeffs, LE, cap_bits))

    rows = [r for r in rows if r.coeffs]  # an empty row is vacuously true here
    return IlpInstance(
        variables=tuple(names),
        lb=tuple(lb),
        ub=tuple(ub),
        num_binary=num_binary,
        rows=tuple(rows),
        objective={},
        x_index=x_index,
        c_index=c_index,
        d_index=d_index,
        r_index=r_index,
        z_col=None,
        branch_cols=branch_cols,
        meta=meta,
    )


def encode_objective(p: ProblemInstance, spec: Objective, inst: IlpInstance) -> IlpInstance:
    """Install an objective (maximize) onto the base encoding `inst` of `p`."""
    meta = inst.meta
    weights = spec.weight_vector()
    obj: dict[int, Fraction] = {}
    rows = list(inst.rows)
    names, lb, ub, z_col = inst.variables, inst.lb, inst.ub, inst.z_col

    def add(col: int, delta: Fraction):
        if delta == 0:
            return
        obj[col] = obj.get(col, Fraction(0)) + delta

    if weights["reward"] > 0:
        for (ai, ti, k), col in inst.x_index.items():
            add(col, weights["reward"] * meta.rewards[ti])
    if weights["energy"] > 0:
        for (ai, ti, k), col in inst.x_index.items():
            add(col, -weights["energy"] * frac(p.agents[ai].energy_for(meta.task_ids[ti])))
        e = p.comm_energy_per_bit
        if e > 0:
            if meta.interference_mode:
                for key, col in inst.r_index.items():
                    add(col, -weights["energy"] * e)
            else:
                for (ai, aj, ti, k), col in inst.c_index.items():
                    bits = meta.link_bits.get((ai, aj, k), Fraction(0))
                    if ai != aj and bits > 0:
                        add(col, -weights["energy"] * e * bits)
    if weights["makespan"] > 0:
        if z_col is None:
            z_col = len(names)
            names, lb, ub = names + ("z",), lb + (0,), ub + (meta.num_steps,)
        for (ai, ti, k), col in inst.x_index.items():
            completion = k + meta.durations[ai][ti]
            if completion > 0:
                rows.append(
                    _scale_row(
                        f"mks_{ti}_{ai}_{k}",
                        [(col, completion), (z_col, -1)],
                        LE,
                        0,
                    )
                )
        add(z_col, -weights["makespan"])

    return replace(
        inst,
        variables=names,
        lb=lb,
        ub=ub,
        rows=tuple(rows),
        objective=obj,
        z_col=z_col,
        meta=replace(meta, objective=spec),
    )


def check_assignment(inst: IlpInstance, values: Mapping[int, int | Fraction]) -> list[str]:
    """Violations of bounds, integrality, and rows; empty list means feasible.

    A column absent from `values` is 0. An `int` value is used as it is and
    any other value is coerced with `frac` (a float exactly as its nearest
    small-denominator rational), so every comparison is exact.
    """
    errors = []
    names, lb, ub, nb = inst.variables, inst.lb, inst.ub, inst.num_binary
    vals: list[int | Fraction] = [0] * len(names)
    for col, v in values.items():
        vals[col] = v if type(v) is int else frac(v)
    for col, v in enumerate(vals):
        if col < nb and v not in (0, 1):
            errors.append(f"{names[col]}: binary value {v} is not exactly 0/1")
        elif not lb[col] <= v <= ub[col]:
            errors.append(f"{names[col]}: value {v} outside bounds [{lb[col]},{ub[col]}]")
    for row in inst.rows:
        act = sum(a * vals[col] for col, a in row.coeffs)
        if row.sense == LE:
            if act > row.rhs:
                errors.append(f"row {row.name}: activity {act} > {row.rhs}")
        elif act != row.rhs:
            errors.append(f"row {row.name}: activity {act} != {row.rhs}")
    return errors


def decode(inst: IlpInstance, values: Mapping[int, int | Fraction]) -> Schedule:
    """Turn a feasible assignment back into a Schedule.

    Comm events are maximal runs of consecutive active steps on one link for
    one product; per-step bits come from the link rates (or the R variables
    in interference mode).
    """
    errors = check_assignment(inst, values)
    if errors:
        raise InfeasibleAssignment("; ".join(errors[:5]))
    meta = inst.meta

    placements = []
    makespan = 0
    for (ai, ti, k), col in inst.x_index.items():
        if values.get(col):
            placements.append(Placement(meta.agent_ids[ai], meta.task_ids[ti], k))
            makespan = max(makespan, k + meta.durations[ai][ti])

    comms = []
    na, nt = len(meta.agent_ids), len(meta.task_ids)
    for ti in range(nt):
        for ai in range(na):
            for aj in range(na):
                if ai == aj:
                    continue
                run_start = None
                bits: list[Fraction] = []
                for k in range(meta.num_steps + 1):
                    active = k < meta.num_steps and bool(values.get(inst.c_index[(ai, aj, ti, k)]))
                    if active:
                        if run_start is None:
                            run_start = k
                        if meta.interference_mode:
                            bits.append(values.get(inst.r_index[(ai, aj, ti, k)], 0))
                        else:
                            bits.append(meta.link_bits.get((ai, aj, k), Fraction(0)))
                    elif run_start is not None:
                        comms.append(
                            CommEvent(
                                meta.agent_ids[ai],
                                meta.agent_ids[aj],
                                meta.task_ids[ti],
                                run_start,
                                k - 1,
                                tuple(bits),
                            )
                        )
                        run_start, bits = None, []

    value = sum((coef * values.get(col, 0) for col, coef in inst.objective.items()), Fraction(0))
    return Schedule(tuple(placements), tuple(comms), value, makespan)


def assignment_from_schedule(inst: IlpInstance, s: Schedule) -> dict[int, int | Fraction]:
    """Column values realizing a schedule (holding flags set as early as valid)."""
    meta = inst.meta
    aindex = {a: i for i, a in enumerate(meta.agent_ids)}
    tindex = {t: i for i, t in enumerate(meta.task_ids)}
    values: dict[int, int | Fraction] = {}

    available: dict[tuple[int, int], int] = {}
    for (ai, ti) in meta.held0:
        available[(ai, ti)] = 0

    for pl in s.placements:
        ai, ti = aindex[pl.agent], tindex[pl.task]
        col = inst.x_index.get((ai, ti, pl.start))
        if col is None:
            raise InfeasibleAssignment(
                f"placement {pl.task} on {pl.agent} at {pl.start} has no column"
            )
        values[col] = 1
        ready = max(pl.start + meta.durations[ai][ti], 1)
        key = (ai, ti)
        available[key] = min(available.get(key, ready), ready)

    for c in sorted(s.comms, key=lambda c: (c.start, c.src, c.dst, c.task)):
        ai, aj, ti = aindex[c.src], aindex[c.dst], tindex[c.task]
        size = meta.sizes[ti]
        acc = Fraction(0)
        got = None
        for idx, bits in enumerate(c.bits_per_step):
            k = c.start + idx
            live = (ai, aj, k) in meta.link_bits
            if live:  # dead steps inside an event move no bits; their C is pinned 0
                col = inst.c_index[(ai, aj, ti, k)]
                if col in values:
                    raise InfeasibleAssignment(
                        f"comm {c.task} {c.src}->{c.dst} at step {k} overlaps another event"
                    )
                values[col] = 1
                if meta.interference_mode and bits > 0:
                    values[inst.r_index[(ai, aj, ti, k)]] = bits
            acc += bits
            if got is None and ((size > 0 and acc >= size) or (size == 0 and live)):
                got = k + 1
        if got is not None:
            key = (aj, ti)
            available[key] = min(available.get(key, got), got)

    for (ai, ti), since in available.items():
        for k in range(since, meta.num_steps):
            values[inst.d_index[(ai, ti, k)]] = 1

    if inst.z_col is not None:
        values[inst.z_col] = s.makespan_steps
    return values


def _fmt_num(x: int | Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    twos = fives = 0
    d = x.denominator
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d == 1:  # exact decimal expansion
        places = max(twos, fives)
        digits = abs(x.numerator) * 10**places // x.denominator
        s = str(digits).rjust(places + 1, "0")
        sign = "-" if x < 0 else ""
        return f"{sign}{s[:-places]}.{s[-places:]}"
    return repr(float(x))


def export_lp(inst: IlpInstance) -> str:
    """Emit the instance in CPLEX LP text format, byte-stable per instance."""
    meta = inst.meta
    out = ["\\ communication-aware task scheduling instance"]
    for ti, t in enumerate(meta.task_ids):
        out.append(f"\\ t{ti} = {t}")
    for ai, a in enumerate(meta.agent_ids):
        out.append(f"\\ a{ai} = {a}")
    out.append("Maximize")
    terms = []
    for col in sorted(inst.objective):
        coef = inst.objective[col]
        if coef == 0:
            continue
        sign = "+" if coef >= 0 else "-"
        terms.append(f"{sign} {_fmt_num(abs(coef))} {inst.variables[col]}")
    out.append(" obj: " + (" ".join(terms) if terms else "0"))
    out.append("Subject To")
    for row in inst.rows:
        parts = []
        for col, a in row.coeffs:
            sign = "+" if a >= 0 else "-"
            parts.append(f"{sign} {abs(a)} {inst.variables[col]}")
        rel = "<=" if row.sense == LE else "="
        out.append(f" {row.name}: {' '.join(parts)} {rel} {row.rhs}")
    out.append("Bounds")
    for col, name in enumerate(inst.variables):
        lo, hi = inst.lb[col], inst.ub[col]
        if col >= inst.num_binary:
            out.append(f" {_fmt_num(lo)} <= {name} <= {_fmt_num(hi)}")
        elif lo == hi:
            out.append(f" {name} = {_fmt_num(lo)}")
    out.append("Binaries")
    names = inst.variables[: inst.num_binary]
    for i in range(0, len(names), 8):
        out.append(" " + " ".join(names[i : i + 8]))
    out.append("End")
    return "\n".join(out) + "\n"
