"""Deterministic anytime branch-and-bound over the 0/1 encoding.

The search dives depth-first over the canonical (chronological) column
order, branching 1-before-0, with integer bound propagation and
combinatorial admissible bounds. Everything is exact arithmetic, in `int`
for 0/1 values and step counts and in `Fraction` for bit flows and the
objective: two solver instances given identical inputs return bit-identical
results, which is the property the distributed planning cycle relies on.
Assignments list only the columns they set; an absent column is 0.

Propagation works on a presolved form of the rows, built once per solve:
- a binary row x - y <= 0 (the `kno` and `pre` rows, most of the encoding)
  becomes two implication lists, x=1 forces y=1 and y=0 forces x=0; the
  trail is their queue, and the pinned columns are its first entries;
- every other row is kept as a <= row, an equality a.x = b as the pair
  a.x <= b and -a.x <= -b. A <= row needs only its least activity amin,
  moved by a delta precomputed per column for the value that raises it, and
  a rise of amin is what queues the row again. The row fails when amin
  exceeds its right-hand side and forces every open column whose
  coefficient no longer fits in the slack; a row whose slack is at least
  its largest coefficient cannot force anything and is skipped.
Bound propagation is monotone, so every order of these steps reaches the
same fixpoint or the same conflict as rescanning all rows would, and every
search tree is the one the plain row form gives.

The search state is the value of each binary column, the trail that undoes
it and the rows' amin; no tally is kept in step with it. The bound and the
leaf completion read the placed tasks, their completions and the fixed
objective terms from the column values, in exact arithmetic, so the order
of the terms cannot change a value.

Storage-flag (D) columns are never branched: once every X and C column is
decided, propagation has fixed each D that matters and the rest complete to
0, which is always row-feasible and objective-neutral.

A fully branched node therefore needs no re-check. At the propagation
fixpoint every row over binary columns alone holds with the open D columns
at 0: such a row has at most one open column with a negative coefficient,
and the fixpoint leaves it open only if the row holds without it. The
`mks` rows hold because z is set to the largest completion. That leaves the
rows with a bit-flow (R) column, which propagation sees only at R's static
bounds; in interference mode the leaf completion decides them, as constants
when none of their R columns is active and through the exact LP otherwise.
The seed is checked once on entry and the answer once by `decode`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import lp
from .encoder import EQ, LE, IlpInstance, assignment_from_schedule, check_assignment, decode
from .model import Schedule, frac, read_head, schedule_from_text

NEG_INF = float("-inf")


class _Conflict:
    def __repr__(self):
        return "CONFLICT"


CONFLICT = _Conflict()


class InfeasibleSeed(ValueError):
    """The warm-start schedule violates the instance."""


@dataclass(frozen=True)
class SolveBudget:
    """Deterministic stopping criterion: a fixed number of search nodes."""

    max_nodes: int

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError("budget must allow at least one node")


@dataclass(frozen=True)
class SolveResult:
    incumbent: Schedule
    incumbent_value: Fraction
    best_bound: Fraction
    status: str  # "optimal" | "budget_exhausted"
    nodes_explored: int

    def to_text(self, p=None) -> str:
        lines = [
            "RESULT v1",
            f"status {self.status}",
            f"value {self.incumbent_value}",
            f"bound {self.best_bound}",
            f"nodes {self.nodes_explored}",
        ]
        return "\n".join(lines) + "\n" + self.incumbent.to_text(p)


def result_from_text(text: str) -> SolveResult:
    """Read the form `SolveResult.to_text` writes: its head, then the schedule."""
    fields = (("status", str), ("value", frac), ("bound", frac), ("nodes", int))
    (status, value, bound, nodes), lines = read_head(text, "RESULT v1", fields)
    if status not in ("optimal", "budget_exhausted"):
        raise ValueError(f"status {status}: unknown status")
    return SolveResult(schedule_from_text("\n".join(lines)), value, bound, status, nodes)


def _dense(by_col: dict[int, list], n: int) -> list:
    """A per-column table; the columns without entries share one ()."""
    table: list = [()] * n
    for col, entries in by_col.items():
        table[col] = entries
    return table


class _Search:
    """Trail-based propagation state shared by solve/propagate/bound.

    The fixings of binary columns form a trail; its entries before `head`
    have had their implications applied. The <= rows live in compact arrays
    (`row_cols`, `amin`, ...), and `row_index` maps each back to its
    position in `inst.rows`; both halves of an equality map to the same one.
    """

    def __init__(self, inst: IlpInstance):
        self.inst = inst
        meta = inst.meta
        self.weights = meta.objective.weight_vector() if meta.objective else None
        n, nb = len(inst.variables), inst.num_binary
        lb, ub = inst.lb, inst.ub
        self.state = [-1] * n

        # implied[v][col]: the columns forced to v once col is v. A row
        # x - y <= 0 gives x=1 => y=1 and y=0 => x=0.
        implied = (defaultdict(list), defaultdict(list))
        # lo[v][col]: (row, delta) for each row whose amin rises when col is
        # fixed to v.
        lo0, lo1 = defaultdict(list), defaultdict(list)
        self.row_index: list[int] = []
        self.row_cols: list[tuple[int, ...]] = []
        self.row_coefs: list[tuple[int, ...]] = []
        self.row_rhs: list[int] = []
        self.row_maxabs: list[int] = []  # largest |a| over the binary columns
        self.amin: list = []
        self.r_rows: list[int] = []  # rows holding an R column, in row order
        z_col = inst.z_col
        for ri, row in enumerate(inst.rows):
            coeffs, rhs = row.coeffs, row.rhs
            if len(coeffs) == 2 and rhs == 0 and row.sense == LE:
                (c0, a0), (c1, a1) = coeffs
                if a0 == -a1 and c0 < nb and c1 < nb:
                    if a0 < 0:
                        c0, c1 = c1, c0
                    implied[1][c0].append(c1)
                    implied[0][c1].append(c0)
                    continue
            forms = [(coeffs, rhs)]
            if row.sense == EQ:  # a.x = b is a.x <= b and -a.x <= -b
                forms.append((tuple((col, -a) for col, a in coeffs), -rhs))
            has_r = False
            for coeffs, rhs in forms:
                gi = len(self.row_index)
                amin = 0
                cols, coefs = zip(*coeffs)
                if max(cols) >= nb:
                    # The search decides binary columns only; z and R count at their bounds.
                    for col, a in coeffs:
                        if col >= nb:
                            has_r = has_r or col != z_col  # the other continuous columns are R
                            amin += min(a * lb[col], a * ub[col])
                    coeffs = tuple((col, a) for col, a in coeffs if col < nb)
                    cols, coefs = tuple(zip(*coeffs)) or ((), ())
                amin += (sum(coefs) - sum(map(abs, coefs))) // 2  # the negative coefficients
                for col, a in coeffs:
                    if a > 0:
                        lo1[col].append((gi, a))
                    else:
                        lo0[col].append((gi, -a))
                self.row_index.append(ri)
                self.row_cols.append(cols)
                self.row_coefs.append(coefs)
                self.row_rhs.append(rhs)
                self.row_maxabs.append(max(map(abs, coefs), default=0))
                self.amin.append(amin)
            if has_r:
                self.r_rows.append(ri)
        self.implied = tuple(_dense(d, n) for d in implied)
        self.lo = (_dense(lo0, n), _dense(lo1, n))

        m = len(self.row_index)
        self.trail: list[int] = []
        self.head = 0
        self.queue: deque[int] = deque(range(m))
        self.in_queue = bytearray([1]) * m

        self.obj = dict(inst.objective)
        self.x_by_task: dict[int, list[tuple[int, int]]] = {}  # task -> (X column, completion)
        for (ai, ti, k), col in inst.x_index.items():
            self.x_by_task.setdefault(ti, []).append((col, k + meta.durations[ai][ti]))
        self.optional = sorted(
            ti for ti in self.x_by_task if ti not in meta.required and meta.rewards[ti] > 0
        )
        self.required_open = sorted(meta.required - meta.done)

        # Pinned columns are the root's first fixings; the root propagation
        # applies their implications along with every row.
        for col in range(nb):
            if lb[col] == ub[col]:
                self.fix(col, lb[col])

    # -- state updates ----------------------------------------------------

    def fix(self, col: int, value: int) -> bool:
        s = self.state[col]
        if s != -1:
            return s == value
        self.state[col] = value
        self.trail.append(col)
        amin, in_queue = self.amin, self.in_queue
        for gi, d in self.lo[value][col]:
            amin[gi] += d
            if not in_queue[gi]:
                in_queue[gi] = 1
                self.queue.append(gi)
        return True

    def undo_to(self, mark: int):
        trail, state, amin = self.trail, self.state, self.amin
        while len(trail) > mark:
            col = trail.pop()
            value = state[col]
            state[col] = -1
            for gi, d in self.lo[value][col]:
                amin[gi] -= d
        self.head = mark
        for gi in self.queue:
            self.in_queue[gi] = 0
        self.queue.clear()

    def propagate_pending(self) -> bool:
        trail, state = self.trail, self.state
        implied = self.implied
        queue, in_queue = self.queue, self.in_queue
        while True:
            head = self.head
            while head < len(trail):
                col = trail[head]
                head += 1
                value = state[col]
                for other in implied[value][col]:
                    s = state[other]
                    if s == -1:
                        self.fix(other, value)
                    elif s != value:
                        self.head = head
                        return False
            self.head = head
            if not queue:
                return True
            gi = queue.popleft()
            in_queue[gi] = 0
            if not self._propagate_row(gi):
                return False

    def _propagate_row(self, gi: int) -> bool:
        # Fixings forced by a <= row leave its amin as it is.
        slack = self.row_rhs[gi] - self.amin[gi]
        if slack < 0:
            return False
        if self.row_maxabs[gi] <= slack:
            return True
        state = self.state
        for col, a in zip(self.row_cols[gi], self.row_coefs[gi]):
            if state[col] == -1:
                if a > slack:
                    self.fix(col, 0)
                elif -a > slack:
                    self.fix(col, 1)
        return True

    # -- bound ------------------------------------------------------------

    def placed_completions(self) -> dict[int, int]:
        """The completion step of each task with an X column at 1."""
        state = self.state
        return {
            ti: completion
            for ti, xs in self.x_by_task.items()
            for col, completion in xs
            if state[col] == 1
        }

    def _open_x(self, ti: int) -> list[tuple[int, int]]:
        """The (X column, completion) pairs of task ti that are still open."""
        state = self.state
        return [(col, end) for col, end in self.x_by_task.get(ti, ()) if state[col] == -1]

    def bound(self):
        """Admissible upper bound on any completion of the current fixing."""
        w = self.weights
        if w is None:
            raise ValueError("the instance has no objective; install one with encode_objective")
        meta, state, obj = self.inst.meta, self.state, self.obj
        total = sum((c for col, c in obj.items() if state[col] == 1), Fraction(0))
        placed = self.placed_completions()
        if w["reward"] > 0:
            rew = sum(
                (meta.rewards[ti] for ti in self.optional if ti not in placed and self._open_x(ti)),
                Fraction(0),
            )
            total += w["reward"] * rew
        if w["energy"] > 0:
            # A required task earns no reward, so its X coefficients are
            # minus weighted energies: an open one adds its cheapest live one.
            for ti in self.required_open:
                if ti not in placed:
                    live = self._open_x(ti)
                    if not live:
                        return NEG_INF
                    total += max(obj.get(col, Fraction(0)) for col, _ in live)
        if w["makespan"] > 0:
            horizon = max(placed.values(), default=0)
            for ti in self.required_open:
                if ti not in placed:
                    live = self._open_x(ti)
                    if not live:
                        return NEG_INF
                    horizon = max(horizon, min(completion for _, completion in live))
            total -= w["makespan"] * horizon
        return total

    # -- leaves -----------------------------------------------------------

    def leaf_assignment(self) -> dict[int, int | Fraction] | None:
        """Complete a fully-branched node into an exact assignment."""
        inst = self.inst
        values: dict[int, int | Fraction] = {col: 1 for col, s in enumerate(self.state) if s == 1}
        if inst.z_col is not None:
            values[inst.z_col] = max(self.placed_completions().values(), default=0)
        if inst.meta.interference_mode and not self._complete_r(values):
            return None
        return values

    def _complete_r(self, values: dict[int, int | Fraction]) -> bool:
        """Pick bit-flow values for active transfer steps via the exact LP.

        False when some row with an R column cannot hold: a row with no
        active R is a constant and is checked at once, the others constrain
        the LP. Every row with an R column is a <= row (only the `req` rows,
        over X columns alone, are equalities).
        """
        inst = self.inst
        ub = inst.ub
        active = [
            col
            for key, col in inst.r_index.items()  # in column order
            if values.get(inst.c_index[key]) == 1 and ub[col] > 0
        ]
        var_of = {col: i for i, col in enumerate(active)}
        cons = []
        for col in active:
            cons.append(({var_of[col]: 1}, lp.LE, ub[col]))
        for ri in self.r_rows:
            row = inst.rows[ri]
            rcols = [(c, a) for c, a in row.coeffs if c in var_of]
            const = sum(a * values.get(c, 0) for c, a in row.coeffs if c not in var_of)
            if not rcols:
                if const > row.rhs:
                    return False
                continue
            coeffs = {var_of[c]: a for c, a in rcols}
            cons.append((coeffs, lp.LE, row.rhs - const))
        minimize = {var_of[c]: -self.obj[c] for c in active if self.obj.get(c)} or None
        sol = lp.solve_lp(len(active), cons, minimize=minimize)
        if sol is None:
            return False
        for col, v in zip(active, sol):
            values[col] = v
        return True

    def value_of(self, values: Mapping[int, int | Fraction]) -> Fraction:
        return sum(
            (coef * values.get(col, 0) for col, coef in self.obj.items()),
            Fraction(0),
        )


@dataclass
class _Level:
    col: int
    mark: int
    parent_bound: object
    scan_from: int
    pending0: bool = True


def _strip_idle_transfers(
    search: _Search, values: dict[int, int | Fraction]
) -> dict[int, int | Fraction]:
    """Zero objective-neutral transfer steps that no row needs.

    The 1-before-0 dive can leave transfers that deliver nothing anybody
    uses; dropping them keeps the assignment feasible and the value exact,
    and makes decoded schedules canonical. Deterministic greedy pass in
    column order.

    The assignment is feasible throughout, so zeroing a C column can break
    only the rows that fixing it to 0 tightens in the search: the rows in
    its `lo[0]` entries and the implication rows x - C <= 0. Its R column
    is checked against every row that holds it. All of these are <= rows:
    the only equalities, the `req` rows, hold X columns alone.
    """
    inst = search.inst
    rows = inst.rows
    r_rows_of: dict[int, list[int]] = defaultdict(list)
    for ri in search.r_rows:
        for col, _ in rows[ri].coeffs:
            if col >= inst.num_binary:
                r_rows_of[col].append(ri)

    def row_ok(ri: int) -> bool:
        row = rows[ri]
        return sum(a * values.get(col, 0) for col, a in row.coeffs) <= row.rhs

    for (ai, aj, ti, k), col in inst.c_index.items():  # in column order
        if not values.get(col) or inst.objective.get(col):
            continue
        rcol = inst.r_index.get((ai, aj, ti, k))
        saved_r = None
        if rcol is not None:
            if inst.objective.get(rcol):
                continue
            saved_r = values.get(rcol, 0)
            values[rcol] = 0
        values[col] = 0
        affected = [search.row_index[gi] for gi, _ in search.lo[0][col]]
        if rcol is not None:
            affected += r_rows_of.get(rcol, ())
        if any(values.get(x) for x in search.implied[0][col]) or not all(
            row_ok(ri) for ri in affected
        ):
            values[col] = 1
            if rcol is not None:
                values[rcol] = saved_r
    return values


def solve(inst: IlpInstance, seed: Schedule, budget: SolveBudget) -> SolveResult:
    """Anytime exact search, warm-started with a feasible schedule.

    The result is a pure function of (inst, seed, budget): tree policy,
    tie-breaks, and the stopping rule are all deterministic.
    """
    inc_values = assignment_from_schedule(inst, seed)
    errors = check_assignment(inst, inc_values)
    if errors:
        raise InfeasibleSeed("; ".join(errors[:5]))

    search = _Search(inst)
    inc_value = search.value_of(inc_values)

    levels: list[_Level] = []
    nodes = 0
    status = "optimal"
    branch_cols = inst.branch_cols

    def next_undecided(start: int):
        for idx in range(start, len(branch_cols)):
            if search.state[branch_cols[idx]] == -1:
                return idx
        return None

    scan_from = 0
    while True:
        if nodes >= budget.max_nodes:
            status = "budget_exhausted"
            break
        nodes += 1
        descend = False
        if search.propagate_pending():
            b = search.bound()
            if b > inc_value:
                idx = next_undecided(scan_from)
                if idx is None:
                    values = search.leaf_assignment()
                    if values is not None:
                        v = search.value_of(values)
                        if v > inc_value:
                            inc_value = v
                            inc_values = values
                else:
                    col = branch_cols[idx]
                    levels.append(_Level(col, len(search.trail), b, scan_from))
                    search.fix(col, 1)
                    scan_from = idx
                    descend = True
        if descend:
            continue
        while levels:
            lev = levels[-1]
            search.undo_to(lev.mark)
            if lev.pending0:
                lev.pending0 = False
                search.fix(lev.col, 0)
                scan_from = lev.scan_from
                break
            levels.pop()
        else:
            break

    best_bound = inc_value  # an optimal search leaves no open level
    for lev in levels:
        if lev.parent_bound != NEG_INF and lev.parent_bound > best_bound:
            best_bound = lev.parent_bound

    inc_values = _strip_idle_transfers(search, dict(inc_values))
    incumbent = decode(inst, inc_values)
    return SolveResult(
        incumbent=incumbent,
        incumbent_value=inc_value,
        best_bound=frac(best_bound),
        status=status,
        nodes_explored=nodes,
    )


def _propagated(inst: IlpInstance, fixing: Mapping[int, int]) -> _Search | None:
    """A search state with `fixing` applied and propagated; None on conflict."""
    search = _Search(inst)
    for col in sorted(fixing):
        if not search.fix(col, int(fixing[col])):
            return None
    return search if search.propagate_pending() else None


def propagate(inst: IlpInstance, fixing: Mapping[int, int]):
    """Fixpoint of bound propagation from a partial fixing, or CONFLICT.

    The returned mapping covers every binary column decided so far,
    including the ones given in `fixing`.
    """
    search = _propagated(inst, fixing)
    if search is None:
        return CONFLICT
    state = search.state
    return {col: state[col] for col in range(inst.num_binary) if state[col] != -1}


def bound(inst: IlpInstance, fixing: Mapping[int, int]):
    """Admissible upper bound under a partial fixing; -inf when infeasible."""
    search = _propagated(inst, fixing)
    return NEG_INF if search is None else search.bound()
