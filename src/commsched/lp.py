"""Tiny exact linear-program solver over rationals (two-phase simplex).

Used to decide whether per-step bit allocations exist under shared-channel
capacity caps. Problems here have at most a few dozen variables, so a dense
tableau with Bland's rule is plenty: exact, deterministic, cycle-free.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

LE = "<="
GE = ">="
EQ = "="


def solve_lp(
    num_vars: int,
    constraints: Sequence[tuple[Mapping[int, Fraction], str, Fraction]],
    minimize: Mapping[int, Fraction] | None = None,
) -> list[Fraction] | None:
    """Solve min c.x s.t. constraints, x >= 0; returns values or None.

    With minimize=None this is a pure feasibility check returning any
    feasible point (deterministically chosen).
    """
    rows = []
    senses = []
    rhs = []
    for coeffs, sense, b in constraints:
        row = [Fraction(0)] * num_vars
        for j, a in coeffs.items():
            row[j] += Fraction(a)
        b = Fraction(b)
        if b < 0:
            row = [-a for a in row]
            b = -b
            sense = {LE: GE, GE: LE, EQ: EQ}[sense]
        rows.append(row)
        senses.append(sense)
        rhs.append(b)

    m = len(rows)
    slack_cols = sum(1 for s in senses if s in (LE, GE))
    total = num_vars + slack_cols + m  # artificials for every row keep it simple

    tableau = []
    basis = []
    slack_at = num_vars
    art_at = num_vars + slack_cols
    for i in range(m):
        row = rows[i] + [Fraction(0)] * (slack_cols + m) + [rhs[i]]
        if senses[i] == LE:
            row[slack_at] = Fraction(1)
            slack_at += 1
        elif senses[i] == GE:
            row[slack_at] = Fraction(-1)
            slack_at += 1
        row[art_at + i] = Fraction(1)
        basis.append(art_at + i)
        tableau.append(row)

    def pivot(prow: int, pcol: int):
        piv = tableau[prow][pcol]
        tableau[prow] = [a / piv for a in tableau[prow]]
        for r in range(m):
            if r != prow and tableau[r][pcol] != 0:
                factor = tableau[r][pcol]
                tableau[r] = [a - factor * b for a, b in zip(tableau[r], tableau[prow])]
        basis[prow] = pcol

    def run_simplex(cost: list[Fraction], allowed: int) -> Fraction:
        """Minimize cost.x over columns [0, allowed); returns the optimum."""
        while True:
            # Reduced costs z_j - c_j under the current basis.
            duals = [cost[basis[r]] for r in range(m)]
            entering = -1
            for j in range(allowed):
                if j in basis:
                    continue
                red = cost[j] - sum(duals[r] * tableau[r][j] for r in range(m))
                if red < 0:  # Bland: first improving column
                    entering = j
                    break
            if entering < 0:
                return sum(duals[r] * tableau[r][-1] for r in range(m))
            leaving = -1
            best = None
            for r in range(m):
                a = tableau[r][entering]
                if a > 0:
                    ratio = tableau[r][-1] / a
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                        best = ratio
                        leaving = r
            if leaving < 0:
                raise ArithmeticError("LP unbounded")
            pivot(leaving, entering)

    # Phase 1: drive artificials to zero.
    cost1 = [Fraction(0)] * (total + 1)
    for j in range(art_at, art_at + m):
        cost1[j] = Fraction(1)
    opt = run_simplex(cost1, total)
    if opt > 0:
        return None
    # Pivot remaining artificials out of the basis where possible.
    for r in range(m):
        if basis[r] >= art_at:
            for j in range(art_at):
                if tableau[r][j] != 0:
                    pivot(r, j)
                    break

    if minimize:
        cost2 = [Fraction(0)] * (total + 1)
        for j, c in minimize.items():
            cost2[j] = Fraction(c)
        run_simplex(cost2, art_at)

    values = [Fraction(0)] * num_vars
    for r in range(m):
        if basis[r] < num_vars:
            values[basis[r]] = tableau[r][-1]
    return values
