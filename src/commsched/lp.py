"""Tiny exact linear-program solver: a two-phase simplex on an integer tableau.

Used to decide whether per-step bit allocations exist under shared-channel
capacity caps, and to pick them. Problems here have at most a few dozen
variables, so a dense tableau with Bland's rule is plenty: exact and
cycle-free.

Each tableau row is a list of Python `int` numerators over one positive row
denominator. After every pivot a row is divided by the gcd of its numerators
and its denominator, which keeps the integers small. Signs and ratio tests
read numerators alone, because a row's denominator cancels out of both. The
reduced-cost row is one more row of the same kind: it is built once per
phase and then updated by each pivot, so pricing is a scan for the first
negative entry. A pivot subtracts the pivot row only at its nonzero columns.

The point returned is part of the program's output: the vertex becomes the
R (bit-flow) values of decoded schedules, which the golden digests pin. The
tableau layout (the variables, then one slack per inequality row, then one
artificial per row), Bland's first improving column, the leaving-row
tie-break on the lowest basis index, the pass that drives the remaining
artificials out after phase 1, and phase 2 on `minimize` together fix that
vertex. Any exact arithmetic that keeps all five walks the same pivots to
the same point; changing one of them can move it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

LE = "<="
GE = ">="
EQ = "="

_FLIPPED = {LE: GE, GE: LE, EQ: EQ}


def _check_indices(coeffs: Mapping[int, object], num_vars: int) -> None:
    for j in coeffs:
        if not 0 <= j < num_vars:
            raise ValueError(f"LP coefficient index {j!r} is outside 0..{num_vars - 1}")


def _integer_row(coeffs: Mapping[int, Fraction], width: int) -> tuple[list[int], int]:
    """The numerators of `coeffs` as a row of `width` over their least common denominator."""
    terms = {j: Fraction(a) for j, a in coeffs.items()}
    den = lcm(*(a.denominator for a in terms.values()))
    row = [0] * width
    for j, a in terms.items():
        row[j] = a.numerator * (den // a.denominator)
    return row, den


def _nonzero(row: list[int]) -> list[tuple[int, int]]:
    return [(j, a) for j, a in enumerate(row) if a]


def _eliminate(
    row: list[int], den: int, col: int, pivot_terms: list[tuple[int, int]], pivot_den: int
) -> tuple[list[int], int]:
    """row/den minus row[col]/den times the pivot row, whose entry at col is 1.

    The pivot row is given by its nonzero numerators over `pivot_den`. The
    row is scaled only by the part of `pivot_den` that row[col] does not
    cancel; when nothing is left, only the pivot row's nonzero columns
    change, in place.
    """
    f = row[col]
    h = gcd(f, pivot_den)
    scale, f = pivot_den // h, f // h
    if scale != 1:
        row = [a * scale for a in row]
        den *= scale
    for j, a in pivot_terms:
        row[j] -= f * a
    g = gcd(den, *row)
    if g > 1:
        row = [a // g for a in row]
        den //= g
    return row, den


def solve_lp(
    num_vars: int,
    constraints: Sequence[tuple[Mapping[int, Fraction], str, Fraction]],
    minimize: Mapping[int, Fraction] | None = None,
) -> list[Fraction] | None:
    """Solve min c.x s.t. constraints, x >= 0; returns values or None.

    With minimize=None this is a pure feasibility check returning any
    feasible point (deterministically chosen). Raises ArithmeticError when
    the minimum is unbounded, and ValueError for a sense other than LE, GE
    and EQ or a coefficient index outside range(num_vars).
    """
    for coeffs, sense, _ in constraints:
        if sense not in _FLIPPED:
            raise ValueError(f"unknown LP constraint sense {sense!r}")
        _check_indices(coeffs, num_vars)
    if minimize:
        _check_indices(minimize, num_vars)

    m = len(constraints)
    slack_cols = sum(sense != EQ for _, sense, _ in constraints)
    art_at = num_vars + slack_cols  # artificials for every row keep it simple
    total = art_at + m
    width = total + 1  # the right-hand side is the last column

    tableau: list[list[int]] = []
    dens: list[int] = []
    basis: list[int] = []
    slack_at = num_vars
    for i, (coeffs, sense, b) in enumerate(constraints):
        b = Fraction(b)
        row, den = _integer_row({**coeffs, total: b}, width)
        if b < 0:
            row = [-a for a in row]
            sense = _FLIPPED[sense]
        if sense != EQ:
            row[slack_at] = den if sense == LE else -den
            slack_at += 1
        row[art_at + i] = den
        tableau.append(row)
        dens.append(den)
        basis.append(art_at + i)

    def pivot(prow: int, pcol: int) -> list[tuple[int, int]]:
        """Make pcol basic in prow; returns the new pivot row's nonzero terms."""
        row = tableau[prow]
        if row[pcol] < 0:
            row = [-a for a in row]
        g = gcd(*row)
        if g > 1:
            row = [a // g for a in row]
        tableau[prow], dens[prow], basis[prow] = row, row[pcol], pcol
        terms = _nonzero(row)
        for r in range(m):
            if r != prow and tableau[r][pcol]:
                tableau[r], dens[r] = _eliminate(tableau[r], dens[r], pcol, terms, row[pcol])
        return terms

    def run_simplex(cost: Mapping[int, Fraction], allowed: int) -> int:
        """Minimize cost.x over columns [0, allowed); returns the optimum's numerator."""
        # Reduced costs c_j - z_j under the current basis, kept up to date by each pivot.
        z, zden = _integer_row(cost, width)
        for r, col in enumerate(basis):
            if z[col]:
                z, zden = _eliminate(z, zden, col, _nonzero(tableau[r]), dens[r])
        while True:
            entering = next((j for j in range(allowed) if z[j] < 0), -1)  # Bland
            if entering < 0:
                return -z[-1]
            leaving = -1
            for r in range(m):
                a = tableau[r][entering]
                if a > 0:
                    b = tableau[r][-1]
                    if leaving >= 0:
                        # b/a against best_b/best_a: both denominators are positive.
                        this, best = b * best_a, best_b * a
                        if this > best or (this == best and basis[r] > basis[leaving]):
                            continue
                    best_b, best_a, leaving = b, a, r
            if leaving < 0:
                raise ArithmeticError("LP unbounded")
            terms = pivot(leaving, entering)
            z, zden = _eliminate(z, zden, entering, terms, dens[leaving])

    # Phase 1: drive artificials to zero.
    if run_simplex({j: 1 for j in range(art_at, total)}, total) > 0:
        return None
    # Pivot remaining artificials out of the basis where possible.
    for r in range(m):
        if basis[r] >= art_at:
            for j in range(art_at):
                if tableau[r][j] != 0:
                    pivot(r, j)
                    break

    if minimize:
        run_simplex(minimize, art_at)

    values = [Fraction(0)] * num_vars
    for r, col in enumerate(basis):
        if col < num_vars:
            values[col] = Fraction(tableau[r][-1], dens[r])
    return values
