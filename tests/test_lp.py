"""Exact rational LP feasibility/optimization used for bit-flow allocation.

`LP_SHA256` pins `solve_lp`'s output on a seeded corpus of small LPs: the
point it returns, None, or "unbounded". The vertex it picks becomes the bit
flows of decoded schedules, so a change to the arithmetic must keep every
pivot and with it this digest.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from commsched import lp


def F(*args):
    return Fraction(*args)


class TestFeasibility:
    def test_trivially_feasible(self):
        sol = lp.solve_lp(2, [({0: F(1), 1: F(1)}, lp.LE, F(4))])
        assert sol is not None
        assert sol[0] + sol[1] <= 4

    def test_infeasible_lower_bound(self):
        cons = [
            ({0: F(1)}, lp.LE, F(2)),
            ({0: F(1)}, lp.GE, F(3)),
        ]
        assert lp.solve_lp(1, cons) is None

    def test_shared_capacity_split(self):
        # Two demands of 2 each over one shared cap of 4: feasible exactly.
        cons = [
            ({0: F(1)}, lp.GE, F(2)),
            ({1: F(1)}, lp.GE, F(2)),
            ({0: F(1), 1: F(1)}, lp.LE, F(4)),
        ]
        sol = lp.solve_lp(2, cons)
        assert sol is not None
        assert sol[0] >= 2 and sol[1] >= 2 and sol[0] + sol[1] <= 4

    def test_shared_capacity_infeasible(self):
        cons = [
            ({0: F(1)}, lp.GE, F(3)),
            ({1: F(1)}, lp.GE, F(2)),
            ({0: F(1), 1: F(1)}, lp.LE, F(4)),
        ]
        assert lp.solve_lp(2, cons) is None

    def test_equality_rows(self):
        cons = [
            ({0: F(2), 1: F(1)}, lp.EQ, F(5)),
            ({0: F(1)}, lp.LE, F(2)),
        ]
        sol = lp.solve_lp(2, cons)
        assert sol is not None
        assert 2 * sol[0] + sol[1] == 5

    def test_exact_rationals(self):
        cons = [({0: F(1, 3)}, lp.GE, F(1, 7))]
        sol = lp.solve_lp(1, cons)
        assert sol is not None
        assert sol[0] * Fraction(1, 3) >= Fraction(1, 7)


class TestOptimization:
    def test_minimize_picks_cheapest_mix(self):
        cons = [({0: F(1), 1: F(1)}, lp.GE, F(4)), ({0: F(1)}, lp.LE, F(3))]
        sol = lp.solve_lp(2, cons, minimize={0: F(1), 1: F(2)})
        assert sol is not None
        assert sol[0] * 1 + sol[1] * 2 == 5  # x0=3 (cheap), x1=1

    def test_deterministic(self):
        cons = [
            ({0: F(1)}, lp.GE, F(2)),
            ({1: F(1)}, lp.GE, F(2)),
            ({0: F(1), 1: F(1)}, lp.LE, F(5)),
        ]
        assert lp.solve_lp(2, cons) == lp.solve_lp(2, cons)


class TestMalformedRows:
    def test_unknown_sense_is_rejected(self):
        with pytest.raises(ValueError, match="sense"):
            lp.solve_lp(1, [({0: F(1)}, "<", F(2))])
        with pytest.raises(ValueError, match="sense"):
            lp.solve_lp(1, [({0: F(1)}, "<", F(-2))])

    @pytest.mark.parametrize("index", [-1, 2])
    def test_coefficient_index_outside_the_variables_is_rejected(self, index):
        with pytest.raises(ValueError, match="index"):
            lp.solve_lp(2, [({0: F(1), index: F(1)}, lp.LE, F(4))])
        with pytest.raises(ValueError, match="index"):
            lp.solve_lp(2, [({0: F(1)}, lp.LE, F(4))], minimize={index: F(1)})


LP_SHA256 = "f38724e9328ffbee24d4129121a5f9513f91601efbff4b380647f161f57368ce"


def lp_corpus(seed: int = 12, count: int = 2000):
    """Random LPs: 1-5 variables, 1-6 rows of each sense, fractional data.

    Half are built around a point they admit, so feasible LPs are common;
    the other half draw right-hand sides freely, negative ones included.
    Three in four add a `<=` bound row per variable; the rest may be
    unbounded under `minimize`, which half of them carry.
    """
    rng = random.Random(seed)

    def frac(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 4))

    for _ in range(count):
        n = rng.randint(1, 5)
        point = [frac(0, 8) for _ in range(n)] if rng.random() < 0.5 else None
        cons = []
        for _ in range(rng.randint(1, 6)):
            coeffs = {j: frac(-4, 6) for j in range(n) if rng.random() < 0.6}
            sense = rng.choice((lp.LE, lp.GE, lp.EQ))
            if point is None:
                b = frac(-4, 12)
            else:
                b = sum((a * point[j] for j, a in coeffs.items()), Fraction(0))
                b += {lp.LE: frac(0, 3), lp.GE: -frac(0, 3), lp.EQ: 0}[sense]
            cons.append((coeffs, sense, b))
        if rng.random() < 0.75:
            cons += [
                ({j: 1}, lp.LE, frac(0, 12) if point is None else point[j] + frac(0, 4))
                for j in range(n)
            ]
        minimize = None
        if rng.random() < 0.5:
            minimize = {j: frac(-5, 5) for j in range(n) if rng.random() < 0.7}
        yield n, cons, minimize


def test_corpus_matches_lp_digest():
    h = hashlib.sha256()
    for n, cons, minimize in lp_corpus():
        try:
            sol = lp.solve_lp(n, cons, minimize=minimize)
        except ArithmeticError:
            line = "unbounded"
        else:
            line = "None" if sol is None else ",".join(map(str, sol))
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == LP_SHA256


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def lps(draw):
    n = draw(st.integers(1, 4))
    row = st.tuples(
        st.dictionaries(st.integers(0, n - 1), rationals, max_size=n),
        st.sampled_from((lp.LE, lp.GE, lp.EQ)),
        rationals,
    )
    cons = draw(st.lists(row, min_size=1, max_size=5))
    minimize = draw(st.none() | st.dictionaries(st.integers(0, n - 1), rationals, max_size=n))
    return n, cons, minimize


@given(case=lps())
@settings(max_examples=300, deadline=None)
def test_returned_points_satisfy_every_row_exactly(case):
    n, cons, minimize = case
    try:
        sol = lp.solve_lp(n, cons, minimize=minimize)
    except ArithmeticError:
        assert minimize  # a feasibility check is never unbounded
        return
    if sol is None:
        return
    assert len(sol) == n
    assert all(type(v) is Fraction and v >= 0 for v in sol)
    for coeffs, sense, b in cons:
        lhs = sum((a * sol[j] for j, a in coeffs.items()), Fraction(0))
        assert {lp.LE: lhs <= b, lp.GE: lhs >= b, lp.EQ: lhs == b}[sense]
