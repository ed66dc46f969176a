"""Golden digest over LP exports and solve results: the refactor gate.

A change that keeps this digest keeps every encoding, every search tree and
every decoded schedule on the corpus byte-identical. A change that alters
any of them on purpose must pin the new digest and say why.
"""

import hashlib
from dataclasses import replace
from fractions import Fraction

from commsched import Objective, SolveBudget, encode, encode_objective, export_lp, solve
from commsched.baseline import selfish_schedule
from commsched.scenarios import canned_scenario

from helpers import interference_instance, random_instance

GOLDEN_SHA256 = "1f01ef356a83cc363cdedf695598cc24f336b1c7d5cde62132b20227cc5939ce"

CANNED = ("relay", "science_cluster", "assembly_line", "data_mule")
OBJECTIVES = (Objective.reward, Objective.makespan, Objective.energy)


def corpus():
    """(problem, interference mode, node budget) in digest order."""
    for name in CANNED:
        for make in OBJECTIVES:
            for interference in (False, True):
                p = replace(canned_scenario(name).to_problem(), objective=make())
                yield p, interference, 300
    for seed in range(30):
        yield random_instance(seed), False, 2000
        yield interference_instance(seed), True, 2000


def test_exports_and_results_match_golden_digest():
    h = hashlib.sha256()
    for p, interference, nodes in corpus():
        inst = encode_objective(p, p.objective, encode(p, interference=interference))
        h.update(export_lp(inst).encode())
        res = solve(inst, selfish_schedule(p, mode="storage_excepted"), SolveBudget(nodes))
        h.update(res.to_text(p).encode())
        assert type(res.incumbent_value) is Fraction
        assert type(res.best_bound) is Fraction
        assert type(res.incumbent.objective_value) is Fraction
    assert h.hexdigest() == GOLDEN_SHA256
