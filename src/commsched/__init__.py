"""Communication-aware computation task scheduling for agent networks.

A library for optimally placing interdependent computation tasks across
heterogeneous agents connected by time-varying, bandwidth-limited links:
an exact 0/1 encoding, a deterministic anytime branch-and-bound solver
with a brute-force oracle, a selfish baseline, a distributed
broadcast-plan-execute simulator, and scenario tooling.
"""

from .model import (
    AgentProfile,
    CommEvent,
    ContactGraph,
    CyclicDependency,
    FORBIDDEN,
    INFEASIBLE,
    Horizon,
    HorizonOverflow,
    InterferenceSet,
    Objective,
    Placement,
    ProblemInstance,
    Schedule,
    SoftwareNetwork,
    Task,
    ValidationReport,
    comm_duration,
    check_schedule,
    discretize_cost,
    frac,
    schedule_from_text,
    validate_problem,
)
from .encoder import (
    IlpInstance,
    InfeasibleAssignment,
    InfeasibleHorizon,
    assignment_from_schedule,
    check_assignment,
    decode,
    encode,
    encode_objective,
    export_lp,
)
from .solver import (
    CONFLICT,
    InfeasibleSeed,
    SolveBudget,
    SolveResult,
    bound,
    propagate,
    solve,
)
from .oracle import TooLarge, brute_force
from .baseline import ComparisonMetrics, compare, selfish_schedule

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
