"""Build a problem by hand, validate it, and inspect its 0/1 encoding.

Two agents share one dependency chain: a0 produces a data product that a1
can consume much faster than a0 itself. We check admissibility, look at the
variable layout, and export the program in LP format.
"""

from commsched import (
    AgentProfile,
    ContactGraph,
    Horizon,
    Objective,
    ProblemInstance,
    SoftwareNetwork,
    Task,
    encode,
    encode_objective,
    export_lp,
    validate_problem,
)

# A tiny software network: `gen` emits 8 bits that `use` needs.
network = SoftwareNetwork(
    [
        Task("gen", required=True, product_size=8),
        Task("use", required=True, predecessors={"gen"}),
    ]
)

# a0 can do everything but is slow at `use`; a1 only offers `use`.
a0 = AgentProfile("a0", compute_time={"gen": 1, "use": 4}, compute_energy={"gen": 1, "use": 4})
a1 = AgentProfile("a1", compute_time={"use": 1}, compute_energy={"use": 1})

# One directed link, 8 bits/second, available the whole horizon.
contacts = ContactGraph({("a0", "a1", k): 8 for k in range(8)})

problem = ProblemInstance(
    network=network,
    agents=(a0, a1),
    contacts=contacts,
    horizon=Horizon(wall_clock_s=8, num_steps=8),
    objective=Objective.makespan(),
)

report = validate_problem(problem)
print("admissible:", report.ok)

instance = encode_objective(problem, problem.objective, encode(problem))
print("binary variables:", instance.num_binary)
print("rows:", len(instance.rows))
print("first columns:", list(instance.variables[:6]))

lp_text = export_lp(instance)
print("\n--- LP head ---")
print("\n".join(lp_text.splitlines()[:12]))
