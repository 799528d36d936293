"""Weights from rankings alone.

Builds a clean instance with 3 experts, 5 attributes, and 10 alternatives,
solves it in closed form, cross-checks the objective against the explicit
linear program, and shows how each expert's alternative weights factor into
an expert weight times a rank-based net utility.
"""

import numpy as np

from gopa import (
    build_opa_lp,
    decompose,
    solve_lp,
    solve_opa,
    validate_problem,
)

rng = np.random.default_rng(2024)

experts = [{"id": f"E{i}", "rank": i} for i in (1, 2, 3)]
attributes = [f"C{j}" for j in range(1, 6)]
alternatives = [f"A{k}" for k in range(1, 11)]

doc = {
    "experts": experts,
    "attributes": attributes,
    "alternatives": alternatives,
    "attribute_ranks": {
        e["id"]: {a: int(r) for a, r in zip(attributes, rng.permutation(5) + 1)}
        for e in experts
    },
    "alternative_ranks": {
        e["id"]: {a: {m: int(r) for m, r in zip(alternatives, rng.permutation(10) + 1)}
                  for a in attributes}
        for e in experts
    },
}

problem = validate_problem(doc)
solution = solve_opa(problem)

print("objective z* =", solution.objective)
h3 = sum(1 / p for p in range(1, 4))
h5 = sum(1 / q for q in range(1, 6))
print("closed form  =", 1 / (10 * h3 * h5))

lp = solve_lp(build_opa_lp(problem))
print(f"simplex      = {lp.value}   (|delta| = {abs(lp.value - solution.objective):.2e})")

print("\nexpert weights   :", np.round(solution.expert_weights, 4))
print("attribute weights:", np.round(solution.attribute_weights, 4))
print("alternative weights:")
for name, w in zip(alternatives, solution.alternative_weights):
    print(f"  {name:4s} {w:.4f}")

expert_w, net = decompose(solution)
print("\nnet utility by rank (identical for every expert):")
print(np.round(net[0], 4))

per_rank = solution.rank_weights.sum(axis=1)
print("product check |w_ir - W_i u_ir| =",
      f"{np.abs(expert_w[:, None] * net - per_rank).max():.2e}")
