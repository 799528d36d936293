"""Analytical solutions against the simplex, plus the efficiency certificate.

The closed-form weights must coincide with the optimum of the explicit linear
program on any instance, including ones with duplicate or missing ranks.  The
second stage floors every marginal slack at the first-stage optimum z*: the
ordinal weights reach it with every slack at z*, and a Farkas dual point
bounds the least slack of any normalized weights by z*, so asking for 10%
more is infeasible.  The certificate checks both points on the program's rows.
"""

import numpy as np

from gopa import (
    build_gopa_lp,
    build_opa_lp,
    solve_gopa,
    solve_lp,
    solve_opa,
    surrogate_weights,
    validate_problem,
    verify_efficiency,
)

rng = np.random.default_rng(3)

print("formula vs simplex on ten random instances:")
for n in range(10):
    n_e, n_a, n_m = rng.integers(1, 4), rng.integers(1, 4), rng.integers(2, 7)
    experts = [{"id": f"E{i+1}", "rank": int(r)}
               for i, r in enumerate(rng.permutation(n_e) + 1)]
    attributes = [f"C{j+1}" for j in range(n_a)]
    alternatives = [f"A{k+1}" for k in range(n_m)]
    doc = {
        "experts": experts,
        "attributes": attributes,
        "alternatives": alternatives,
        "attribute_ranks": {e["id"]: {a: int(r) for a, r in
                                      zip(attributes, rng.permutation(n_a) + 1)}
                            for e in experts},
        "alternative_ranks": {e["id"]: {a: {m: int(r) for m, r in
                                            zip(alternatives, rng.permutation(n_m) + 1)}
                                        for a in attributes}
                              for e in experts},
    }
    problem = validate_problem(doc)
    sol = solve_opa(problem)
    lp = solve_lp(build_opa_lp(problem))
    # padded (I, J, K) utilities; every cell ranks all n_m alternatives, so none is padded
    utilities = np.tile(surrogate_weights("sr", int(n_m)), (n_e, n_a, 1))
    gsol = solve_gopa(problem, utilities)
    glp = solve_lp(build_gopa_lp(problem, utilities))
    print(f"  {n_e}x{n_a}x{n_m}: |dz| = {abs(sol.objective - lp.value):.2e}"
          f"   |dz| with utilities = {abs(gsol.objective - glp.value):.2e}")

print("\nduplicate ranks are handled by the frequency-weighted normalization:")
doc = {
    "experts": [{"id": "E1", "rank": 1}],
    "attributes": ["C1"],
    "alternatives": ["A1", "A2", "A3", "A4"],
    "attribute_ranks": {"E1": {"C1": 1}},
    "alternative_ranks": {"E1": {"C1": {"A1": 1, "A2": 2, "A3": 2, "A4": 3}}},
}
problem = validate_problem(doc)
sol = solve_opa(problem)
lp = solve_lp(build_opa_lp(problem))
print(f"  z* formula = {sol.objective:.6f}, simplex = {lp.value:.6f}")
print("  tied alternatives share a weight:", np.round(sol.weights[0, 0], 4).tolist())

delta, bound = verify_efficiency(sol)
print(f"\nefficiency certificate: residual = {delta:.2e}, "
      f"largest least slack = {bound:.6f} (z* = {sol.objective:.6f})")
print(f"inflated target 1.1 z* = {1.1 * sol.objective:.6f} rejected: "
      f"{1.1 * sol.objective > bound}")
