"""End-to-end orchestration: validate, elicit per cell, solve, report."""

from dataclasses import dataclass

import numpy as np

from .elicit_continuous import cumulative_utilities, elicit_continuous
from .elicit_discrete import elicit_discrete
from .exceptions import InfeasibleContext, NumericFailure
from .model import load_document
from .solver import WeightSolution, solve_gopa, solve_opa
from .structures import surrogate_weights, target_density


def elicit_utilities(problem, context, structures, bound_mode="equality"):
    """Run the first stage for every cell.

    Returns ``(i, j) -> `` the cell's per-rank utility vector.  Cells that
    share their validated (structure, size, context) are solved once per call
    and get the same read-only array.  Errors from a cell are re-raised with
    the first offending cell (in ``problem.cells()`` order) named.
    """
    # local to the call: a process-wide cache would grow with every document
    solved = {}
    utilities = {}
    for i, j in problem.cells():
        key = (structures.cell(i, j), int(problem.max_rank[i, j]), context.cell(i, j))
        u = solved.get(key)
        if u is None:
            try:
                u = solved[key] = elicit_cell(*key, bound_mode)[0]
            except (InfeasibleContext, NumericFailure) as exc:
                eid, aid = problem.expert_ids[i], problem.attribute_ids[j]
                raise type(exc)(f"cell ({eid}, {aid}): {exc}") from exc
        utilities[(i, j)] = u
    return utilities


def elicit_cell(structure, size, ctx, bound_mode="equality"):
    """First stage of one cell: ``(utilities, density)``.

    The utilities are read-only, nonincreasing in rank and sum to 1.  A
    discrete structure projects its surrogate weights and has no density; a
    continuous one solves its `PiecewiseDensity` and maps it to ranks with
    `cumulative_utilities`.
    """
    if structure.is_discrete:
        u = elicit_discrete(surrogate_weights(structure, size), ctx, size)
        density = None
    else:
        density = elicit_continuous(target_density(structure, size), ctx, size,
                                    bound_mode=bound_mode)
        u = cumulative_utilities(density)
    u.setflags(write=False)
    return u, density


def solve_document(doc, method="gopa", bound_mode="equality"):
    """Validate a document and run the selected pipeline; returns the `WeightSolution`.

    ``method="opa"`` ignores contexts and structures and uses rankings alone;
    ``method="gopa"`` elicits utilities per cell first (they are in
    ``solution.utilities``).
    """
    problem, context, structures = load_document(doc)
    if method == "opa":
        return solve_opa(problem)
    if method != "gopa":
        raise ValueError(f"unknown method {method!r}")
    return solve_gopa(problem, elicit_utilities(problem, context, structures,
                                                bound_mode=bound_mode))


def solution_report(solution, method, bound_mode="equality"):
    """Serialize a solution into the report document consumed downstream.

    ``bound_mode`` is written only into a report that holds utilities.
    """
    p = solution.problem
    report = {
        "kind": "solution",
        "method": method,
        "objective": solution.objective,
        "ids": {
            "experts": list(p.expert_ids),
            "attributes": list(p.attribute_ids),
            "alternatives": list(p.alternative_ids),
        },
        "experts": dict(zip(p.expert_ids, solution.expert_weights.tolist())),
        "attributes": dict(zip(p.attribute_ids, solution.attribute_weights.tolist())),
        "alternatives": dict(zip(p.alternative_ids, solution.alternative_weights.tolist())),
        "cell_weights": {
            eid: {aid: {mid: w for mid, w, rank in zip(p.alternative_ids, w_ij, r_ij) if rank > 0}
                  for aid, w_ij, r_ij in zip(p.attribute_ids, w_i, r_i)}
            for eid, w_i, r_i in zip(p.expert_ids, solution.weights.tolist(),
                                     p.alternative_ranks.tolist())
        },
        "rank_weights": _by_cell(p, solution.rank_weights),
        "flags": {
            "gap_free": bool(p.gap_free),
            "has_exclusions": bool(solution.exclusions_flagged),
            "weight_sums": {
                "experts": float(solution.expert_weights.sum()),
                "attributes": float(solution.attribute_weights.sum()),
                "alternatives": float(solution.alternative_weights.sum()),
            },
        },
    }
    if solution.utilities is not None:
        report["bound_mode"] = bound_mode
        report["utilities"] = _by_cell(p, solution.utilities)
    return report


def _by_cell(problem, padded):
    """Nested ``expert id -> attribute id -> list`` of a padded (I, J, K) array's cells."""
    return {eid: {aid: padded[i, j, :problem.max_rank[i, j]].tolist()
                  for j, aid in enumerate(problem.attribute_ids)}
            for i, eid in enumerate(problem.expert_ids)}


@dataclass(frozen=True)
class _Ids:
    expert_ids: tuple
    attribute_ids: tuple
    alternative_ids: tuple

    @property
    def n_experts(self):
        return len(self.expert_ids)

    @property
    def n_attributes(self):
        return len(self.attribute_ids)

    @property
    def n_alternatives(self):
        return len(self.alternative_ids)


def report_to_solution(report):
    """Rebuild a weight solution from a report document (for diagnostics)."""
    ids = report["ids"]
    shim = _Ids(tuple(ids["experts"]), tuple(ids["attributes"]), tuple(ids["alternatives"]))
    cells = report["cell_weights"]
    values = [cells[eid][aid].get(mid, 0.0) for eid in shim.expert_ids
              for aid in shim.attribute_ids for mid in shim.alternative_ids]
    weights = np.array(values, dtype=float).reshape(len(shim.expert_ids), len(shim.attribute_ids), -1)
    # by type too: np.array(..., dtype=float) reads a text "0.5" or true as a number
    if not set(map(type, values)) <= {int, float} or not np.isfinite(weights).all():
        raise ValueError("cell weights must be finite numbers")
    return WeightSolution(
        problem=shim,
        objective=float(report["objective"]),
        rank_weights=None,
        weights=weights,
        expert_weights=weights.sum(axis=(1, 2)),
        attribute_weights=weights.sum(axis=(0, 2)),
        alternative_weights=weights.sum(axis=(0, 1)),
    )
