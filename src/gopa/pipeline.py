"""End-to-end orchestration: validate, elicit per cell, solve, report."""

from dataclasses import dataclass

import numpy as np

from .elicit_continuous import cumulative_utilities, elicit_continuous
from .elicit_discrete import elicit_discrete
from .exceptions import InfeasibleContext, NumericFailure
from .model import load_document
from .solver import WeightSolution, solve_gopa, solve_opa
from .structures import surrogate_weights, target_density


def elicit_utilities(problem, context, structures, orientation="reversed",
                     bound_mode="equality"):
    """Run the first stage for every cell.

    Returns
    -------
    (utilities, densities)
        ``utilities`` maps ``(i, j)`` to the per-rank utility vector;
        ``densities`` holds the solved ``PiecewiseDensity`` of continuous
        cells for inspection.

    Errors from a cell are re-raised with the offending cell named.
    """
    utilities = {}
    densities = {}
    for i, j in problem.cells():
        eid = problem.expert_ids[i]
        aid = problem.attribute_ids[j]
        kij = int(problem.max_rank[i, j])
        ctx = context.cell(i, j)
        structure = structures.cell(i, j)
        try:
            if structure.is_discrete:
                target = surrogate_weights(structure, kij)
                utilities[(i, j)] = elicit_discrete(target, ctx, kij)
            else:
                density = elicit_continuous(target_density(structure, kij), ctx, kij,
                                            bound_mode=bound_mode)
                densities[(i, j)] = density
                utilities[(i, j)] = cumulative_utilities(density, orientation=orientation)
        except (InfeasibleContext, NumericFailure) as exc:
            raise type(exc)(f"cell ({eid}, {aid}): {exc}") from exc
    return utilities, densities


def solve_document(doc, method="gopa", orientation="reversed", bound_mode="equality"):
    """Validate a document and run the selected pipeline.

    ``method="opa"`` ignores contexts and structures and uses rankings alone;
    ``method="gopa"`` elicits utilities per cell first.

    Returns
    -------
    (solution, utilities, densities)
    """
    problem, context, structures = load_document(doc)
    if method == "opa":
        return solve_opa(problem), None, {}
    if method != "gopa":
        raise ValueError(f"unknown method {method!r}")
    utilities, densities = elicit_utilities(problem, context, structures,
                                            orientation=orientation, bound_mode=bound_mode)
    return solve_gopa(problem, utilities), utilities, densities


def solution_report(solution, method, orientation="reversed", bound_mode="equality"):
    """Serialize a solution into the report document consumed downstream."""
    p = solution.problem
    report = {
        "kind": "solution",
        "method": method,
        "orientation": orientation,
        "bound_mode": bound_mode,
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
