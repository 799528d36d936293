"""Closed-form second-stage weight solvers and aggregation.

Both solvers share the same shape: per-cell rank coefficients divided by the
expert and attribute ranking products, normalized through the objective value
``z*``.  The ordinal solver uses harmonic tail sums as coefficients; the
generalized solver consumes per-cell utility vectors from the first stage.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DecompositionUnsupported, UtilityShapeError
from .model import pack_utilities

UTILITY_TOL = 1e-8   # slack of the sum, sign and monotonicity checks on utilities


@dataclass(frozen=True)
class WeightSolution:
    """Optimal decision weights for one problem; all arrays are read-only.

    ``rank_weights[i, j, r - 1]`` is the weight of rank ``r`` in cell (i, j)
    and ``utilities`` (generalized solver only) the cell's utility of rank
    ``r``, both padded with 0 beyond ``max_rank[i, j]`` (see
    `RankingProblem.rank_mask`).  ``weights[i, j, k]`` holds the mapped
    per-alternative weights (0 where the alternative is excluded in that
    cell).  Aggregates are marginal sums.
    """

    problem: object
    objective: float
    rank_weights: np.ndarray
    weights: np.ndarray
    expert_weights: np.ndarray
    attribute_weights: np.ndarray
    alternative_weights: np.ndarray
    utilities: np.ndarray = None
    exclusions_flagged: bool = False

    def __post_init__(self):
        for array in (self.rank_weights, self.weights, self.expert_weights,
                      self.attribute_weights, self.alternative_weights, self.utilities):
            if array is not None:
                array.setflags(write=False)

    def expert_attribute_weights(self):
        """Matrix of per-(expert, attribute) weights, summed over alternatives."""
        return self.weights.sum(axis=2)

    def expert_alternative_weights(self):
        """Matrix of per-(expert, alternative) weights, summed over attributes."""
        return self.weights.sum(axis=1)


def harmonic_coefficients(problem):
    """Padded ordinal coefficients: each cell's harmonic tail sums, built for
    its own length (differences of one long cumulative sum round differently)."""
    coefficients = np.zeros(problem.rank_counts.shape)
    for kij in np.unique(problem.max_rank):
        tail = np.cumsum(1.0 / np.arange(kij, 0, -1.0))[::-1]
        coefficients[problem.max_rank == kij, :kij] = tail
    return coefficients


def rank_products(problem):
    """Per-cell products ``t_i * s_ij`` of expert and attribute ranks, as floats.

    The ranks are converted before they are multiplied: an int64 product
    wraps silently once it reaches 2**63.
    """
    return problem.expert_ranks.astype(float)[:, None] * problem.attribute_ranks


def _assemble(problem, coefficients, utilities=None):
    """Common assembly of padded coefficients: z*, per-rank weights, mapping, aggregation."""
    ts = rank_products(problem)
    products = problem.rank_counts * coefficients
    cell_sums = np.empty(ts.shape)
    # numpy sums pairwise, so padding a cell's ranks, or summing the cells in
    # one call, would regroup the additions and move last digits of z*:
    # each cell is summed over its own ranks, the cells one after another
    for kij in np.unique(problem.max_rank):
        cells = problem.max_rank == kij
        cell_sums[cells] = products[cells, :kij].sum(axis=1)
    z_star = 1.0 / np.cumsum(cell_sums / ts)[-1]
    rank_weights = coefficients * z_star / ts[..., None]

    ranks = problem.alternative_ranks
    mapped = np.take_along_axis(rank_weights, np.maximum(ranks - 1, 0), axis=2)
    weights = np.where(ranks > 0, mapped, 0.0)
    return WeightSolution(
        problem=problem,
        objective=z_star,
        rank_weights=rank_weights,
        weights=weights,
        expert_weights=weights.sum(axis=(1, 2)),
        attribute_weights=weights.sum(axis=(0, 2)),
        alternative_weights=weights.sum(axis=(0, 1)),
        utilities=utilities,
        exclusions_flagged=bool((ranks == 0).any()),
    )


def solve_opa(problem):
    """Closed-form ordinal weights from rankings alone.

    Cell coefficients are the harmonic tail sums over ranks, which makes the
    per-alternative weights proportional to rank order centroid weights when
    expert and attribute importance is equal.
    """
    return _assemble(problem, harmonic_coefficients(problem))


def solve_gopa(problem, utilities):
    """Closed-form weights for elicited per-cell utilities.

    Parameters
    ----------
    problem : RankingProblem
    utilities : dict
        ``(i, j) -> ndarray`` of per-rank utilities, normalized to sum 1 and
        nonincreasing in rank.

    Raises
    ------
    UtilityShapeError
        If a cell's utilities are missing, not normalized, or increase with
        rank beyond `UTILITY_TOL`.
    """
    u = pack_utilities(problem, utilities)
    sums = u.sum(axis=2)
    # padding holds 0: it adds nothing to a sum and cannot rise after a cell's last rank
    for failed, message in ((np.abs(sums - 1.0) > UTILITY_TOL, "utilities sum to {:.12g}"),
                            ((u < -UTILITY_TOL).any(axis=2), "utilities must be nonnegative"),
                            ((np.diff(u, axis=2) > UTILITY_TOL).any(axis=2),
                             "utilities increase with rank")):
        if failed.any():
            i, j = np.argwhere(failed)[0]
            raise UtilityShapeError(f"cell ({i}, {j}) " + message.format(sums[i, j]))
    return _assemble(problem, problem.max_rank[..., None] * u, utilities=u)


def decompose(solution):
    """Split per-(expert, rank) weights into expert weight times net utility.

    Returns
    -------
    (expert_weights, net_utilities)
        ``net_utilities[i, r - 1]`` multiplied by ``expert_weights[i]``
        reproduces the weight that expert ``i`` contributes at rank ``r``
        (summed over attributes).  For the ordinal solver the net utility
        equals the rank order centroid weight, independent of the expert.

    Raises
    ------
    DecompositionUnsupported
        If any cell has missing or duplicate ranks.
    """
    problem = solution.problem
    if problem.has_missing.any() or problem.has_duplicates.any():
        raise DecompositionUnsupported("decomposition requires gap-free rankings")
    expert = solution.expert_weights
    return expert.copy(), solution.rank_weights.sum(axis=1) / expert[:, None]
