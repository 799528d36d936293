"""Closed-form second-stage weight solvers and aggregation.

Both solvers share the same shape: per-cell rank coefficients divided by the
expert and attribute ranking products, normalized through the objective value
``z*``.  The ordinal solver uses harmonic tail sums as coefficients; the
generalized solver consumes per-cell utility vectors from the first stage.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError

UTILITY_TOL = 1e-8   # slack of the sum, sign and monotonicity checks on utilities


@dataclass(frozen=True)
class WeightSolution:
    """Optimal decision weights for one problem; all arrays are read-only.

    ``rank_weights[i, j, r - 1]`` is the weight of rank ``r`` in cell (i, j)
    and ``utilities`` (generalized solver only) the cell's utility of rank
    ``r``, both padded with 0 beyond ``max_rank[i, j]`` (see
    `RankingProblem.rank_mask`).  ``weights[i, j, k]`` holds the mapped
    per-alternative weights (0 where the alternative is excluded in that
    cell).  Aggregates are derived from ``weights`` as marginal sums.  ``problem`` is the
    `RankingProblem`, or only its id tuples when read back from a report.
    """

    problem: object
    objective: float
    rank_weights: np.ndarray
    weights: np.ndarray
    utilities: np.ndarray = None
    exclusions_flagged: bool = False
    expert_weights: np.ndarray = field(init=False)
    attribute_weights: np.ndarray = field(init=False)
    alternative_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        for name, axis in (("expert_weights", (1, 2)), ("attribute_weights", (0, 2)),
                           ("alternative_weights", (0, 1))):
            object.__setattr__(self, name, self.weights.sum(axis=axis))
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
    """Padded ordinal coefficients: each cell's harmonic tail sums
    ``sum of 1/h for h = r .. max_rank[i, j]`` at rank ``r``, 0 beyond."""
    inverse = problem.rank_mask / np.arange(1.0, problem.n_alternatives + 1.0)
    return np.cumsum(inverse[..., ::-1], axis=2)[..., ::-1]


def rank_products(problem):
    """Per-cell products ``t_i * s_ij`` of expert and attribute ranks, as floats.

    The ranks are converted before they are multiplied: an int64 product
    wraps silently once it reaches 2**63.
    """
    return problem.expert_ranks.astype(float)[:, None] * problem.attribute_ranks


def padded_utilities(problem, utilities):
    """A float copy of per-cell utilities in the padded (I, J, K) layout.

    Raises `DomainError` unless the shape is that of
    ``problem.rank_mask`` and every entry beyond a cell's last rank is 0.
    """
    u = np.array(utilities, dtype=float)
    if u.shape != problem.rank_counts.shape:
        raise DomainError(f"utilities have shape {u.shape}, expected {problem.rank_counts.shape}")
    beyond = ~problem.rank_mask & (u != 0.0)    # NaN too
    if beyond.any():
        i, j, k = np.argwhere(beyond)[0]
        raise DomainError(f"cell ({i}, {j}) holds {u[i, j, k]} at rank {k + 1}, "
                          f"beyond its last rank {problem.max_rank[i, j]}")
    return u


def _assemble(problem, coefficients, utilities=None):
    """Common assembly of padded coefficients: z*, per-rank weights, mapping, aggregation."""
    ts = rank_products(problem)
    z_star = 1.0 / ((problem.rank_counts * coefficients).sum(axis=2) / ts).sum()
    rank_weights = coefficients * z_star / ts[..., None]

    ranks = problem.alternative_ranks
    mapped = np.take_along_axis(rank_weights, np.maximum(ranks - 1, 0), axis=2)
    weights = np.where(ranks > 0, mapped, 0.0)
    return WeightSolution(
        problem=problem,
        objective=z_star,
        rank_weights=rank_weights,
        weights=weights,
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
    utilities : array_like, shape (I, J, K)
        Cell (i, j)'s per-rank utilities in ``[i, j, :max_rank[i, j]]``, 0
        beyond, normalized to sum 1 and nonincreasing in rank.  The solution
        keeps a read-only copy; the caller's array is left as it is.

    Raises
    ------
    DomainError
        If the array is not padded as `padded_utilities` requires, or a
        cell's utilities are not normalized, or increase with rank beyond
        `UTILITY_TOL`.
    """
    u = padded_utilities(problem, utilities)
    sums = u.sum(axis=2)
    # padding holds 0: it adds nothing to a sum and cannot rise after a cell's last rank
    # (a NaN utility makes its cell's sum NaN, which fails the first check)
    for failed, message in ((~(np.abs(sums - 1.0) <= UTILITY_TOL), "utilities sum to {:.12g}"),
                            ((u < -UTILITY_TOL).any(axis=2), "utilities must be nonnegative"),
                            ((np.diff(u, axis=2) > UTILITY_TOL).any(axis=2),
                             "utilities increase with rank")):
        if failed.any():
            i, j = np.argwhere(failed)[0]
            raise DomainError(f"cell ({i}, {j}) " + message.format(sums[i, j]))
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
    DomainError
        Unless the rankings are gap-free (`RankingProblem.gap_free`).
    """
    problem = solution.problem
    if not problem.gap_free:
        raise DomainError("decomposition requires gap-free rankings")
    expert = solution.expert_weights
    return expert.copy(), solution.rank_weights.sum(axis=1) / expert[:, None]
