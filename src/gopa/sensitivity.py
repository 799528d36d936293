"""Expert-ranking permutation experiments and descriptive statistics."""

from dataclasses import dataclass, replace
from itertools import permutations
from math import sqrt

import numpy as np

from .exceptions import DegenerateError, SampleSizeError, TooManyExperts
from .solver import solve_gopa, solve_opa

MIN_PERMUTED_EXPERTS = 3
MAX_PERMUTED_EXPERTS = 8

# Relative spread below which a sample counts as constant: reports print 12
# significant digits, so a smaller spread is rounding noise, not variation.
CONSTANT_SPREAD = 1e-12


@dataclass(frozen=True)
class ScenarioStats:
    """Descriptive statistics of one weight quantity across scenarios."""

    mean: float
    skewness: float
    kurtosis: float
    cv: float
    minimum: float
    maximum: float


def describe(samples):
    """Bias-corrected descriptive statistics of a sample.

    Skewness uses the adjusted Fisher-Pearson estimator
    ``g1 sqrt(n(n-1)) / (n-2)`` and kurtosis the sample excess form
    ``((n+1) g2 + 6)(n-1) / ((n-2)(n-3))``; the coefficient of variation uses
    the (n-1)-denominator standard deviation.  A sample whose spread is at
    most ``CONSTANT_SPREAD`` times its largest magnitude is treated as
    constant: skewness, kurtosis and cv are then 0.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 4:
        raise SampleSizeError(f"need at least 4 samples, got {n}")
    mean = x.mean()
    if np.ptp(x) <= CONSTANT_SPREAD * np.abs(x).max():
        return ScenarioStats(mean=float(mean), skewness=0.0, kurtosis=0.0,
                             cv=0.0, minimum=float(x.min()), maximum=float(x.max()))
    dev = x - mean
    dev2 = dev * dev    # products: numpy evaluates `dev ** 3` and `** 4` by generic pow
    m2 = dev2.mean()
    g1 = (dev2 * dev).mean() / m2 ** 1.5
    g2 = (dev2 * dev2).mean() / m2 ** 2 - 3.0
    skew = g1 * sqrt(n * (n - 1.0)) / (n - 2.0)
    kurt = ((n + 1.0) * g2 + 6.0) * (n - 1.0) / ((n - 2.0) * (n - 3.0))
    std = sqrt(m2 * n / (n - 1.0))
    if mean == 0.0:
        raise DegenerateError("coefficient of variation undefined for zero mean")
    return ScenarioStats(mean=float(mean), skewness=float(skew), kurtosis=float(kurt),
                         cv=float(std / mean), minimum=float(x.min()), maximum=float(x.max()))


def permutation_stats(problem, utilities=None):
    """Describe the weight outcomes of every expert-rank permutation.

    Expert ranks enter the optimal weights only as a factor ``1/t_i`` on
    expert ``i``'s cells, and the normalizer ``z*`` rescales all weights to
    sum 1.  So one solve with every rank set to 1 gives per-expert weights
    ``W``, and a scenario with ranks ``t`` has expert weights
    ``(W.sum((1, 2)) / t) / norm`` with ``norm = sum_i W[i].sum() / t_i``;
    its attribute and alternative weights are ``(1/t) @ W.sum(2) / norm`` and
    ``(1/t) @ W.sum(1) / norm``.  Utilities (when given) come from the first
    stage, which does not depend on expert ranks, so they are used as they
    are.  Scenarios come in the order of ``itertools.permutations(range(1, I + 1))``,
    lexicographic in the expert ranks, so the sweep is deterministic.

    Returns a dict with ``experts``, ``attributes``, and ``alternatives``
    lists of ``(id, ScenarioStats)`` plus the raw per-scenario weight arrays.

    Raises
    ------
    TooManyExperts
        Above ``MAX_PERMUTED_EXPERTS`` experts.
    SampleSizeError
        Below ``MIN_PERMUTED_EXPERTS`` experts, whose 1 or 2 scenarios are too
        few to describe.
    """
    n = problem.n_experts
    if n > MAX_PERMUTED_EXPERTS:
        raise TooManyExperts(f"{n}! scenarios exceed the guard of {MAX_PERMUTED_EXPERTS}!")
    if n < MIN_PERMUTED_EXPERTS:
        raise SampleSizeError(
            f"the sensitivity sweep needs at least {MIN_PERMUTED_EXPERTS} experts "
            f"({MIN_PERMUTED_EXPERTS}! scenarios); the panel has {n}")
    base = replace(problem, expert_ranks=np.ones(n, dtype=int))
    sol = solve_opa(base) if utilities is None else solve_gopa(base, utilities)
    inv_ranks = 1.0 / np.array(list(permutations(range(1, n + 1))), dtype=float)
    experts = inv_ranks * sol.expert_weights
    norm = experts.sum(axis=1, keepdims=True)
    experts /= norm
    attributes = inv_ranks @ sol.expert_attribute_weights() / norm
    alternatives = inv_ranks @ sol.expert_alternative_weights() / norm
    return {
        "experts": [(eid, describe(experts[:, i]))
                    for i, eid in enumerate(problem.expert_ids)],
        "attributes": [(aid, describe(attributes[:, j]))
                       for j, aid in enumerate(problem.attribute_ids)],
        "alternatives": [(mid, describe(alternatives[:, k]))
                         for k, mid in enumerate(problem.alternative_ids)],
        "raw": {"experts": experts, "attributes": attributes,
                "alternatives": alternatives},
    }
