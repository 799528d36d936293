"""Expert-ranking permutation experiments and descriptive statistics."""

from dataclasses import dataclass, replace
from itertools import permutations
from math import sqrt

import numpy as np

from .exceptions import DegenerateError, SampleSizeError, ShapeError, TooManyExperts
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
    """Bias-corrected descriptive statistics of a 1-D sample.

    Skewness uses the adjusted Fisher-Pearson estimator
    ``g1 sqrt(n(n-1)) / (n-2)`` and kurtosis the sample excess form
    ``((n+1) g2 + 6)(n-1) / ((n-2)(n-3))``; the coefficient of variation uses
    the (n-1)-denominator standard deviation.  A sample whose spread is at
    most ``CONSTANT_SPREAD`` times its largest magnitude is treated as
    constant: skewness, kurtosis and cv are then 0.  Raises `ShapeError` for
    a sample that is not 1-D, `SampleSizeError` below 4 values and
    `DegenerateError` for a sample that varies around mean 0 (no cv).
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-D sample, got shape {x.shape}")
    return _describe_columns(x[:, None])[0]


def _describe_columns(samples):
    """`describe` of every column of a (scenarios, quantities) matrix.

    The moments are reduced along the last axis of a C-contiguous copy of
    ``samples.T``, so each column is summed in the pairwise order numpy gives
    a 1-D sample, and the per-column formulas are finished in Python floats:
    a column's statistics do not depend on the matrix it came in.
    """
    x = np.ascontiguousarray(np.asarray(samples, dtype=float).T)
    n = x.shape[1]
    if n < 4:
        raise SampleSizeError(f"need at least 4 samples, got {n}")
    mean = x.mean(axis=1)
    lo = x.min(axis=1)
    hi = x.max(axis=1)
    constant = hi - lo <= CONSTANT_SPREAD * np.maximum(np.abs(lo), np.abs(hi))
    dev = x - mean[:, None]
    dev2 = dev * dev    # products: numpy evaluates `dev ** 3` and `** 4` by generic pow
    m2 = dev2.mean(axis=1)
    m3 = (dev2 * dev).mean(axis=1)
    m4 = (dev2 * dev2).mean(axis=1)
    if (mean[~constant] == 0.0).any():
        raise DegenerateError("coefficient of variation undefined for zero mean")
    stats = []
    for mu, c2, c3, c4, flat, low, high in zip(mean.tolist(), m2.tolist(), m3.tolist(),
                                              m4.tolist(), constant.tolist(),
                                              lo.tolist(), hi.tolist()):
        skew = kurt = cv = 0.0
        if not flat:
            g1 = c3 / c2 ** 1.5
            g2 = c4 / c2 ** 2 - 3.0
            skew = g1 * sqrt(n * (n - 1.0)) / (n - 2.0)
            kurt = ((n + 1.0) * g2 + 6.0) * (n - 1.0) / ((n - 2.0) * (n - 3.0))
            cv = sqrt(c2 * n / (n - 1.0)) / mu
        stats.append(ScenarioStats(mu, skew, kurt, cv, minimum=low, maximum=high))
    return stats


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
    lists of ``(id, ScenarioStats)`` plus the raw per-scenario weight arrays
    (scenarios by quantities).  Each section is described in one pass over its
    matrix, with the same numbers `describe` gives each column alone.

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
        "experts": list(zip(problem.expert_ids, _describe_columns(experts))),
        "attributes": list(zip(problem.attribute_ids, _describe_columns(attributes))),
        "alternatives": list(zip(problem.alternative_ids, _describe_columns(alternatives))),
        "raw": {"experts": experts, "attributes": attributes,
                "alternatives": alternatives},
    }
