"""Validation statistics for group decision outcomes.

Percentage standard deviation of expert contributions, Kendall coefficient of
concordance with tie correction, confidence levels through an F-distribution
approximation with fractional degrees of freedom, and Spearman correlation.
"""

from dataclasses import dataclass
from math import exp, lgamma, log

import numpy as np

from .exceptions import DegenerateError, DomainError

_BETA_EPS = 3e-16
_BETA_FPMIN = 1e-300
_BETA_MAXIT = 500


def psd(contributions, aggregate):
    """Percentage standard deviation of per-expert weight contributions.

    ``contributions`` are the weights one entity receives from each expert;
    ``aggregate`` is their total.  Dispersion is measured against the equal
    share ``aggregate / I`` and scaled by the aggregate, so the statistic is
    dimensionless.
    """
    w = np.asarray(contributions, dtype=float)
    return float(_psd_columns(w.reshape(-1, 1), [aggregate])[0])


def _psd_columns(contributions, aggregates):
    """`psd` of every column of an (experts, entities) matrix against its aggregate.

    Each column is reduced along the last axis of a C-contiguous copy of the
    transpose, in the order numpy sums a 1-D sample.
    """
    w = np.ascontiguousarray(np.asarray(contributions, dtype=float).T)
    n_experts = w.shape[1]
    if n_experts < 2:
        raise DegenerateError("needs contributions from at least two experts")
    total = np.asarray(aggregates, dtype=float)
    if (total == 0.0).any():
        raise DegenerateError("aggregate weight is zero")
    dev = (total / n_experts)[:, None] - w
    return np.sqrt((dev ** 2).sum(axis=1) / (n_experts - 1)) / total


def ranks_from_weights(values, tol=1e-12):
    """Midranks along the last axis, in descending order (rank 1 = largest).

    A tie group starts at a value and takes every following value whose gap
    to that first value is at most ``tol``; its members share the average of
    their positions.  All rows are ranked in one pass that groups by chained
    gaps; only rows where a chained group spans more than ``tol`` are walked
    group by group.
    """
    v = np.asarray(values, dtype=float)
    rows = v.reshape(-1, v.shape[-1])
    order = np.argsort(-rows, axis=1, kind="stable")
    desc = np.take_along_axis(rows, order, axis=1)
    starts = np.ones(rows.shape, dtype=bool)
    starts[:, 1:] = ~(desc[:, :-1] - desc[:, 1:] <= tol)
    first = np.maximum.accumulate(np.where(starts, np.arange(rows.shape[1]), 0), axis=1)
    sorted_ranks = first + 0.5 * (_run_sizes(starts) - 1) + 1.0
    ranks = np.empty(rows.shape)
    np.put_along_axis(ranks, order, sorted_ranks, axis=1)
    spans = np.take_along_axis(desc, first, axis=1) - desc
    for row in np.flatnonzero(~(spans <= tol).all(axis=1)):
        ranks[row] = _ranks_by_anchor(rows[row], order[row], tol)
    return ranks.reshape(v.shape)


def _ranks_by_anchor(v, order, tol):
    """Midranks of one row, grouping by the gap to each group's first value."""
    ranks = np.empty(v.size)
    pos = 0
    while pos < v.size:
        end = pos
        while end + 1 < v.size and v[order[pos]] - v[order[end + 1]] <= tol:
            end += 1
        ranks[order[pos:end + 1]] = 0.5 * (pos + end) + 1.0
        pos = end + 1
    return ranks


def _tie_terms(ranks):
    """Per-row tie correction: sum of t^3 - t over groups of equal 9-digit-rounded values."""
    r = np.sort(np.round(ranks, 9), axis=1)
    starts = np.ones(r.shape, dtype=bool)
    starts[:, 1:] = r[:, 1:] != r[:, :-1]
    sizes = _run_sizes(starts).astype(float)
    # each member of a group of t adds t^2 - 1, so the group adds t^3 - t
    return (sizes ** 2 - 1.0).sum(axis=1)


def _run_sizes(starts):
    """Length of the run each entry belongs to; runs begin where ``starts``
    is True, and every row must start one."""
    ids = np.cumsum(starts.ravel()) - 1
    return np.bincount(ids)[ids].reshape(starts.shape)


def kendall_w(ranks):
    """Kendall coefficient of concordance of a raters-by-items rank matrix.

    Ranks must be midranks when ties are present; the tie groups are the
    repeated values in each row.

    Returns
    -------
    float in [0, 1]
    """
    r = np.asarray(ranks, dtype=float)
    if r.ndim != 2 or r.shape[0] < 2 or r.shape[1] < 2:
        raise DomainError(f"expected a raters-by-items matrix, got shape {r.shape}")
    return _kendall_stack(r[None])[0]


def _kendall_stack(ranks):
    """`kendall_w` of every (raters, items) matrix of a C-contiguous stack.

    Item rank sums add the raters in order, and the tie corrections, whole
    numbers, are summed over raters in order too.
    """
    n_stack, n_raters, n_items = ranks.shape
    sums = ranks.sum(axis=1)
    s = ((sums - sums.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
    ties = _tie_terms(ranks.reshape(-1, n_items)).reshape(n_stack, n_raters)
    correction = np.cumsum(ties, axis=1)[:, -1]
    denom = n_raters ** 2 * (n_items ** 3 - n_items) - n_raters * correction
    if (denom <= 0).any():
        raise DegenerateError("every rater ties every item; concordance undefined")
    return [min(max(12.0 * a / b, 0.0), 1.0) for a, b in zip(s.tolist(), denom.tolist())]


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),    # even step, then odd
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _BETA_FPMIN:
                d = _BETA_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _BETA_FPMIN:
                c = _BETA_FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise DomainError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise DomainError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = exp(lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log(1.0 - x))
    # continued fraction converges fast below the symmetry point
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_cdf(x, v1, v2):
    """CDF of the F distribution with (possibly fractional) degrees of freedom."""
    if v1 <= 0 or v2 <= 0:
        raise DomainError("degrees of freedom must be positive")
    if x < 0:
        raise DomainError("the F statistic is nonnegative")
    if x == 0:
        return 0.0
    if np.isinf(x):
        return 1.0
    return regularized_incomplete_beta(v1 / 2.0, v2 / 2.0, v1 * x / (v1 * x + v2))


def confidence_level(rho, raters, items):
    """Confidence level of a concordance coefficient via the F approximation.

    Uses the small-sample statistic ``rho (raters - 1) / (1 - rho)`` with
    fractional degrees of freedom ``v1 = items - 1 - 2/raters`` and
    ``v2 = (raters - 1) v1``.
    """
    v1 = items - 1.0 - 2.0 / raters
    if v1 <= 0:
        raise DomainError(f"too few items ({items}) for {raters} raters")
    v2 = (raters - 1.0) * v1
    if rho >= 1.0:
        return 1.0
    if rho <= 0.0:
        return 0.0
    x = rho * (raters - 1.0) / (1.0 - rho)
    return f_cdf(x, v1, v2)


def gcl(lcl_attributes, attribute_weights, lcl_per_attribute):
    """Global confidence level: attribute-level confidence times the
    weight-averaged alternative-level confidences."""
    w = np.asarray(attribute_weights, dtype=float)
    lcl = np.asarray(lcl_per_attribute, dtype=float)
    if w.shape != lcl.shape:
        raise DomainError(f"weights {w.shape} vs levels {lcl.shape}")
    return float(lcl_attributes * (w * lcl).sum())


def spearman(rank_a, rank_b):
    """Spearman correlation: Pearson correlation of two (mid)rank vectors."""
    a = np.asarray(rank_a, dtype=float)
    b = np.asarray(rank_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise DomainError(f"expected two equal-length rank vectors, got {a.shape}, {b.shape}")
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da ** 2).sum() * (db ** 2).sum())
    if denom == 0:
        raise DegenerateError("a rank vector is constant")
    return float(np.clip((da * db).sum() / denom, -1.0, 1.0))


def sensitivity_label(level):
    """Threshold label of a confidence level."""
    if level >= 0.99:
        return "high sensitive"
    if level >= 0.95:
        return "very sensitive"
    if level >= 0.90:
        return "sensitive"
    return "less sensitive"


@dataclass(frozen=True)
class ConsensusReport:
    """Group consensus diagnostics for one weight solution."""

    psd_attributes: np.ndarray
    psd_alternatives: np.ndarray
    kendall_attributes: float
    kendall_alternatives: np.ndarray     # one coefficient per attribute
    lcl_attributes: float
    lcl_alternatives: np.ndarray
    gcl: float
    label_attributes: str
    label_alternatives: tuple
    label_global: str

    def to_dict(self, problem):
        return {
            "psd": {
                "attributes": dict(zip(problem.attribute_ids, self.psd_attributes.tolist())),
                "alternatives": dict(zip(problem.alternative_ids, self.psd_alternatives.tolist())),
            },
            "kendall": {
                "attributes": self.kendall_attributes,
                "alternatives": dict(zip(problem.attribute_ids,
                                         self.kendall_alternatives.tolist())),
            },
            "lcl": {
                "attributes": self.lcl_attributes,
                "alternatives": dict(zip(problem.attribute_ids,
                                         self.lcl_alternatives.tolist())),
            },
            "gcl": self.gcl,
            "labels": {
                "attributes": self.label_attributes,
                "alternatives": dict(zip(problem.attribute_ids, self.label_alternatives)),
                "global": self.label_global,
            },
        }


def consensus_report(solution):
    """Build the full consensus report of a weight solution.

    Requires at least two experts, and enough attributes and alternatives
    for the F approximation: ``items - 1 - 2/experts > 0`` (its ``v1``).
    Ranks are derived from weights in descending order with midranks for
    exact ties.  The counts are those of ``solution.weights.shape``.  The
    PSD of every attribute and of every alternative, and Kendall's W of every
    attribute's (experts, alternatives) rank matrix, are computed once per
    section, with the numbers `psd` and `kendall_w` give each one alone; the
    confidence levels are evaluated one at a time.
    """
    n_experts, n_attributes, n_alternatives = solution.weights.shape
    for section, items in (("attributes", n_attributes), ("alternatives", n_alternatives)):
        if n_experts < 2 or items - 1.0 - 2.0 / n_experts <= 0:
            raise DegenerateError(f"consensus diagnostics need 2 or more experts and "
                                  f"{section} - 1 - 2/experts > 0; got {n_experts} "
                                  f"experts and {items} {section}")

    w_ij = solution.expert_attribute_weights()
    psd_attr = _psd_columns(w_ij, solution.attribute_weights)
    psd_alt = _psd_columns(solution.expert_alternative_weights(), solution.alternative_weights)

    rho_attr, = _kendall_stack(ranks_from_weights(w_ij[None]))
    lcl_attr = confidence_level(rho_attr, n_experts, n_attributes)

    # (J, I, K): the alternative ranks each expert gives under attribute j
    rho_alt = _kendall_stack(ranks_from_weights(solution.weights.transpose(1, 0, 2)))
    lcl_alt = np.array([confidence_level(rho, n_experts, n_alternatives) for rho in rho_alt])

    global_level = gcl(lcl_attr, solution.attribute_weights, lcl_alt)
    return ConsensusReport(
        psd_attributes=psd_attr,
        psd_alternatives=psd_alt,
        kendall_attributes=float(rho_attr),
        kendall_alternatives=np.array(rho_alt),
        lcl_attributes=float(lcl_attr),
        lcl_alternatives=lcl_alt,
        gcl=global_level,
        label_attributes=sensitivity_label(lcl_attr),
        label_alternatives=tuple(sensitivity_label(x) for x in lcl_alt),
        label_global=sensitivity_label(global_level),
    )
