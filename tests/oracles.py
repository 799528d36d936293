"""Independent oracles and input generators shared by the test modules.

The oracles deliberately avoid the production solve paths: the KL oracle is a
vectorized grid search over the feasible polytope, integrals come from scipy
quadrature, the stage-2 closed forms are evaluated in exact rationals,
concordance is evaluated from its defining sums, and the sweep and consensus
statistics are evaluated one sample at a time, as numpy sums a 1-D array.
"""

import json
import re
from collections import namedtuple
from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from math import sqrt

import numpy as np
import scipy.linalg

from gopa.elicit_discrete import discrete_constraint_system
from gopa.exceptions import DegenerateError, DomainError, NumericFailure
from gopa.lpcheck import LinearProgram, solve_lp
from gopa.model import CellContext, validate_problem
from gopa.pipeline import REPORT_FORMAT, _distinct_utilities
from gopa.sensitivity import CONSTANT_SPREAD, ScenarioStats
from gopa.solver import rank_products


def kl_objective(u, v):
    u = np.atleast_2d(u)
    terms = np.where(u > 0, u * np.log(np.where(u > 0, u, 1.0) / v), 0.0)
    return terms.sum(axis=1)


def _feasible_anchor(a_eq, b_eq, g, h, n):
    lhs = np.vstack([a_eq, g]) if g.size else a_eq
    rhs = np.concatenate([b_eq, h]) if g.size else b_eq
    senses = ("=",) * a_eq.shape[0] + (">=",) * g.shape[0]
    res = solve_lp(LinearProgram(objective=np.zeros(n), lhs=lhs, rhs=rhs, senses=senses))
    if res.status != "optimal":
        return None
    return res.x


def _coordinate_window(null, a_eq, b_eq, g, h, n):
    """Per-dimension bounds of the null-space coordinates over the polytope."""
    d = null.shape[1]
    lo = np.empty(d)
    hi = np.empty(d)
    lhs = np.vstack([a_eq, g]) if g.size else a_eq
    rhs = np.concatenate([b_eq, h]) if g.size else b_eq
    senses = ("=",) * a_eq.shape[0] + (">=",) * g.shape[0]
    u_p, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
    for i in range(d):
        # y_i = null[:, i] @ (U - u_p); optimize the linear proxy null[:, i] @ U
        for sign, store in ((1.0, hi), (-1.0, lo)):
            res = solve_lp(LinearProgram(objective=sign * null[:, i], lhs=lhs,
                                         rhs=rhs, senses=senses))
            if res.status != "optimal":
                store[i] = sign * 2.0
            else:
                store[i] = sign * (sign * null[:, i] @ res.x) - null[:, i] @ u_p
    return lo, hi


def grid_kl_minimum(target, ctx, size, resolution=1e-3, budget=300_000):
    """Grid-search the constrained KL minimum (independent of the solver).

    Equalities are eliminated exactly through a null-space parameterization;
    the remaining coordinates are swept on a shrinking grid until the step is
    below ``resolution``.  Returns ``(best objective, best point)`` or
    ``(None, None)`` when the polytope is empty.
    """
    v = np.asarray(target, dtype=float)
    v = v / v.sum()
    a_eq, b_eq, g, h = discrete_constraint_system(ctx, size)
    anchor = _feasible_anchor(a_eq, b_eq, g, h, size)
    if anchor is None:
        return None, None
    u_p, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
    null = scipy.linalg.null_space(a_eq)
    d = null.shape[1]
    if d == 0:
        return float(kl_objective(u_p, v)[0]), u_p

    def evaluate(ys):
        u = u_p[None, :] + ys @ null.T
        ok = (u >= -1e-9).all(axis=1)
        if g.size:
            ok &= (u @ g.T >= h[None, :] - 1e-9).all(axis=1)
        if not ok.any():
            return None, None
        u = np.clip(u[ok], 0.0, None)
        vals = kl_objective(u, v)
        best = np.argmin(vals)
        return float(vals[best]), ys[ok][best]

    lo, hi = _coordinate_window(null, a_eq, b_eq, g, h, size)
    anchor_y = null.T @ (anchor - u_p)
    lo = np.minimum(lo, anchor_y) - 1e-6
    hi = np.maximum(hi, anchor_y) + 1e-6
    pts_per_dim = max(5, min(int(budget ** (1.0 / d)), 4001))
    best_val, best_y = evaluate(anchor_y[None, :])
    for _ in range(12):
        axes = [np.linspace(lo[i], hi[i], pts_per_dim) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        ys = np.stack([m.ravel() for m in mesh], axis=1)
        val, y = evaluate(ys)
        step = max((hi[i] - lo[i]) / (pts_per_dim - 1) for i in range(d))
        if val is not None and (best_val is None or val < best_val):
            best_val, best_y = val, y
        center = best_y if best_y is not None else 0.5 * (lo + hi)
        if step <= resolution:
            break
        lo = center - 1.5 * step
        hi = center + 1.5 * step
    u_best = np.clip(u_p + null @ best_y, 0.0, None) if best_y is not None else None
    return best_val, u_best


def harmonic_tail(kij):
    """tail[r - 1] = sum of 1/h for h = r .. kij."""
    return np.cumsum(1.0 / np.arange(kij, 0, -1.0))[::-1]


def cell_counts(problem, i, j):
    """Rank frequencies ``c_r`` of cell (i, j), length ``max_rank[i, j]``."""
    return problem.rank_counts[i, j, :problem.max_rank[i, j]]


ExactSolution = namedtuple("ExactSolution", "objective rank_weights weights")


def _exact_assembly(problem, coefficients):
    """Stage-2 closed form in rationals over ``(i, j) -> Fraction coefficients``.

    Returns an `ExactSolution`: ``rank_weights`` maps ``(i, j)`` to the
    cell's ``max_rank[i, j]`` weights and ``weights`` is a nested
    ``[i][j][k]`` list of per-alternative weights, 0 where excluded.
    """
    ts = {(i, j): int(problem.expert_ranks[i]) * int(problem.attribute_ranks[i, j])
          for i, j in problem.cells()}
    denom = sum(sum(int(c) * a for c, a in zip(cell_counts(problem, i, j), coefficients[i, j]))
                / ts[i, j] for i, j in problem.cells())
    z_star = 1 / denom
    rank_weights = {cell: [a * z_star / ts[cell] for a in coefficients[cell]]
                    for cell in problem.cells()}
    weights = [[[rank_weights[i, j][r - 1] if r > 0 else Fraction(0)
                 for r in problem.alternative_ranks[i, j].tolist()]
                for j in range(problem.n_attributes)] for i in range(problem.n_experts)]
    return ExactSolution(z_star, rank_weights, weights)


def exact_opa(problem):
    """`solve_opa` in exact rationals: harmonic tail sums of the integer ranks."""
    coefficients = {}
    for i, j in problem.cells():
        kij = int(problem.max_rank[i, j])
        inverse = [Fraction(1, h) for h in range(1, kij + 1)]
        coefficients[i, j] = [sum(inverse[r:]) for r in range(kij)]
    return _exact_assembly(problem, coefficients)


def exact_gopa(problem, utilities):
    """`solve_gopa` in exact rationals over padded (I, J, K) utilities; each
    float utility is its exact binary fraction."""
    return _exact_assembly(problem, {
        (i, j): [int(problem.max_rank[i, j]) * Fraction(float(u))
                 for u in utilities[i, j, :int(problem.max_rank[i, j])]]
        for i, j in problem.cells()})


def permute_experts(problem):
    """Yield one problem per permutation of the expert ranks ``1..I``, in the
    order of `itertools.permutations`; other rankings are left untouched."""
    for perm in permutations(range(1, problem.n_experts + 1)):
        yield replace(problem, expert_ranks=np.asarray(perm, dtype=int))


def rank_structure_by_cell(alternative_ranks):
    """Per-cell rank counts, max rank, duplicate and missing flags from a rank loop."""
    n_e, n_a, size = alternative_ranks.shape
    counts = np.zeros((n_e, n_a, size), dtype=int)
    max_rank = np.zeros((n_e, n_a), dtype=int)
    dups = np.zeros((n_e, n_a), dtype=bool)
    missing = np.zeros((n_e, n_a), dtype=bool)
    for i in range(n_e):
        for j in range(n_a):
            present = alternative_ranks[i, j][alternative_ranks[i, j] > 0]
            kij = int(present.max())
            max_rank[i, j] = kij
            for rank in present:
                counts[i, j, rank - 1] += 1
            c = counts[i, j, :kij]
            dups[i, j] = bool((c > 1).any())
            missing[i, j] = bool((c == 0).any() or present.size < size)
    return counts, max_rank, dups, missing


def point_cdf(density, x):
    """Cumulative utility of a solved density at one point, segment by segment."""
    cum = np.concatenate([[0.0], np.cumsum(density.masses)])
    s = int(density.segment_index(x))
    return cum[s] + density.scales[s] * density.target.integral(density.breakpoints[s], x)


def cumulative_utilities_by_rank(density):
    """Per-rank utilities from one `point_cdf` call per rank."""
    size = density.size
    tail = np.array([1.0 - point_cdf(density, size - r) for r in range(1, size + 1)])
    return (tail / tail.sum())[::-1].copy()


def kendall_bruteforce(ranks):
    """Concordance from its defining rank-sum deviations (no tie handling)."""
    r = np.asarray(ranks, dtype=float)
    n_raters, n_items = r.shape
    sums = r.sum(axis=0)
    s = ((sums - sums.sum() / n_items) ** 2).sum()
    return 12.0 * s / (n_raters ** 2 * (n_items ** 3 - n_items))


def midranks_loop(values, tol=1e-12):
    """Midranks of one vector, descending, walked group by group.

    A group runs on while the gap to its first value is at most ``tol``.
    """
    v = np.asarray(values, dtype=float)
    order = np.argsort(-v, kind="stable")
    ranks = np.empty(v.size)
    pos = 0
    while pos < v.size:
        end = pos
        while end + 1 < v.size and v[order[pos]] - v[order[end + 1]] <= tol:
            end += 1
        ranks[order[pos:end + 1]] = 0.5 * (pos + end) + 1.0
        pos = end + 1
    return ranks


def tie_term_unique(row):
    """Per-rater tie correction from `np.unique` counts of the 9-digit-rounded row."""
    _, counts = np.unique(np.round(np.asarray(row, dtype=float), 9), return_counts=True)
    return float((counts.astype(float) ** 3 - counts).sum())


def describe_scalar(samples):
    """`gopa.sensitivity.describe` as it was written for one 1-D sample: one
    numpy reduction per moment, the formulas finished on numpy scalars."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 4:
        raise DegenerateError(f"need at least 4 samples, got {n}")
    mean = x.mean()
    if np.ptp(x) <= CONSTANT_SPREAD * np.abs(x).max():
        return ScenarioStats(mean=float(mean), skewness=0.0, kurtosis=0.0,
                             cv=0.0, minimum=float(x.min()), maximum=float(x.max()))
    dev = x - mean
    dev2 = dev * dev
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


def psd_scalar(contributions, aggregate):
    """`gopa.metrics.psd` as it was written for one entity's contributions."""
    w = np.asarray(contributions, dtype=float)
    if w.size < 2:
        raise DegenerateError("needs contributions from at least two experts")
    total = float(aggregate)
    if total == 0.0:
        raise DegenerateError("aggregate weight is zero")
    dev = total / w.size - w
    return float(np.sqrt((dev ** 2).sum() / (w.size - 1)) / total)


def kendall_w_scalar(ranks):
    """`gopa.metrics.kendall_w` as it was written for one rank matrix, its tie
    correction summed rater by rater from `tie_term_unique`."""
    r = np.asarray(ranks, dtype=float)
    if r.ndim != 2 or r.shape[0] < 2 or r.shape[1] < 2:
        raise DomainError(f"expected a raters-by-items matrix, got shape {r.shape}")
    n_raters, n_items = r.shape
    sums = r.sum(axis=0)
    s = ((sums - sums.mean()) ** 2).sum()
    correction = sum(tie_term_unique(row) for row in r)
    denom = n_raters ** 2 * (n_items ** 3 - n_items) - n_raters * correction
    if denom <= 0:
        raise DegenerateError("every rater ties every item; concordance undefined")
    return float(min(max(12.0 * s / denom, 0.0), 1.0))


def _round_floats(obj):
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _round_floats(obj.item())
    return obj


def legacy_report_text(doc):
    """Report bytes of the stdlib encoder: each float rounded through 12
    significant digits, then ``json.dumps(indent=2, sort_keys=True)``, with
    each leaf list (nonempty, items all Python floats or None) on one line
    as ``json.dumps`` writes it without an indent."""
    leaves = []

    def mark(obj):
        """``obj`` with each leaf list replaced by a placeholder string."""
        if isinstance(obj, dict):
            return {k: mark(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            if obj and all(type(v) is float or v is None for v in obj):
                leaves.append(json.dumps(_round_floats(obj)))
                return f"\0leaf{len(leaves) - 1}\0"
            return [mark(v) for v in obj]
        return obj

    text = json.dumps(_round_floats(mark(doc)), indent=2, sort_keys=True)
    return re.sub(r'"\\u0000leaf(\d+)\\u0000"', lambda m: leaves[int(m[1])], text) + "\n"


def list_solution_report(solution, bound_mode=None):
    """The format-3 solution report with every weight a Python float (None where
    the cell excludes the alternative), as `gopa.pipeline.solution_report` built
    it before it rendered the cell-weight grid itself."""
    p = solution.problem
    cell_weights = solution.weights.astype(object)
    cell_weights[p.alternative_ranks == 0] = None
    report = {
        "kind": "solution",
        "format": REPORT_FORMAT,
        "method": "opa" if solution.utilities is None else "gopa",
        "objective": float(solution.objective),
        "ids": {
            "experts": list(p.expert_ids),
            "attributes": list(p.attribute_ids),
            "alternatives": list(p.alternative_ids),
        },
        "experts": dict(zip(p.expert_ids, solution.expert_weights.tolist())),
        "attributes": dict(zip(p.attribute_ids, solution.attribute_weights.tolist())),
        "alternatives": dict(zip(p.alternative_ids, solution.alternative_weights.tolist())),
        "cell_weights": {eid: dict(zip(p.attribute_ids, w_i))
                         for eid, w_i in zip(p.expert_ids, cell_weights.tolist())},
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
        report["bound_mode"] = bound_mode or "equality"
        report["utilities"] = _distinct_utilities(p, solution.utilities)
    return report


def _ws_primal(log_base, exponent):
    e = log_base + exponent
    shift = e.max()
    x = np.exp(e - shift)
    z = x.sum()
    return x / z, shift + np.log(z)


def _ws_merit(log_base, sub, target, y_work):
    return _ws_primal(log_base, sub.T @ y_work)[1] - y_work @ target


def working_set_kl_project(base, rows, rhs, n_eq):
    """The earlier stage-1 core, kept as a reference for `gopa.projection.kl_project`.

    Dual Newton steps on a working set: the equality rows and the inequality
    rows whose multipliers may grow.  Once the working rows hold, the most
    violated other row joins, one row at a time, and a step that would turn a
    multiplier negative stops at zero and drops that row.  Returns ``(x, y)``
    or raises `NumericFailure`.
    """
    log_base = np.log(base / base.sum())
    y = np.zeros(rows.shape[0])
    work = np.arange(rows.shape[0]) < n_eq
    for it in range(500):
        sub, target = rows[work], rhs[work]
        x, log_z = _ws_primal(log_base, sub.T @ y[work])
        moment = sub @ x
        grad = moment - target
        res = np.abs(grad).max(initial=0.0)
        if res <= 1e-12:
            slack = np.where(work[n_eq:], np.inf, rows[n_eq:] @ x - rhs[n_eq:])
            if slack.min(initial=np.inf) >= -1e-12:
                return x, y
            work[n_eq + np.argmin(slack)] = True
            continue
        w, vec = np.linalg.eigh((sub * x) @ sub.T - np.outer(moment, moment))
        null = w <= 1e-12 * np.abs(w).max()
        ray = vec[:, null] @ (vec[:, null].T @ grad)
        if np.abs(ray).max(initial=0.0) > 1e-12:
            # the working rows contradict each other: x stays put and the merit
            # falls without bound along -ray, until a multiplier reaches zero
            step, alpha = -ray, np.inf
        else:
            step = -(vec[:, ~null] / w[~null]) @ (vec[:, ~null].T @ grad)
            alpha = 1.0
            if res > 1e-7:
                # inside the quadratic basin the merit is flat at float
                # resolution, so plain Newton steps are taken there
                merit, slope = log_z - y[work] @ target, grad @ step
                while alpha >= 1e-15 and _ws_merit(log_base, sub, target, y[work] + alpha * step) \
                        > merit + 1e-4 * alpha * slope:
                    alpha *= 0.5
                if alpha < 1e-15:
                    break
        idx = np.flatnonzero(work)
        shrinking = (idx >= n_eq) & (step < 0.0)
        limit = -y[idx[shrinking]] / step[shrinking]
        if limit.min(initial=np.inf) < alpha:
            # the merit is convex along the step, so stopping short still descends
            block = idx[shrinking][np.argmin(limit)]
            y[idx] += limit.min() * step
            y[block] = 0.0
            work[block] = False
        elif alpha < np.inf:
            y[idx] += alpha * step
        else:
            break
    raise NumericFailure(f"KL projection did not converge after {it + 1} iterations "
                         f"(residual {res:.3g})")


def newton_refine(base, rows, rhs, n_eq, y):
    """x after one exact Newton step from multipliers ``y`` on their active rows.

    The active rows are the equality rows and the inequality rows with a
    positive multiplier.  Two solutions that each hold the rows to 1e-12 can
    still differ by more than 1e-12 where the rows are badly conditioned; one
    step from either leaves x exact to rounding, so two cores can be compared
    at 1e-12 without loosening the comparison.
    """
    log_base = np.log(base / base.sum())
    active = (np.arange(y.size) < n_eq) | (y > 0.0)
    x, _ = _ws_primal(log_base, rows.T @ y)
    sub = rows[active]
    hess = (sub * x) @ sub.T - np.outer(sub @ x, sub @ x)
    y = y.copy()
    y[active] -= np.linalg.pinv(hess, rcond=1e-12, hermitian=True) @ (sub @ x - rhs[active])
    return _ws_primal(log_base, rows.T @ y)[0]


def isotonic_kl_projection(base):
    """KL projection of ``base`` onto nonincreasing distributions, in closed form.

    Pool adjacent violators of ``log(base)`` (Robertson, Wright & Dykstra
    1988): each pool takes the geometric mean of its base, then the vector is
    normalized.
    """
    pools = []   # [sum of log base, count]
    for value in np.log(np.asarray(base, dtype=float)):
        pools.append([value, 1])
        while len(pools) > 1 and pools[-2][0] / pools[-2][1] < pools[-1][0] / pools[-1][1]:
            total, count = pools.pop()
            pools[-1][0] += total
            pools[-1][1] += count
    u = np.concatenate([np.full(count, np.exp(total / count)) for total, count in pools])
    return u / u.sum()


def highs_positive_support(rows, rhs, n_eq):
    """Support mask of the polytope by HiGHS, None when it is empty.

    The same homogenized program as `gopa.projection.positive_support`
    (columns ``x, t, s``: ``sum(x) = t``, rows against ``rhs * t``,
    ``0 <= s <= min(x, 1)``, maximize ``sum(s)``), with the caps ``s <= 1``
    as variable bounds.
    """
    import scipy.optimize

    n = rows.shape[1]
    homog = np.hstack([rows, -rhs[:, None], np.zeros_like(rows)])   # columns x, t, s
    total = np.concatenate([np.ones(n), [-1.0], np.zeros(n)])
    cap = np.hstack([-np.eye(n), np.zeros((n, 1)), np.eye(n)])
    res = scipy.optimize.linprog(
        c=np.concatenate([np.zeros(n + 1), -np.ones(n)]),
        A_ub=np.vstack([-homog[n_eq:], cap]), b_ub=np.zeros(rows.shape[0] - n_eq + n),
        A_eq=np.vstack([total, homog[:n_eq]]), b_eq=np.zeros(n_eq + 1),
        bounds=[(0, None)] * (n + 1) + [(0, 1)] * n, method="highs")
    if res.status != 0:
        raise NumericFailure(f"support linear program failed: {res.message}")
    return res.x[n + 1:] > 0.5 if -res.fun >= 0.5 else None


def dense_pivot(tab, basis, row, col):
    """`gopa.lpcheck._pivot` as a full rank-one update, every column included."""
    pivot_row = tab[row] / tab[row, col]
    tab -= np.outer(tab[:, col], pivot_row)
    tab[row] = pivot_row
    basis[row] = col


def rank_mask_lp(problem, coefficients):
    """A weight program laid out over ``padded[rank_mask]``, as the builders laid it
    out before they took the held ranks: one variable per rank up to each cell's
    maximum, skipped ranks included, then ``z``."""
    mask = problem.rank_mask
    ts = np.broadcast_to(rank_products(problem)[..., None], mask.shape)[mask]
    n_w = ts.size
    lhs = np.zeros((n_w + 1, n_w + 1))
    np.fill_diagonal(lhs[:n_w], -ts)
    lhs[:n_w, n_w] = coefficients[mask]
    lhs[n_w, :n_w] = problem.rank_counts[mask]
    last = np.eye(1, n_w + 1, n_w)[0]
    return LinearProgram(objective=last, lhs=lhs, rhs=last, senses=("<=",) * n_w + ("=",))


def efficiency_lp(problem, z_star):
    """The second-stage efficiency program at ``z_star``, dense, for the simplex
    and HiGHS: maximize the total ``t*s*w`` subject to every marginal slack
    ``t*s*r*(w_r - w_{r+1})`` (``t*s*K*w_K`` at a cell's last rank) staying at or
    above ``z_star``, and to the normalization row, over ``padded[rank_mask]``.

    At ``z*`` it is feasible, and unbounded where a cell skips rank 1: that
    rank's weight has no normalization entry.  Above ``z*`` it is infeasible.
    """
    mask = problem.rank_mask
    ts = np.broadcast_to(rank_products(problem)[..., None], mask.shape)[mask]
    ranks = np.nonzero(mask)[2] + 1
    n = ts.size
    lhs = np.zeros((n + 1, n))
    np.fill_diagonal(lhs, ts * ranks)
    inner = np.flatnonzero(ranks[1:] > 1)    # the next variable is in the same cell
    lhs[inner, inner + 1] = -ts[inner] * ranks[inner]
    lhs[n] = problem.rank_counts[mask]
    rhs = np.append(np.full(n, z_star), 1.0)
    return LinearProgram(objective=ts, lhs=lhs, rhs=rhs, senses=(">=",) * n + ("=",))


def max_min_slack_lp(problem):
    """`efficiency_lp` with ``z`` as one more variable to maximize: its optimum
    is the largest least slack that normalized weights can reach."""
    lp = efficiency_lp(problem, 0.0)
    n = lp.objective.size
    z_column = np.append(-np.ones(n), 0.0)[:, None]
    return LinearProgram(objective=np.eye(1, n + 1, n)[0], lhs=np.hstack([lp.lhs, z_column]),
                         rhs=lp.rhs, senses=lp.senses)


# --- random input generators -------------------------------------------------


def random_problem(rng, n_experts=None, n_attributes=None, n_alternatives=None,
                   irregular=False, expert_permutation=True, irregular_share=0.5):
    """A validated random problem; ``irregular`` allows gaps and duplicates,
    drawn in each cell with probability ``irregular_share``."""
    n_e = n_experts or int(rng.integers(1, 4))
    n_a = n_attributes or int(rng.integers(1, 4))
    n_m = n_alternatives or int(rng.integers(2, 7))
    if expert_permutation:
        expert_ranks = rng.permutation(n_e) + 1
    else:
        expert_ranks = rng.integers(1, n_e + 2, size=n_e)
    experts = [{"id": f"E{i+1}", "rank": int(r)} for i, r in enumerate(expert_ranks)]
    attributes = [f"C{j+1}" for j in range(n_a)]
    alternatives = [f"A{k+1}" for k in range(n_m)]
    doc = {
        "experts": experts,
        "attributes": attributes,
        "alternatives": alternatives,
        "attribute_ranks": {
            e["id"]: {a: int(r) for a, r in zip(attributes, rng.permutation(n_a) + 1)}
            for e in experts
        },
        "alternative_ranks": {},
    }
    for e in experts:
        doc["alternative_ranks"][e["id"]] = {}
        for a in attributes:
            if irregular and rng.random() < irregular_share:
                present = rng.choice(n_m, size=int(rng.integers(1, n_m + 1)), replace=False)
                cell = {alternatives[k]: int(rng.integers(1, n_m + 1)) for k in sorted(present)}
            else:
                cell = {alt: int(r) for alt, r in zip(alternatives, rng.permutation(n_m) + 1)}
            doc["alternative_ranks"][e["id"]][a] = cell
    return validate_problem(doc), doc


def big_rank_document():
    """Expert and attribute ranks of 2**32, whose product wraps to 0 in int64."""
    big = 2 ** 32
    return {
        "experts": [{"id": "E1", "rank": big}, {"id": "E2", "rank": 1}],
        "attributes": ["C1"],
        "alternatives": ["A1", "A2"],
        "attribute_ranks": {"E1": {"C1": big}, "E2": {"C1": 1}},
        "alternative_ranks": {"E1": {"C1": {"A1": 1, "A2": 2}},
                              "E2": {"C1": {"A1": 2, "A2": 1}}},
    }


def random_discrete_context(rng, size, max_constraints=3):
    """A feasible random cell context, built around a hidden witness vector."""
    witness = np.sort(rng.random(size))[::-1] + 0.05
    witness = witness / witness.sum()
    ratio, absdiff, lowerbound = [], [], []
    used = {"ratio": set(), "absdiff": set(), "lowerbound": set()}
    for _ in range(int(rng.integers(0, max_constraints + 1))):
        kind = rng.choice(["ratio", "absdiff", "lowerbound"])
        if kind in ("ratio", "absdiff"):
            if size < 2:
                continue
            r = int(rng.integers(1, size))
            if r in used[kind] or witness[r] <= 0:
                continue
            used[kind].add(r)
            if kind == "ratio":
                ratio.append((r, float(witness[r - 1] / witness[r])))
            else:
                absdiff.append((r, float(witness[r - 1] - witness[r])))
        else:
            r = int(rng.integers(1, size + 1))
            if r in used[kind]:
                continue
            used[kind].add(r)
            lowerbound.append((r, float(witness[r - 1] * rng.uniform(0.2, 0.98))))
    return CellContext(ratio=tuple(sorted(ratio)), absdiff=tuple(sorted(absdiff)),
                       lowerbound=tuple(sorted(lowerbound))), witness


def random_continuous_context(rng, size, max_constraints=3):
    """A feasible random cell context in cumulative (continuous) conventions."""
    cuts = np.sort(rng.uniform(0.05, 0.95, size=size - 1)) if size > 1 else np.array([])
    cdf = np.concatenate([cuts, [1.0]])  # witness CDF at ranks 1..size
    ratio, absdiff, lowerbound = [], [], []
    used = {"ratio": set(), "absdiff": set(), "lowerbound": set()}
    for _ in range(int(rng.integers(0, max_constraints + 1))):
        kind = rng.choice(["ratio", "absdiff", "lowerbound"])
        if kind in ("ratio", "absdiff"):
            if size < 3:
                continue
            r = int(rng.integers(2, size))  # keep F(r-1) > 0 and r < size
            if r in used[kind]:
                continue
            used[kind].add(r)
            if kind == "ratio":
                ratio.append((r, float(cdf[r - 1] / cdf[r - 2])))
            else:
                absdiff.append((r, float(cdf[r - 1] - cdf[r - 2])))
        else:
            if size < 2:
                continue
            r = int(rng.integers(1, size))
            if r in used[kind]:
                continue
            used[kind].add(r)
            lowerbound.append((r, float(cdf[r - 1])))
    return CellContext(ratio=tuple(sorted(ratio)), absdiff=tuple(sorted(absdiff)),
                       lowerbound=tuple(sorted(lowerbound))), cdf


def random_utilities(rng, problem):
    """Random normalized nonincreasing per-cell utilities, padded (I, J, K)."""
    out = np.zeros(problem.rank_counts.shape)
    for i, j in problem.cells():
        kij = int(problem.max_rank[i, j])
        u = np.sort(rng.random(kij))[::-1] + 1e-3
        out[i, j, :kij] = u / u.sum()
    return out


def every_cell(problem, u):
    """Padded utilities that give each cell of a gap-free problem the vector ``u``."""
    return np.tile(u, (problem.n_experts, problem.n_attributes, 1))
