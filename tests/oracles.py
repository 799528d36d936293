"""Independent oracles and input generators shared by the test modules.

The oracles deliberately avoid the production solve paths: the KL oracle is a
vectorized grid search over the feasible polytope, integrals come from scipy
quadrature, and concordance is evaluated from its defining sums.
"""

import json

import numpy as np
import scipy.linalg

from gopa.elicit_discrete import discrete_constraint_system
from gopa.exceptions import NumericFailure
from gopa.lpcheck import LinearProgram, solve_lp
from gopa.model import CellContext, validate_problem


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


def assemble_by_cell(problem, coefficients):
    """Stage-2 closed form walked cell by cell over ``(i, j) -> coefficients``.

    Returns ``(objective, rank_weights, weights)`` with ``rank_weights`` a
    ``(i, j) -> ndarray`` dict of length ``max_rank[i, j]`` each.
    """
    denom = 0.0
    for i, j in problem.cells():
        ts = float(problem.expert_ranks[i] * problem.attribute_ranks[i, j])
        c = problem.cell_counts(i, j)
        denom += (c * coefficients[(i, j)]).sum() / ts
    z_star = 1.0 / denom

    rank_weights = {}
    weights = np.zeros((problem.n_experts, problem.n_attributes, problem.n_alternatives))
    for i, j in problem.cells():
        ts = float(problem.expert_ranks[i] * problem.attribute_ranks[i, j])
        w = coefficients[(i, j)] * z_star / ts
        rank_weights[(i, j)] = w
        ranks = problem.alternative_ranks[i, j]
        present = ranks > 0
        weights[i, j, present] = w[ranks[present] - 1]
    return z_star, rank_weights, weights


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
    significant digits, then ``json.dumps(indent=2, sort_keys=True)``."""
    return json.dumps(_round_floats(doc), indent=2, sort_keys=True) + "\n"


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


# --- random input generators -------------------------------------------------


def random_problem(rng, n_experts=None, n_attributes=None, n_alternatives=None,
                   irregular=False, expert_permutation=True):
    """A validated random problem; ``irregular`` allows gaps and duplicates."""
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
            if irregular and rng.random() < 0.5:
                present = rng.choice(n_m, size=int(rng.integers(1, n_m + 1)), replace=False)
                cell = {alternatives[k]: int(rng.integers(1, n_m + 1)) for k in sorted(present)}
            else:
                cell = {alt: int(r) for alt, r in zip(alternatives, rng.permutation(n_m) + 1)}
            doc["alternative_ranks"][e["id"]][a] = cell
    return validate_problem(doc), doc


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
    """Random normalized nonincreasing per-cell utilities."""
    out = {}
    for i, j in problem.cells():
        kij = int(problem.max_rank[i, j])
        u = np.sort(rng.random(kij))[::-1] + 1e-3
        out[(i, j)] = u / u.sum()
    return out
