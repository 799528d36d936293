"""KL projection onto a polytope of distributions, the core of both stage-1 cells.

The polytope is ``{x >= 0 : sum(x) = 1, rows[:n_eq] @ x = rhs[:n_eq],
rows[n_eq:] @ x >= rhs[n_eq:]}``; the projection minimizes ``sum(x log(x / base))`` over
it (Csiszar 1975).  `kl_project` solves the dual: ``x = base * exp(rows.T @ y) / Z``, and
the multipliers minimize the convex ``log Z(y) - y @ rhs`` over ``y[n_eq:] >= 0``, with
the row residual as gradient and the rows' covariance under x as Hessian.  `project`
adds the only linear program of stage 1, run when the dual fails.
"""

import numpy as np

from .exceptions import InfeasibleContext, NumericFailure

RESIDUAL_TOL = 1e-12    # row residual at convergence
NEAR_ZERO = 1e-9        # a coordinate this small may be forced to zero
_MERIT_TOL = 1e-7       # below this residual take plain Newton steps
_EIG_CUT = 1e-12        # relative eigenvalue cut of the pseudo-inverse
_EPS = 1e-3             # multipliers this small may be fixed at zero
_BUDGET = 500           # projected Newton iterations


def _primal(log_base, exponent):
    e = log_base + exponent
    shift = e.max()
    x = np.exp(e - shift)
    return x / (z := x.sum()), shift + np.log(z)


def kl_project(base, rows, rhs, n_eq):
    """Project ``base`` onto the polytope by projected Newton steps on the dual.

    Inequality multipliers are bounded below by zero (Bertsekas 1982).  Each step
    fixes at zero those within ``min(_EPS, residual)`` of zero whose gradient points
    out of the orthant, takes an eigen pseudo-inverse Newton step in the rest (so
    redundant rows cost nothing) and projects onto ``y >= 0``, so many rows enter or
    leave at once.  An Armijo search runs while the residual is above `_MERIT_TOL`.

    Returns ``(x, y)``: x is proportional to ``base * exp(rows.T @ y)`` and
    inequality multipliers are nonnegative.  Raises `NumericFailure`, naming
    the iterations and the last residual, when it stays above `RESIDUAL_TOL`.
    """
    log_base = np.log(base / base.sum())
    y = np.zeros(rows.shape[0])
    lower = np.where(np.arange(y.size) < n_eq, -np.inf, 0.0)
    for it in range(_BUDGET):
        x, log_z = _primal(log_base, rows.T @ y)
        grad = rows @ x - rhs
        room = y - lower
        # y minus its projected gradient step: zero exactly at the optimum
        res = np.abs(np.minimum(room, grad)).max(initial=0.0)
        if res <= RESIDUAL_TOL:
            if it:   # one more step with the last Hessian: x is then exact to rounding
                y[free] += vec[:, k:] @ (-(vec[:, k:].T @ grad[free]) / w[k:])
                y = np.maximum(y, lower)
                x = _primal(log_base, rows.T @ y)[0]
            return x, y
        fixed = (room <= min(_EPS, res)) & (grad > 0.0)
        while True:
            free = ~fixed
            sub = rows[free]
            w, vec = np.linalg.eigh((sub * x) @ sub.T - np.outer(sub @ x, sub @ x))
            # eigh sorts w, so the null space is the leading columns of vec
            k = np.searchsorted(w, _EIG_CUT * np.abs(w).max(initial=0.0), side="right")
            coef = vec.T @ grad[free]
            ray = vec[:, :k] @ coef[:k]
            contradict = np.abs(ray).max(initial=0.0) > RESIDUAL_TOL
            # fix the multipliers at zero that the ray would push below it
            if not contradict or not (stuck := (room[free] <= 0.0) & (ray > 0.0)).any():
                break
            fixed[np.flatnonzero(free)[stuck]] = True
        if contradict:
            # the free rows contradict each other: x stays put and the merit
            # falls without bound along -ray, until a multiplier reaches zero
            limit = np.divide(room[free], ray, out=np.full(ray.size, np.inf), where=ray > 0.0)
            if limit.min() == np.inf:
                break
            y[free] -= limit.min() * ray
            y[np.flatnonzero(free)[np.argmin(limit)]] = 0.0
            continue
        step = -y * fixed   # fixed multipliers fall to zero at a full step
        step[free] = vec[:, k:] @ (-coef[k:] / w[k:])
        alpha = 1.0
        if res > _MERIT_TOL:   # below it the merit is flat at float resolution
            merit, slope = log_z - y @ rhs, grad @ step
            while alpha >= 1e-15:
                trial = np.maximum(y + alpha * step, lower)
                if _primal(log_base, rows.T @ trial)[1] - trial @ rhs <= merit + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
            else:
                break
        y = np.maximum(y + alpha * step, lower)
    raise NumericFailure(f"KL projection did not converge after {it + 1} iterations "
                         f"(residual {res:.3g})")


def positive_support(rows, rhs, n_eq):
    """Mask of the coordinates some point of the polytope makes positive.

    One HiGHS program over the homogenized polytope (``x`` with a scale
    ``t >= 0``: ``sum(x) = t``, rows compared with ``rhs * t``) maximizes
    ``sum(s)`` with ``0 <= s <= min(x, 1)``.  Scaling a point up saturates s on
    its support, so the optimum has ``s = 1`` exactly where x can be positive.
    Returns None when the polytope is empty.
    """
    import scipy.optimize   # here, not at the top: it is most of the package's import time

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


def project(base, rows, rhs, n_eq, empty_message):
    """`kl_project`, pinning at zero the coordinates the constraints force there.

    `positive_support` runs only when the projection fails or ends with a
    coordinate at most `NEAR_ZERO`, at most once per round, and each further
    round pins at least one more coordinate.  Returns ``(x, pinned)``;
    raises `InfeasibleContext` with ``empty_message`` for an empty polytope.
    """
    keep = np.ones(base.size, dtype=bool)
    while True:
        failure = None
        try:
            x, _ = kl_project(base[keep], rows[:, keep], rhs, n_eq)
            if x.min() > NEAR_ZERO:
                break
        except NumericFailure as exc:
            failure = exc
        support = positive_support(rows[:, keep], rhs, n_eq)
        if support is None:
            raise InfeasibleContext(empty_message)
        if support.all():
            if failure is not None:
                raise failure
            break
        keep[np.flatnonzero(keep)[~support]] = False
    full = np.zeros(base.size)
    full[keep] = x
    return full, ~keep
