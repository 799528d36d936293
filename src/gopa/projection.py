"""KL projection onto a polytope of distributions, the core of both stage-1 cells.

The polytope is ``{x >= 0 : sum(x) = 1, rows[:n_eq] @ x = rhs[:n_eq],
rows[n_eq:] @ x >= rhs[n_eq:]}`` and the projection minimizes
``sum(x log(x / base))`` over it (Csiszar 1975).  `kl_project` solves the dual:
``x = base * exp(rows.T @ y) / Z`` keeps x positive and normalized, and the
multipliers ``y`` minimize the convex ``log Z(y) - y @ rhs``, whose gradient is
the row residual and whose Hessian is the covariance of the rows under x.
`project` adds the only linear program of stage 1, run when the dual fails.
"""

import numpy as np

from .exceptions import InfeasibleContext, NumericFailure

RESIDUAL_TOL = 1e-12    # row residual at convergence
NEAR_ZERO = 1e-9        # a coordinate this small may be forced to zero
_MERIT_TOL = 1e-7       # below this residual take plain Newton steps
_EIG_CUT = 1e-12        # relative eigenvalue cut of the pseudo-inverse
_BUDGET = 500           # iterations over all working sets


def _primal(log_base, exponent):
    e = log_base + exponent
    shift = e.max()
    x = np.exp(e - shift)
    z = x.sum()
    return x / z, shift + np.log(z)


def _merit(log_base, sub, target, y_work):
    return _primal(log_base, sub.T @ y_work)[1] - y_work @ target


def kl_project(base, rows, rhs, n_eq):
    """Project ``base`` onto the polytope by Newton steps on the dual.

    Steps use the eigen pseudo-inverse of the Hessian, so redundant rows cost
    nothing; an Armijo search on the dual merit runs while the residual is
    above `_MERIT_TOL`.  The working set holds the equality rows and the
    inequality rows whose multipliers may grow: once its rows hold, the most
    violated other row joins it, and a step that would turn a multiplier
    negative stops at zero and drops that row.

    Returns ``(x, y)``: x is proportional to ``base * exp(rows.T @ y)`` and
    inequality multipliers are nonnegative.  Raises `NumericFailure`, naming
    the iterations and the last residual, when it stays above `RESIDUAL_TOL`.
    """
    log_base = np.log(base / base.sum())
    y = np.zeros(rows.shape[0])
    work = np.arange(rows.shape[0]) < n_eq
    for it in range(_BUDGET):
        sub, target = rows[work], rhs[work]
        x, log_z = _primal(log_base, sub.T @ y[work])
        moment = sub @ x
        grad = moment - target
        res = np.abs(grad).max(initial=0.0)
        if res <= RESIDUAL_TOL:
            slack = np.where(work[n_eq:], np.inf, rows[n_eq:] @ x - rhs[n_eq:])
            if slack.min(initial=np.inf) >= -RESIDUAL_TOL:
                return x, y
            work[n_eq + np.argmin(slack)] = True
            continue
        w, vec = np.linalg.eigh((sub * x) @ sub.T - np.outer(moment, moment))
        null = w <= _EIG_CUT * np.abs(w).max()
        ray = vec[:, null] @ (vec[:, null].T @ grad)
        if np.abs(ray).max(initial=0.0) > RESIDUAL_TOL:
            # the working rows contradict each other: x stays put and the merit
            # falls without bound along -ray, until a multiplier reaches zero
            step, alpha = -ray, np.inf
        else:
            step = -(vec[:, ~null] / w[~null]) @ (vec[:, ~null].T @ grad)
            alpha = 1.0
            if res > _MERIT_TOL:
                # inside the quadratic basin the merit is flat at float
                # resolution, so plain Newton steps are taken there
                merit, slope = log_z - y[work] @ target, grad @ step
                while alpha >= 1e-15 and _merit(log_base, sub, target, y[work] + alpha * step) \
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
