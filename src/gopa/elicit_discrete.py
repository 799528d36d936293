"""First-stage utility elicitation for discrete prospects.

Finds the per-rank utility vector closest in KL divergence to a surrogate
target subject to the cell's preference constraints (ratios and differences
between consecutive ranks, per-rank lower bounds, rank dominance, and
normalization): the KL projection of `gopa.projection` with the surrogate as
base.  Projected Newton steps on the dual multipliers, one per constraint, give
``u = v * exp(rows.T @ y) / Z`` with the lower-bound and rank-order multipliers
kept nonnegative.  A linear program runs only when that iteration fails or
leaves a utility near zero, to tell an infeasible context from ranks forced to
zero utility, which are pinned there before the projection runs again.
"""

import numpy as np

from .projection import project

_ACTIVE_TOL = 1e-7


def discrete_constraint_system(ctx, size):
    """Assemble the linear constraint system of one discrete cell.

    Returns
    -------
    (A_eq, b_eq, G, h)
        Equalities ``A_eq @ U = b_eq`` (normalization, ratios, differences)
        and inequalities ``G @ U >= h`` (lower bounds, then rank dominance).
    """
    eye = np.eye(size)
    a_eq = np.vstack([np.ones(size)]
                     + [eye[r - 1] - alpha * eye[r] for r, alpha in ctx.ratio]
                     + [eye[r - 1] - eye[r] for r, _ in ctx.absdiff])
    b_eq = np.array([1.0] + [0.0] * len(ctx.ratio) + [beta for _, beta in ctx.absdiff])
    g = np.vstack([eye[[r - 1 for r, _ in ctx.lowerbound]], eye[:-1] - eye[1:]])
    h = np.concatenate([[gamma for _, gamma in ctx.lowerbound], np.zeros(size - 1)])
    return a_eq, b_eq, g, h


def elicit_discrete(target, ctx, size):
    """Elicit the per-rank utilities of one discrete cell.

    Parameters
    ----------
    target : array_like, shape (size,)
        Positive target weights (normalized internally, so any positive
        rescaling of the target yields the same result).
    ctx : CellContext
        Validated preference constraints for the cell.
    size : int
        Number of ranks in the cell.

    Returns
    -------
    ndarray, shape (size,)
        Nonnegative utilities summing to 1, nonincreasing in rank, and
        satisfying every constraint of the context.

    Raises
    ------
    InfeasibleContext, NumericFailure
    """
    v = np.asarray(target, dtype=float)
    if v.shape != (size,) or (v <= 0).any():
        raise ValueError(f"target must be {size} positive weights")
    v = v / v.sum()
    a_eq, b_eq, g, h = discrete_constraint_system(ctx, size)
    return project(v, np.vstack([a_eq[1:], g]), np.concatenate([b_eq[1:], h]),
                   a_eq.shape[0] - 1, "preference constraints admit no feasible utility")[0]


def entropy_max_discrete(ctx, size):
    """Entropy-maximizing utilities of one cell (uniform-target special case)."""
    return elicit_discrete(np.full(size, 1.0 / size), ctx, size)


def kkt_residual_discrete(u, target, ctx):
    """Stationarity residual of a feasible utility vector.

    Fits multipliers for the equality constraints (free sign) and the active
    inequality constraints (nonnegative) by least squares and returns the
    max-norm of the remaining gradient.  Zero within tolerance exactly when
    ``u`` is the constrained KL minimizer.  It is the package's one use of
    scipy: `perfbench/checks.py` calls it inside traced runs, where a fit on
    the package's simplex would be timed as `lpcheck` work.
    """
    import scipy.optimize   # here, not at the top: it is most of the package's import time

    u = np.asarray(u, dtype=float)
    size = u.size
    v = np.asarray(target, dtype=float)
    v = v / v.sum()
    a_eq, b_eq, g, h = discrete_constraint_system(ctx, size)
    mask = u > 1e-12
    grad = np.log(u[mask] / v[mask]) + 1.0
    cols = [a_eq[:, mask].T]
    n_eq = a_eq.shape[0]
    active = np.flatnonzero(g @ u - h <= _ACTIVE_TOL) if g.size else np.zeros(0, dtype=int)
    if active.size:
        cols.append(g[active][:, mask].T)
    mat = np.hstack(cols)
    lower = np.concatenate([np.full(n_eq, -np.inf), np.zeros(active.size)])
    upper = np.full(n_eq + active.size, np.inf)
    # bvls: exact active-set solve for these tiny sign-constrained fits
    fit = scipy.optimize.lsq_linear(mat, grad, bounds=(lower, upper),
                                    method="bvls", tol=1e-15)
    return float(np.abs(mat @ fit.x - grad).max())
