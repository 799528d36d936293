"""First-stage utility elicitation for continuous prospects.

The elicited density minimizes KL divergence to a risk-preference target
subject to constraints on its cumulative distribution.  Because every
constraint acts through the CDF at integer ranks, the optimum rescales the
target by a constant factor on each segment between breakpoints, so the
problem reduces to the KL projection of `gopa.projection` with the target's
segment masses ``m`` as base.  Projected Newton steps on the dual multipliers, one
per constraint, give the masses ``m * exp(rows.T @ y) / Z``, with the floor
multipliers of inequality mode kept nonnegative.  A linear program runs only when that
iteration fails or leaves a segment mass near zero, to tell an infeasible
context, or one that empties a segment, from a numeric failure.

Constraint conventions for a cell context in continuous prospects: a ratio or
difference stored at rank ``r`` relates the cumulative utilities F(r-1) and
F(r); a lower bound at rank ``r`` fixes F(r) (equality mode, the default) or
floors it (inequality mode).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import BreakpointError, InfeasibleContext
from .projection import project


def breakpoints(ctx, size):
    """Sorted distinct breakpoints of a cell's elicited density, endpoints included."""
    pts = {0.0, float(size)}
    for rank, _ in ctx.ratio:
        pts.update((rank - 1.0, float(rank)))
    for rank, _ in ctx.absdiff:
        pts.update((rank - 1.0, float(rank)))
    for rank, _ in ctx.lowerbound:
        pts.add(float(rank))
    pts = {p for p in pts if 0.0 < p < size} | {0.0, float(size)}
    return np.asarray(sorted(pts))


@dataclass(frozen=True)
class PiecewiseDensity:
    """Solved cell density: the target rescaled segment by segment.

    ``scales[s]`` multiplies the target density on the open segment between
    ``breakpoints[s]`` and ``breakpoints[s + 1]``; ``masses[s]`` is the
    utility mass carried by that segment.
    """

    target: object
    breakpoints: np.ndarray
    scales: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.breakpoints.setflags(write=False)
        self.scales.setflags(write=False)
        self.masses.setflags(write=False)

    @property
    def size(self):
        return self.target.size

    def segment_index(self, x):
        idx = np.searchsorted(self.breakpoints, x, side="left") - 1
        return np.clip(idx, 0, self.scales.size - 1)

    def value(self, x):
        """Density value(s) at ``x``."""
        x = np.asarray(x, dtype=float)
        return self.scales[self.segment_index(x)] * self.target.value(x)

    def cdf(self, x):
        """Cumulative utility on [0, x]: a scalar for a scalar ``x``, else an array."""
        x = np.asarray(x, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(self.masses)])
        s = self.segment_index(x)
        # target.integral is scalar `math` code on purpose: numpy's exp, log and
        # pow differ from it in the last bit on some inputs
        inside = np.array([self.target.integral(a, b)
                           for a, b in zip(self.breakpoints[s].flat, x.flat)])
        return (cum[s] + self.scales[s] * inside.reshape(x.shape))[()]


def _cumulative_rows(ctx, pts):
    """Constraint rows over segment masses; returns (rows, rhs, is_bound)."""
    n_seg = pts.size - 1

    def cum(rank):
        row = np.zeros(n_seg)
        stop = np.searchsorted(pts, float(rank))
        row[:stop] = 1.0
        return row

    rows, rhs, is_bound = [], [], []
    for rank, alpha in ctx.ratio:
        rows.append(cum(rank) - alpha * cum(rank - 1))
        rhs.append(0.0)
        is_bound.append(False)
    for rank, beta in ctx.absdiff:
        rows.append(cum(rank) - cum(rank - 1))
        rhs.append(beta)
        is_bound.append(False)
    for rank, gamma in ctx.lowerbound:
        rows.append(cum(rank))
        rhs.append(gamma)
        is_bound.append(True)
    if rows:
        return np.vstack(rows), np.asarray(rhs), np.asarray(is_bound)
    return np.zeros((0, n_seg)), np.zeros(0), np.zeros(0, dtype=bool)


def elicit_continuous(target, ctx, size, bound_mode="equality"):
    """Elicit the piecewise-scaled utility density of one continuous cell.

    Parameters
    ----------
    target : TargetDensity
        Normalized risk-preference density on [0, size].
    ctx : CellContext
        Validated preference constraints (continuous conventions).
    size : int
        Number of ranks in the cell; must match ``target.size``.
    bound_mode : str
        ``"equality"`` pins each lower bound's cumulative value exactly;
        ``"inequality"`` treats it as a floor and activates it only when
        needed.

    Returns
    -------
    PiecewiseDensity

    Raises
    ------
    InfeasibleContext, NumericFailure
    """
    if target.size != size:
        raise ValueError(f"target covers [0, {target.size}], cell has size {size}")
    if bound_mode not in ("equality", "inequality"):
        raise ValueError(f"unknown bound mode {bound_mode!r}")
    pts = breakpoints(ctx, size)
    m = np.array([target.integral(a, b) for a, b in zip(pts[:-1], pts[1:])])
    rows, rhs, is_bound = _cumulative_rows(ctx, pts)
    # bound rows come last, so in inequality mode they are the ">=" rows
    n_eq = rows.shape[0] - (int(is_bound.sum()) if bound_mode == "inequality" else 0)
    q, pinned = project(m, rows, rhs, n_eq, "cumulative constraints admit no density")
    if pinned.any():
        raise InfeasibleContext("constraints force zero density on a segment")
    return PiecewiseDensity(target=target, breakpoints=pts, scales=q / m, masses=q)


def risk_preference(density, x):
    """Arrow-Pratt coefficient ``-d/dx ln u(x)`` of a solved density.

    Defined off breakpoints only, where it coincides with the target's
    coefficient because the density is a constant rescaling of the target on
    each open segment.
    """
    x = float(x)
    if np.abs(density.breakpoints - x).min() <= 1e-12:
        raise BreakpointError(f"risk preference is undefined at breakpoint x = {x:g}")
    if not 0.0 < x < density.size:
        raise BreakpointError(f"x = {x:g} outside (0, {density.size})")
    return density.target.risk_coefficient(x)


def cumulative_utilities(density):
    """Per-rank utilities induced by a solved density, nonincreasing in rank.

    Rank ``r`` gets ``1 - F(r - 1)``, the density's mass on ``[r - 1, K]``,
    normalized over ranks, so rank 1 gets the largest value as rank
    dominance requires.  With a uniform density the vector equals the
    rank-sum surrogate weights.
    """
    tail = 1.0 - density.cdf(np.arange(density.size)[::-1])    # 1 - F(K - r), r = 1 .. K
    return (tail / tail.sum())[::-1].copy()
