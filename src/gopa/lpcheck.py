"""Small dense-tableau simplex solver and LP builders used for verification.

The production path computes weights in closed form; this module rebuilds the
same programs as explicit LPs so the closed forms can be cross-checked, and it
realizes the two-stage efficiency program.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, InfeasibleStage2, NumericFailure
from .model import pack_utilities
from .solver import harmonic_coefficients

PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class LinearProgram:
    """A maximization LP: max c @ x subject to row senses and x >= 0 or free."""

    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    senses: tuple
    free: tuple = None      # per-variable flags, None = all nonnegative
    names: tuple = None     # optional variable names

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.atleast_2d(np.asarray(self.lhs, dtype=float))
        b = np.asarray(self.rhs, dtype=float)
        if a.shape != (b.size, c.size):
            raise DimensionError(
                f"lhs shape {a.shape} incompatible with {b.size} rows, {c.size} vars")
        if len(self.senses) != b.size:
            raise DimensionError(f"{len(self.senses)} senses for {b.size} rows")
        if any(s not in ("<=", "=", ">=") for s in self.senses):
            raise DimensionError(f"unknown sense in {self.senses}")
        if self.free is not None and len(self.free) != c.size:
            raise DimensionError(f"{len(self.free)} free flags for {c.size} vars")
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise DimensionError("entries must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lhs", a)
        object.__setattr__(self, "rhs", b)


@dataclass(frozen=True)
class LPResult:
    status: str            # "optimal" | "infeasible" | "unbounded"
    value: float = None
    x: np.ndarray = None


def solve_lp(lp, tol=PIVOT_TOL, max_iter=None):
    """Solve an LP with the Big-M dense-tableau simplex under Bland's rule.

    Bland's pivoting (lowest eligible index) makes the run deterministic and
    cycle-free.  The returned vertex is refined against the original data by
    re-solving the final basis, so Big-M rounding does not leak into results.

    Returns
    -------
    LPResult
    """
    c0 = lp.objective
    a0 = lp.lhs
    b0 = lp.rhs
    m = b0.size
    free = np.zeros(c0.size, dtype=bool) if lp.free is None else np.asarray(lp.free, dtype=bool)

    # split free variables into positive/negative parts
    split = np.flatnonzero(free)
    c = np.concatenate([c0, -c0[split]])
    a = np.hstack([a0, -a0[:, split]])
    n = c.size

    senses = list(lp.senses)
    b = b0.copy()
    a = a.copy()
    for i in range(m):
        if b[i] < 0:
            a[i] *= -1.0
            b[i] = -b[i]
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    # slack / surplus / artificial columns
    cols = [a]
    basis = [-1] * m
    extra = 0
    for i, sense in enumerate(senses):
        if sense == "<=":
            col = np.zeros((m, 1))
            col[i, 0] = 1.0
            cols.append(col)
            basis[i] = n + extra
            extra += 1
        elif sense == ">=":
            col = np.zeros((m, 1))
            col[i, 0] = -1.0
            cols.append(col)
            extra += 1
    art_start = n + extra
    for i, sense in enumerate(senses):
        if basis[i] == -1:  # '=' rows and '>=' rows need an artificial
            col = np.zeros((m, 1))
            col[i, 0] = 1.0
            cols.append(col)
            basis[i] = n + extra
            extra += 1
    tab_a = np.hstack(cols)
    total = n + extra

    big_m = 1e6 * max(1.0, np.abs(c).max(initial=0.0), np.abs(b).max(initial=0.0),
                      np.abs(a).max(initial=0.0))
    c_ext = np.zeros(total)
    c_ext[:n] = c
    c_ext[art_start:] = -big_m

    tab = np.hstack([tab_a, b[:, None]])
    if max_iter is None:
        max_iter = 200 * (m + total) + 5000

    for _ in range(max_iter):
        cb = c_ext[basis]
        reduced = cb @ tab[:, :total] - c_ext
        entering = -1
        for j in range(total):
            if reduced[j] < -tol:
                entering = j
                break
        if entering < 0:
            break
        ratios = np.full(m, np.inf)
        col = tab[:, entering]
        positive = col > tol
        ratios[positive] = tab[positive, total] / col[positive]
        best = ratios.min()
        if not np.isfinite(best):
            return LPResult(status="unbounded")
        leaving = -1
        for i in range(m):  # Bland: lowest basis-variable index among ties
            if positive[i] and ratios[i] <= best + tol:
                if leaving < 0 or basis[i] < basis[leaving]:
                    leaving = i
        pivot = tab[leaving, entering]
        tab[leaving] /= pivot
        for i in range(m):
            if i != leaving and abs(tab[i, entering]) > 0:
                tab[i] -= tab[i, entering] * tab[leaving]
        basis[leaving] = entering
    else:
        raise NumericFailure("simplex iteration budget exhausted")

    x_tab = np.zeros(total)
    x_tab[basis] = tab[:, total]
    if any(bi >= art_start and x_tab[bi] > 1e-7 for bi in basis):
        return LPResult(status="infeasible")

    # refine the vertex on the original data to strip Big-M rounding
    basis_mat = tab_a[:, basis]
    try:
        xb = np.linalg.solve(basis_mat, b)
    except np.linalg.LinAlgError:
        xb, *_ = np.linalg.lstsq(basis_mat, b, rcond=None)
    if np.isfinite(xb).all() and np.abs(basis_mat @ xb - b).max() <= 1e-6:
        x_tab = np.zeros(total)
        x_tab[basis] = xb

    x = x_tab[:c0.size].copy()
    x[split] -= x_tab[c0.size:n]
    return LPResult(status="optimal", value=float(c0 @ x), x=x)


# --- builders for the weight programs ---------------------------------------


def _flat_cells(problem):
    """Per weight variable ``padded[rank_mask]``: its cell's ``t_i * s_ij`` and its rank."""
    ts = (problem.expert_ranks[:, None] * problem.attribute_ranks).astype(float)
    mask = problem.rank_mask
    return np.broadcast_to(ts[..., None], mask.shape)[mask], np.nonzero(mask)[2] + 1


def cell_variable_names(problem):
    """Flat variable layout shared by the LP builders: all w cells, then z."""
    names = [f"w[{problem.expert_ids[i]},{problem.attribute_ids[j]},r{r + 1}]"
             for i, j, r in zip(*np.nonzero(problem.rank_mask))]
    return tuple(names) + ("z",)


def _rank_rows(problem, coefficients):
    """Rows ``coef*z - t*s*w <= 0`` plus the weighted normalization row."""
    mask = problem.rank_mask
    ts, _ = _flat_cells(problem)
    n_w = ts.size
    lhs = np.zeros((n_w + 1, n_w + 1))
    np.fill_diagonal(lhs[:n_w], -ts)
    lhs[:n_w, n_w] = coefficients[mask]
    lhs[n_w, :n_w] = problem.rank_counts[mask]
    last = np.eye(1, n_w + 1, n_w)[0]   # objective z; right side 1 of the normalization row
    return LinearProgram(objective=last, lhs=lhs, rhs=last,
                         senses=("<=",) * n_w + ("=",), free=(False,) * n_w + (True,),
                         names=cell_variable_names(problem))


def build_opa_lp(problem):
    """LP whose optimum matches the closed-form ranking weights."""
    return _rank_rows(problem, harmonic_coefficients(problem))


def build_gopa_lp(problem, utilities):
    """LP for given per-cell utilities: rows ``K_ij * U_r * z <= t*s*w_r``."""
    return _rank_rows(problem, problem.max_rank[..., None] * pack_utilities(problem, utilities))


@dataclass(frozen=True)
class EfficiencyCheck:
    objective: float
    rank_weights: np.ndarray     # padded (I, J, K), 0 beyond each cell's max rank
    min_slack: float


def verify_efficiency(problem, z_star):
    """Solve the second-stage efficiency program at a first-stage optimum.

    Maximizes the total marginal slack subject to every marginal slack
    staying at or above ``z_star``.  Returns the stage-2 objective, the
    weights, and the minimum slack attained (which must equal ``z_star``
    for a genuine first-stage optimum).

    Raises
    ------
    InfeasibleStage2
        If no weights attain every slack >= ``z_star``.
    """
    mask = problem.rank_mask
    ts, ranks = _flat_cells(problem)
    n = ts.size
    # slack of rank r: ts * r * (w_r - w_{r+1}), and ts * K_ij * w_K at a cell's last rank
    lhs = np.zeros((n + 1, n))
    np.fill_diagonal(lhs, ts * ranks)
    inner = np.flatnonzero(ranks[1:] > 1)    # the next variable is in the same cell
    lhs[inner, inner + 1] = -ts[inner] * ranks[inner]
    lhs[n] = problem.rank_counts[mask]
    rhs = np.append(np.full(n, z_star), 1.0)
    res = solve_lp(LinearProgram(objective=ts, lhs=lhs, rhs=rhs, senses=(">=",) * n + ("=",)))
    if res.status != "optimal":
        raise InfeasibleStage2(f"stage-2 program is {res.status} at z* = {z_star:g}")

    weights = np.zeros(mask.shape)
    weights[mask] = res.x
    return EfficiencyCheck(objective=res.value, rank_weights=weights,
                           min_slack=float((lhs[:-1] @ res.x).min()))
