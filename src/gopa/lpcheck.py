"""Two-phase dense-tableau simplex, the package's one LP engine, and the LP builders.

A named start is used only when its certificate holds; otherwise the
program takes the slack start.  The weight programs name the basis of every
weight and ``z``, which solution efficiency makes optimal, so a primal and a
dual point prove it with no tableau and no pivot.  From the slack start,
phase I runs only over the artificials of the rows whose slack cannot hold
them.  The tableau carries the reduced costs as one more row, which each pivot
updates with the rest.  A pivot updates only the columns where the pivot row
is nonzero: the tableau is stored dense, but the pivot rows of the weight
programs are sparse.

Stage 1 runs it on the support program of `gopa.projection.positive_support`.
The production path computes weights in closed form; this module rebuilds the
same programs as explicit LPs so the closed forms can be cross-checked.  The
second-stage efficiency program is not solved: `verify_efficiency` checks the
closed form's point and a dual point, which the closed form also gives, on its
rows.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, NumericFailure
from .solver import harmonic_coefficients, padded_utilities, rank_products

TOL = 1e-9              # pivot and reduced-cost tolerance
INFEASIBLE_TOL = 1e-7   # largest phase-I artificial sum of a feasible program


@dataclass(frozen=True)
class LinearProgram:
    """A maximization LP: max c @ x subject to row senses and x >= 0.

    ``start``, if given, names a basis that `solve_lp` tries to certify
    optimal: one column of ``[lhs | slacks]`` per row, the slacks numbered
    after the variables in the order of the inequality rows.
    """

    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    senses: tuple
    start: np.ndarray = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.atleast_2d(np.asarray(self.lhs, dtype=float))
        b = np.asarray(self.rhs, dtype=float)
        if a.shape != (b.size, c.size):
            raise DomainError(
                f"lhs shape {a.shape} incompatible with {b.size} rows, {c.size} vars")
        if len(self.senses) != b.size:
            raise DomainError(f"{len(self.senses)} senses for {b.size} rows")
        if any(s not in ("<=", "=", ">=") for s in self.senses):
            raise DomainError(f"unknown sense in {self.senses}")
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise DomainError("entries must be finite")
        if self.start is not None:
            start = np.asarray(self.start)
            columns = c.size + sum(s != "=" for s in self.senses)
            if start.shape != (b.size,) or start.dtype.kind not in "iu":
                raise DomainError(f"start needs one column index per row, {b.size} rows")
            if ((start < 0) | (start >= columns)).any():
                raise DomainError(f"start column out of range 0..{columns - 1}")
            if np.unique(start).size != start.size:
                raise DomainError("start repeats a column")
            object.__setattr__(self, "start", start)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lhs", a)
        object.__setattr__(self, "rhs", b)


@dataclass(frozen=True)
class LPResult:
    status: str            # "optimal" | "infeasible" | "unbounded"
    value: float = None
    x: np.ndarray = None


def solve_lp(lp):
    """Solve an LP from the certified ``lp.start``, or with a dense-tableau simplex.

    A named start is used only when its certificate holds; otherwise the
    program takes the slack start.  With ``B`` the start's columns of
    ``[A | slacks]``, two `np.linalg.solve` calls give the vertex
    ``x_B = B⁻¹b`` and the duals ``y = B⁻ᵀc_B``.  The certificate holds when,
    on the built rows, ``x_B >= -TOL``, no reduced cost
    ``yᵀ[A | slacks] - c`` is below ``-TOL``, each row's residual
    ``|[A | slacks]·x - b|`` is within ``TOL·(1 + |A|·|x|)``, and the duality
    gap ``|c·x - b·y|`` is within ``TOL·(1 + |c·x|)``: then ``x`` is optimal.

    The slack start negates rows where ``b < 0`` and ``>=`` rows where
    ``b = 0``, so every inequality row whose slack now reads +1 starts basic
    on it.  Only the other rows get an artificial: ``=`` rows, and rows that
    read ``>=`` with ``b > 0`` once negated.  Phase I maximizes minus the
    artificial sum; a sum left above `INFEASIBLE_TOL` means the program is
    infeasible.  An artificial still basic at zero is pivoted onto a
    structural column, or its row is dropped as redundant, and phase II
    maximizes the objective.  The lowest eligible column enters, so runs are
    deterministic; `_simplex` says which row leaves and why runs cannot cycle.
    """
    c = lp.objective
    senses = np.asarray(lp.senses)
    slacks = np.diag(1.0 * (senses == "<=") - (senses == ">="))[:, senses != "="]
    rows = np.hstack([lp.lhs, slacks, lp.rhs[:, None]])
    cost = np.concatenate([c, np.zeros(slacks.shape[1])])
    values = None if lp.start is None else _certified(rows, cost, lp.start)
    if values is None:
        started = _phase_one(rows, senses)
        if started is None:
            return LPResult(status="infeasible")
        tab, basis = started
        if not _simplex(tab, basis, cost):
            return LPResult(status="unbounded")
        values = np.zeros(tab.shape[1] - 1)
        values[basis] = tab[:-1, -1]
    x = values[:c.size]
    return LPResult(status="optimal", value=float(c @ x), x=x)


def _certified(rows, cost, start):
    """The vertex of basis ``start`` in ``rows = [A | slacks | b]`` if the
    certificate of `solve_lp` proves it maximizes ``cost``, else None."""
    a, b = rows[:, :-1], rows[:, -1]
    basis = a[:, start]
    try:
        x_b = np.linalg.solve(basis, b)
        y = np.linalg.solve(basis.T, cost[start])
    except np.linalg.LinAlgError:
        return None
    x = np.zeros(cost.size)
    x[start] = x_b
    value = cost @ x
    if ((x_b >= -TOL).all() and (y @ a - cost >= -TOL).all()
            and (np.abs(a @ x - b) <= TOL * (1 + np.abs(a) @ np.abs(x))).all()
            and abs(value - b @ y) <= TOL * (1 + abs(value))):
        return x
    return None


def _phase_one(rows, senses):
    """Phase I from the slack basis of ``rows = [A | slacks | b]``: the
    tableau and basis it ends at, or None if the program is infeasible."""
    m = senses.size
    rows[(rows[:, -1] < 0) | ((rows[:, -1] == 0) & (senses == ">="))] *= -1.0
    n = rows.shape[1] - 1
    owned = np.flatnonzero(senses != "=")    # the row of each slack column
    slack_cols = np.arange(n - owned.size, n)
    usable = rows[owned, slack_cols] > 0     # +1 once negated, so b >= 0 there
    basis = np.full(m, -1)
    basis[owned[usable]] = slack_cols[usable]
    artificial = np.flatnonzero(basis < 0)
    basis[artificial] = n + np.arange(artificial.size)
    # one more row carries the reduced costs and the objective value
    tab = np.vstack([np.hstack([rows[:, :n], np.eye(m)[:, artificial], rows[:, n:]]),
                     np.zeros(n + artificial.size + 1)])

    _simplex(tab, basis, np.repeat([0.0, -1.0], [n, artificial.size]))
    if tab[:-1][basis >= n, -1].sum() > INFEASIBLE_TOL:
        return None
    for row in np.flatnonzero(basis >= n):
        col = np.argmax(np.abs(tab[row, :n]))
        if abs(tab[row, col]) > TOL:
            _pivot(tab, basis, row, col)
    # an artificial with no structural entry left marks a redundant row
    keep = np.append(basis < n, True)
    return np.hstack([tab[keep, :n], tab[keep, -1:]]), basis[keep[:-1]]


def _simplex(tab, basis, cost):
    """Pivot ``tab`` (rows ``[A | b]``, then the objective row) to a maximum of ``cost``.

    Returns False if the program is unbounded.  The last row is set once to
    the reduced costs ``cost[basis] @ A - cost`` and the objective value, and
    each pivot updates it with the other rows.  The lowest eligible column
    enters.  Of the rows whose ratio is within the step allowed by
    ``b + TOL`` (Harris 1973), the largest pivot leaves, so no tiny pivot is
    taken for a near-tie; after more than m degenerate pivots in a row the
    lowest basis index of the ties leaves (Bland's rule), so runs cannot
    cycle.
    """
    m = basis.size
    tab[-1] = cost[basis] @ tab[:-1] - np.append(cost, 0.0)
    stalled = 0
    for _ in range(50 * (m + cost.size) + 1000):
        entering = (tab[-1, :-1] < -TOL).nonzero()[0]
        if entering.size == 0:
            return True
        col = tab[:-1, entering[0]]
        positive = (col > TOL).nonzero()[0]
        if positive.size == 0:
            return False
        pivots, b = col[positive], tab[positive, -1]
        ratios = b / pivots
        if stalled > m:
            ties = np.flatnonzero(ratios <= ratios.min() + TOL)
            k = ties[np.argmin(basis[positive[ties]])]
        else:
            k = np.argmax(np.where(ratios <= ((b + TOL) / pivots).min(), pivots, 0.0))
        stalled = stalled + 1 if ratios[k] <= TOL else 0
        _pivot(tab, basis, positive[k], entering[0])
    raise NumericFailure("simplex iteration budget exhausted")


def _pivot(tab, basis, row, col):
    """Make ``col`` basic in ``row`` by one rank-one elimination.

    Only the columns where the pivot row is nonzero are updated: elsewhere
    the full update would subtract zeros, which can change the sign of a
    zero entry but no value, so the pivots are the same.
    """
    pivot_row = tab[row] / tab[row, col]
    touched = pivot_row.nonzero()[0]
    tab[:, touched] -= np.outer(tab[:, col], pivot_row[touched])
    tab[row] = pivot_row
    basis[row] = col


# --- builders for the weight programs ---------------------------------------


def _rank_rows(problem, coefficients):
    """Rows ``coef*z - t*s*w <= 0`` over the held ranks (a skipped rank's row cannot
    bind), plus the weighted normalization row; ``z >= 0`` cuts off no optimum, as
    ``z = 0`` with normalized weights is feasible.  By solution efficiency every rank
    row binds at the optimum, so the program starts on the basis of every weight and
    ``z``."""
    held = problem.rank_counts > 0
    ts = np.broadcast_to(rank_products(problem)[..., None], held.shape)[held]
    n_w = ts.size
    lhs = np.zeros((n_w + 1, n_w + 1))
    np.fill_diagonal(lhs[:n_w], -ts)
    lhs[:n_w, n_w] = coefficients[held]
    lhs[n_w, :n_w] = problem.rank_counts[held]
    last = np.eye(1, n_w + 1, n_w)[0]   # objective z; right side 1 of the normalization row
    return LinearProgram(objective=last, lhs=lhs, rhs=last,
                         senses=("<=",) * n_w + ("=",), start=np.arange(n_w + 1))


def build_opa_lp(problem):
    """LP whose optimum matches the closed-form ranking weights."""
    return _rank_rows(problem, harmonic_coefficients(problem))


def build_gopa_lp(problem, utilities):
    """LP for utilities padded as `solve_gopa` takes them: rows ``K_ij * U_r * z <= t*s*w_r``."""
    return _rank_rows(problem, problem.max_rank[..., None] * padded_utilities(problem, utilities))


# --- the second-stage efficiency program -------------------------------------


def verify_efficiency(solution):
    """Certify that the `solve_opa` ``solution`` solves the second-stage efficiency program.

    The program's variables are ``w = padded[rank_mask]``, every rank of a cell
    included.  Slack row ``r`` of a cell reads ``t*s*r*(w_r - w_{r+1}) >= z``,
    without the ``w_{r+1}`` entry at the cell's last rank, and the normalization
    row ``rank_counts[rank_mask] @ w = 1`` closes the program.  Every slack of
    ``solution.rank_weights[rank_mask]`` equals ``z* = solution.objective``.  The
    dual point ``y_r = N_r / (t*s*r)``, with ``N_r`` the cell's count of
    alternatives at ranks up to ``r``, is nonnegative and ``yᵀA`` equals the
    normalization row, so any normalized ``w >= 0`` has a least slack of at most
    ``1 / Σy`` (a Farkas certificate), and ``Σy = 1 / z*``.

    Both points are checked on the sparse rows as built, two entries per slack
    row.  Returns ``(delta, bound)``: ``delta`` is the largest of the primal
    residual (each slack's relative distance from ``z*``, the normalization
    residual, a negative weight), the dual residual (``|yᵀA - counts|``, a
    negative ``y``) and the gap ``|z*·Σy - 1|``; ``bound`` is ``1 / Σy``, the
    largest least slack that any normalized weights can reach.
    """
    problem = solution.problem
    mask = problem.rank_mask
    ranks = np.arange(1, problem.n_alternatives + 1)
    diag = (rank_products(problem)[..., None] * ranks)[mask]
    inner = np.flatnonzero((ranks < problem.max_rank[..., None])[mask])  # w_{r+1} in the row
    n = diag.size
    rows, cols = np.append(np.arange(n), inner), np.append(np.arange(n), inner + 1)
    values = np.append(diag, -diag[inner])
    counts = problem.rank_counts[mask]

    z, w = solution.objective, solution.rank_weights[mask]
    y = np.cumsum(problem.rank_counts, axis=2)[mask] / diag
    slacks = np.bincount(rows, values * w[cols])
    primal = max(np.abs(slacks / z - 1.0).max(), abs(counts @ w - 1.0), -w.min())
    dual = max(np.abs(np.bincount(cols, values * y[rows]) - counts).max(), -y.min())
    return float(max(primal, dual, abs(z * y.sum() - 1.0))), float(1.0 / y.sum())
