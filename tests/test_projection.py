import numpy as np
import pytest

import gopa.projection
from gopa.elicit_continuous import _cumulative_rows, breakpoints, elicit_continuous
from gopa.elicit_discrete import (
    discrete_constraint_system,
    elicit_discrete,
    kkt_residual_discrete,
)
from gopa.exceptions import NumericFailure
from gopa.model import CellContext
from gopa.projection import kl_project, positive_support
from gopa.structures import UtilityStructure, surrogate_weights, target_density

from oracles import (
    highs_positive_support,
    random_continuous_context,
    random_discrete_context,
)

# discrete cells of 30 ranks that the earlier reduction-and-barrier solvers rejected
REJECTED_CELLS = {
    # a difference of 6e-8 leaves a rank-order row nearly tight
    "tiny-difference": CellContext(ratio=((17, 1.001), (20, 1.001)),
                                   absdiff=((2, 2e-3), (11, 6e-8))),
    # feasible (HiGHS and the returned point agree) but once called infeasible
    "feasible-called-infeasible": CellContext(
        ratio=((6, 1.040403686707325), (28, 1.874643312572222)),
        absdiff=((14, 0.003203831764285181),),
        lowerbound=((28, 0.003515113490558757),)),
}


def discrete_system(ctx, size):
    """``(rows, rhs, n_eq)`` of a discrete cell, as `elicit_discrete` projects onto it."""
    a_eq, b_eq, g, h = discrete_constraint_system(ctx, size)
    return np.vstack([a_eq[1:], g]), np.concatenate([b_eq[1:], h]), a_eq.shape[0] - 1


def seeded_systems():
    """Random discrete and continuous cell systems, each also with its right side scaled up.

    Continuous cells enter in both bound modes.  Scaling the right side by
    U(1, 8) leaves the ratio rows as they are and empties some polytopes.
    """
    rng = np.random.default_rng(8)
    systems = [discrete_system(ctx, 30) for ctx in REJECTED_CELLS.values()]
    for _ in range(40):
        size = int(rng.integers(2, 31))
        systems.append(discrete_system(random_discrete_context(rng, size, 6)[0], size))
        ctx, _ = random_continuous_context(rng, size, 6)
        rows, rhs, is_bound = _cumulative_rows(ctx, breakpoints(ctx, size))
        systems += [(rows, rhs, rows.shape[0]), (rows, rhs, int((~is_bound).sum()))]
    return systems + [(rows, rhs * rng.uniform(1.0, 8.0), n_eq) for rows, rhs, n_eq in systems]


class TestKLProject:
    def test_no_rows_returns_base(self):
        base = np.array([0.5, 0.3, 0.2])
        x, y = kl_project(base, np.zeros((0, 3)), np.zeros(0), 0)
        assert np.abs(x - base).max() <= 1e-15
        assert y.shape == (0,)

    def test_slack_inequalities_take_no_iteration(self):
        base = surrogate_weights("roc", 30)
        rows = np.eye(30)[:-1] - np.eye(30)[1:]
        x, y = kl_project(base, rows, np.zeros(29), 0)
        assert np.abs(x - base).max() <= 1e-15
        assert (y == 0.0).all()

    def test_dual_form_and_multiplier_signs(self):
        base = np.full(4, 0.25)
        rows = np.array([[1.0, -2.0, 0.0, 0.0],     # x1 = 2 x2
                         [0.0, 0.0, 1.0, 0.0],      # x3 >= 0.4
                         [0.0, 0.0, 0.0, 1.0]])     # x4 >= 0.05 (slack)
        rhs = np.array([0.0, 0.4, 0.05])
        x, y = kl_project(base, rows, rhs, 1)
        assert x.sum() == pytest.approx(1.0, abs=1e-15)
        assert x[0] - 2.0 * x[1] == pytest.approx(0.0, abs=1e-12)
        assert x[2] == pytest.approx(0.4, abs=1e-12)
        assert y[1] > 0.0 and y[2] == 0.0
        log_ratio = np.log(x / base) - rows.T @ y
        assert np.ptp(log_ratio) <= 1e-12

    def test_redundant_consistent_rows(self):
        base = np.array([0.4, 0.3, 0.2, 0.1])
        rows = np.array([[1.0, 0.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0, 0.0],
                         [1.0, 1.0, 0.0, 0.0]])
        x, _ = kl_project(base, rows, np.array([0.3, 0.3, 0.6]), 3)
        assert x[:2] == pytest.approx([0.3, 0.3], abs=1e-12)
        assert x[2:] == pytest.approx([0.4 * 2 / 3, 0.4 / 3], abs=1e-12)

    def test_failure_names_iterations_and_residual(self):
        with pytest.raises(NumericFailure, match=r"after \d+ iterations \(residual [0-9.e+-]+\)"):
            kl_project(np.full(2, 0.5), np.array([[1.0, 0.0]]), np.array([2.0]), 1)


class TestPositiveSupport:
    def test_empty_polytope(self):
        rows = np.eye(2)
        assert positive_support(rows, np.array([0.7, 0.7]), 0) is None

    def test_forced_zero_coordinate(self):
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        support = positive_support(rows, np.array([0.6, 0.4]), 0)
        assert support.tolist() == [True, True, False]

    def test_full_support(self):
        rows = np.array([[1.0, -1.0, 0.0]])
        assert positive_support(rows, np.array([1e-7]), 1).all()

    def test_agrees_with_highs(self):
        empty = 0
        for rows, rhs, n_eq in seeded_systems():
            support = positive_support(rows, rhs, n_eq)
            expected = highs_positive_support(rows, rhs, n_eq)
            assert (support is None) == (expected is None)
            if support is None:
                empty += 1
            else:
                assert support.tolist() == expected.tolist()
        assert 0 < empty < 200   # empty and nonempty polytopes both occur

    @pytest.mark.parametrize("size", [3, 10, 30])
    def test_forced_zero_ladder(self, size):
        # u_r >= 1/r with rank dominance forces u = 1/r on ranks 1..r and 0 after;
        # u_1 - u_2 = 1/size then contradicts it
        for r in range(1, size + 1):
            rows, rhs, n_eq = discrete_system(CellContext(lowerbound=((r, 1.0 / r),)), size)
            support = positive_support(rows, rhs, n_eq)
            assert support.tolist() == (np.arange(size) < r).tolist()
            assert support.tolist() == highs_positive_support(rows, rhs, n_eq).tolist()
            rows, rhs, n_eq = discrete_system(
                CellContext(absdiff=((1, 1.0 / size),), lowerbound=((r, 1.0 / r),)), size)
            assert positive_support(rows, rhs, n_eq) is None
            assert highs_positive_support(rows, rhs, n_eq) is None


class TestStageOneDefects:
    """Contexts that the earlier reduction-and-barrier solvers rejected."""

    def test_continuous_redundant_equation(self):
        # the two bounds at ranks 1 and 2 already imply the ratio at rank 2
        ctx = CellContext(ratio=((2, 2.1776010246516875),),
                          absdiff=((5, 0.24955098765715633),),
                          lowerbound=((1, 0.09699502570997988), (2, 0.21121646737216895),
                                      (3, 0.2897943679666825)))
        target = target_density(UtilityStructure(kind="crra", alpha=1.0, gamma=0.5), 6)
        d = elicit_continuous(target, ctx, 6)
        assert d.cdf(2.0) - 2.1776010246516875 * d.cdf(1.0) == pytest.approx(0.0, abs=1e-10)
        assert d.cdf(5.0) - d.cdf(4.0) == pytest.approx(0.24955098765715633, abs=1e-10)
        for rank, gamma in ctx.lowerbound:
            assert d.cdf(float(rank)) == pytest.approx(gamma, abs=1e-10)
        assert d.cdf(6.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("ctx", REJECTED_CELLS.values(), ids=REJECTED_CELLS.keys())
    def test_discrete_feasible_contexts(self, ctx):
        target = surrogate_weights("uniform", 30)
        u = elicit_discrete(target, ctx, 30)
        assert u.sum() == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(u) <= 1e-12).all()
        for r, alpha in ctx.ratio:
            assert u[r - 1] - alpha * u[r] == pytest.approx(0.0, abs=1e-12)
        for r, beta in ctx.absdiff:
            assert u[r - 1] - u[r] == pytest.approx(beta, abs=1e-12)
        for r, gamma in ctx.lowerbound:
            assert u[r - 1] >= gamma - 1e-12
        assert kkt_residual_discrete(u, target, ctx) <= 1e-10


def test_support_program_runs_only_for_forced_zeros(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return positive_support(*args)

    monkeypatch.setattr(gopa.projection, "positive_support", counted)
    rng = np.random.default_rng(44)
    for _ in range(20):
        size = int(rng.integers(2, 12))
        ctx, _ = random_discrete_context(rng, size)
        elicit_discrete(surrogate_weights("roc", size), ctx, size)
        ctx, _ = random_continuous_context(rng, size)
        elicit_continuous(target_density("neutral", size), ctx, size)
    assert calls == []
    u = elicit_discrete(surrogate_weights("roc", 3), CellContext(lowerbound=((1, 1.0),)), 3)
    assert u.tolist() == [1.0, 0.0, 0.0]
    assert len(calls) >= 1


@pytest.fixture()
def supports(monkeypatch):
    """The verdict of each `positive_support` run, in order."""
    verdicts = []

    def counted(*args):
        verdicts.append(positive_support(*args))
        return verdicts[-1]

    monkeypatch.setattr(gopa.projection, "positive_support", counted)
    return verdicts


def test_full_support_keeps_a_coordinate_near_zero(supports):
    # u5 = u4 / 1e8 ends below NEAR_ZERO, so the support program runs; it finds
    # full support, and the projection's answer is kept as it is
    u = elicit_discrete(surrogate_weights("roc", 5), CellContext(ratio=((4, 1e8),)), 5)
    assert [s.tolist() for s in supports] == [[True] * 5]
    assert 0.0 < u[4] <= gopa.projection.NEAR_ZERO
    assert format(u[4], ".12g") == "9.37500148735e-10"
    assert u[3] - 1e8 * u[4] == 0.0
    assert u.sum() == pytest.approx(1.0, abs=1e-15)


# feasible cells on which a second support program, run after the first pinned
# coordinates, contradicted the first: it zeroed the last two utilities (a
# ratio at rank K - 1) or found no feasible point (a ratio at rank 1)
CONTRADICTED_CELLS = [(5, ((4, 1e10),)), (10, ((9, 10 ** 9.5),)), (10, ((9, 1e12),)),
                      (30, ((29, 1e12),)), (30, ((29, 1e15),)), (5, ((1, 1e10),)),
                      (8, ((1, 1e9), (3, 0.5)))]


@pytest.mark.parametrize("size, ratio", CONTRADICTED_CELLS, ids=[
    f"{size}-" + "-".join(f"{rank}:{alpha:g}" for rank, alpha in ratio)
    for size, ratio in CONTRADICTED_CELLS])
def test_second_support_verdict_that_disagrees_is_numeric_failure(size, ratio, supports):
    with pytest.raises(NumericFailure,
                       match="^support linear program contradicts its first verdict$"):
        elicit_discrete(surrogate_weights("roc", size), CellContext(ratio=ratio), size)
    assert len(supports) == 2


def test_unbounded_support_program_is_numeric_failure():
    # the program is bounded by s <= 1; at ratio 1e9 the simplex misreads it
    with pytest.raises(NumericFailure, match="^support linear program is unbounded$"):
        elicit_discrete(surrogate_weights("roc", 5), CellContext(ratio=((4, 1e9),)), 5)
