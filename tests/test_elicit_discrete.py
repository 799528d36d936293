import numpy as np
import pytest

from gopa.elicit_discrete import (
    discrete_constraint_system,
    elicit_discrete,
    entropy_max_discrete,
    kkt_residual_discrete,
)
from gopa.exceptions import InfeasibleContext
from gopa.model import CellContext
from gopa.structures import surrogate_weights

from oracles import grid_kl_minimum, kl_objective, random_discrete_context

WORKED_CONTEXT = CellContext(
    ratio=((2, 1.15),),
    absdiff=((4, 0.065),),
    lowerbound=tuple((r, 0.03) for r in range(1, 8)),
)


def check_feasible(u, ctx, tol=1e-8):
    assert u.sum() == pytest.approx(1.0, abs=1e-10)
    assert (u >= -1e-12).all()
    assert (np.diff(u) <= 1e-12).all()
    for r, alpha in ctx.ratio:
        assert u[r - 1] - alpha * u[r] == pytest.approx(0.0, abs=tol)
    for r, beta in ctx.absdiff:
        assert u[r - 1] - u[r] == pytest.approx(beta, abs=tol)
    for r, gamma in ctx.lowerbound:
        assert u[r - 1] >= gamma - tol


class TestElicit:
    def test_empty_context_returns_target(self):
        roc = surrogate_weights("roc", 7)
        u = elicit_discrete(roc, CellContext(), 7)
        assert np.abs(u - roc).max() <= 1e-10

    def test_worked_seven_rank_context(self):
        roc = surrogate_weights("roc", 7)
        u = elicit_discrete(roc, WORKED_CONTEXT, 7)
        check_feasible(u, WORKED_CONTEXT)
        assert kkt_residual_discrete(u, roc, WORKED_CONTEXT) <= 1e-8

    def test_zero_differences_force_uniform(self):
        ctx = CellContext(absdiff=((1, 0.0), (2, 0.0)))
        u = elicit_discrete(np.full(3, 1.0 / 3.0), ctx, 3)
        assert u == pytest.approx(np.full(3, 1.0 / 3.0), abs=1e-10)

    def test_target_scale_invariance(self):
        rng = np.random.default_rng(0)
        ctx, _ = random_discrete_context(rng, 6)
        base = surrogate_weights("sr", 6)
        u1 = elicit_discrete(base, ctx, 6)
        u2 = elicit_discrete(37.5 * base, ctx, 6)
        assert np.abs(u1 - u2).max() <= 1e-10

    def test_boundary_solution_accepted(self):
        u = elicit_discrete(np.full(2, 0.5), CellContext(absdiff=((1, 1.0),)), 2)
        assert u == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_single_rank(self):
        assert elicit_discrete(np.ones(1), CellContext(), 1) == pytest.approx([1.0])

    @pytest.mark.parametrize("target", [np.ones(3), np.array([0.5, 0.5, 0.0, 0.0])],
                             ids=["short", "zero"])
    def test_target_must_be_positive_weights_of_the_size(self, target):
        with pytest.raises(ValueError, match="target must be 4 positive weights"):
            elicit_discrete(target, CellContext(), 4)

    def test_dominance_holds_with_equalities_only(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            size = int(rng.integers(2, 9))
            witness = np.sort(rng.random(size))[::-1] + 0.02
            witness /= witness.sum()
            r = int(rng.integers(1, size))
            ctx = CellContext(ratio=((r, float(witness[r - 1] / witness[r])),))
            u = elicit_discrete(surrogate_weights("rs", size), ctx, size)
            assert (np.diff(u) <= 1e-12).all()

    def test_infeasible_bounds(self):
        ctx = CellContext(lowerbound=((1, 0.7), (2, 0.7)))
        with pytest.raises(InfeasibleContext):
            elicit_discrete(np.full(2, 0.5), ctx, 2)

    def test_contradictory_ratio_and_difference(self):
        ctx = CellContext(ratio=((1, 2.0),), absdiff=((1, 0.0),))
        with pytest.raises(InfeasibleContext):
            elicit_discrete(np.full(2, 0.5), ctx, 2)


class TestEntropyMax:
    def test_unconstrained_is_uniform(self):
        assert entropy_max_discrete(CellContext(), 4) == pytest.approx(np.full(4, 0.25))

    def test_inactive_bound(self):
        u = entropy_max_discrete(CellContext(lowerbound=((1, 0.4),)), 2)
        assert u == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_active_bound(self):
        u = entropy_max_discrete(CellContext(lowerbound=((1, 0.6),)), 2)
        assert u == pytest.approx([0.6, 0.4], abs=1e-10)

    def test_matches_uniform_target_on_random_contexts(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            size = int(rng.integers(2, 9))
            ctx, _ = random_discrete_context(rng, size)
            a = entropy_max_discrete(ctx, size)
            b = elicit_discrete(np.full(size, 1.0 / size), ctx, size)
            assert np.abs(a - b).max() <= 1e-8


class TestKKTResidual:
    def test_zero_at_unconstrained_optimum(self):
        roc = surrogate_weights("roc", 6)
        assert kkt_residual_discrete(roc, roc, CellContext()) <= 1e-12

    def test_large_at_wrong_point(self):
        roc = surrogate_weights("roc", 6)
        uniform = np.full(6, 1.0 / 6.0)
        assert kkt_residual_discrete(uniform, roc, CellContext()) > 0.01

    def test_small_at_solver_output(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            size = int(rng.integers(2, 8))
            ctx, _ = random_discrete_context(rng, size)
            target = surrogate_weights("roc", size)
            u = elicit_discrete(target, ctx, size)
            assert kkt_residual_discrete(u, target, ctx) <= 1e-8


class TestGridOracle:
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_solver_not_beaten_by_grid(self, size):
        rng = np.random.default_rng(100 + size)
        target = surrogate_weights("roc", size)
        for _ in range(12):
            ctx, _ = random_discrete_context(rng, size)
            u = elicit_discrete(target, ctx, size)
            solver_val = float(kl_objective(u, target / target.sum())[0])
            oracle_val, _ = grid_kl_minimum(target, ctx, size)
            assert oracle_val is not None
            assert solver_val <= oracle_val + 1e-4

    def test_grid_catches_suboptimal_points(self):
        # the oracle must strictly beat a deliberately wrong feasible point
        target = surrogate_weights("roc", 3)
        ctx = CellContext()
        oracle_val, _ = grid_kl_minimum(target, ctx, 3)
        uniform_val = float(kl_objective(np.full(3, 1 / 3), target)[0])
        assert oracle_val < uniform_val - 1e-3


class TestConstraintSystem:
    def test_shapes_and_rows(self):
        a_eq, b_eq, g, h = discrete_constraint_system(WORKED_CONTEXT, 7)
        assert a_eq.shape == (3, 7)   # normalization + ratio + absdiff
        assert g.shape == (13, 7)     # 7 bounds + 6 dominance rows
        assert b_eq[0] == 1.0


class TestDegenerateTies:
    """Uniform and reciprocal targets at 10-30 ranks: many rank-order rows tie."""

    STALLED = (
        ("uniform", 10, CellContext(ratio=((3, 1.1324497589075777), (8, 1.3745231144259258)),
                                    lowerbound=((5, 0.09759390361830828),
                                                (9, 0.03835182755259231)))),
        ("rr", 10, CellContext(ratio=((8, 1.611482142338877),),
                               absdiff=((2, 0.012849370334756749),),
                               lowerbound=((3, 0.11506637901087015),))),
    )

    @pytest.mark.parametrize("family,size,ctx", STALLED, ids=("uniform10", "rr10"))
    def test_cells_that_stall_without_a_working_set(self, family, size, ctx):
        target = surrogate_weights(family, size)
        u = elicit_discrete(target, ctx, size)
        check_feasible(u, ctx)
        assert kkt_residual_discrete(u, target, ctx) <= 1e-10

    @pytest.mark.parametrize("family", ["uniform", "rr"])
    def test_random_contexts(self, family):
        rng = np.random.default_rng(31 if family == "uniform" else 32)
        for _ in range(30):
            size = int(rng.integers(10, 31))
            ctx, _ = random_discrete_context(rng, size, max_constraints=5)
            target = surrogate_weights(family, size)
            u = elicit_discrete(target, ctx, size)
            check_feasible(u, ctx)
            assert kkt_residual_discrete(u, target, ctx) <= 1e-10
