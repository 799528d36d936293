import numpy as np
import pytest

from gopa.elicit_continuous import (
    breakpoints,
    cumulative_utilities,
    elicit_continuous,
    risk_preference,
)
from gopa.exceptions import BreakpointError, DomainError, InfeasibleContext
from gopa.model import CellContext
from gopa.structures import UtilityStructure, surrogate_weights, target_density

from oracles import random_continuous_context

HARA = UtilityStructure(kind="hara", alpha=2.0, beta=1.0, gamma=1.5)
WORKED_CONTEXT = CellContext(ratio=((3, 1.15),), absdiff=((5, 0.065),),
                             lowerbound=((1, 0.32),))

FAMILIES = (
    UtilityStructure(kind="neutral"),
    HARA,
    UtilityStructure(kind="crra", alpha=1.0, gamma=0.5),
    UtilityStructure(kind="cara", a=0.6),
    UtilityStructure(kind="cara", a=-0.4),
    UtilityStructure(kind="sshape", steepness=1.0),
)


class TestBreakpoints:
    def test_empty_context(self):
        ctx = CellContext()
        assert breakpoints(ctx, 5).tolist() == [0.0, 5.0]

    def test_ratio_adds_both_neighbors(self):
        pts = breakpoints(CellContext(ratio=((3, 1.1),)), 5)
        assert 2.0 in pts and 3.0 in pts

    def test_bound_adds_single_point(self):
        assert breakpoints(CellContext(lowerbound=((1, 0.3),)), 7).tolist() == [0.0, 1.0, 7.0]

    def test_worked_context(self):
        pts = breakpoints(WORKED_CONTEXT, 7)
        assert pts.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]


class TestElicit:
    def test_empty_context_returns_target(self):
        d = elicit_continuous(target_density("neutral", 4), CellContext(), 4)
        assert d.scales == pytest.approx([1.0])
        for r in range(1, 5):
            assert d.cdf(float(r)) == pytest.approx(r / 4.0, abs=1e-12)

    def test_single_bound_two_segment_closed_form(self):
        # entropy solution by hand: masses gamma and 1 - gamma, uniform inside
        gamma, r0, size = 0.6, 2, 5
        d = elicit_continuous(target_density("neutral", size),
                              CellContext(lowerbound=((r0, gamma),)), size)
        assert d.masses == pytest.approx([gamma, 1.0 - gamma], abs=1e-8)
        assert d.value(1.0) == pytest.approx(gamma / r0, abs=1e-8)
        assert d.value(3.7) == pytest.approx((1.0 - gamma) / (size - r0), abs=1e-8)

    def test_worked_context_with_hara_target(self):
        d = elicit_continuous(target_density(HARA, 7), WORKED_CONTEXT, 7)
        assert d.cdf(1.0) == pytest.approx(0.32, abs=1e-8)
        assert d.cdf(3.0) - 1.15 * d.cdf(2.0) == pytest.approx(0.0, abs=1e-8)
        assert d.cdf(5.0) - d.cdf(4.0) == pytest.approx(0.065, abs=1e-8)
        assert d.cdf(7.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("structure", FAMILIES, ids=lambda s: s.kind + str(s.a))
    def test_density_over_target_is_piecewise_constant(self, structure):
        rng = np.random.default_rng(hash(structure.kind) % 1000)
        size = 6
        ctx, _ = random_continuous_context(rng, size)
        target = target_density(structure, size)
        d = elicit_continuous(target, ctx, size)
        for a, b in zip(d.breakpoints[:-1], d.breakpoints[1:]):
            xs = np.linspace(a + 1e-6, b - 1e-6, 1000)
            ratio = d.value(xs) / target.value(xs)
            assert ratio.max() - ratio.min() <= 1e-9 * max(1.0, ratio.max())

    def test_cdf_is_nondecreasing(self):
        d = elicit_continuous(target_density(HARA, 7), WORKED_CONTEXT, 7)
        xs = np.linspace(0.0, 7.0, 400)
        assert (np.diff(d.cdf(xs)) >= -1e-12).all()

    def test_constraints_hold_on_random_contexts(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            size = int(rng.integers(2, 8))
            ctx, _ = random_continuous_context(rng, size)
            structure = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
            d = elicit_continuous(target_density(structure, size), ctx, size)
            for r, alpha in ctx.ratio:
                assert d.cdf(float(r)) - alpha * d.cdf(r - 1.0) == pytest.approx(0.0, abs=1e-8)
            for r, beta in ctx.absdiff:
                assert d.cdf(float(r)) - d.cdf(r - 1.0) == pytest.approx(beta, abs=1e-8)
            for r, gamma in ctx.lowerbound:
                assert d.cdf(float(r)) == pytest.approx(gamma, abs=1e-8)
            assert d.cdf(float(size)) == pytest.approx(1.0, abs=1e-10)

    def test_uniform_target_matches_entropy_closed_form(self):
        # one cumulative equality: piecewise-uniform entropy maximizer by hand
        size = 6
        for r0, gamma in ((1, 0.4), (3, 0.7), (5, 0.5)):
            d = elicit_continuous(target_density("neutral", size),
                                  CellContext(lowerbound=((r0, gamma),)), size)
            expect_lo = gamma / r0 if r0 else 0.0
            expect_hi = (1.0 - gamma) / (size - r0)
            assert d.value(r0 / 2.0) == pytest.approx(expect_lo, abs=1e-8)
            assert d.value((r0 + size) / 2.0) == pytest.approx(expect_hi, abs=1e-8)

    def test_bound_above_one_infeasible(self):
        with pytest.raises(InfeasibleContext):
            elicit_continuous(target_density("neutral", 5),
                              CellContext(lowerbound=((2, 1.2),)), 5)

    def test_contradictory_cumulative_constraints(self):
        ctx = CellContext(absdiff=((2, 0.5),), lowerbound=((2, 0.2),))
        with pytest.raises(InfeasibleContext):
            elicit_continuous(target_density("neutral", 5), ctx, 5)

    def test_forced_zero_segment_is_infeasible(self):
        # pinning the full mass below rank 2 empties the upper segment
        ctx = CellContext(lowerbound=((2, 1.0),))
        with pytest.raises(InfeasibleContext):
            elicit_continuous(target_density("neutral", 5), ctx, 5)


    def test_segment_without_mass_is_domain_error(self):
        # a steep sshape centred at 5.5 leaves [0, 1] no mass in floating point
        target = target_density(UtilityStructure(kind="sshape", steepness=1000.0), 10)
        with pytest.raises(DomainError, match=r"mass 0 on the segment \[0, 1\]"):
            elicit_continuous(target, CellContext(lowerbound=((1, 0.2),)), 10)

class TestBoundModes:
    def test_inactive_floor_keeps_target(self):
        d = elicit_continuous(target_density("neutral", 5),
                              CellContext(lowerbound=((2, 0.1),)), 5,
                              bound_mode="inequality")
        assert d.scales == pytest.approx([1.0, 1.0], abs=1e-12)
        assert d.cdf(2.0) == pytest.approx(0.4, abs=1e-12)

    def test_active_floor_matches_equality_mode(self):
        ctx = CellContext(lowerbound=((2, 0.6),))
        a = elicit_continuous(target_density("neutral", 5), ctx, 5, bound_mode="inequality")
        b = elicit_continuous(target_density("neutral", 5), ctx, 5, bound_mode="equality")
        assert a.masses == pytest.approx(b.masses, abs=1e-10)


class TestRiskPreference:
    def test_neutral_target_is_zero(self):
        d = elicit_continuous(target_density("neutral", 5), CellContext(), 5)
        assert risk_preference(d, 2.3) == 0.0

    def test_exponential_target_is_constant(self):
        d = elicit_continuous(target_density(UtilityStructure(kind="cara", a=0.8), 5),
                              CellContext(), 5)
        for x in (0.4, 2.2, 4.7):
            assert risk_preference(d, x) == pytest.approx(0.8, abs=1e-14)

    def test_hyperbolic_value(self):
        d = elicit_continuous(target_density(HARA, 7), WORKED_CONTEXT, 7)
        assert risk_preference(d, 2.5) == pytest.approx(2.0 / (1.0 + (4.0 / 3.0) * 2.5),
                                                        abs=1e-14)

    def test_breakpoint_rejected(self):
        d = elicit_continuous(target_density(HARA, 7), WORKED_CONTEXT, 7)
        with pytest.raises(BreakpointError):
            risk_preference(d, 3.0)
        with pytest.raises(BreakpointError):
            risk_preference(d, 0.0)
        with pytest.raises(BreakpointError, match=r"x = 7.5 outside \(0, 7\)"):
            risk_preference(d, 7.5)

    def test_argument_errors(self):
        with pytest.raises(ValueError, match=r"target covers \[0, 7\], cell has size 6"):
            elicit_continuous(target_density(HARA, 7), CellContext(), 6)
        with pytest.raises(ValueError, match="unknown bound mode 'sideways'"):
            elicit_continuous(target_density(HARA, 7), CellContext(), 7, bound_mode="sideways")

    @pytest.mark.parametrize("structure", FAMILIES, ids=lambda s: s.kind + str(s.a))
    def test_matches_target_and_finite_differences(self, structure):
        size = 7
        target = target_density(structure, size)
        d = elicit_continuous(target, WORKED_CONTEXT, size)
        h = 1e-5
        rng = np.random.default_rng(5)
        # margin keeps finite-difference truncation below tolerance near x = 0
        for a, b in zip(d.breakpoints[:-1], d.breakpoints[1:]):
            xs = rng.uniform(a + 0.05, b - 0.05, size=50)
            for x in xs:
                eta = risk_preference(d, float(x))
                assert eta == pytest.approx(target.risk_coefficient(float(x)), abs=1e-12)
                fd = -(np.log(d.value(x + h)) - np.log(d.value(x - h))) / (2 * h)
                assert eta == pytest.approx(float(fd), abs=1e-6)


class TestCumulativeUtilities:
    def test_two_rank_uniform_orientations(self):
        # rank r gets 1 - F(r - 1): 1 and 1/2, normalized; never the increasing [1/3, 2/3]
        d = elicit_continuous(target_density("neutral", 2), CellContext(), 2)
        assert cumulative_utilities(d) == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-14)

    @pytest.mark.parametrize("size", range(1, 11))
    def test_uniform_reversed_equals_rank_sum(self, size):
        d = elicit_continuous(target_density("neutral", size), CellContext(), size)
        assert np.abs(cumulative_utilities(d) - surrogate_weights("rs", size)).max() <= 1e-12

    def test_single_rank(self):
        d = elicit_continuous(target_density("neutral", 1), CellContext(), 1)
        assert cumulative_utilities(d) == pytest.approx([1.0])

    def test_reversed_is_nonincreasing(self):
        rng = np.random.default_rng(17)
        for structure in FAMILIES:
            size = 7
            ctx, _ = random_continuous_context(rng, size)
            d = elicit_continuous(target_density(structure, size), ctx, size)
            u = cumulative_utilities(d)
            assert (np.diff(u) <= 1e-12).all()
            assert u.sum() == pytest.approx(1.0, abs=1e-12)
