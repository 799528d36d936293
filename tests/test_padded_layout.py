"""Stage 2 on zero-padded (I, J, K) rank arrays, checked against exact rationals.

The closed forms, the LP builders and the rank counts of validation all work
on arrays padded beyond each cell's maximum rank.  The closed forms are
bounded against their values in `fractions.Fraction` arithmetic
(`oracles.exact_opa`, `oracles.exact_gopa`); the rank structure is checked
against a loop over the cells in `cells` order.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gopa.exceptions import ValidationError
from gopa.lpcheck import build_gopa_lp, build_opa_lp, solve_lp
from gopa.model import validate_problem
from gopa.solver import harmonic_coefficients, solve_gopa, solve_opa

from oracles import (
    big_rank_document,
    cell_counts,
    exact_gopa,
    exact_opa,
    harmonic_tail,
    random_problem,
    random_utilities,
    rank_mask_lp,
    rank_structure_by_cell,
)

SEEDS = range(12)
SHAPES = ((None, None, None), (3, 4, 9), (1, 1, 30), (6, 6, 20))
# largest relative error measured over the inputs below: 2.3 ulps (2**-52 units)
EXACT_BOUND = 3 * 2.0 ** -52


def irregular_problem(seed, shape=(None, None, None)):
    return random_problem(np.random.default_rng(500 + seed), *shape, irregular=True)[0]


def wide_cell_problem(kij):
    """One cell ranking ``kij`` of 30 alternatives."""
    _, doc = random_problem(np.random.default_rng(kij), 1, 1, 30)
    doc["alternative_ranks"]["E1"]["C1"] = {f"A{r}": r for r in range(1, kij + 1)}
    return validate_problem(doc)


def largest_relative_error(solution, exact):
    """Largest ``|x - e| / |e|`` over z*, the rank weights and the per-alternative
    weights; infinite where ``e`` is 0 and ``x`` is not."""
    problem = solution.problem
    pairs = [(solution.objective, exact.objective)]
    for i, j in problem.cells():
        pairs += zip(solution.rank_weights[i, j, :problem.max_rank[i, j]].tolist(),
                     exact.rank_weights[i, j])
        pairs += zip(solution.weights[i, j].tolist(), exact.weights[i][j])
    return max(float(abs(Fraction(x) / e - 1)) if e else (0.0 if x == 0.0 else np.inf)
               for x, e in pairs)


def assert_near_exact(solution, exact):
    problem = solution.problem
    assert (solution.rank_weights[~problem.rank_mask] == 0.0).all()
    assert largest_relative_error(solution, exact) <= EXACT_BOUND


class TestClosedFormsAgainstExactRationals:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ordinal(self, seed):
        p = irregular_problem(seed, SHAPES[seed % 4])
        assert_near_exact(solve_opa(p), exact_opa(p))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generalized(self, seed):
        p = irregular_problem(seed, SHAPES[seed % 4])
        u = random_utilities(np.random.default_rng(seed), p)
        solution = solve_gopa(p, u)
        assert_near_exact(solution, exact_gopa(p, u))
        assert np.array_equal(solution.utilities, u) and solution.utilities is not u
        assert (solution.utilities[~p.rank_mask] == 0.0).all()

    @pytest.mark.parametrize("kij", range(1, 31))
    def test_short_cell_of_a_wide_problem(self, kij):
        p = wide_cell_problem(kij)
        coefficients = harmonic_coefficients(p)
        assert (coefficients[0, 0, :kij] == harmonic_tail(kij)).all()
        assert (coefficients[0, 0, kij:] == 0.0).all()
        u = random_utilities(np.random.default_rng(kij), p)
        assert_near_exact(solve_opa(p), exact_opa(p))
        assert_near_exact(solve_gopa(p, u), exact_gopa(p, u))

    def test_rank_products_beyond_int64(self):
        p = validate_problem(big_rank_document())
        u = random_utilities(np.random.default_rng(0), p)
        assert_near_exact(solve_opa(p), exact_opa(p))
        assert_near_exact(solve_gopa(p, u), exact_gopa(p, u))

    @pytest.mark.parametrize("seed", range(4))
    def test_objective_off_by_16_ulps_fails(self, seed):
        p = irregular_problem(seed, SHAPES[seed % 4])
        solution, exact = solve_opa(p), exact_opa(p)
        nudged = solution.objective
        for _ in range(16):
            nudged = np.nextafter(nudged, np.inf)
        with pytest.raises(AssertionError):
            assert_near_exact(replace(solution, objective=float(nudged)), exact)


class TestLinearPrograms:
    def test_ordinal_rows_saturate_on_irregular_problem(self):
        p = irregular_problem(3, (3, 3, 7))
        assert not p.gap_free and (p.max_rank < 7).any() and p.has_internal_gaps
        sol = solve_opa(p)
        lp = build_opa_lp(p)
        rows = lp.lhs @ np.append(sol.rank_weights[p.rank_counts > 0], sol.objective)
        assert np.abs(rows[:-1]).max() <= 1e-12
        assert rows[-1] == pytest.approx(1.0, abs=1e-12)

    def test_generalized_rows_saturate_on_irregular_problem(self):
        p = irregular_problem(4, (3, 3, 7))
        assert not p.gap_free and (p.max_rank < 7).any() and p.has_internal_gaps
        u = random_utilities(np.random.default_rng(4), p)
        sol = solve_gopa(p, u)
        lp = build_gopa_lp(p, u)
        rows = lp.lhs @ np.append(sol.rank_weights[p.rank_counts > 0], sol.objective)
        assert np.abs(rows[:-1]).max() <= 1e-12
        assert rows[-1] == pytest.approx(1.0, abs=1e-12)


class TestHeldRankPrograms:
    """The weight programs take one variable per held rank, ``padded[rank_counts > 0]``."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", range(6))
    def test_gap_free_programs_equal_rank_mask_layout(self, seed, shape):
        p = random_problem(np.random.default_rng(seed), *shape)[0]
        assert not p.has_internal_gaps
        u = random_utilities(np.random.default_rng(seed), p)
        for lp, reference in ((build_opa_lp(p), rank_mask_lp(p, harmonic_coefficients(p))),
                              (build_gopa_lp(p, u), rank_mask_lp(p, p.max_rank[..., None] * u))):
            assert lp.senses == reference.senses
            for name in ("objective", "lhs", "rhs"):
                ours, theirs = getattr(lp, name), getattr(reference, name)
                assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_variable_per_held_rank(self, seed, shape):
        p = irregular_problem(seed, shape)
        held = int((p.rank_counts > 0).sum())
        u = random_utilities(np.random.default_rng(seed), p)
        for lp in (build_opa_lp(p), build_gopa_lp(p, u)):
            assert lp.lhs.shape == (held + 1, held + 1) and lp.objective.size == held + 1
            assert (lp.lhs[-1, :-1] > 0).all()   # every weight is in the normalization row

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_simplex_optimum_matches_exact_objective(self, seed, shape):
        p = irregular_problem(seed, shape)
        u = random_utilities(np.random.default_rng(seed), p)
        for lp, exact in ((build_opa_lp(p), exact_opa(p)), (build_gopa_lp(p, u), exact_gopa(p, u))):
            res = solve_lp(lp)
            assert res.status == "optimal"
            assert abs(Fraction(res.value) / exact.objective - 1) <= 1e-13


class TestRankStructure:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_counts_and_flags_match_cell_loop(self, seed):
        p = irregular_problem(seed, (4, 5, 8))
        for q in (p, random_problem(np.random.default_rng(seed), 4, 5, 8)[0]):
            counts, max_rank, dups, missing = rank_structure_by_cell(q.alternative_ranks)
            assert (q.rank_counts == counts).all()
            assert (q.max_rank == max_rank).all()
            assert q.gap_free == (not (dups.any() or missing.any())) == (q is not p)
        gaps = any((cell_counts(p, i, j) == 0).any() for i, j in p.cells())
        assert p.has_internal_gaps == gaps

    def test_rank_mask_covers_each_cells_ranks(self):
        p = irregular_problem(5, (3, 3, 6))
        for i, j in p.cells():
            assert p.rank_mask[i, j].tolist() == [r < p.max_rank[i, j] for r in range(6)]

    def test_empty_cell_error_names_first_cell_in_cell_order(self):
        _, doc = random_problem(np.random.default_rng(9), 3, 3, 4)
        doc["alternative_ranks"]["E3"]["C1"] = {}
        doc["alternative_ranks"]["E2"]["C3"] = {}
        doc["alternative_ranks"]["E2"]["C2"] = {}
        with pytest.raises(ValidationError, match="cell has no ranked alternative$") as err:
            validate_problem(doc)
        assert err.value.path == "alternative_ranks.E2.C2"


class TestReadOnlySolutions:
    def test_ordinal_arrays_reject_writes(self):
        sol = solve_opa(irregular_problem(6))
        with pytest.raises(ValueError):
            sol.rank_weights[0, 0, 0] = 1.0

    def test_generalized_arrays_reject_writes(self):
        p = irregular_problem(7)
        sol = solve_gopa(p, random_utilities(np.random.default_rng(7), p))
        with pytest.raises(ValueError):
            sol.rank_weights[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            sol.utilities[0, 0, 0] = 1.0
