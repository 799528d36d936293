"""Stage 2 on zero-padded (I, J, K) rank arrays, checked against per-cell loops.

The closed forms, the LP builders and the rank counts of validation all work
on arrays padded beyond each cell's maximum rank.  The references here walk
the cells one at a time, as `cells` orders them.
"""

import numpy as np
import pytest

from gopa.exceptions import EmptyCellError
from gopa.lpcheck import build_gopa_lp, build_opa_lp, cell_variable_names
from gopa.model import validate_problem
from gopa.solver import solve_gopa, solve_opa

from oracles import (
    assemble_by_cell,
    harmonic_tail,
    random_problem,
    random_utilities,
    rank_structure_by_cell,
)

SEEDS = range(12)
SHAPES = ((None, None, None), (3, 4, 9), (1, 1, 30), (6, 6, 20))


def irregular_problem(seed, shape=(None, None, None)):
    return random_problem(np.random.default_rng(500 + seed), *shape, irregular=True)[0]


def assert_matches_cells(solution, reference):
    """Equal bit for bit: the padded arrays keep the loop's order of operations,
    which is what keeps reports byte-identical."""
    problem = solution.problem
    objective, rank_weights, weights = reference
    assert solution.objective == objective
    assert (solution.weights == weights).all()
    for i, j in problem.cells():
        kij = problem.max_rank[i, j]
        assert (solution.rank_weights[i, j, :kij] == rank_weights[(i, j)]).all()
        assert (solution.rank_weights[i, j, kij:] == 0.0).all()


class TestClosedFormsAgainstCellLoop:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ordinal(self, seed):
        p = irregular_problem(seed, SHAPES[seed % 4])
        coefficients = {(i, j): harmonic_tail(int(p.max_rank[i, j])) for i, j in p.cells()}
        assert_matches_cells(solve_opa(p), assemble_by_cell(p, coefficients))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generalized(self, seed):
        p = irregular_problem(seed, SHAPES[seed % 4])
        u = random_utilities(np.random.default_rng(seed), p)
        coefficients = {(i, j): p.max_rank[i, j] * u[(i, j)] for i, j in p.cells()}
        solution = solve_gopa(p, u)
        assert_matches_cells(solution, assemble_by_cell(p, coefficients))
        for i, j in p.cells():
            kij = p.max_rank[i, j]
            assert (solution.utilities[i, j, :kij] == u[(i, j)]).all()
            assert (solution.utilities[i, j, kij:] == 0.0).all()


    @pytest.mark.parametrize("kij", range(1, 30))
    def test_short_cell_of_a_wide_problem(self, kij):
        # one cell, so z* shows the last bit of the cell's sum over its own ranks
        _, doc = random_problem(np.random.default_rng(kij), 1, 1, 30)
        doc["alternative_ranks"]["E1"]["C1"] = {f"A{r}": r for r in range(1, kij + 1)}
        p = validate_problem(doc)
        u = random_utilities(np.random.default_rng(kij), p)
        assert_matches_cells(solve_opa(p), assemble_by_cell(p, {(0, 0): harmonic_tail(kij)}))
        assert_matches_cells(solve_gopa(p, u), assemble_by_cell(p, {(0, 0): kij * u[(0, 0)]}))


class TestLinearPrograms:
    def test_ordinal_rows_saturate_on_irregular_problem(self):
        p = irregular_problem(3, (3, 3, 7))
        assert p.has_missing.any() and (p.max_rank < 7).any()
        sol = solve_opa(p)
        lp = build_opa_lp(p)
        rows = lp.lhs @ np.append(sol.rank_weights[p.rank_mask], sol.objective)
        assert np.abs(rows[:-1]).max() <= 1e-12
        assert rows[-1] == pytest.approx(1.0, abs=1e-12)

    def test_generalized_rows_saturate_on_irregular_problem(self):
        p = irregular_problem(4, (3, 3, 7))
        assert p.has_missing.any() and (p.max_rank < 7).any()
        u = random_utilities(np.random.default_rng(4), p)
        sol = solve_gopa(p, u)
        lp = build_gopa_lp(p, u)
        rows = lp.lhs @ np.append(sol.rank_weights[p.rank_mask], sol.objective)
        assert np.abs(rows[:-1]).max() <= 1e-12
        assert rows[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_variable_names_follow_cells_then_ranks(self, seed):
        p = irregular_problem(seed)
        expected = [f"w[{p.expert_ids[i]},{p.attribute_ids[j]},r{r}]"
                    for i, j in p.cells() for r in range(1, p.max_rank[i, j] + 1)]
        assert cell_variable_names(p) == tuple(expected + ["z"])


class TestRankStructure:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_counts_and_flags_match_cell_loop(self, seed):
        p = irregular_problem(seed, (4, 5, 8))
        counts, max_rank, dups, missing = rank_structure_by_cell(p.alternative_ranks)
        assert (p.rank_counts == counts).all()
        assert (p.max_rank == max_rank).all()
        assert (p.has_duplicates == dups).all()
        assert (p.has_missing == missing).all()
        gaps = any((p.cell_counts(i, j) == 0).any() for i, j in p.cells())
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
        with pytest.raises(EmptyCellError) as err:
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
