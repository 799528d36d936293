import numpy as np
import pytest

from gopa.exceptions import DimensionError, InfeasibleStage2
from gopa.lpcheck import (
    LinearProgram,
    build_gopa_lp,
    build_opa_lp,
    solve_lp,
    verify_efficiency,
)
from gopa.model import validate_problem
from gopa.solver import solve_gopa, solve_opa
from gopa.structures import surrogate_weights

from oracles import random_problem, random_utilities


class TestSimplex:
    def test_simple_bound(self):
        lp = LinearProgram(objective=[1.0], lhs=[[1.0]], rhs=[1.0], senses=("<=",))
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_infeasible(self):
        lp = LinearProgram(objective=[1.0], lhs=[[1.0], [1.0]], rhs=[-1.0, 0.0],
                           senses=("<=", ">="))
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram(objective=[1.0], lhs=[[1.0]], rhs=[1.0], senses=(">=",))
        assert solve_lp(lp).status == "unbounded"

    def test_equality_and_free_variable(self):
        # max x + y  s.t.  x + y = 2, x - y <= 1, y free
        lp = LinearProgram(objective=[1.0, 1.0], lhs=[[1.0, 1.0], [1.0, -1.0]],
                           rhs=[2.0, 1.0], senses=("=", "<="), free=(False, True))
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_does_not_cycle(self):
        # classic degenerate vertex; Bland's rule must terminate
        lp = LinearProgram(
            objective=[0.75, -150.0, 0.02, -6.0],
            lhs=[[0.25, -60.0, -0.04, 9.0],
                 [0.5, -90.0, -0.02, 3.0],
                 [0.0, 0.0, 1.0, 0.0]],
            rhs=[0.0, 0.0, 1.0],
            senses=("<=", "<=", "<="),
        )
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.05, abs=1e-9)

    def test_deterministic_vertex(self):
        rng = np.random.default_rng(11)
        lhs = rng.random((6, 4))
        lp = LinearProgram(objective=rng.random(4), lhs=lhs, rhs=rng.random(6) + 0.5,
                           senses=("<=",) * 6)
        r1 = solve_lp(lp)
        r2 = solve_lp(lp)
        assert np.array_equal(r1.x, r2.x)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            LinearProgram(objective=[1.0, 2.0], lhs=[[1.0]], rhs=[1.0], senses=("<=",))
        with pytest.raises(DimensionError):
            LinearProgram(objective=[1.0], lhs=[[1.0]], rhs=[1.0], senses=("?",))


class TestBuilders:
    def test_row_and_variable_counts(self):
        p, _ = random_problem(np.random.default_rng(0), 1, 1, 2)
        lp = build_opa_lp(p)
        assert lp.lhs.shape == (3, 3)  # 2 ranking rows + normalization; w1 w2 z
        assert lp.senses == ("<=", "<=", "=")
        assert lp.names[-1] == "z"

    def test_gap_case_normalization_counts(self):
        doc = {
            "experts": [{"id": "E1", "rank": 1}],
            "attributes": ["C1"],
            "alternatives": ["A1", "A2", "A3", "A4"],
            "attribute_ranks": {"E1": {"C1": 1}},
            "alternative_ranks": {"E1": {"C1": {"A1": 1, "A2": 2, "A3": 2, "A4": 4}}},
        }
        p = validate_problem(doc)
        lp = build_opa_lp(p)
        assert lp.lhs.shape == (5, 5)  # 4 rank rows + normalization
        assert lp.lhs[-1, :4].tolist() == [1.0, 2.0, 0.0, 1.0]

    def test_centroid_utilities_reproduce_ordinal_rows(self):
        p, _ = random_problem(np.random.default_rng(1), 2, 2, 5)
        u = {(i, j): surrogate_weights("roc", 5) for i, j in p.cells()}
        opa = build_opa_lp(p)
        gopa = build_gopa_lp(p, u)
        assert np.allclose(opa.lhs, gopa.lhs, atol=1e-12)

    def test_lp_matches_formula_example(self):
        p, _ = random_problem(np.random.default_rng(2), 3, 5, 10)
        res = solve_lp(build_opa_lp(p))
        assert res.status == "optimal"
        h3 = sum(1.0 / h for h in range(1, 4))
        h5 = sum(1.0 / h for h in range(1, 6))
        assert res.value == pytest.approx(1.0 / (10.0 * h3 * h5), abs=1e-10)
        assert res.value == pytest.approx(solve_opa(p).objective, abs=1e-10)


class TestRandomAgreement:
    def test_formula_vs_lp_on_clean_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p, _ = random_problem(rng)
            assert abs(solve_lp(build_opa_lp(p)).value - solve_opa(p).objective) <= 1e-8
            u = random_utilities(rng, p)
            assert abs(solve_lp(build_gopa_lp(p, u)).value
                       - solve_gopa(p, u).objective) <= 1e-8


class TestEfficiency:
    def test_min_slack_matches_objective(self):
        p, _ = random_problem(np.random.default_rng(5), 1, 1, 3)
        z = solve_opa(p).objective
        check = verify_efficiency(p, z)
        assert check.min_slack == pytest.approx(z, abs=1e-8)

    def test_inflated_objective_is_infeasible(self):
        p, _ = random_problem(np.random.default_rng(6), 2, 1, 3)
        z = solve_opa(p).objective
        with pytest.raises(InfeasibleStage2):
            verify_efficiency(p, 1.1 * z)

    def test_stage2_solution_feasible_for_stage1(self):
        p, _ = random_problem(np.random.default_rng(7), 2, 2, 4)
        sol = solve_opa(p)
        check = verify_efficiency(p, sol.objective)
        weights = check.rank_weights
        total = sum(float(p.cell_counts(i, j) @ weights[i, j, :p.max_rank[i, j]])
                    for i, j in p.cells())
        assert total == pytest.approx(1.0, abs=1e-8)
        for w in (weights[i, j, :p.max_rank[i, j]] for i, j in p.cells()):
            assert (w >= -1e-10).all()
