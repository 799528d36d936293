import numpy as np
import pytest

from gopa.exceptions import DecompositionUnsupported, UtilityShapeError
from gopa.lpcheck import build_gopa_lp, build_opa_lp
from gopa.model import validate_problem
from gopa.pipeline import solve_document
from gopa.solver import decompose, solve_gopa, solve_opa
from gopa.structures import surrogate_weights

from oracles import random_problem, random_utilities


def equal_importance_problem(rng, n_experts, n_attributes, n_alternatives):
    """All expert and attribute ranks 1; random clean alternative rankings."""
    experts = [{"id": f"E{i+1}", "rank": 1} for i in range(n_experts)]
    attributes = [f"C{j+1}" for j in range(n_attributes)]
    alternatives = [f"A{k+1}" for k in range(n_alternatives)]
    doc = {
        "experts": experts,
        "attributes": attributes,
        "alternatives": alternatives,
        "attribute_ranks": {e["id"]: {a: 1 for a in attributes} for e in experts},
        "alternative_ranks": {
            e["id"]: {a: {m: int(r) for m, r in
                          zip(alternatives, rng.permutation(n_alternatives) + 1)}
                      for a in attributes}
            for e in experts
        },
    }
    return validate_problem(doc)


class TestOrdinalSolver:
    def test_single_cell_unit(self):
        p, _ = random_problem(np.random.default_rng(0), 1, 1, 1)
        sol = solve_opa(p)
        assert sol.objective == pytest.approx(1.0, abs=1e-14)
        assert sol.weights[0, 0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_clean_case_closed_form(self):
        p, _ = random_problem(np.random.default_rng(1), 3, 5, 10)
        h3 = sum(1.0 / h for h in range(1, 4))
        h5 = sum(1.0 / h for h in range(1, 6))
        assert solve_opa(p).objective == pytest.approx(1.0 / (10 * h3 * h5), abs=1e-14)

    def test_case_study_expert_weights(self):
        rng = np.random.default_rng(2)
        doc_p, doc = random_problem(rng, 5, 6, 10)
        for e, rank in zip(doc["experts"], [3, 2, 4, 5, 1]):  # E5>E2>E1>E3>E4
            e["rank"] = rank
        p = validate_problem(doc)
        w = solve_opa(p).expert_weights
        assert w == pytest.approx([0.1460, 0.2190, 0.1095, 0.0876, 0.4380], abs=5e-5)

    def test_duplicates_share_weight_and_missing_get_zero(self):
        doc = {
            "experts": [{"id": "E1", "rank": 1}],
            "attributes": ["C1"],
            "alternatives": ["A1", "A2", "A3", "A4", "A5"],
            "attribute_ranks": {"E1": {"C1": 1}},
            "alternative_ranks": {"E1": {"C1": {"A1": 1, "A2": 2, "A3": 2, "A4": 4}}},
        }
        p = validate_problem(doc)
        sol = solve_opa(p)
        assert sol.weights[0, 0, 1] == sol.weights[0, 0, 2]
        assert sol.weights[0, 0, 4] == 0.0
        assert sol.exclusions_flagged
        c = p.cell_counts(0, 0)
        assert (c * sol.rank_weights[0, 0, :4]).sum() == pytest.approx(1.0, abs=1e-12)

    def test_normalization_and_dominance_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p, _ = random_problem(rng, irregular=True)
            sol = solve_opa(p)
            total = sum(float(p.cell_counts(i, j) @ sol.rank_weights[i, j, :p.max_rank[i, j]])
                        for i, j in p.cells())
            assert total == pytest.approx(1.0, abs=1e-10)
            assert sol.expert_weights.sum() == pytest.approx(1.0, abs=1e-10)
            assert sol.attribute_weights.sum() == pytest.approx(1.0, abs=1e-10)
            assert sol.alternative_weights.sum() == pytest.approx(1.0, abs=1e-10)
            for w in (sol.rank_weights[i, j, :p.max_rank[i, j]] for i, j in p.cells()):
                assert (np.diff(w) <= 1e-12).all()
                assert (w >= 0).all()

    def test_analytical_solution_saturates_lp_rows(self):
        p, _ = random_problem(np.random.default_rng(4), 2, 2, 4)
        sol = solve_opa(p)
        lp = build_opa_lp(p)
        x = np.concatenate([np.concatenate([sol.rank_weights[(i, j)]
                                            for i, j in p.cells()]), [sol.objective]])
        rows = lp.lhs @ x
        assert np.abs(rows[:-1]).max() <= 1e-12  # every ranking row tight
        assert rows[-1] == pytest.approx(1.0, abs=1e-12)


class TestGeneralizedSolver:
    def test_hand_example_two_ranks(self):
        p, _ = random_problem(np.random.default_rng(5), 1, 1, 2)
        sol = solve_gopa(p, {(0, 0): np.array([0.7, 0.3])})
        assert sol.objective == pytest.approx(0.5, abs=1e-14)
        assert sorted(sol.rank_weights[(0, 0)].tolist(), reverse=True) == \
            pytest.approx([0.7, 0.3], abs=1e-14)

    def test_centroid_utilities_reproduce_ordinal_solution(self):
        rng = np.random.default_rng(6)
        p, _ = random_problem(rng, 3, 2, 6)
        u = {(i, j): surrogate_weights("roc", 6) for i, j in p.cells()}
        a = solve_gopa(p, u)
        b = solve_opa(p)
        assert abs(a.objective - b.objective) <= 1e-12
        assert np.abs(a.weights - b.weights).max() <= 1e-12

    def test_objective_invariant_across_structures(self):
        rng = np.random.default_rng(7)
        p, _ = random_problem(rng, 2, 3, 5)
        values = []
        for kind in ("rs", "rr", "sr", "roc", "ref"):
            u = {(i, j): surrogate_weights(kind, 5) for i, j in p.cells()}
            values.append(solve_gopa(p, u).objective)
        assert max(values) - min(values) <= 1e-12
        expected = 1.0 / sum(5.0 / (p.expert_ranks[i] * p.attribute_ranks[i, j])
                             for i, j in p.cells())
        assert values[0] == pytest.approx(expected, abs=1e-14)

    def test_expert_and_attribute_weights_ignore_utilities(self):
        rng = np.random.default_rng(8)
        p, _ = random_problem(rng, 3, 3, 6)
        sols = []
        for kind in ("rs", "roc", "uniform"):
            u = {(i, j): surrogate_weights(kind, 6) for i, j in p.cells()}
            sols.append(solve_gopa(p, u))
        for sol in sols[1:]:
            assert np.abs(sol.expert_weights - sols[0].expert_weights).max() <= 1e-12
            assert np.abs(sol.attribute_weights - sols[0].attribute_weights).max() <= 1e-12

    def test_rejects_bad_utility_shapes(self):
        p, _ = random_problem(np.random.default_rng(9), 1, 1, 3)
        with pytest.raises(UtilityShapeError):
            solve_gopa(p, {(0, 0): np.array([0.5, 0.4])})
        with pytest.raises(UtilityShapeError):
            solve_gopa(p, {(0, 0): np.array([0.5, 0.4, 0.3])})
        with pytest.raises(UtilityShapeError):
            solve_gopa(p, {(0, 0): np.array([0.2, 0.3, 0.5])})
        with pytest.raises(UtilityShapeError):
            solve_gopa(p, {})

    def test_saturates_generalized_lp_rows(self):
        rng = np.random.default_rng(10)
        p, _ = random_problem(rng, 2, 1, 4)
        u = random_utilities(rng, p)
        sol = solve_gopa(p, u)
        lp = build_gopa_lp(p, u)
        x = np.concatenate([np.concatenate([sol.rank_weights[(i, j)]
                                            for i, j in p.cells()]), [sol.objective]])
        rows = lp.lhs @ x
        assert np.abs(rows[:-1]).max() <= 1e-12
        assert rows[-1] == pytest.approx(1.0, abs=1e-12)


class TestAggregation:
    def test_single_cell_aggregates(self):
        p, _ = random_problem(np.random.default_rng(11), 1, 1, 4)
        sol = solve_opa(p)
        wq, wn, wm = sol.expert_weights, sol.attribute_weights, sol.alternative_weights
        assert wq == pytest.approx([1.0])
        assert wn == pytest.approx([1.0])

    def test_equal_importance_alternative_weights_are_centroid(self):
        rng = np.random.default_rng(12)
        p = equal_importance_problem(rng, 1, 1, 8)
        sol = solve_opa(p)
        ranks = p.alternative_ranks[0, 0]
        roc = surrogate_weights("roc", 8)
        assert sol.alternative_weights == pytest.approx(roc[ranks - 1], abs=1e-12)

    def test_equal_expert_importance_attribute_weights_are_reciprocal(self):
        rng = np.random.default_rng(13)
        experts = [{"id": "E1", "rank": 1}, {"id": "E2", "rank": 1}]
        attributes = ["C1", "C2", "C3"]
        alternatives = ["A1", "A2"]
        doc = {
            "experts": experts, "attributes": attributes, "alternatives": alternatives,
            "attribute_ranks": {"E1": {"C1": 1, "C2": 2, "C3": 3},
                                "E2": {"C1": 2, "C2": 1, "C3": 3}},
            "alternative_ranks": {
                e["id"]: {a: {m: int(r) for m, r in zip(alternatives, rng.permutation(2) + 1)}
                          for a in attributes}
                for e in experts
            },
        }
        p = validate_problem(doc)
        sol = solve_opa(p)
        rr = surrogate_weights("rr", 3)
        per_expert = sol.expert_attribute_weights() / sol.expert_weights[:, None]
        for i in range(2):
            ranks = p.attribute_ranks[i]
            assert per_expert[i] == pytest.approx(rr[ranks - 1], abs=1e-12)

    @pytest.mark.parametrize("method", ["gopa", "opa"])
    def test_rank_products_beyond_int64_do_not_wrap(self, method):
        # 2**32 * 2**32 wraps to 0 in int64: the weights came out [nan, 0]
        big = 2 ** 32
        doc = {
            "experts": [{"id": "E1", "rank": big}, {"id": "E2", "rank": 1}],
            "attributes": ["C1"],
            "alternatives": ["A1", "A2"],
            "attribute_ranks": {"E1": {"C1": big}, "E2": {"C1": 1}},
            "alternative_ranks": {"E1": {"C1": {"A1": 1, "A2": 2}},
                                  "E2": {"C1": {"A1": 2, "A2": 1}}},
        }
        sol = solve_document(doc, method=method)
        assert np.isfinite(sol.weights).all() and sol.objective > 0
        assert sol.expert_weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert sol.expert_weights == pytest.approx([2.0 ** -64, 1.0], rel=1e-12)
        assert build_opa_lp(sol.problem).lhs.diagonal()[:2].tolist() == [-2.0 ** 64] * 2


class TestDecomposition:
    def test_ordinal_net_utility_is_centroid(self):
        p, _ = random_problem(np.random.default_rng(14), 3, 2, 10)
        expert, net = decompose(solve_opa(p))
        roc = surrogate_weights("roc", 10)
        for i in range(3):
            assert net[i] == pytest.approx(roc, abs=1e-12)
        assert net[0, 0] == pytest.approx(0.292897, abs=5e-7)

    def test_product_reconstructs_rank_weights(self):
        rng = np.random.default_rng(15)
        p, _ = random_problem(rng, 2, 3, 5)
        sol = solve_opa(p)
        expert, net = decompose(sol)
        per_rank = np.zeros((2, 5))
        for (i, j), w in zip(p.cells(), sol.rank_weights.reshape(-1, 5)):
            per_rank[i] += w
        assert np.abs(expert[:, None] * net - per_rank).max() <= 1e-12

    def test_two_expert_hand_values(self):
        rng = np.random.default_rng(16)
        _, doc = random_problem(rng, 2, 1, 2)
        doc["experts"][0]["rank"] = 1
        doc["experts"][1]["rank"] = 2
        doc["attribute_ranks"] = {"E1": {"C1": 1}, "E2": {"C1": 1}}
        p = validate_problem(doc)
        expert, net = decompose(solve_opa(p))
        assert expert == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-14)
        assert net[:, 0] == pytest.approx([0.75, 0.75], abs=1e-14)

    def test_rejects_gaps_and_duplicates(self):
        doc = {
            "experts": [{"id": "E1", "rank": 1}],
            "attributes": ["C1"],
            "alternatives": ["A1", "A2", "A3"],
            "attribute_ranks": {"E1": {"C1": 1}},
            "alternative_ranks": {"E1": {"C1": {"A1": 1, "A2": 1, "A3": 2}}},
        }
        p = validate_problem(doc)
        with pytest.raises(DecompositionUnsupported):
            decompose(solve_opa(p))
