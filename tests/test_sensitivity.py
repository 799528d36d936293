from math import factorial

import numpy as np
import pytest

from gopa.exceptions import DegenerateError, DomainError
from gopa.model import validate_problem
from gopa.sensitivity import describe, permutation_stats
from gopa.solver import solve_gopa, solve_opa

from oracles import permute_experts, random_problem, random_utilities

SECTIONS = ("experts", "attributes", "alternatives")


class TestPermuteExperts:
    @pytest.mark.parametrize("n,expected", [(1, 1), (3, 6), (5, 120)])
    def test_scenario_counts(self, n, expected):
        p, _ = random_problem(np.random.default_rng(n), n, 2, 4)
        scenarios = list(permute_experts(p))
        assert len(scenarios) == expected

    def test_each_expert_visits_each_rank_equally(self):
        p, _ = random_problem(np.random.default_rng(0), 3, 1, 3)
        ranks = np.vstack([s.expert_ranks for s in permute_experts(p)])
        for i in range(3):
            for r in range(1, 4):
                assert (ranks[:, i] == r).sum() == factorial(2)

    def test_other_rankings_untouched(self):
        p, _ = random_problem(np.random.default_rng(1), 3, 2, 4)
        for s in permute_experts(p):
            assert np.array_equal(s.attribute_ranks, p.attribute_ranks)
            assert np.array_equal(s.alternative_ranks, p.alternative_ranks)


class TestDescribe:
    def test_constant_samples(self):
        st = describe([0.3, 0.3, 0.3, 0.3])
        assert st.skewness == 0.0
        assert st.cv == 0.0
        assert st.mean == pytest.approx(0.3)

    def test_adjusted_skewness_hand_value(self):
        assert describe([0.0, 0.0, 0.0, 1.0]).skewness == pytest.approx(2.0, abs=1e-12)

    def test_case_expert_row(self):
        h5 = sum(1.0 / p for p in range(1, 6))
        values = np.repeat([1.0 / (t * h5) for t in range(1, 6)], 24)
        st = describe(values)
        assert st.mean == pytest.approx(0.2000, abs=2e-3)
        assert st.skewness == pytest.approx(1.1019, abs=2e-3)
        assert st.kurtosis == pytest.approx(-0.3233, abs=2e-3)
        assert st.cv == pytest.approx(0.6380, abs=2e-3)
        assert st.minimum == pytest.approx(0.0876, abs=2e-3)
        assert st.maximum == pytest.approx(0.4380, abs=2e-3)

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.random(40)
        a = describe(x)
        b = describe(x[rng.permutation(40)])
        for field in ("mean", "skewness", "kurtosis", "cv", "minimum", "maximum"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-12)

    def test_min_mean_max_ordering(self):
        rng = np.random.default_rng(4)
        st = describe(rng.random(25))
        assert st.minimum <= st.mean <= st.maximum
        assert st.cv >= 0.0

    def test_small_sample_rejected(self):
        with pytest.raises(DegenerateError, match="^need at least 4 samples, got 3$"):
            describe([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("shape", [(), (4, 2), (1, 6), (6, 1)])
    def test_sample_that_is_not_1d_rejected(self, shape):
        # a matrix is not read as its flattened values
        with pytest.raises(DomainError, match=r"1-D sample"):
            describe(np.random.default_rng(6).random(shape))

    def test_constant_up_to_rounding(self):
        # Every expert ranks C1 > C2 over gap-free cells, so each expert
        # gives C1 two thirds of its weight whatever its rank: the attribute
        # columns are constant, but the sweep computes them with ~1e-16 spread.
        _, doc = random_problem(np.random.default_rng(21), 3, 2, 5)
        doc["attribute_ranks"] = {e["id"]: {"C1": 1, "C2": 2} for e in doc["experts"]}
        stats = permutation_stats(validate_problem(doc))
        assert stats["attributes"][0][1].mean == pytest.approx(2.0 / 3.0, abs=1e-15)
        constant = 0
        for section in SECTIONS:
            raw = stats["raw"][section]
            for (_, st), col in zip(stats[section], raw.T):
                if np.ptp(col) <= 1e-12 * np.abs(col).max():
                    constant += 1
                    assert (st.skewness, st.kurtosis, st.cv) == (0.0, 0.0, 0.0)
        assert constant == 2


def loop_oracle(problem, utilities=None):
    """Per-scenario weights from one full stage-2 solve per permutation."""
    sols = [solve_opa(s) if utilities is None else solve_gopa(s, utilities)
            for s in permute_experts(problem)]
    return {"experts": np.vstack([s.expert_weights for s in sols]),
            "attributes": np.vstack([s.attribute_weights for s in sols]),
            "alternatives": np.vstack([s.alternative_weights for s in sols])}


class TestPermutationStats:
    @pytest.mark.parametrize("n_experts", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_matches_loop(self, n_experts, seed):
        rng = np.random.default_rng(100 * n_experts + seed)
        p, _ = random_problem(rng, n_experts, 3, 6, irregular=True)
        assert not p.gap_free
        u = random_utilities(rng, p)
        for utilities in (None, u):
            raw = permutation_stats(p, utilities)["raw"]
            expected = loop_oracle(p, utilities)
            for section in SECTIONS:
                assert raw[section].shape == expected[section].shape
                assert raw[section] == pytest.approx(expected[section], abs=1e-12)

    def test_guard_before_any_solve(self, monkeypatch):
        p, _ = random_problem(np.random.default_rng(2), 9, 1, 2)
        monkeypatch.setattr("gopa.sensitivity.solve_opa", None)
        with pytest.raises(DegenerateError, match=r"^9! scenarios exceed the guard of 8!$"):
            permutation_stats(p)

    @pytest.mark.parametrize("n_experts", [1, 2])
    def test_small_panel_rejected(self, n_experts, monkeypatch):
        p, _ = random_problem(np.random.default_rng(n_experts), n_experts, 2, 4)
        monkeypatch.setattr("gopa.sensitivity.solve_opa", None)
        with pytest.raises(DegenerateError, match=rf"at least 3 experts.*has {n_experts}$"):
            permutation_stats(p)

    def test_expert_rows_identical_across_experts(self):
        p, _ = random_problem(np.random.default_rng(5), 4, 2, 5)
        stats = permutation_stats(p)
        rows = [st for _, st in stats["experts"]]
        for row in rows[1:]:
            for field in ("mean", "skewness", "kurtosis", "cv", "minimum", "maximum"):
                assert getattr(row, field) == pytest.approx(getattr(rows[0], field),
                                                            abs=1e-12)

    def test_weight_conservation_per_scenario(self):
        p, _ = random_problem(np.random.default_rng(6), 3, 2, 4)
        stats = permutation_stats(p)
        assert np.abs(stats["raw"]["experts"].sum(axis=1) - 1.0).max() <= 1e-10
        assert np.abs(stats["raw"]["attributes"].sum(axis=1) - 1.0).max() <= 1e-10

    def test_extremes_match_rank_positions(self):
        p, _ = random_problem(np.random.default_rng(7), 4, 2, 5)
        stats = permutation_stats(p)
        h4 = sum(1.0 / q for q in range(1, 5))
        for _, st in stats["experts"]:
            assert st.maximum == pytest.approx(1.0 / h4, abs=1e-12)
            assert st.minimum == pytest.approx(1.0 / (4 * h4), abs=1e-12)

    def test_supplied_utilities_are_reused(self):
        rng = np.random.default_rng(8)
        p, _ = random_problem(rng, 3, 2, 4)
        from oracles import random_utilities

        u = random_utilities(rng, p)
        stats = permutation_stats(p, u)
        assert len(stats["raw"]["experts"]) == 6
        assert np.abs(stats["raw"]["alternatives"].sum(axis=1) - 1.0).max() <= 1e-10
