import numpy as np
import pytest
import scipy.stats

from gopa.exceptions import DegenerateError, DomainError
from gopa.metrics import (
    _tie_terms,
    confidence_level,
    consensus_report,
    f_cdf,
    gcl,
    kendall_w,
    psd,
    ranks_from_weights,
    regularized_incomplete_beta,
    spearman,
    sensitivity_label,
)
from gopa.solver import solve_gopa, solve_opa
from gopa.structures import surrogate_weights

from oracles import every_cell, kendall_bruteforce, midranks_loop, random_problem, tie_term_unique


class TestPsd:
    def test_equal_contributions_have_zero_dispersion(self):
        assert psd([0.1, 0.1, 0.1], 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        expected = np.sqrt(((0.15 - 0.2) ** 2 + (0.15 - 0.1) ** 2) / 1.0) / 0.3
        assert psd([0.2, 0.1], 0.3) == pytest.approx(expected, abs=1e-12)
        assert psd([0.2, 0.1], 0.3) == pytest.approx(0.2357, abs=5e-5)

    def test_zero_aggregate_rejected(self):
        with pytest.raises(DegenerateError):
            psd([0.0, 0.0], 0.0)

    def test_attribute_psd_ignores_utility_structures(self):
        rng = np.random.default_rng(0)
        p, _ = random_problem(rng, 3, 2, 5)
        reports = []
        for kind in ("rs", "roc"):
            u = every_cell(p, surrogate_weights(kind, 5))
            reports.append(consensus_report(solve_gopa(p, u)))
        assert np.abs(reports[0].psd_attributes - reports[1].psd_attributes).max() <= 1e-12


class TestRanksFromWeights:
    def test_descending_with_midrank_ties(self):
        assert ranks_from_weights([0.4, 0.1, 0.4, 0.2]).tolist() == [1.5, 4.0, 1.5, 3.0]

    def test_all_tied(self):
        assert ranks_from_weights([0.2, 0.2, 0.2]).tolist() == [2.0, 2.0, 2.0]

    @staticmethod
    def assert_rows_match_loop(rows, tol=1e-12):
        batched = ranks_from_weights(rows, tol)
        assert batched.shape == rows.shape
        n = rows.shape[-1]
        for got, row in zip(batched.reshape(-1, n), rows.reshape(-1, n)):
            assert got.tolist() == midranks_loop(row, tol).tolist()

    def test_random_rows_match_loop(self):
        rng = np.random.default_rng(40)
        for n in (1, 2, 5, 30):
            self.assert_rows_match_loop(rng.random((4, 7, n)))

    def test_exact_ties_match_loop(self):
        rng = np.random.default_rng(41)
        rows = rng.integers(0, 4, size=(50, 12)) / 7.0
        rows[0] = 0.25
        self.assert_rows_match_loop(rows)

    def test_near_tie_chains_longer_than_tol_match_loop(self):
        # consecutive gaps of 0.6 tol chain into groups that span up to 4.2 tol,
        # where the rule "gap to the group's first value" splits them
        rng = np.random.default_rng(42)
        tol = 1e-12
        steps = rng.choice([0.0, 0.6 * tol, 0.6 * tol, 5 * tol], size=(60, 8))
        rows = 0.5 - np.cumsum(steps, axis=1)
        rows = np.take_along_axis(rows, rng.permuted(np.tile(np.arange(8), (60, 1)), axis=1),
                                  axis=1)
        rows[1] = 0.5 - 0.6 * tol * np.arange(8)
        assert ranks_from_weights(rows[1], tol).tolist() == [1.5, 1.5, 3.5, 3.5, 5.5, 5.5,
                                                             7.5, 7.5]
        self.assert_rows_match_loop(rows, tol)
        self.assert_rows_match_loop(rows * 1e9, 1e-3)

    def test_nan_rows_match_loop(self):
        rows = np.array([[0.3, np.nan, 0.3, 0.1], [np.nan, np.nan, 0.0, 0.0]])
        self.assert_rows_match_loop(rows)


class TestTieCorrection:
    def test_matches_unique_counts_per_row(self):
        rng = np.random.default_rng(43)
        ranks = ranks_from_weights(rng.integers(0, 5, size=(30, 9)) / 3.0)
        expected = [tie_term_unique(row) for row in ranks]
        assert min(expected) > 0
        assert _tie_terms(ranks).tolist() == expected


class TestKendall:
    def test_identical_rankings(self):
        assert kendall_w([[1, 2, 3]] * 4) == pytest.approx(1.0, abs=1e-15)

    def test_reversed_pair(self):
        assert kendall_w([[1, 2, 3], [3, 2, 1]]) == pytest.approx(0.0, abs=1e-15)

    def test_three_rater_fixture_matches_bruteforce(self):
        ranks = [[1, 2, 3], [1, 2, 3], [3, 2, 1]]
        expected = kendall_bruteforce(ranks)
        assert expected == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert kendall_w(ranks) == pytest.approx(expected, abs=1e-15)

    def test_matches_bruteforce_on_random_tie_free_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            raters = int(rng.integers(2, 6))
            items = int(rng.integers(2, 8))
            ranks = np.vstack([rng.permutation(items) + 1 for _ in range(raters)])
            assert kendall_w(ranks) == pytest.approx(kendall_bruteforce(ranks), abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(2)
        ranks = np.vstack([rng.permutation(6) + 1 for _ in range(4)])
        perm_items = rng.permutation(6)
        perm_raters = rng.permutation(4)
        assert kendall_w(ranks[:, perm_items]) == pytest.approx(kendall_w(ranks), abs=1e-14)
        assert kendall_w(ranks[perm_raters]) == pytest.approx(kendall_w(ranks), abs=1e-14)

    def test_tie_correction_against_direct_formula(self):
        ranks = np.array([[1.5, 1.5, 3.0], [1.0, 2.5, 2.5], [1.0, 2.0, 3.0]])
        sums = ranks.sum(axis=0)
        s = ((sums - sums.mean()) ** 2).sum()
        correction = (2 ** 3 - 2) + (2 ** 3 - 2) + 0.0
        expected = 12 * s / (9 * (27 - 3) - 3 * correction)
        assert kendall_w(ranks) == pytest.approx(expected, abs=1e-14)

    def test_all_tied_rejected(self):
        with pytest.raises(DegenerateError):
            kendall_w([[1.5, 1.5], [1.5, 1.5]])

    def test_shape_errors(self):
        expected = r"^expected a raters-by-items matrix, got shape "
        with pytest.raises(DomainError, match=expected + r"\(3,\)$"):
            kendall_w([1, 2, 3])
        with pytest.raises(DomainError, match=expected + r"\(1, 3\)$"):
            kendall_w([[1, 2, 3]])


class TestFCdf:
    def test_unit_dof_median(self):
        assert f_cdf(1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_two_dof_closed_form(self):
        for x in np.linspace(0.05, 8.0, 20):
            assert f_cdf(x, 2.0, 2.0) == pytest.approx(x / (1.0 + x), abs=1e-10)

    def test_monotone_and_limits(self):
        xs = np.linspace(0.0, 50.0, 200)
        vals = [f_cdf(x, 4.6, 18.4) for x in xs]
        assert (np.diff(vals) >= 0).all()
        assert f_cdf(0.0, 3.0, 5.0) == 0.0
        assert f_cdf(1e6, 3.0, 5.0) == pytest.approx(1.0, abs=1e-6)

    def test_infinite_statistic(self):
        assert f_cdf(np.inf, 3.0, 5.0) == 1.0

    @pytest.mark.parametrize("x, value", [(-0.5, 0.0), (0.0, 0.0), (1.0, 1.0), (1.5, 1.0)])
    def test_incomplete_beta_at_and_beyond_the_ends(self, x, value):
        assert regularized_incomplete_beta(2.0, 3.0, x) == value

    def test_matches_scipy_with_fractional_dof(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v1 = rng.uniform(0.2, 40.0)
            v2 = rng.uniform(0.2, 60.0)
            x = rng.uniform(0.0, 25.0)
            assert f_cdf(x, v1, v2) == pytest.approx(scipy.stats.f.cdf(x, v1, v2),
                                                     abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            f_cdf(-0.1, 2.0, 2.0)
        with pytest.raises(DomainError):
            f_cdf(1.0, 0.0, 2.0)
        with pytest.raises(DomainError, match="beta parameters must be positive"):
            regularized_incomplete_beta(0.0, 1.0, 0.5)


class TestConfidenceLevel:
    def test_fixture_values(self):
        # the published 6-item value, 0.9951, is an erratum: the stated
        # mapping gives 0.9892 at the printed inputs (see the acceptance suite)
        assert confidence_level(0.5154, 5, 6) == pytest.approx(0.98919, abs=5e-5)
        assert confidence_level(0.2960, 5, 10) == pytest.approx(0.8658, abs=2e-3)
        assert confidence_level(0.1893, 5, 10) == pytest.approx(0.4941, abs=2e-3)

    def test_extremes(self):
        assert confidence_level(1.0, 5, 6) == 1.0
        assert confidence_level(0.0, 5, 6) == 0.0

    def test_too_few_items(self):
        # v1 = items - 1 - 2/raters = 0 at 2 items and 2 raters
        with pytest.raises(DomainError, match=r"too few items \(2\) for 2 raters"):
            confidence_level(0.5, 2, 2)


class TestGcl:
    def test_perfect_levels(self):
        assert gcl(1.0, [0.4, 0.6], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_direct_product(self):
        assert gcl(0.5, [0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.25, abs=1e-15)

    def test_shape_error(self):
        with pytest.raises(DomainError, match=r"^weights \(2,\) vs levels \(3,\)$"):
            gcl(1.0, [0.4, 0.6], [1.0, 1.0, 1.0])


class TestSpearman:
    def test_identical(self):
        assert spearman([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_single_swap(self):
        assert spearman([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(0.8, abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(3, 12))
            a = ranks_from_weights(rng.random(n))
            b = ranks_from_weights(rng.random(n))
            expected = scipy.stats.spearmanr(a, b).statistic
            assert spearman(a, b) == pytest.approx(expected, abs=1e-12)

    def test_shape_error(self):
        with pytest.raises(DomainError, match="^expected two equal-length rank vectors"):
            spearman([1, 2], [1, 2, 3])

    def test_constant_ranks(self):
        with pytest.raises(DegenerateError, match="a rank vector is constant"):
            spearman([1.5, 1.5], [1, 2])


class TestLabels:
    @pytest.mark.parametrize("level,label", [
        (0.50, "less sensitive"),
        (0.899999, "less sensitive"),
        (0.90, "sensitive"),
        (0.9499, "sensitive"),
        (0.95, "very sensitive"),
        (0.9899, "very sensitive"),
        (0.99, "high sensitive"),
        (1.0, "high sensitive"),
    ])
    def test_thresholds(self, level, label):
        assert sensitivity_label(level) == label


class TestConsensusReport:
    def test_report_fields_and_ranges(self):
        rng = np.random.default_rng(5)
        p, _ = random_problem(rng, 4, 3, 6)
        rep = consensus_report(solve_opa(p))
        assert 0.0 <= rep.kendall_attributes <= 1.0
        assert ((rep.kendall_alternatives >= 0) & (rep.kendall_alternatives <= 1)).all()
        assert 0.0 <= rep.lcl_attributes <= 1.0
        assert 0.0 <= rep.gcl <= 1.0
        assert rep.label_global == sensitivity_label(rep.gcl)
        expected = gcl(rep.lcl_attributes, solve_opa(p).attribute_weights,
                       rep.lcl_alternatives)
        assert rep.gcl == pytest.approx(expected, abs=1e-14)

    def test_identical_experts_reach_full_consensus(self):
        rng = np.random.default_rng(6)
        _, doc = random_problem(rng, 1, 3, 6)
        cell = doc["alternative_ranks"]["E1"]
        doc["experts"] = [{"id": "E1", "rank": 1}, {"id": "E2", "rank": 2},
                          {"id": "E3", "rank": 3}]
        doc["attribute_ranks"] = {e: dict(doc["attribute_ranks"]["E1"])
                                  for e in ("E1", "E2", "E3")}
        doc["alternative_ranks"] = {e: {a: dict(r) for a, r in cell.items()}
                                    for e in ("E1", "E2", "E3")}
        from gopa.model import validate_problem

        rep = consensus_report(solve_opa(validate_problem(doc)))
        assert rep.kendall_attributes == pytest.approx(1.0, abs=1e-12)
        assert rep.kendall_alternatives == pytest.approx(np.ones(3), abs=1e-12)

    def test_single_expert_rejected(self):
        p, _ = random_problem(np.random.default_rng(7), 1, 2, 4)
        with pytest.raises(DegenerateError):
            consensus_report(solve_opa(p))
