"""Acceptance suite: one test (or parametrized group) per criterion.

Each check prints a ``[criterion NN] PASS/FAIL`` line (visible with ``-s`` or
on failure).

Criterion 3 carries an erratum.  The case study prints a confidence level of
0.9951 for a coefficient of 0.5154 over 6 items and 5 raters; the stated F
mapping gives 0.9892 there (scipy's ``f.cdf`` agrees to 1e-15), the rounding
of 0.5154 allows only [0.98918, 0.98920], and 0.9951 would need a coefficient
in [0.5591, 0.5601].  The two 10-item fixtures land inside their rounding
intervals under the same mapping, so the case asserts 0.9892 and keeps the
published value as a documented erratum.  The label changes with it: 0.9892
reads "very sensitive" (below 0.99), where 0.9951 would read "high sensitive".
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from gopa.elicit_continuous import cumulative_utilities, elicit_continuous
from gopa.elicit_discrete import (
    elicit_discrete,
    entropy_max_discrete,
    kkt_residual_discrete,
)
from gopa.lpcheck import build_gopa_lp, build_opa_lp, solve_lp, verify_efficiency
from gopa.metrics import confidence_level, f_cdf, kendall_w, spearman
from gopa.model import CellContext, validate_problem
from gopa.pipeline import elicit_utilities
from gopa.sensitivity import describe
from gopa.solver import solve_gopa, solve_opa
from gopa.structures import (
    UtilityStructure,
    surrogate_weights,
    target_density,
)
from model_helpers import case_study_problem

from oracles import (
    efficiency_lp,
    every_cell,
    grid_kl_minimum,
    kendall_bruteforce,
    kl_objective,
    permute_experts,
    random_continuous_context,
    random_discrete_context,
    random_problem,
    random_utilities,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2}] FAIL  {description}")
        raise
    print(f"[criterion {number:2}] PASS  {description}")


CASE_EXPERT_WEIGHTS = np.array([0.1460, 0.2190, 0.1095, 0.0876, 0.4380])


def test_criterion_01_case_study_expert_weights_any_structures():
    with criterion(1, "case-study expert weights, structure independent, < 1 s"):
        for seed in (0, 1):
            problem, context, structures = case_study_problem(seed)
            start = time.perf_counter()
            utilities = elicit_utilities(problem, context, structures)
            solution = solve_gopa(problem, utilities)
            elapsed = time.perf_counter() - start
            assert np.abs(solution.expert_weights - CASE_EXPERT_WEIGHTS).max() <= 5e-5
            assert elapsed < 1.0


def test_criterion_02_permutation_statistics_expert_row():
    with criterion(2, "120-permutation expert statistics, < 5 s"):
        problem, _, _ = case_study_problem(0)
        start = time.perf_counter()
        weights = np.vstack([solve_opa(s).expert_weights
                             for s in permute_experts(problem)])
        stats = [describe(weights[:, i]) for i in range(5)]
        elapsed = time.perf_counter() - start
        assert weights.shape == (120, 5)
        for st in stats:
            assert st.mean == pytest.approx(0.2000, abs=2e-3)
            assert st.skewness == pytest.approx(1.1019, abs=2e-3)
            assert st.kurtosis == pytest.approx(-0.3233, abs=2e-3)
            assert st.cv == pytest.approx(0.6380, abs=2e-3)
            assert st.minimum == pytest.approx(0.0876, abs=2e-3)
            assert st.maximum == pytest.approx(0.4380, abs=2e-3)
        assert elapsed < 5.0


# Erratum: the published 0.9951 is not reachable from the published inputs
# under the stated mapping, nor under the chi-square, integer-dof, six-rater,
# mean-Spearman or swapped raters/items variants, nor from any one-digit typo
# of 0.5154 (nearest: 0.5554 -> 0.9947).  PAPER.md holds only the title and
# abstract, so which printed number is wrong cannot be settled from the text.
CRITERION_3_ERRATA = {(0.5154, 6): 0.9951}


@pytest.mark.parametrize("rho,items,expected", [
    pytest.param(0.5154, 6, 0.9892, id="0.5154-6-0.9951"),
    (0.2960, 10, 0.8658),
    (0.1893, 10, 0.4941),
])
def test_criterion_03_confidence_level_mapping(rho, items, expected):
    published = CRITERION_3_ERRATA.get((rho, items))
    note = "" if published is None else f" (published {published}, erratum)"
    with criterion(3, f"confidence level: rho={rho}, {items} items -> {expected}{note}"):
        assert confidence_level(rho, 5, items) == pytest.approx(expected, abs=5e-4)


def test_criterion_04_closed_forms_match_lp_on_random_instances():
    with criterion(4, "formula vs simplex on 50 random instances (clean + irregular)"):
        rng = np.random.default_rng(404)
        for n in range(50):
            problem, _ = random_problem(rng, irregular=(n % 2 == 1))
            res = solve_lp(build_opa_lp(problem))
            assert res.status == "optimal"
            assert abs(res.value - solve_opa(problem).objective) <= 1e-8
            utilities = random_utilities(rng, problem)
            gres = solve_lp(build_gopa_lp(problem, utilities))
            assert gres.status == "optimal"
            assert abs(gres.value - solve_gopa(problem, utilities).objective) <= 1e-8


def test_criterion_05_objective_invariant_across_structures():
    with criterion(5, "objective spread across utility structures <= 1e-12"):
        rng = np.random.default_rng(505)
        for _ in range(20):
            problem, _ = random_problem(rng)    # every cell ranks all alternatives
            values = []
            for kind in ("rs", "rr", "sr", "roc", "ref", "uniform"):
                utilities = every_cell(problem, surrogate_weights(kind, problem.n_alternatives))
                values.append(solve_gopa(problem, utilities).objective)
            assert max(values) - min(values) <= 1e-12


def test_criterion_06_degenerations():
    with criterion(6, "centroid/reciprocal/rank-sum degenerations"):
        rng = np.random.default_rng(606)

        # (a) centroid utilities reproduce the ordinal solution exactly
        problem, _ = random_problem(rng, 3, 2, 6)
        a = solve_gopa(problem, every_cell(problem, surrogate_weights("roc", 6)))
        b = solve_opa(problem)
        assert abs(a.objective - b.objective) <= 1e-12
        assert np.abs(a.weights - b.weights).max() <= 1e-12

        # (b) equal expert and attribute importance: alternative weights = centroid
        _, doc = random_problem(rng, 2, 2, 7)
        for e in doc["experts"]:
            e["rank"] = 1
        doc["attribute_ranks"] = {e["id"]: {a: 1 for a in doc["attributes"]}
                                  for e in doc["experts"]}
        shared = doc["alternative_ranks"]["E1"]["C1"]
        doc["alternative_ranks"] = {e["id"]: {a: dict(shared) for a in doc["attributes"]}
                                    for e in doc["experts"]}
        equal = validate_problem(doc)
        sol = solve_opa(equal)
        roc = surrogate_weights("roc", 7)
        ranks = equal.alternative_ranks[0, 0]
        assert np.abs(sol.alternative_weights - roc[ranks - 1]).max() <= 1e-12
        for i, j in equal.cells():
            cell = sol.weights[i, j] * 4.0  # 2 experts x 2 attributes
            assert np.abs(cell - roc[ranks - 1]).max() <= 1e-12

        # (c) equal expert importance: per-expert attribute weights = reciprocal
        _, doc = random_problem(rng, 3, 4, 5)
        for e in doc["experts"]:
            e["rank"] = 1
        equal = validate_problem(doc)
        sol = solve_opa(equal)
        rr = surrogate_weights("rr", 4)
        per_expert = sol.expert_attribute_weights() / sol.expert_weights[:, None]
        for i in range(3):
            ranks = equal.attribute_ranks[i]
            assert np.abs(per_expert[i] - rr[ranks - 1]).max() <= 1e-12

        # (d) flat density, empty context: rank-sum weights
        for size in range(1, 11):
            density = elicit_continuous(target_density("neutral", size),
                                        CellContext(), size)
            u = cumulative_utilities(density)
            assert np.abs(u - surrogate_weights("rs", size)).max() <= 1e-10


def test_criterion_07_discrete_elicitation_optimality():
    with criterion(7, "grid oracle never beats the solver; residuals small"):
        rng = np.random.default_rng(707)
        kinds = ("rs", "rr", "sr", "roc", "ref")
        for n in range(100):
            size = int(rng.integers(2, 5))
            ctx, _ = random_discrete_context(rng, size)
            target = surrogate_weights(kinds[n % len(kinds)], size)
            solved = elicit_discrete(target, ctx, size)
            assert kkt_residual_discrete(solved, target, ctx) <= 1e-8
            solver_val = float(kl_objective(solved, target / target.sum())[0])
            oracle_val, _ = grid_kl_minimum(target, ctx, size, resolution=1e-3)
            assert oracle_val is not None
            assert solver_val <= oracle_val + 1e-4
            # uniform-target minimization coincides with entropy maximization
            uniform = np.full(size, 1.0 / size)
            gap = np.abs(elicit_discrete(uniform, ctx, size)
                         - entropy_max_discrete(ctx, size)).max()
            assert gap <= 1e-8


def test_criterion_08_continuous_elicitation_properties():
    with criterion(8, "piecewise scaling, risk identity, cumulative constraints"):
        rng = np.random.default_rng(808)
        structures = (
            UtilityStructure(kind="neutral"),
            UtilityStructure(kind="hara", alpha=2.0, beta=1.0, gamma=1.5),
            UtilityStructure(kind="crra", alpha=1.0, gamma=0.5),
            UtilityStructure(kind="cara", a=0.6),
            UtilityStructure(kind="sshape", steepness=1.0),
        )
        for n in range(20):
            size = int(rng.integers(2, 8))
            ctx, _ = random_continuous_context(rng, size)
            target = target_density(structures[n % len(structures)], size)
            density = elicit_continuous(target, ctx, size)

            for a, b in zip(density.breakpoints[:-1], density.breakpoints[1:]):
                xs = np.linspace(a + 1e-6, b - 1e-6, 1000)
                ratio = density.value(xs) / target.value(xs)
                assert ratio.max() - ratio.min() <= 1e-9 * max(1.0, ratio.max())

                interior = rng.uniform(a + 0.05, b - 0.05, size=50)
                for x in interior:
                    eta = target.risk_coefficient(float(x))
                    fd = -(np.log(density.value(x + 1e-5))
                           - np.log(density.value(x - 1e-5))) / 2e-5
                    assert abs(eta - float(fd)) <= 1e-6

            for r, alpha in ctx.ratio:
                assert abs(density.cdf(float(r)) - alpha * density.cdf(r - 1.0)) <= 1e-8
            for r, beta in ctx.absdiff:
                assert abs(density.cdf(float(r)) - density.cdf(r - 1.0) - beta) <= 1e-8
            for r, gamma in ctx.lowerbound:
                assert abs(density.cdf(float(r)) - gamma) <= 1e-8
            assert abs(density.cdf(float(size)) - 1.0) <= 1e-10

        worked = CellContext(ratio=((3, 1.15),), absdiff=((5, 0.065),),
                             lowerbound=((1, 0.32),))
        hara = target_density(UtilityStructure(kind="hara", alpha=2.0, beta=1.0,
                                               gamma=1.5), 7)
        density = elicit_continuous(hara, worked, 7)
        assert abs(density.cdf(1.0) - 0.32) <= 1e-8


def test_criterion_09_two_stage_efficiency():
    with criterion(9, "stage-2 slack equals the objective; inflation infeasible"):
        rng = np.random.default_rng(909)
        docs = []
        for _ in range(6):
            problem, _ = random_problem(rng, int(rng.integers(1, 3)),
                                        int(rng.integers(1, 3)), int(rng.integers(2, 5)))
            docs.append(problem)
        dup_doc = {
            "experts": [{"id": "E1", "rank": 1}],
            "attributes": ["C1"],
            "alternatives": ["A1", "A2", "A3", "A4"],
            "attribute_ranks": {"E1": {"C1": 1}},
            "alternative_ranks": {"E1": {"C1": {"A1": 1, "A2": 2, "A3": 2, "A4": 3}}},
        }
        docs.append(validate_problem(dup_doc))
        for problem in docs:
            solution = solve_opa(problem)
            z_star = solution.objective
            delta, bound = verify_efficiency(solution)
            assert delta <= 1e-8
            assert bound == pytest.approx(z_star, rel=1e-12)
            assert 1.1 * z_star > bound
            # the reference LP agrees: its optimum's least slack is z*, and 1.1 z* is infeasible
            lp = efficiency_lp(problem, z_star)
            assert abs((lp.lhs[:-1] @ solve_lp(lp).x).min() - z_star) <= 1e-8
            assert solve_lp(efficiency_lp(problem, 1.1 * z_star)).status == "infeasible"


def test_criterion_10_metric_fixtures():
    with criterion(10, "distribution, concordance, and correlation fixtures"):
        assert abs(f_cdf(1.0, 1.0, 1.0) - 0.5) <= 1e-10
        for x in np.linspace(0.05, 10.0, 20):
            assert abs(f_cdf(x, 2.0, 2.0) - x / (1.0 + x)) <= 1e-10

        assert kendall_w([[1, 2, 3]] * 3) == pytest.approx(1.0, abs=1e-12)
        assert kendall_w([[1, 2, 3], [3, 2, 1]]) == pytest.approx(0.0, abs=1e-12)
        # three-rater fixture frozen at the brute-force value of the defining
        # rank-sum formula (1/9); the commonly quoted 1/3 does not survive
        # direct evaluation
        triple = [[1, 2, 3], [1, 2, 3], [3, 2, 1]]
        assert kendall_bruteforce(triple) == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert kendall_w(triple) == pytest.approx(kendall_bruteforce(triple), abs=1e-12)

        assert spearman([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
        assert spearman([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(0.8, abs=1e-12)
