import inspect
import itertools
import json
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

import gopa.lpcheck
from gopa.cli import main
from gopa.exceptions import DomainError, NumericFailure
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

from oracles import (
    cell_counts,
    dense_pivot,
    efficiency_lp,
    every_cell,
    exact_gopa,
    exact_opa,
    max_min_slack_lp,
    random_problem,
    random_utilities,
)

SHIPPED_PIVOT = gopa.lpcheck._pivot


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

    def test_redundant_equality_row_is_dropped(self):
        # the second row doubles the first: its artificial stays basic at zero
        # after phase I with no structural entry left to pivot on
        lp = LinearProgram(objective=[1.0, 2.0], lhs=[[1.0, 1.0], [2.0, 2.0], [0.0, 1.0]],
                           rhs=[2.0, 4.0, 1.5], senses=("=", "=", "<="))
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(3.5, abs=1e-12)
        assert res.x == pytest.approx([0.5, 1.5], abs=1e-12)

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

    def test_iteration_budget(self, monkeypatch):
        # a pivot that changes nothing leaves the same column eligible for ever
        monkeypatch.setattr(gopa.lpcheck, "_pivot", lambda *args: None)
        lp = LinearProgram(objective=[1.0], lhs=[[1.0]], rhs=[1.0], senses=("<=",))
        with pytest.raises(NumericFailure, match="^simplex iteration budget exhausted$"):
            solve_lp(lp)

    def test_deterministic_vertex(self):
        rng = np.random.default_rng(11)
        lhs = rng.random((6, 4))
        lp = LinearProgram(objective=rng.random(4), lhs=lhs, rhs=rng.random(6) + 0.5,
                           senses=("<=",) * 6)
        r1 = solve_lp(lp)
        r2 = solve_lp(lp)
        assert np.array_equal(r1.x, r2.x)

    def test_start_refusals(self):
        def program(start):
            return LinearProgram(objective=[1.0, 1.0], lhs=[[1.0, 2.0], [3.0, 1.0]],
                                 rhs=[4.0, 6.0], senses=("<=", "="), start=start)

        assert program([1, 2]).start.tolist() == [1, 2]   # columns x0, x1, slack of row 0
        with pytest.raises(DomainError, match="^start needs one column index per row, 2 rows$"):
            program([0])
        with pytest.raises(DomainError, match="one column index per row"):
            program([0.0, 1.0])
        with pytest.raises(DomainError, match="^start repeats a column$"):
            program([1, 1])
        for start in ([0, 3], [-1, 0]):
            with pytest.raises(DomainError, match=r"^start column out of range 0\.\.2$"):
                program(start)

    def test_dimension_errors(self):
        with pytest.raises(DomainError,
                           match=r"^lhs shape \(1, 1\) incompatible with 1 rows, 2 vars$"):
            LinearProgram(objective=[1.0, 2.0], lhs=[[1.0]], rhs=[1.0], senses=("<=",))
        with pytest.raises(DomainError, match="^unknown sense in"):
            LinearProgram(objective=[1.0], lhs=[[1.0]], rhs=[1.0], senses=("?",))
        with pytest.raises(DomainError, match="2 senses for 1 rows"):
            LinearProgram(objective=[1.0], lhs=[[1.0]], rhs=[1.0], senses=("<=", "<="))
        with pytest.raises(DomainError, match="entries must be finite"):
            LinearProgram(objective=[1.0], lhs=[[np.inf]], rhs=[1.0], senses=("<=",))


class TestBuilders:
    def test_row_and_variable_counts(self):
        p, _ = random_problem(np.random.default_rng(0), 1, 1, 2)
        lp = build_opa_lp(p)
        assert lp.lhs.shape == (3, 3)  # 2 ranking rows + normalization; w1 w2 z
        assert lp.senses == ("<=", "<=", "=")

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
        assert lp.lhs.shape == (4, 4)  # held ranks 1, 2 and 4, then normalization
        assert lp.lhs[-1, :3].tolist() == [1.0, 2.0, 1.0]

    def test_centroid_utilities_reproduce_ordinal_rows(self):
        p, _ = random_problem(np.random.default_rng(1), 2, 2, 5)
        u = every_cell(p, surrogate_weights("roc", 5))
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
    """`verify_efficiency` certifies the closed form on the efficiency program's rows."""

    def test_min_slack_matches_objective(self):
        p, _ = random_problem(np.random.default_rng(5), 1, 1, 3)
        solution = solve_opa(p)
        delta, bound = verify_efficiency(solution)
        assert delta <= 1e-14
        assert bound == pytest.approx(solution.objective, rel=1e-14)

    def test_inflated_objective_is_infeasible(self):
        p, _ = random_problem(np.random.default_rng(6), 2, 1, 3)
        solution = solve_opa(p)
        assert 1.1 * solution.objective > verify_efficiency(solution)[1]

    def test_stage2_solution_feasible_for_stage1(self):
        # the certificate's point is normalized over the cells' rank counts and nonnegative
        p, _ = random_problem(np.random.default_rng(7), 2, 2, 4)
        solution = solve_opa(p)
        assert verify_efficiency(solution)[0] <= 1e-8
        weights = solution.rank_weights
        total = sum(float(cell_counts(p, i, j) @ weights[i, j, :p.max_rank[i, j]])
                    for i, j in p.cells())
        assert total == pytest.approx(1.0, abs=1e-8)
        for w in (weights[i, j, :p.max_rank[i, j]] for i, j in p.cells()):
            assert (w >= -1e-10).all()

    def test_bound_is_the_largest_least_slack(self):
        # the LP that maximizes the least slack, by the simplex and by HiGHS
        rng = np.random.default_rng(8)
        for irregular in (False, True) * 5:
            p, _ = random_problem(rng, irregular=irregular, irregular_share=0.4)
            _, bound = verify_efficiency(solve_opa(p))
            lp = max_min_slack_lp(p)
            assert solve_lp(lp).value == pytest.approx(bound, rel=1e-9)
            assert highs(lp) == ("optimal", pytest.approx(bound, rel=1e-9))

    @pytest.mark.parametrize("first_cell, at_z_star", [
        ({"A1": 2, "A2": 3}, "unbounded"),
        ({"A1": 1, "A2": 3}, "optimal"),
        ({"A1": 1, "A2": 1, "A3": 3}, "optimal"),
    ])
    def test_documents_with_a_gap(self, first_cell, at_z_star, tmp_path):
        # a cell that skips rank 1 makes the reference LP unbounded at z*, and
        # the certificate holds all the same: `verify` runs every check
        doc = {
            "experts": [{"id": "E1", "rank": 1}, {"id": "E2", "rank": 2}],
            "attributes": ["C1"],
            "alternatives": ["A1", "A2", "A3"],
            "attribute_ranks": {"E1": {"C1": 1}, "E2": {"C1": 1}},
            "alternative_ranks": {"E1": {"C1": first_cell},
                                  "E2": {"C1": {"A1": 1, "A2": 2, "A3": 3}}},
        }
        p = validate_problem(doc)
        assert p.has_internal_gaps
        solution = solve_opa(p)
        z = solution.objective
        delta, bound = verify_efficiency(solution)
        assert delta <= 1e-14
        assert bound == pytest.approx(z, rel=1e-14)
        assert solve_lp(efficiency_lp(p, z)).status == highs(efficiency_lp(p, z))[0] == at_z_star
        assert solve_lp(efficiency_lp(p, 1.1 * z)).status == "infeasible"

        path, out = tmp_path / "doc.json", tmp_path / "verify.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "-o", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert [c["name"] for c in checks] == [
            "ordinal_lp_matches_formula", "generalized_lp_matches_formula",
            "stage2_min_slack_equals_objective", "stage2_rejects_inflated_objective"]
        assert all(c["pass"] for c in checks)

    @pytest.mark.parametrize("irregular", [False, True], ids=["clean", "irregular"])
    @pytest.mark.parametrize("seed", range(3))
    def test_perturbed_rank_weight_fails(self, seed, irregular):
        # every rank of every cell, skipped ranks included, appears in a slack row
        rng = np.random.default_rng(seed)
        p, _ = random_problem(rng, 3, 3, 6, irregular=irregular, irregular_share=0.4)
        solution = solve_opa(p)
        for index in np.argwhere(p.rank_mask):
            weights = solution.rank_weights.copy()
            weights[tuple(index)] += 1e-6
            delta, bound = verify_efficiency(replace(solution, rank_weights=weights))
            assert delta > 1e-6
            assert bound == verify_efficiency(solution)[1]

    @pytest.mark.parametrize("irregular", [False, True], ids=["clean", "irregular"])
    @pytest.mark.parametrize("seed", range(3))
    def test_raised_objective_fails(self, seed, irregular):
        rng = np.random.default_rng(seed)
        p, _ = random_problem(rng, 10, 10, 15, irregular=irregular, irregular_share=0.4)
        solution = solve_opa(p)
        raised = replace(solution, objective=solution.objective * (1 + 1e-6))
        assert verify_efficiency(solution)[0] <= 1e-14
        assert verify_efficiency(raised)[0] == pytest.approx(1e-6, rel=1e-6)

    @pytest.mark.parametrize("irregular", [False, True], ids=["clean", "irregular"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 24003])
    def test_verdicts_match_the_lp_and_highs(self, seed, irregular):
        # at z*, and at a z* raised by 1e-6 relative, which no normalized weights reach
        rng = np.random.default_rng(seed)
        statuses = set()
        for _ in range(20):
            p, _ = random_problem(rng, irregular=irregular, irregular_share=0.4)
            solution = solve_opa(p)
            raised = replace(solution, objective=solution.objective * (1 + 1e-6))
            for claim, verdicts in ((solution, (True, True)), (raised, (False, True))):
                delta, bound = verify_efficiency(claim)
                certificate = (delta <= 1e-8, 1.1 * claim.objective > bound)
                simplex, second, status = efficiency_lp_verdicts(p, claim.objective)
                assert certificate == simplex == second == verdicts
                if claim is solution:
                    statuses.add(status)
        # a cell that skips rank 1 makes the reference LP unbounded at z*
        assert statuses == ({"optimal", "unbounded"} if irregular else {"optimal"})


def efficiency_lp_verdicts(problem, z_star):
    """`verify`'s two stage-2 verdicts from the reference efficiency LP, by the
    simplex and by HiGHS, and the simplex's status at ``z*``.  The program must
    be feasible at ``z*`` (where the simplex finds an optimum, with a least slack
    of ``z*``) and infeasible at ``1.1 z*``."""
    at, above = efficiency_lp(problem, z_star), efficiency_lp(problem, 1.1 * z_star)
    res = solve_lp(at)
    least = (at.lhs[:-1] @ res.x).min() if res.status == "optimal" else z_star
    simplex = (res.status != "infeasible" and abs(least - z_star) <= 1e-8,
               solve_lp(above).status == "infeasible")
    second = (highs(at)[0] != "infeasible", highs(above)[0] == "infeasible")
    return simplex, second, res.status


def highs(lp):
    """Status and value of ``lp`` from scipy's HiGHS, the second LP engine.

    HiGHS first decides two feasibility programs, ``lp`` with a zero objective
    and its dual: a feasible program is unbounded exactly when its dual is
    infeasible.  Asked for the status directly, HiGHS calls some feasible
    unbounded programs infeasible with presolve (scipy 1.17.1) and unknown
    without it.
    """
    senses = np.asarray(lp.senses)
    eq = senses == "="
    sign = np.where(senses == ">=", -1.0, 1.0)   # a >= row as a <= row
    a_ub, b_ub = (sign[:, None] * lp.lhs)[~eq], (sign * lp.rhs)[~eq]

    def primal(objective):
        return scipy.optimize.linprog(
            -objective, A_ub=a_ub, b_ub=b_ub, A_eq=lp.lhs[eq], b_eq=lp.rhs[eq],
            bounds=(0.0, None), method="highs")

    if primal(np.zeros_like(lp.objective)).status == 2:
        return "infeasible", None
    # the dual's rows: A^T y >= c, one per (nonnegative) variable
    at = np.vstack([a_ub, lp.lhs[eq]]).T
    dual = scipy.optimize.linprog(
        np.zeros(at.shape[1]), A_ub=-at, b_ub=-lp.objective,
        bounds=[(0.0, None)] * a_ub.shape[0] + [(None, None)] * eq.sum(), method="highs")
    if dual.status == 2:
        return "unbounded", None
    res = primal(lp.objective)
    assert res.status == 0, res.message
    return "optimal", -res.fun


def verify_instances(seed):
    """20 seeded problems of up to 3 x 3 x 6, each cell allowed gaps and duplicates
    with probability 0.4, and random utilities: ``(problem, doc, utilities)``."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        problem, doc = random_problem(rng, irregular=True, irregular_share=0.4)
        yield problem, doc, random_utilities(rng, problem)


def random_verify_programs(seed):
    """Each instance of `verify_instances(seed)`, the two LPs `verify` solves for
    it and the reference efficiency programs.

    The LPs are the ordinal and the generalized program, then the efficiency
    programs of `oracles.efficiency_lp` at ``z*`` and ``1.1 z*``, then the two
    weight programs again without their start, so the slack start's pivots stay
    covered.
    """
    for problem, _, utilities in verify_instances(seed):
        programs = [build_opa_lp(problem), build_gopa_lp(problem, utilities)]
        z = solve_opa(problem).objective
        programs += [efficiency_lp(problem, scale * z) for scale in (1.0, 1.1)]
        yield problem, programs + [replace(lp, start=None) for lp in programs[:2]]


def random_small_programs(seed, count=150):
    """Seeded integer LPs: every sense with ``b < 0``, ``b = 0`` and ``b > 0``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = rng.integers(2, 6, size=2)
        senses = tuple(rng.choice(["<=", "=", ">="], size=m))
        rhs = rng.integers(-4, 5, size=m) * rng.integers(0, 2, size=m)
        yield LinearProgram(objective=rng.integers(-3, 4, size=n),
                            lhs=rng.integers(-3, 4, size=(m, n)), rhs=rhs, senses=senses)


def degenerate_programs():
    """Seeded integer programs of ``<=`` rows, each right-hand side 0 with
    probability 0.7, so most vertices are degenerate."""
    rng = np.random.default_rng(0)
    while True:
        m, n = rng.integers(2, 7), rng.integers(2, 8)
        lhs = rng.integers(-3, 4, (m, n))
        rhs = np.where(rng.random(m) < 0.7, 0, rng.integers(1, 4, m))
        yield LinearProgram(objective=rng.integers(-3, 4, n), lhs=lhs, rhs=rhs,
                            senses=("<=",) * m)


def solve_counting_bland_steps(lp):
    """`solve_lp(lp)`, and how many leaving rows `_simplex` picked by Bland's rule."""
    simplex = gopa.lpcheck._simplex
    lines, first = inspect.getsourcelines(simplex)
    bland_line = first + next(n for n, text in enumerate(lines) if "ties = " in text)
    steps = 0

    def count(frame, event, arg):
        nonlocal steps
        steps += event == "line" and frame.f_lineno == bland_line
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code is simplex.__code__ else None)
    try:
        result = solve_lp(lp)
    finally:
        sys.settrace(previous)
    return result, steps


# the draws of `degenerate_programs` whose runs make more than m degenerate
# pivots in a row, so `_simplex` picks the leaving row by Bland's rule (found
# with a line probe over the first 3,000 draws)
BLAND_DRAWS = (50, 888, 1124, 1355, 1733, 1746, 2043, 2398, 2410, 2602, 2802, 2916)


class TestSecondEngine:
    """`solve_lp` against HiGHS on the programs `verify` builds for small problems."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 24003])
    def test_random_verify_programs(self, seed):
        for problem, programs in random_verify_programs(seed):
            results = [solve_lp(lp) for lp in programs]
            for lp, ours in zip(programs, results):
                status, value = highs(lp)
                assert ours.status == status
                if status == "optimal":
                    assert ours.value == pytest.approx(value, abs=1e-9)
            # the efficiency program is feasible at z* and infeasible at 1.1 z*
            assert results[2].status in ("optimal", "unbounded")
            assert results[3].status == "infeasible"

    def test_bland_fallback_programs(self):
        programs = list(itertools.islice(degenerate_programs(), BLAND_DRAWS[-1] + 1))
        first = programs[BLAND_DRAWS[0]]
        assert first.lhs.tolist() == [[3, -2, 1, 2, 3, 3, -1], [0, 0, 0, 0, 1, -1, -2],
                                      [0, 3, 1, 2, -3, -3, -1]]
        assert first.rhs.tolist() == [0, 0, 0]
        assert first.objective.tolist() == [-2, 1, 2, 3, 2, 1, -1]
        statuses = set()
        for draw in BLAND_DRAWS:
            ours, bland_steps = solve_counting_bland_steps(programs[draw])
            assert bland_steps > 0
            status, value = highs(programs[draw])
            statuses.add(status)
            assert ours.status == status
            if status == "optimal":
                assert ours.value == pytest.approx(value, abs=1e-9)
        assert statuses == {"optimal", "unbounded"}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_small_programs_cover_every_start(self, seed):
        # every sense with b < 0, b = 0 and b > 0, so a row starts on its
        # slack or on an artificial in every way phase I allows
        starts, statuses = set(), set()
        for lp in random_small_programs(seed):
            starts.update(zip(lp.senses, np.sign(lp.rhs)))
            ours = solve_lp(lp)
            status, value = highs(lp)
            statuses.add(status)
            assert ours.status == status
            if status == "optimal":
                assert ours.value == pytest.approx(value, abs=1e-9)
                slack, sense = lp.rhs - lp.lhs @ ours.x, np.asarray(lp.senses)
                assert (slack[sense == "<="] >= -1e-9).all()
                assert (slack[sense == ">="] <= 1e-9).all()
                assert (np.abs(slack[sense == "="]) <= 1e-9).all()
        assert len(starts) == 9
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_rows_with_usable_slacks_make_no_phase_one_pivot(self, monkeypatch):
        # <= with b > 0 and b = 0, >= with b < 0 and b = 0: each row starts on its slack
        lp = LinearProgram(objective=[1.0, 1.0],
                           lhs=[[1.0, 2.0], [3.0, 1.0], [-1.0, 1.0], [1.0, -4.0], [2.0, 1.0]],
                           rhs=[4.0, 6.0, -3.0, 0.0, 0.0], senses=("<=", "<=", ">=", "<=", ">="))
        pivots, phase_starts = [0], []
        pivot, simplex = gopa.lpcheck._pivot, gopa.lpcheck._simplex

        def count_pivot(*args):
            pivots[0] += 1
            return pivot(*args)

        def mark_phase(*args):
            phase_starts.append(pivots[0])
            return simplex(*args)

        monkeypatch.setattr(gopa.lpcheck, "_pivot", count_pivot)
        monkeypatch.setattr(gopa.lpcheck, "_simplex", mark_phase)
        res = solve_lp(lp)
        assert phase_starts == [0, 0]   # phase II starts before any pivot
        assert pivots[0] > 0
        assert res.status == "optimal"
        assert res.value == pytest.approx(highs(lp)[1], abs=1e-9)
        assert res.value == pytest.approx(2.8, abs=1e-12)


def pivot_trace(lp, pivot, monkeypatch):
    """``solve_lp(lp)`` with ``pivot`` as `_pivot`, and the ``(row, col)`` of each pivot."""
    trace = []

    def record(tab, basis, row, col):
        trace.append((int(row), int(col)))
        pivot(tab, basis, row, col)

    monkeypatch.setattr(gopa.lpcheck, "_pivot", record)
    return solve_lp(lp), trace


def document_programs(seed):
    rng = np.random.default_rng(seed)
    problem, _ = random_problem(rng, 4, 4, 8)
    programs = [build_opa_lp(problem), build_gopa_lp(problem, random_utilities(rng, problem))]
    return programs + [replace(lp, start=None) for lp in programs]


PROGRAM_SETS = {
    **{f"verify-{seed}": lambda seed=seed: [lp for _, programs in random_verify_programs(seed)
                                            for lp in programs]
       for seed in (0, 1, 2, 24003)},
    **{f"small-{seed}": lambda seed=seed: list(random_small_programs(seed))
       for seed in (0, 1, 2)},
    "documents-4x4x8": lambda: document_programs(8) + document_programs(9),
}


class TestSparsePivot:
    """`_pivot` updates only the columns where the pivot row is nonzero."""

    @pytest.mark.parametrize("programs", PROGRAM_SETS.values(), ids=PROGRAM_SETS.keys())
    def test_same_pivots_as_full_update(self, programs, monkeypatch):
        for lp in programs():
            ours, trace = pivot_trace(lp, SHIPPED_PIVOT, monkeypatch)
            full, full_trace = pivot_trace(lp, dense_pivot, monkeypatch)
            assert trace == full_trace
            assert (ours.status, ours.value) == (full.status, full.value)
            assert np.array_equal(ours.x, full.x)

    def test_pivot_writes_only_its_rows_support(self):
        # column 1: the pivot row holds 0 there, and the pivot column is
        # negative next to its -0.0, so the full update would flip that sign
        tab = np.array([[2.0, 0.0, 4.0],
                        [-3.0, -0.0, 1.0],
                        [1.0, 7.0, 5.0]])
        full, basis, full_basis = tab.copy(), np.array([2, 1, 0]), np.array([2, 1, 0])
        column = tab[:, 1].tobytes()
        SHIPPED_PIVOT(tab, basis, 0, 0)
        dense_pivot(full, full_basis, 0, 0)
        assert tab[:, 1].tobytes() == column
        assert np.array_equal(tab, full)
        assert basis.tolist() == full_basis.tolist() == [0, 1, 0]


def weight_programs(seed, irregular):
    """The ordinal and the generalized program of one `random_problem` draw,
    each with the exact optimum of its closed form."""
    rng = np.random.default_rng(seed)
    problem, _ = random_problem(rng, 3, 3, 6, irregular=irregular, irregular_share=0.4)
    utilities = random_utilities(rng, problem)
    return [(build_opa_lp(problem), exact_opa(problem).objective),
            (build_gopa_lp(problem, utilities), exact_gopa(problem, utilities).objective)]


def record_calls(patch, module, name, calls):
    """Patch ``module.name`` to append ``name`` and the number of dimensions of
    its second argument (for `np.linalg.solve`, the right-hand side) to ``calls``."""
    function = getattr(module, name)

    def record(*args):
        calls.append((name, np.ndim(args[1])))
        return function(*args)

    patch.setattr(module, name, record)


class TestStart:
    """The weight programs name the basis of every weight and ``z``, and
    `solve_lp` uses it only when its certificate holds."""

    @pytest.mark.parametrize("irregular", [False, True], ids=["clean", "irregular"])
    @pytest.mark.parametrize("seed", range(4))
    def test_started_solve_matches_cold_in_no_pivot(self, seed, irregular, monkeypatch):
        for lp, exact in weight_programs(seed, irregular):
            assert lp.start.tolist() == list(range(lp.objective.size))
            calls = []
            with monkeypatch.context() as patch:
                for module, name in ((gopa.lpcheck, "_phase_one"), (gopa.lpcheck, "_simplex"),
                                     (np.linalg, "solve")):
                    record_calls(patch, module, name, calls)
                started, trace = pivot_trace(lp, SHIPPED_PIVOT, patch)
            # a certified start: the vertex and the duals, and no simplex work
            assert calls == [("solve", 1), ("solve", 1)]
            cold, cold_trace = pivot_trace(replace(lp, start=None), SHIPPED_PIVOT, monkeypatch)
            assert trace == [] and cold_trace != []
            assert started.status == cold.status == "optimal"
            assert started.value == pytest.approx(cold.value, rel=1e-12, abs=0)
            assert abs(Fraction(started.value) / exact - 1) <= 1e-12
            assert abs(Fraction(cold.value) / exact - 1) <= 1e-12

    @pytest.mark.parametrize("wrong", [
        # each LAPACK result off by 1e-6, as from a basis singular in exact
        # arithmetic but not in floating point
        lambda call, result: result + 1e-6,
        # the weights off and z right: only the rows' residuals show it
        lambda call, result: result + (call == 0) * np.append(np.full(result.size - 1, 1e-6), 0.0),
        # the duals scaled: still dual feasible, but only the duality gap shows it
        lambda call, result: result * (1 + 1e-6 * (call == 1)),
    ], ids=["both", "weights", "duals"])
    @pytest.mark.parametrize("seed", range(3))
    def test_wrong_solve_fails_the_certificate(self, seed, wrong, monkeypatch):
        solve, calls = np.linalg.solve, []

        def wrong_solve(*args):
            calls.append(None)
            return wrong(len(calls) - 1, solve(*args))

        for lp, exact in weight_programs(seed, True):
            cold = solve_lp(replace(lp, start=None))
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "solve", wrong_solve)
                res = solve_lp(lp)
            assert len(calls) == 2
            assert (res.status, res.value) == (cold.status, cold.value)
            assert np.array_equal(res.x, cold.x)
            assert abs(Fraction(res.value) / exact - 1) <= 1e-12

    def test_unusable_start_takes_the_slack_start(self, monkeypatch):
        lp, exact = weight_programs(2, False)[1]
        n = lp.objective.size      # z is column n - 1, row 0's slack column n
        columns = np.hstack([lp.lhs, np.eye(n)[:, :-1]])   # then the rank rows' slacks
        # z's column is the sum of the rank rows' slacks, each times its coefficient
        singular = np.append(n + np.arange(n - 1), n - 1)
        # row 0's slack in place of w_0: it reads -coef_0 * z < 0
        infeasible = np.append(n, np.arange(1, n))
        # row 0's slack in place of z: w_0 = 1 / n_0 and every other weight 0,
        # a feasible vertex that is not optimal
        wrong = np.append(np.arange(n - 1), n)
        assert np.linalg.matrix_rank(columns[:, singular]) < n
        assert np.linalg.solve(columns[:, infeasible], lp.rhs).min() < 0
        assert np.linalg.solve(columns[:, wrong], lp.rhs).min() >= 0
        cold, cold_trace = pivot_trace(replace(lp, start=None), SHIPPED_PIVOT, monkeypatch)
        assert abs(Fraction(cold.value) / exact - 1) <= 1e-12
        for start in (singular, infeasible, wrong):
            res, trace = pivot_trace(replace(lp, start=start), SHIPPED_PIVOT, monkeypatch)
            assert trace == cold_trace
            assert (res.status, res.value) == (cold.status, cold.value)
            assert np.array_equal(res.x, cold.x)


def test_efficiency_program_at_8x8x10():
    # `verify_instances` stops at 3 x 3 x 6; this gap-free program has 640 weights
    rng = np.random.default_rng(810)
    problem, _ = random_problem(rng, 8, 8, 10)
    utilities = random_utilities(rng, problem)
    z = solve_opa(problem).objective
    for lp, closed_form in ((build_opa_lp(problem), z),
                            (build_gopa_lp(problem, utilities),
                             solve_gopa(problem, utilities).objective)):
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(closed_form, abs=1e-9)
        assert highs(lp) == ("optimal", pytest.approx(closed_form, abs=1e-9))

    delta, bound = verify_efficiency(solve_opa(problem))
    assert delta <= 1e-14
    assert bound == pytest.approx(z, rel=1e-14)
    at, above = efficiency_lp(problem, z), efficiency_lp(problem, 1.1 * z)
    res = solve_lp(at)
    assert (at.lhs[:-1] @ res.x).min() == pytest.approx(z, abs=1e-9)
    assert highs(at) == ("optimal", pytest.approx(res.value, abs=1e-9))
    assert solve_lp(above).status == "infeasible"
    assert highs(above) == ("infeasible", None)


def test_verify_random_seed_24003_passes(tmp_path):
    # this 3 x 2 x 6 gap-free problem has an infeasible efficiency program at 1.1 z*
    *_, (problem, doc, _) = itertools.islice(verify_instances(24003), 19)
    assert (problem.n_experts, problem.n_attributes, problem.n_alternatives) == (3, 2, 6)
    assert not problem.has_internal_gaps
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "verify.json"
    assert main(["verify", str(path), "-o", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks] == [
        "ordinal_lp_matches_formula", "generalized_lp_matches_formula",
        "stage2_min_slack_equals_objective", "stage2_rejects_inflated_objective"]
