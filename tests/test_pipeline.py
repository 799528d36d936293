import numpy as np
import pytest

from gopa import projection
from gopa.exceptions import InfeasibleContext, NumericFailure
from gopa.model import load_document
from gopa.pipeline import (
    elicit_utilities,
    report_to_solution,
    solution_report,
    solve_document,
)

from oracles import random_problem


def document(seed=0):
    rng = np.random.default_rng(seed)
    _, doc = random_problem(rng, 3, 2, 5)
    doc["contexts"] = {"E1": {"C1": {"lowerbound": [{"rank": "*", "gamma": 0.05}]}}}
    doc["structures"] = {"default": {"kind": "roc"},
                         "cells": {"E2": {"C2": {"kind": "sshape"}}}}
    return doc


class TestSolveDocument:
    def test_gopa_runs_and_normalizes(self):
        solution, utilities, densities = solve_document(document())
        assert solution.expert_weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert len(utilities) == 6
        assert list(densities) == [(1, 1)]  # the single continuous cell

    def test_opa_ignores_contexts(self):
        solution, utilities, densities = solve_document(document(), method="opa")
        assert utilities is None
        assert densities == {}

    def test_infeasible_cell_is_named(self):
        doc = document()
        doc["contexts"] = {"E2": {"C1": {"lowerbound": [{"rank": "*", "gamma": 0.9}]}}}
        with pytest.raises(InfeasibleContext) as err:
            solve_document(doc)
        assert "E2" in str(err.value) and "C1" in str(err.value)

    def test_numeric_failure_is_named(self, monkeypatch):
        monkeypatch.setattr(projection, "_BUDGET", 1)
        doc = document()
        doc["contexts"] = {"E3": {"C2": {"ratio": [{"rank": 1, "alpha": 1.4}]}}}
        with pytest.raises(NumericFailure, match=r"cell \(E3, C2\): KL projection did not "
                                                 r"converge after 1 iterations \(residual"):
            solve_document(doc)

    def test_orientation_changes_continuous_cells_only(self):
        problem, context, structures = load_document(document())
        rev, _ = elicit_utilities(problem, context, structures, orientation="reversed")
        lit, _ = elicit_utilities(problem, context, structures, orientation="literal")
        assert np.abs(rev[(1, 1)] - lit[(1, 1)][::-1]).max() <= 1e-14
        for cell in rev:
            if cell != (1, 1):
                assert np.abs(rev[cell] - lit[cell]).max() == 0.0


class TestIrregularCells:
    def test_context_on_short_cell_uses_its_own_rank_ceiling(self):
        doc = {
            "experts": [{"id": "E1", "rank": 1}, {"id": "E2", "rank": 2}],
            "attributes": ["C1"],
            "alternatives": ["A1", "A2", "A3", "A4", "A5"],
            "attribute_ranks": {"E1": {"C1": 1}, "E2": {"C1": 1}},
            "alternative_ranks": {
                "E1": {"C1": {"A1": 1, "A2": 2, "A3": 3}},  # two excluded
                "E2": {"C1": {m: r for m, r in
                              zip(["A1", "A2", "A3", "A4", "A5"], [2, 1, 4, 3, 5])}},
            },
            "contexts": {"E1": {"C1": {"ratio": [{"rank": 1, "alpha": 1.5}],
                                       "lowerbound": [{"rank": 3, "gamma": 0.1}]}}},
            "structures": {"default": {"kind": "roc"},
                           "cells": {"E2": {"C1": {"kind": "cara", "a": 0.4}}}},
        }
        solution, utilities, _ = solve_document(doc)
        u = utilities[(0, 0)]
        assert u.shape == (3,)
        assert u[0] - 1.5 * u[1] == pytest.approx(0.0, abs=1e-8)
        assert u[2] >= 0.1 - 1e-8
        assert solution.weights[0, 0, 3] == 0.0  # excluded alternative
        assert solution.weights[0, 0, 4] == 0.0
        total = (solution.problem.rank_counts[0, 0, :3]
                 @ solution.rank_weights[(0, 0)]
                 + solution.problem.rank_counts[1, 0, :5]
                 @ solution.rank_weights[(1, 0)])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_short_cell_context_rank_out_of_range(self):
        doc = {
            "experts": [{"id": "E1", "rank": 1}],
            "attributes": ["C1"],
            "alternatives": ["A1", "A2", "A3", "A4"],
            "attribute_ranks": {"E1": {"C1": 1}},
            "alternative_ranks": {"E1": {"C1": {"A1": 1, "A2": 2}}},
            "contexts": {"E1": {"C1": {"lowerbound": [{"rank": 3, "gamma": 0.1}]}}},
        }
        from gopa.exceptions import ContextRangeError

        with pytest.raises(ContextRangeError):
            solve_document(doc)


class TestReportRoundTrip:
    def test_report_rebuilds_consistent_solution(self):
        solution, _, _ = solve_document(document())
        report = solution_report(solution, "gopa")
        rebuilt = report_to_solution(report)
        assert rebuilt.objective == pytest.approx(solution.objective, rel=1e-12)
        assert np.abs(rebuilt.weights - solution.weights).max() <= 1e-15
        assert np.abs(rebuilt.expert_weights - solution.expert_weights).max() <= 1e-12
        assert np.abs(rebuilt.alternative_weights
                      - solution.alternative_weights).max() <= 1e-12

    def test_report_weight_blocks_are_marginals_of_cells(self):
        solution, _, _ = solve_document(document(3))
        report = solution_report(solution, "gopa")
        for eid, expected in report["experts"].items():
            total = sum(w for aid in report["cell_weights"][eid]
                        for w in report["cell_weights"][eid][aid].values())
            assert total == pytest.approx(expected, abs=1e-12)
        assert sum(report["alternatives"].values()) == pytest.approx(1.0, abs=1e-10)

    def test_utilities_block_matches_cells(self):
        solution, utilities, _ = solve_document(document(4))
        report = solution_report(solution, "gopa")
        problem = solution.problem
        for (i, j), u in utilities.items():
            eid = problem.expert_ids[i]
            aid = problem.attribute_ids[j]
            assert report["utilities"][eid][aid] == pytest.approx(u, abs=1e-15)
