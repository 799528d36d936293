import dataclasses
import json

import numpy as np
import pytest

from gopa import pipeline, projection
from gopa.elicit_continuous import cumulative_utilities, elicit_continuous
from gopa.elicit_discrete import elicit_discrete
from gopa.exceptions import InfeasibleContext, NumericFailure
from gopa.metrics import consensus_report
from gopa.model import load_document
from gopa.pipeline import (
    elicit_utilities,
    report_to_solution,
    solution_report,
    solve_document,
)
from gopa.solver import solve_gopa
from gopa.structures import surrogate_weights, target_density

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
        solution = solve_document(document())
        assert solution.expert_weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert solution.utilities.shape == (3, 2, 5)
        assert np.abs(solution.utilities.sum(axis=2) - 1.0).max() <= 1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'x'"):
            solve_document(document(), method="x")

    def test_opa_ignores_contexts(self):
        solution = solve_document(document(), method="opa")
        assert solution.utilities is None

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


def repeated_cells_document():
    """Six experts by two attributes whose cells repeat and nearly repeat.

    C1 is ``roc`` and C2 ``cara``.  E1 and E2 share a context in each column,
    E3 repeats it (at 4 ranks in C1, at 5 in C2), E4 changes one coefficient
    (C1) or has 3 ranks (C2), and E5 and E6 are empty: 4 discrete and 3
    continuous (structure, size, context) keys over 12 cells.
    """
    alternatives = ["A1", "A2", "A3", "A4", "A5"]
    experts = [f"E{i}" for i in range(1, 7)]
    full = {m: r for m, r in zip(alternatives, [2, 1, 4, 3, 5])}
    ranks = {e: {"C1": full, "C2": full} for e in experts}
    ranks["E3"] = {"C1": {"A1": 1, "A2": 2, "A3": 3, "A4": 4}, "C2": full}
    ranks["E4"] = {"C1": full, "C2": {"A1": 1, "A2": 2, "A3": 3}}
    shared = {"ratio": [{"rank": 1, "alpha": 1.5}], "lowerbound": [{"rank": 3, "gamma": 0.1}]}
    nudged = {"ratio": [{"rank": 1, "alpha": 1.5}], "lowerbound": [{"rank": 3, "gamma": 0.12}]}
    cdf = {"ratio": [{"rank": 2, "alpha": 2.0}], "lowerbound": [{"rank": 2, "gamma": 0.3}]}
    return {
        "experts": [{"id": e, "rank": n} for n, e in enumerate(experts, 1)],
        "attributes": ["C1", "C2"],
        "alternatives": alternatives,
        "attribute_ranks": {e: {"C1": 1, "C2": 2} for e in experts},
        "alternative_ranks": ranks,
        "contexts": {"E1": {"C1": shared, "C2": cdf}, "E2": {"C1": shared, "C2": cdf},
                     "E3": {"C1": shared, "C2": cdf}, "E4": {"C1": nudged, "C2": cdf}},
        "structures": {"default": {"kind": "roc"},
                       "cells": {e: {"C2": {"kind": "cara", "a": 0.4}} for e in experts}},
    }


class TestSharedCells:
    @pytest.mark.parametrize("bound_mode", ["equality", "inequality"])
    def test_each_cell_equals_its_own_solve(self, bound_mode):
        problem, context, structures = load_document(repeated_cells_document())
        utilities = elicit_utilities(problem, context, structures, bound_mode=bound_mode)
        assert utilities.shape == problem.rank_counts.shape
        for i, j in problem.cells():
            structure, ctx = structures.cell(i, j), context.cell(i, j)
            kij = int(problem.max_rank[i, j])
            u, density = pipeline.elicit_cell(structure, kij, ctx, bound_mode)
            if structure.is_discrete:
                direct = elicit_discrete(surrogate_weights(structure, kij), ctx, kij)
                assert density is None
            else:
                solved = elicit_continuous(target_density(structure, kij), ctx, kij,
                                           bound_mode=bound_mode)
                direct = cumulative_utilities(solved)
                assert (density.masses == solved.masses).all()
            assert u.shape == direct.shape == (kij,)
            assert (utilities[i, j, :kij] == direct).all() and (u == direct).all(), (i, j)
            assert (utilities[i, j, kij:] == 0.0).all()

    def test_each_key_is_solved_once_per_call(self, monkeypatch):
        calls = {"discrete": 0, "continuous": 0}

        def counted(name, solve):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return solve(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pipeline, "elicit_discrete",
                            counted("discrete", pipeline.elicit_discrete))
        monkeypatch.setattr(pipeline, "elicit_continuous",
                            counted("continuous", pipeline.elicit_continuous))
        problem, context, structures = load_document(repeated_cells_document())
        utilities = elicit_utilities(problem, context, structures)
        assert calls == {"discrete": 4, "continuous": 3}
        for first, *same in ([(0, 0), (1, 0)], [(4, 0), (5, 0)], [(0, 1), (1, 1), (2, 1)]):
            for cell in same:
                assert np.array_equal(utilities[cell], utilities[first])
        assert not utilities.flags.writeable
        with pytest.raises(ValueError):
            utilities[0, 0, 0] = 1.0
        again = elicit_utilities(problem, context, structures)
        assert calls == {"discrete": 8, "continuous": 6}
        assert again is not utilities and np.array_equal(again, utilities)

    @pytest.mark.parametrize("error, contexts, budget", [
        (InfeasibleContext, {"lowerbound": [{"rank": "*", "gamma": 0.9}]}, None),
        (NumericFailure, {"ratio": [{"rank": 1, "alpha": 1.4}]}, 1),
    ])
    def test_shared_failure_names_first_cell(self, monkeypatch, error, contexts, budget):
        if budget is not None:
            monkeypatch.setattr(projection, "_BUDGET", budget)
        doc = document()
        # (E1, C2) comes before (E2, C1) in expert-then-attribute order only
        doc["contexts"] = {"E2": {"C1": contexts}, "E1": {"C2": contexts}}
        problem, context, structures = load_document(doc)
        assert context.cell(1, 0) == context.cell(0, 1)
        assert structures.cell(1, 0) == structures.cell(0, 1)
        assert problem.max_rank[1, 0] == problem.max_rank[0, 1]
        with pytest.raises(error, match=r"^cell \(E1, C2\): "):
            elicit_utilities(problem, context, structures)


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
        solution = solve_document(doc)
        assert solution.problem.max_rank[0, 0] == 3
        u = solution.utilities[0, 0]
        assert (u[3:] == 0.0).all()   # padding past the cell's 3 ranks
        assert u[0] - 1.5 * u[1] == pytest.approx(0.0, abs=1e-8)
        assert u[2] >= 0.1 - 1e-8
        assert solution.weights[0, 0, 3] == 0.0  # excluded alternative
        assert solution.weights[0, 0, 4] == 0.0
        total = (solution.problem.rank_counts[0, 0, :3]
                 @ solution.rank_weights[0, 0, :3]
                 + solution.problem.rank_counts[1, 0, :5]
                 @ solution.rank_weights[1, 0, :5])
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


def written_report(solution):
    """The report document as the CLI writes it and `metrics` reads it."""
    return json.loads(solution_report(solution))


def round12(x):
    return float(format(x, ".12g"))


class TestReportRoundTrip:
    def test_report_rebuilds_consistent_solution(self):
        solution = solve_document(document())
        rebuilt = report_to_solution(written_report(solution))
        # the report writes each number rounded to 12 significant digits
        assert rebuilt.objective == round12(solution.objective)
        assert rebuilt.weights.tolist() == np.vectorize(round12)(solution.weights).tolist()
        assert np.abs(rebuilt.expert_weights - solution.expert_weights).max() <= 1e-12
        assert np.abs(rebuilt.alternative_weights
                      - solution.alternative_weights).max() <= 1e-12

    @pytest.mark.parametrize("excluded", [True, False])
    def test_rebuilt_solution_keeps_exclusions_flag(self, excluded):
        doc = document()
        if excluded:   # E1/C1 ranks only A1 and A2
            doc["alternative_ranks"]["E1"]["C1"] = {"A1": 1, "A2": 2}
        solution = solve_document(doc)
        report = written_report(solution)
        assert solution.exclusions_flagged is excluded
        assert report["flags"]["has_exclusions"] is excluded
        assert report_to_solution(report).exclusions_flagged is excluded

    def test_report_weight_blocks_are_marginals_of_cells(self):
        solution = solve_document(document(3))
        report = written_report(solution)
        for eid, expected in report["experts"].items():
            total = sum(w for aid in report["cell_weights"][eid]
                        for w in report["cell_weights"][eid][aid] if w is not None)
            assert total == pytest.approx(expected, abs=1e-12)
        assert sum(report["alternatives"].values()) == pytest.approx(1.0, abs=1e-10)

    def test_method_follows_utilities(self):
        doc = document(5)
        assert written_report(solve_document(doc))["method"] == "gopa"
        opa = written_report(solve_document(doc, method="opa"))
        assert opa["method"] == "opa" and "utilities" not in opa

    def test_utilities_block_matches_cells(self):
        problem, context, structures = load_document(document(4))
        utilities = elicit_utilities(problem, context, structures)
        report = written_report(solve_gopa(problem, utilities))
        for i, j in problem.cells():
            eid = problem.expert_ids[i]
            aid = problem.attribute_ids[j]
            u = utilities[i, j, :problem.max_rank[i, j]]
            block = report["utilities"]
            assert block["distinct"][block["cells"][eid][aid]] == list(map(round12, u.tolist()))

    def test_distinct_utilities_keyed_by_size_too(self):
        # [1, 0, 0] and [1, 0] hold the same nonzero values: cells of different
        # sizes still get separate lists, in first-appearance order
        problem, _ = random_problem(np.random.default_rng(40), 4, 3, 7, irregular=True)
        utilities = np.zeros(problem.rank_counts.shape)
        utilities[..., 0] = 1.0
        block = written_report(solve_gopa(problem, utilities))["utilities"]
        sizes = list(dict.fromkeys(int(problem.max_rank[i, j]) for i, j in problem.cells()))
        assert block["distinct"] == [[1.0] + [0.0] * (k - 1) for k in sizes]
        for i, j in problem.cells():
            n = block["cells"][problem.expert_ids[i]][problem.attribute_ids[j]]
            assert n == sizes.index(problem.max_rank[i, j])

    @pytest.mark.parametrize("seed", range(4))
    def test_consensus_of_rebuilt_solution(self, seed):
        # the reader's problem holds only ids: the counts come from the weights,
        # which are the report's rounded ones on both sides
        solution = solve_document(document(seed))
        rebuilt = report_to_solution(written_report(solution))
        full = dataclasses.replace(rebuilt, problem=solution.problem)
        assert (consensus_report(rebuilt).to_dict(rebuilt.problem)
                == consensus_report(full).to_dict(solution.problem))
