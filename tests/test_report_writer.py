"""The one-pass report writer against the stdlib encoder it replaced, and
format-3 solution reports read back.

`oracles.legacy_report_text` rounds every float through 12 significant digits
and then runs ``json.dumps(indent=2, sort_keys=True)``, with each leaf list of
floats and nulls on one line; the writer must give the same bytes on every
input.  `solution_report` renders its cell weights in one grid pass and
writes the rest with the same writer; its bytes must equal the oracle's over
`oracles.list_solution_report`, which holds every weight as a Python float.
"""

import json
import re
import struct

import numpy as np
import pytest

import gopa
from gopa import cli, pipeline
from gopa.metrics import consensus_report
from gopa.pipeline import (
    JsonText,
    report_text,
    report_to_solution,
    solution_report,
    solve_document,
)
from gopa.solver import WeightSolution, solve_gopa, solve_opa

from oracles import legacy_report_text, list_solution_report, random_problem, random_utilities

EDGE_FLOATS = [0.0, -0.0, 1.0, 1e-5, 5e-324, 1e-310, 999999999999.5, 1e12, 1e16,
               float("nan"), float("inf"), float("-inf"),
               -999999999999.5, 123456789012.0, 2.2250738585072014e-308, 1e-30, 3e-40,
               0.1 + 0.2, 1 / 3, 12.5, 1e15 + 0.3, 1e300]


def assert_same_bytes(doc):
    assert report_text(doc) + "\n" == legacy_report_text(doc)


def assert_report_bytes(solution, bound_mode=None):
    assert (solution_report(solution, bound_mode) + "\n"
            == legacy_report_text(list_solution_report(solution, bound_mode)))


@pytest.fixture
def formatted(monkeypatch):
    """The batches of floats passed to `_float_texts`, in order: by the grid
    pass of `pipeline.solution_report`, then by the writer."""
    seen = []

    def recording(values):
        seen.append(list(values))
        return float_texts(values)

    float_texts = pipeline._float_texts
    monkeypatch.setattr(pipeline, "_float_texts", recording)
    return seen


def edge_solution(values, seed=0, gopa=False):
    """A hand-built solution of a small irregular problem whose valid rank
    weights cycle through ``values``; cell weights are gathered from them as
    the solver gathers its own."""
    rng = np.random.default_rng(seed)
    problem, _ = random_problem(rng, 3, 2, 6, irregular=True)
    mask = problem.rank_mask
    rank_weights = np.zeros(mask.shape)
    rank_weights[mask] = np.resize(np.array(values, dtype=float), mask.sum())
    ranks = problem.alternative_ranks
    mapped = np.take_along_axis(rank_weights, np.maximum(ranks - 1, 0), axis=2)
    weights = np.where(ranks > 0, mapped, 0.0)
    return WeightSolution(
        problem=problem, objective=0.5, rank_weights=rank_weights, weights=weights,
        utilities=random_utilities(rng, problem) if gopa else None,
        exclusions_flagged=bool((ranks == 0).any()))


@pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
def test_edge_float_alone_in_list_and_dict(x):
    assert_same_bytes(x)
    assert_same_bytes([x])
    assert_same_bytes({"w": x})
    assert_same_bytes([0.25, x, 0.5])
    assert_same_bytes({"a": 0.25, "b": x})
    assert_same_bytes({"cell": [None, x, 0.5, None], "x": [x, None]})
    assert_same_bytes({"a": None, "b": x})


def test_edge_floats_together():
    assert_same_bytes(EDGE_FLOATS)
    assert_same_bytes({f"k{n}": x for n, x in enumerate(EDGE_FLOATS)})


def test_leaf_lists_on_one_line():
    doc = {"w": [0.5, None, 0.25], "nested": [[0.1], [None], [], [1.0, 2]], "d": {"x": 0.5}}
    assert report_text(doc) == (
        '{\n  "d": {\n    "x": 0.5\n  },\n'
        '  "nested": [\n    [0.1],\n    [null],\n    [],\n'
        '    [\n      1.0,\n      2\n    ]\n  ],\n'
        '  "w": [0.5, null, 0.25]\n}')


def test_json_text_copied_as_it_is():
    leaf = JsonText("[0.5, null]")
    doc = {"a": {"x": leaf, "y": leaf}, "b": [leaf, "[0.5, null]"], "c": leaf}
    assert report_text(doc) == (
        '{\n  "a": {\n    "x": [0.5, null],\n    "y": [0.5, null]\n  },\n'
        '  "b": [\n    [0.5, null],\n    "[0.5, null]"\n  ],\n'
        '  "c": [0.5, null]\n}')


def test_written_report_reads_back():
    # the report is its text, and json.loads of it is what report_to_solution reads
    solution = solve_document(random_problem(np.random.default_rng(60), 3, 3, 4)[1], "opa")
    text = solution_report(solution)
    assert type(text) is str
    rebuilt = report_to_solution(json.loads(text))
    assert rebuilt.weights.tolist() == np.vectorize(round12)(solution.weights).tolist()
    assert rebuilt.objective == round12(solution.objective)
    assert not hasattr(gopa, "solution_report")


def test_non_float_values():
    doc = {
        "numpy": [np.float64(0.1), np.float32(0.1), np.int64(3), np.bool_(True),
                  np.float64("nan"), np.float64(1e13)],
        "numpy_scalar": np.float64(2 / 3),
        "tuple": (1, 2.5, "x", (0.5,)),
        "empty": {"list": [], "dict": {}, "tuple": ()},
        "flags": [True, False, None, 1, 0, -7, 2 ** 70],
        "ids": ["café", "Zürich", "日本", "😀", 'quote " and \\ backslash', "tab\tnewline\n"],
        "mixed": {"b": 1.5, "a": [1.0, 2], "c": None},
        "Ünïcode kéy": {"é": 0.1, "A": 0.2},
    }
    assert_same_bytes(doc)
    assert_same_bytes([])
    assert_same_bytes({})
    assert_same_bytes("plain")


def test_unserializable_value_rejected():
    with pytest.raises(TypeError):
        report_text({"a": np.zeros(2)})


def test_random_bit_floats():
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2 ** 64, size=60_000, dtype=np.uint64)
    values = bits.view(np.float64).tolist()
    scaled = (rng.random(30_000) * 10.0 ** rng.integers(-40, 20, 30_000)).tolist()
    for start in range(0, len(values), 30):
        assert_same_bytes(values[start:start + 30])
    for start in range(0, len(scaled), 30):
        chunk = scaled[start:start + 30]
        assert_same_bytes({f"A{k}": x for k, x in enumerate(chunk)})


@pytest.mark.parametrize("seed", range(4))
def test_solution_and_consensus_reports(seed):
    rng = np.random.default_rng(seed)
    irregular = seed % 2 == 1
    problem, _ = random_problem(rng, 3, 4, 6, irregular=irregular)
    # ties, gaps and exclusions in every irregular problem
    assert (problem.rank_counts > 1).any() == (not problem.gap_free) == irregular
    assert (problem.alternative_ranks == 0).any() == irregular
    opa = solve_opa(problem)
    gopa = solve_gopa(problem, random_utilities(rng, problem))
    assert_report_bytes(opa)
    assert_report_bytes(gopa, "inequality")
    assert_same_bytes({"kind": "consensus", **consensus_report(gopa).to_dict(problem)})


EDGE_RANK_WEIGHTS = [0.0, -0.0, 5e-324, 1e-310, 999999999999.5, 1e16, float("nan")]


@pytest.mark.parametrize("gopa", [False, True], ids=["opa", "gopa"])
@pytest.mark.parametrize("seed", range(3))
def test_edge_rank_weights(seed, gopa):
    assert_report_bytes(edge_solution(EDGE_RANK_WEIGHTS, seed, gopa))


def test_verify_summary(monkeypatch, tmp_path):
    docs = []
    monkeypatch.setattr(cli, "_write_json", lambda doc, path: docs.append(doc))
    path = tmp_path / "doc.json"
    for irregular in (False, True):
        path.write_text(json.dumps(random_problem(np.random.default_rng(5), 3, 2, 6,
                                                  irregular=irregular)[1]))
        assert cli.main(["verify", str(path)]) == 0
    assert len(docs) == 2
    for summary in docs:
        assert_same_bytes(summary)


def bit_patterns(values):
    return [struct.pack("<d", x) for x in values]


NAN = float("nan")
REPEATED = [0.0, -0.0, NAN, float("inf"), float("-inf"), 5e-324, 999999999999.5, 1e16]


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)], ids=["plus_first", "minus_first"])
def test_repeated_edge_floats_within_and_across_leaves(zeros):
    first, second = zeros
    leaf = [first, second, *REPEATED, first, NAN, float("nan"), second]
    doc = {
        "a": leaf,
        "b": [second, first, *reversed(REPEATED)],
        "c": {"x": first, "y": second, "z": NAN, "w": float("nan")},
        "d": [[first], [second], [NAN], [float("nan")], [1e16], [1e16]],
        "e": first,
        "f": second,
    }
    assert_same_bytes(doc)
    assert report_text(doc).count("NaN") == 3 + 1 + 2 + 2


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)], ids=["plus_first", "minus_first"])
def test_grid_pass_formats_each_bit_pattern_once(zeros, formatted):
    # every value many times over, zeros of both signs and NaNs of two bit patterns
    other_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    solution = edge_solution([*zeros, *REPEATED, other_nan, *reversed(REPEATED)])
    formatted.clear()
    text = solution_report(solution)
    grid = formatted[0]
    held = solution.weights[solution.problem.alternative_ranks > 0].tolist()
    assert sorted(bit_patterns(grid)) == sorted(set(bit_patterns(held)))
    assert len(grid) == len(REPEATED) + 1
    assert text + "\n" == legacy_report_text(list_solution_report(solution))
    assert {"-0.0", "0.0"} <= set(re.findall(r"[^\s\[\],]+", text))


def test_internal_gap_weight_left_out():
    # distinct rank weights, exact in binary, in an irregular problem that
    # skips a rank below some cell's maximum
    solutions = (edge_solution(1 + np.arange(36) / 1024, seed) for seed in range(20))
    solution = next(s for s in solutions if s.problem.has_internal_gaps)
    p = solution.problem
    text = solution_report(solution)
    skipped = solution.rank_weights[(p.rank_counts == 0) & p.rank_mask].tolist()
    tokens = set(re.findall(r"[^\s\[\],]+", text))
    assert skipped and not tokens & set(map(repr, skipped))
    # each cell still writes the weight of its alternative's rank
    cells = json.loads(text)["cell_weights"]
    for i, j in p.cells():
        gathered = [solution.rank_weights[i, j, r - 1] if r else None
                    for r in p.alternative_ranks[i, j].tolist()]
        assert cells[p.expert_ids[i]][p.attribute_ids[j]] == gathered


def test_same_key_row_at_two_depths():
    row = {"A1": 0.25, "A2": 0.75, "A3": 0.5}
    doc = {"top": dict(row), "nested": {"inner": dict(row), "deeper": [dict(row), {"z": row}]},
           **row}
    assert_same_bytes(doc)
    assert_same_bytes([row, {"k": row}, [[row]]])


def test_keys_with_format_characters():
    keys = ["%", "%s", "%%", "%(a)s", "{", "{}", "{0}", "a%sb", "%.12g", "}"]
    doc = {k: {k2: float(n) + 0.5 for n, k2 in enumerate(keys)} for k in keys}
    doc["mixed"] = {k: [k, 1.5, None] for k in keys}
    assert_same_bytes(doc)


def test_no_state_carries_over_between_reports():
    minus = {"w": [-0.0, 0.1, NAN], "v": {"a": 0.1, "b": -0.0}}
    plus = {"w": [0.0, 0.1, NAN], "v": {"a": 0.1, "b": 0.0}}
    for doc in (minus, plus, minus, [0.1, {"a": 0.2}], plus):
        assert_same_bytes(doc)
    for zero in (-0.0, 0.0, -0.0):
        assert_report_bytes(edge_solution([zero, 0.1, NAN]))


@pytest.mark.parametrize("method", ["opa", "gopa"])
def test_wide_solution_report(method, formatted):
    _, doc = random_problem(np.random.default_rng(30), 30, 30, 30)
    solution = solve_document(doc, method=method)
    formatted.clear()
    text = solution_report(solution)
    # the grid from one call, with each distinct held weight once (all are
    # positive, so their bit patterns sort as the numbers do)
    grid, *written = formatted
    assert grid == sorted(set(solution.weights[solution.problem.alternative_ranks > 0].tolist()))
    assert text + "\n" == legacy_report_text(list_solution_report(solution))
    # the writer formats only the aggregates and the distinct utilities
    assert sum(map(len, written)) < 30 * 30


def round12(x):
    return float(format(x, ".12g"))


@pytest.mark.parametrize("irregular", [False, True], ids=["regular", "irregular"])
@pytest.mark.parametrize("seed", range(3))
class TestFormat3RoundTrip:
    """A format-3 report read back from its text gives the solution to 12 digits."""

    def solution(self, seed, irregular):
        rng = np.random.default_rng(40 + seed)
        problem, _ = random_problem(rng, 4, 3, 7, irregular=irregular)
        return solve_gopa(problem, random_utilities(rng, problem))

    def test_weights_read_back(self, seed, irregular):
        solution = self.solution(seed, irregular)
        rebuilt = report_to_solution(json.loads(solution_report(solution)))
        assert rebuilt.weights.tolist() == np.vectorize(round12)(solution.weights).tolist()
        assert rebuilt.objective == round12(solution.objective)
        assert rebuilt.problem.alternative_ids == solution.problem.alternative_ids

    def test_utilities_rebuilt_from_distinct_cells(self, seed, irregular):
        solution = self.solution(seed, irregular)
        p = solution.problem
        block = json.loads(solution_report(solution))["utilities"]
        rebuilt = np.zeros(p.rank_counts.shape)
        for i, eid in enumerate(p.expert_ids):
            for j, aid in enumerate(p.attribute_ids):
                u = block["distinct"][block["cells"][eid][aid]]
                assert len(u) == p.max_rank[i, j]
                rebuilt[i, j, :len(u)] = u
        assert rebuilt.tolist() == np.vectorize(round12)(solution.utilities).tolist()
        # each distinct list is written once, and every one is used
        assert len({tuple(u) for u in block["distinct"]}) == len(block["distinct"])
        assert {n for row in block["cells"].values() for n in row.values()} == \
            set(range(len(block["distinct"])))

    def test_excluded_alternatives_are_null(self, seed, irregular):
        solution = self.solution(seed, irregular)
        p = solution.problem
        cells = json.loads(solution_report(solution))["cell_weights"]
        for i, j in p.cells():
            cell = cells[p.expert_ids[i]][p.attribute_ids[j]]
            assert [w is None for w in cell] == (p.alternative_ranks[i, j] == 0).tolist()

    def test_two_runs_byte_identical(self, seed, irregular, tmp_path):
        _, doc = random_problem(np.random.default_rng(50 + seed), 4, 3, 7, irregular=irregular)
        doc["structures"] = {"default": {"kind": "rs"}}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        texts = []
        for run in range(2):
            out = tmp_path / f"report{run}.json"
            assert cli.main(["solve", str(path), "-o", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["format"] == 3
