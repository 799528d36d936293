"""The one-pass report writer against the stdlib encoder it replaced, and
format-2 solution reports read back.

`oracles.legacy_report_text` rounds every float through 12 significant digits
and then runs ``json.dumps(indent=2, sort_keys=True)``, with each leaf list of
floats and nulls on one line; the writer must give the same bytes on every
input.
"""

import json

import numpy as np
import pytest

from gopa import cli
from gopa.metrics import consensus_report
from gopa.pipeline import report_to_solution, solution_report, solve_document
from gopa.solver import solve_gopa, solve_opa

from oracles import legacy_report_text, random_problem, random_utilities

EDGE_FLOATS = [0.0, -0.0, 1.0, 1e-5, 5e-324, 1e-310, 999999999999.5, 1e12, 1e16,
               float("nan"), float("inf"), float("-inf"),
               -999999999999.5, 123456789012.0, 2.2250738585072014e-308, 1e-30, 3e-40,
               0.1 + 0.2, 1 / 3, 12.5, 1e15 + 0.3, 1e300]


def assert_same_bytes(doc):
    assert cli._report_text(doc) + "\n" == legacy_report_text(doc)


@pytest.fixture
def formatted(monkeypatch):
    """The batches of floats the writer passes to `_float_texts`, in order."""
    seen = []

    def recording(values):
        seen.append(list(values))
        return float_texts(values)

    float_texts = cli._float_texts
    monkeypatch.setattr(cli, "_float_texts", recording)
    return seen


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
    assert cli._report_text(doc) == (
        '{\n  "d": {\n    "x": 0.5\n  },\n'
        '  "nested": [\n    [0.1],\n    [null],\n    [],\n'
        '    [\n      1.0,\n      2\n    ]\n  ],\n'
        '  "w": [0.5, null, 0.25]\n}')


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
        cli._report_text({"a": np.zeros(2)})


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
    problem, _ = random_problem(rng, 3, 4, 6, irregular=seed % 2 == 1)
    opa = solve_opa(problem)
    gopa = solve_gopa(problem, random_utilities(rng, problem))
    assert_same_bytes(solution_report(opa))
    assert_same_bytes(solution_report(gopa, "inequality"))
    assert_same_bytes({"kind": "consensus", **consensus_report(gopa).to_dict(problem)})


def test_verify_summary(monkeypatch):
    docs = []
    monkeypatch.setattr(cli, "_write_json", lambda doc, path: docs.append(doc))
    assert cli.main(["verify", "--random", "6", "--seed", "5"]) == 0
    (summary,) = docs
    assert_same_bytes(summary)


def assert_formatted_once(batches):
    """A nonzero number formatted for one leaf is looked up, not formatted, later on."""
    done = set()
    for batch in batches:
        numbers = {x for x in batch if x == x and x != 0.0}
        assert not numbers & done
        done |= numbers


NAN = float("nan")
REPEATED = [0.0, -0.0, NAN, float("inf"), float("-inf"), 5e-324, 999999999999.5, 1e16]


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)], ids=["plus_first", "minus_first"])
def test_repeated_edge_floats_within_and_across_leaves(zeros, formatted):
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
    formatted.clear()
    assert cli._report_text(doc).count("NaN") == 3 + 1 + 2 + 2
    assert_formatted_once(formatted)
    assert not any(x is NAN for batch in formatted[1:] for x in batch)   # a hit
    assert sum(x != x for batch in formatted[1:] for x in batch) == 2    # misses
    assert sum(x == 0.0 for batch in formatted for x in batch) == 16   # every zero


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


def test_no_state_carries_over_between_reports(formatted):
    minus = {"w": [-0.0, 0.1, NAN], "v": {"a": 0.1, "b": -0.0}}
    plus = {"w": [0.0, 0.1, NAN], "v": {"a": 0.1, "b": 0.0}}
    for doc in (minus, plus, minus, [0.1, {"a": 0.2}], plus):
        assert_same_bytes(doc)
    formatted.clear()
    cli._report_text(minus)
    cli._report_text(plus)
    # each report formats 0.1 and NAN once: a hit within one, a miss in the next
    assert sum(x == 0.1 for batch in formatted for x in batch) == 2
    assert sum(x is NAN for batch in formatted for x in batch) == 2


@pytest.mark.parametrize("method", ["opa", "gopa"])
def test_wide_solution_report(method, formatted):
    _, doc = random_problem(np.random.default_rng(30), 30, 30, 30)
    report = solution_report(solve_document(doc, method=method))
    assert_same_bytes(report)
    formatted.clear()
    cli._report_text(report)
    assert_formatted_once(formatted)
    assert sum(map(len, formatted)) < 30 * 30 * 30 / 2


def round12(x):
    return float(format(x, ".12g"))


@pytest.mark.parametrize("irregular", [False, True], ids=["regular", "irregular"])
@pytest.mark.parametrize("seed", range(3))
class TestFormat2RoundTrip:
    """A format-2 report read back from its text gives the solution to 12 digits."""

    def solution(self, seed, irregular):
        rng = np.random.default_rng(40 + seed)
        problem, _ = random_problem(rng, 4, 3, 7, irregular=irregular)
        return solve_gopa(problem, random_utilities(rng, problem))

    def test_weights_read_back(self, seed, irregular):
        solution = self.solution(seed, irregular)
        rebuilt = report_to_solution(json.loads(cli._report_text(solution_report(solution))))
        assert rebuilt.weights.tolist() == np.vectorize(round12)(solution.weights).tolist()
        assert rebuilt.objective == round12(solution.objective)
        assert rebuilt.problem.alternative_ids == solution.problem.alternative_ids

    def test_utilities_rebuilt_from_distinct_cells(self, seed, irregular):
        solution = self.solution(seed, irregular)
        p = solution.problem
        block = json.loads(cli._report_text(solution_report(solution)))["utilities"]
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
        cells = solution_report(solution)["cell_weights"]
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
        assert json.loads(texts[0])["format"] == 2
