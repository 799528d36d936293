"""The one-pass report writer against the stdlib encoder it replaced.

`oracles.legacy_report_text` rounds every float through 12 significant digits
and then runs ``json.dumps(indent=2, sort_keys=True)``; the writer must give
the same bytes on every input.
"""

import numpy as np
import pytest

from gopa import cli
from gopa.metrics import consensus_report
from gopa.pipeline import solution_report
from gopa.solver import solve_gopa, solve_opa

from oracles import legacy_report_text, random_problem, random_utilities

EDGE_FLOATS = [0.0, -0.0, 1.0, 1e-5, 5e-324, 1e-310, 999999999999.5, 1e12, 1e16,
               float("nan"), float("inf"), float("-inf"),
               -999999999999.5, 123456789012.0, 2.2250738585072014e-308, 1e-30, 3e-40,
               0.1 + 0.2, 1 / 3, 12.5, 1e15 + 0.3, 1e300]


def assert_same_bytes(doc):
    assert cli._report_text(doc) + "\n" == legacy_report_text(doc)


@pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
def test_edge_float_alone_in_list_and_dict(x):
    assert_same_bytes(x)
    assert_same_bytes([x])
    assert_same_bytes({"w": x})
    assert_same_bytes([0.25, x, 0.5])
    assert_same_bytes({"a": 0.25, "b": x})


def test_edge_floats_together():
    assert_same_bytes(EDGE_FLOATS)
    assert_same_bytes({f"k{n}": x for n, x in enumerate(EDGE_FLOATS)})


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
    assert_same_bytes(solution_report(opa, "opa"))
    assert_same_bytes(solution_report(gopa, "gopa", "literal", "inequality"))
    assert_same_bytes({"kind": "consensus", **consensus_report(gopa).to_dict(problem)})


def test_verify_summary(monkeypatch):
    docs = []
    monkeypatch.setattr(cli, "_write_json", lambda doc, path: docs.append(doc))
    assert cli.main(["verify", "--random", "6", "--seed", "5"]) == 0
    (summary,) = docs
    assert_same_bytes(summary)
