"""Tests of the benchmark itself: seeded inputs and the declared metrics.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _dump(value):
    return json.dumps(value, sort_keys=True, default=repr)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_documents(workload):
    assert _dump(workloads.pool(workload, 7)) == _dump(workloads.pool(workload, 7))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_documents(workload):
    assert _dump(workloads.pool(workload, 1)[0]) != _dump(workloads.pool(workload, 2)[0])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_every_command(workload):
    docs, items = workloads.pool(workload, 3)
    commands = {op.command for item in items for op in item.ops}
    assert commands == {"solve", "opa", "metrics", "sensitivity", "verify"}
    sources = {op.source for item in items for op in item.ops}
    assert sources - {"out:solve"} <= set(docs)


def test_case_mix_pool_holds_every_size_and_family_equally_often():
    docs, _ = workloads.pool("case_mix", 5)
    counts = {}
    for name, doc in docs.items():
        if not name.startswith("doc"):
            continue
        size = len(doc["alternatives"])
        for cells in doc["structures"]["cells"].values():
            for family in cells.values():
                key = (size, family["kind"])
                counts[key] = counts.get(key, 0) + 1
    assert len(counts) == len(workloads.CASE_MIX_SIZES) * len(workloads.FAMILIES)
    assert len(set(counts.values())) == 1


def test_verify_documents_skip_a_rank():
    sys.path.insert(0, str(ROOT / "src"))
    from gopa.model import load_document
    for n in range(20):
        problem, _, _ = load_document(workloads.verify_doc(3, n))
        assert problem.has_internal_gaps


def _rank(rows):
    return np.linalg.matrix_rank(np.array(rows)) if rows else 0


@pytest.mark.parametrize("size", [5, 10, 30])
def test_contexts_hold_no_redundant_equation(size):
    rng = np.random.default_rng(11)
    for _ in range(200):
        ctx = workloads.discrete_context(rng, size, workloads.MAX_CONSTRAINTS)
        rows = [np.ones(size)]
        for key, kind in (("alpha", "ratio"), ("beta", "absdiff")):
            for entry in ctx.get(kind, []):
                row = np.zeros(size)
                row[entry["rank"] - 1] = 1.0
                row[entry["rank"]] = -entry[key] if kind == "ratio" else -1.0
                rows.append(row)
        assert _rank(rows) == len(rows), ctx

        ctx = workloads.continuous_context(rng, size, workloads.MAX_CONSTRAINTS)
        rows = [np.eye(size)[size - 1]]     # F(size) = 1
        for entry in ctx.get("lowerbound", []):
            rows.append(np.eye(size)[entry["rank"] - 1])
        for key, kind in (("alpha", "ratio"), ("beta", "absdiff")):
            for entry in ctx.get(kind, []):
                row = np.zeros(size)
                row[entry["rank"] - 1] = 1.0
                row[entry["rank"] - 2] = -entry[key] if kind == "ratio" else -1.0
                rows.append(row)
        assert _rank(rows) == len(rows), ctx


def test_workloads_match_the_declared_ones():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


def test_metric_names_and_units_are_valid_and_unique():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()
    assert max(m["bound"] for m in SPEC["end_to_end"]) == \
        next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def test_end_to_end_metrics_are_the_commands_measured():
    per_command = {m["name"] for m in SPEC["end_to_end"] if m["name"].endswith("_ms")}
    assert per_command == {f"{c}_ms" for c in
                           ("solve", "opa", "metrics", "sensitivity", "verify")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_documents_are_valid_inputs(workload):
    sys.path.insert(0, str(ROOT / "src"))
    from gopa.model import load_document
    docs, _ = workloads.pool(workload, 4)
    for name in list(docs)[:8]:
        problem, context, _ = load_document(docs[name])
        assert problem.n_experts >= 2


def test_checks_reject_wrong_outputs():
    import checks
    good = {"kind": "solution", "experts": {"E1": 0.25, "E2": 0.75},
            "attributes": {"C1": 1.0}, "alternatives": {"A1": 0.5, "A2": 0.5}}
    assert checks.check_weights(json.dumps(good).encode()) is None
    bad = dict(good, experts={"E1": 0.25, "E2": 0.7})
    assert checks.check_weights(json.dumps(bad).encode()) is not None
    assert checks.check_independence(json.dumps(good).encode(), json.dumps(bad).encode(),
                                     ("experts",)) is not None
    assert checks.check_verify(b'{"pass": false}') is not None
    csv_rows = "section,id,mean\nexperts,E1,0.5\nexperts,E2,0.4\n"
    assert checks.check_sensitivity(csv_rows.encode()) is not None
