"""The benchmark's contract with the package.

`perfbench/spans.py` wraps every function its `LAYER_FUNCTIONS` names, by
module and name, and `perfbench/checks.py` checks every elicited cell while
the tracer is installed.  Both files are imported here as they are, so a
refactor that renames or removes a function a traced benchmark run needs
(`pipeline.solve_document`, `lpcheck.verify_efficiency`, ...) or changes
the call of a cell solver fails these tests rather than only that run.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

# called as gopa.cli.main, as the benchmark calls it, so the tracer's wrapper runs
import gopa.cli  # noqa: E402
from gopa.model import validate_problem  # noqa: E402

from oracles import random_problem  # noqa: E402


def small_document(tmp_path):
    """A 3 x 2 x 4 document with discrete and continuous cells and one context."""
    _, doc = random_problem(np.random.default_rng(3), 3, 2, 4)
    doc["contexts"] = {"E1": {"C1": {"ratio": [{"rank": 1, "alpha": 1.3}]}},
                       "E2": {"C2": {"lowerbound": [{"rank": 2, "gamma": 0.4}]}}}
    doc["structures"] = {"default": {"kind": "roc"},
                         "cells": {"E2": {"C2": {"kind": "cara", "a": 0.5}}}}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return path


def package_attributes():
    """Every attribute of every loaded ``gopa`` module, by (module, name)."""
    return {(mod_name, attr): value for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "gopa" or mod_name.startswith("gopa."))
            for attr, value in vars(mod).items()}


@pytest.mark.parametrize("layer, module, name", spans.LAYER_FUNCTIONS,
                         ids=[f"{module}.{name}" for _, module, name in spans.LAYER_FUNCTIONS])
def test_layer_function_resolves(layer, module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_uninstall_restores_every_function(tmp_path):
    path = small_document(tmp_path)
    before = package_attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for _, module, name in spans.LAYER_FUNCTIONS:
            assert hasattr(getattr(sys.modules[module], name), "__wrapped__"), (module, name)
        tracer.begin_op("solve")
        assert gopa.cli.main(["solve", str(path), "-o", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    after = package_attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "model.load_document", "pipeline.solve_document",
            "pipeline.elicit_utilities", "elicit_discrete.elicit_discrete",
            "elicit_continuous.elicit_continuous", "solver.solve_gopa",
            "pipeline.solution_report"} <= names
    assert all(span.error is None for span in tracer.spans)


def test_report_ops_traced(tmp_path):
    # `pipeline.solution_report_ms_p50` reads the `solve` and the `opa` ops
    path = small_document(tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for command in layers.REPORT_COMMANDS:
            tracer.begin_op(command)
            assert gopa.cli.main([command, str(path), "-o", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    names = {command: {span.name for span in tracer.spans
                       if tracer.op_commands[span.op] == command}
             for command in layers.REPORT_COMMANDS}
    assert {"pipeline.solution_report", "solver.solve_gopa"} <= names["solve"]
    assert {"cli.main", "model.load_document", "pipeline.solve_document",
            "solver.solve_opa", "pipeline.solution_report"} <= names["opa"]
    assert not {"pipeline.elicit_utilities", "solver.solve_gopa"} & names["opa"]
    table = layers.SpanTable(tracer)
    for command in layers.REPORT_COMMANDS:
        assert table.durations("pipeline.solution_report", (command,)).size == 1
    assert all(span.error is None for span in tracer.spans)


def test_cell_checks_run_on_elicited_cells(tmp_path):
    path = small_document(tmp_path)
    cells = []
    tracer = spans.Tracer(cell_check=lambda *call: cells.append(call))
    tracer.install()
    try:
        assert gopa.cli.main(["solve", str(path), "-o", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    residuals = {}
    for span_name, args, kwargs, result in cells:
        if span_name == "elicit_discrete.elicit_discrete":
            residual = checks.discrete_cell_residual(args, result)
        else:
            residual = checks.continuous_cell_residual(args, kwargs, result)
        residuals.setdefault(span_name, []).append(residual)
    assert residuals.keys() == {"elicit_discrete.elicit_discrete",
                                "elicit_continuous.elicit_continuous"}
    assert max(max(r) for r in residuals.values()) <= checks.TOL


def test_verify_op_solves_two_weight_programs(tmp_path):
    # `lpcheck.solve_lp_ms_p50` reads the `solve_lp` spans of `verify` ops; on a
    # document with an internal gap those are the two weight programs alone
    path = small_document(tmp_path)
    doc = json.loads(path.read_text())
    doc["alternative_ranks"]["E1"]["C1"] = {"A1": 1, "A2": 1, "A3": 3, "A4": 4}
    assert validate_problem(doc).has_internal_gaps
    path.write_text(json.dumps(doc))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_op("verify")
        assert gopa.cli.main(["verify", str(path), "-o", str(tmp_path / "verify.json")]) == 0
    finally:
        tracer.uninstall()
    table = layers.SpanTable(tracer)
    assert table.durations("lpcheck.solve_lp", ("verify",)).size == 2
    assert table.children_of("cli.main", "lpcheck.solve_lp") == 2
    assert all(span.error is None for span in tracer.spans)
