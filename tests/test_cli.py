import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gopa
from gopa.cli import main

from oracles import random_problem


@pytest.fixture()
def clean_doc():
    rng = np.random.default_rng(21)
    _, doc = random_problem(rng, 3, 2, 5)
    doc["contexts"] = {"E1": {"C1": {"ratio": [{"rank": 2, "alpha": 1.15}],
                                     "lowerbound": [{"rank": "*", "gamma": 0.02}]}}}
    doc["structures"] = {
        "default": {"kind": "roc"},
        "cells": {"E2": {"C2": {"kind": "hara", "alpha": 2.0, "beta": 1.0, "gamma": 1.5}},
                  "E3": {"C1": {"kind": "cara", "a": 0.5}}},
    }
    return doc


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSolve:
    def test_example_sized_run_reports_closed_form_objective(self, tmp_path):
        rng = np.random.default_rng(1)
        _, doc = random_problem(rng, 3, 5, 10)
        doc["structures"] = {"default": {"kind": "roc"}}
        out = tmp_path / "report.json"
        assert main(["solve", str(write_doc(tmp_path, doc)), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        h3 = sum(1.0 / h for h in range(1, 4))
        h5 = sum(1.0 / h for h in range(1, 6))
        assert report["objective"] == pytest.approx(1.0 / (10 * h3 * h5), rel=1e-9)
        assert report["flags"]["gap_free"] is True
        ranked = sorted(report["alternatives"].values(), reverse=True)
        assert ranked[0] > ranked[-1]

    def test_deterministic_output(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", str(path), "-o", str(a)]) == 0
        assert main(["solve", str(path), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_outputs(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        assert main(["solve", str(path), "-o", str(tmp_path / "r.json"),
                     "--csv", str(tmp_path / "csv")]) == 0
        weights = read_csv(tmp_path / "csv" / "weights.csv")
        assert weights[0] == ["section", "id", "weight"]
        assert sum(1 for row in weights if row[0] == "experts") == 3
        utilities = read_csv(tmp_path / "csv" / "utilities.csv")
        assert utilities[0] == ["expert", "attribute", "rank", "utility"]

    def test_ordinal_subcommand_equals_centroid_solve(self, tmp_path, clean_doc):
        doc = dict(clean_doc)
        doc.pop("contexts")
        doc["structures"] = {"default": {"kind": "roc"}}
        p1 = write_doc(tmp_path, doc, "a.json")
        out_opa, out_solve = tmp_path / "opa.json", tmp_path / "solve.json"
        assert main(["opa", str(p1), "-o", str(out_opa)]) == 0
        assert main(["solve", str(p1), "-o", str(out_solve)]) == 0
        a = json.loads(out_opa.read_text())
        b = json.loads(out_solve.read_text())
        for section in ("experts", "attributes", "alternatives"):
            for key in a[section]:
                assert abs(a[section][key] - b[section][key]) <= 1e-12

    def test_report_echoes_bound_mode_only_with_utilities(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        out_solve, out_opa = tmp_path / "solve.json", tmp_path / "opa.json"
        assert main(["solve", str(path), "--bound-mode", "inequality",
                     "-o", str(out_solve)]) == 0
        assert main(["opa", str(path), "-o", str(out_opa)]) == 0
        solved = json.loads(out_solve.read_text())
        assert solved["bound_mode"] == "inequality" and "utilities" in solved
        assert "orientation" not in solved
        ordinal = json.loads(out_opa.read_text())
        assert not {"bound_mode", "orientation", "utilities"} & set(ordinal)


class TestOrientationFlag:
    def test_each_cell_equals_its_solve_report(self, tmp_path, clean_doc, capsys):
        path = write_doc(tmp_path, clean_doc)
        out = tmp_path / "report.json"
        assert main(["solve", str(path), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        continuous = {("E2", "C2"), ("E3", "C1")}
        for eid in report["ids"]["experts"]:
            for aid in report["ids"]["attributes"]:
                capsys.readouterr()
                rows = {}
                for orientation in ("reversed", "literal"):
                    assert main(["elicit", str(path), "--cell", f"{eid},{aid}",
                                 "--orientation", orientation]) == 0
                    rows[orientation] = [float(r.split(",")[1]) for r in
                                         capsys.readouterr().out.strip().splitlines()[1:]]
                expected = report["utilities"][eid][aid]
                assert rows["reversed"] == expected, (eid, aid)
                if (eid, aid) in continuous:
                    assert expected[0] > expected[-1]
                    assert rows["literal"] == expected[::-1], (eid, aid)
                else:
                    assert rows["literal"] == expected, (eid, aid)

    def test_literal_reverses_continuous_cell_vector(self, tmp_path, clean_doc, capsys):
        path = write_doc(tmp_path, clean_doc)
        assert main(["elicit", str(path), "--cell", "E2,C2"]) == 0
        rev = [float(r.split(",")[1])
               for r in capsys.readouterr().out.strip().splitlines()[1:]]
        assert main(["elicit", str(path), "--cell", "E2,C2",
                     "--orientation", "literal"]) == 0
        lit = [float(r.split(",")[1])
               for r in capsys.readouterr().out.strip().splitlines()[1:]]
        assert rev == pytest.approx(lit[::-1], abs=1e-12)


class TestExitCodes:
    def test_validation_error(self, tmp_path, clean_doc):
        clean_doc["experts"][0]["rank"] = 0
        assert main(["solve", str(write_doc(tmp_path, clean_doc))]) == 2

    def test_missing_file(self):
        assert main(["solve", "/nonexistent/input.json"]) == 2

    def test_infeasible_context_names_cell(self, tmp_path, clean_doc, capsys):
        clean_doc["contexts"] = {"E2": {"C1": {"lowerbound": [{"rank": "*", "gamma": 0.9}]}}}
        path = write_doc(tmp_path, clean_doc)
        assert main(["solve", str(path)]) == 3
        err = capsys.readouterr().err
        assert "E2" in err and "C1" in err

    def test_bad_flag_value(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        assert main(["verify", str(path), "--tol", "-1"]) == 2

    def test_directory_input(self, tmp_path, capsys):
        assert main(["opa", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {tmp_path}: cannot read input")

    def test_non_utf8_input(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"experts": "café"}'.encode("latin-1"))
        assert main(["opa", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {path}: not UTF-8 text")

    def test_output_into_missing_directory(self, tmp_path, clean_doc, capsys):
        out = tmp_path / "missing" / "report.json"
        assert main(["opa", str(write_doc(tmp_path, clean_doc)), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {out}: cannot write output")

    def test_solution_report_without_ids(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"kind": "solution"})
        assert main(["metrics", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {path}: solution report lacks key 'ids'")

    @pytest.mark.parametrize("report", [{"kind": "solution", "ids": []},
                                        {"kind": "solution", "objective": "abc",
                                         "ids": {"experts": [], "attributes": [],
                                                 "alternatives": []},
                                         "cell_weights": {}}])
    def test_malformed_solution_report(self, tmp_path, capsys, report):
        path = write_doc(tmp_path, report)
        assert main(["metrics", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {path}: malformed solution report (")

    def test_csv_dir_is_a_file(self, tmp_path, clean_doc, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        path = write_doc(tmp_path, clean_doc)
        assert main(["opa", str(path), "-o", str(tmp_path / "r.json"), "--csv", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {taken}: cannot write output (File exists)")

    def test_numeric_failure_names_cell_and_iterations(self, tmp_path, clean_doc, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(gopa.projection, "_BUDGET", 1)
        path = write_doc(tmp_path, clean_doc)
        assert main(["solve", str(path)]) == 4
        err = capsys.readouterr().err
        assert "cell (E1, C1)" in err
        assert "did not converge after 1 iterations (residual" in err


class TestElicitCommand:
    def test_discrete_cell_vector(self, tmp_path, clean_doc, capsys):
        path = write_doc(tmp_path, clean_doc)
        assert main(["elicit", str(path), "--cell", "E1,C1"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "rank,utility"
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert sum(values) == pytest.approx(1.0, abs=1e-9)

    def test_continuous_cell_curve(self, tmp_path, clean_doc, capsys):
        path = write_doc(tmp_path, clean_doc)
        assert main(["elicit", str(path), "--cell", "E2,C2", "--samples", "10"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "x,density,cdf"
        assert len(rows) == 12
        last = rows[-1].split(",")
        assert float(last[2]) == pytest.approx(1.0, abs=1e-9)

    def test_continuous_cell_rank_vector(self, tmp_path, clean_doc, capsys):
        path = write_doc(tmp_path, clean_doc)
        assert main(["elicit", str(path), "--cell", "E2,C2"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "rank,utility"
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert sum(values) == pytest.approx(1.0, abs=1e-9)
        assert values == sorted(values, reverse=True)

    def test_target_dump(self, tmp_path, clean_doc, capsys):
        path = write_doc(tmp_path, clean_doc)
        assert main(["elicit", str(path), "--cell", "E2,C2", "--dump-target",
                     "--samples", "8"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "x,target"
        assert len(rows) == 10

    def test_unknown_cell(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        assert main(["elicit", str(path), "--cell", "E9,C1"]) == 2

    @pytest.mark.parametrize("flags", [["--samples", "5"], ["--dump-target", "--samples", "5"]])
    def test_samples_on_discrete_cell(self, tmp_path, clean_doc, capsys, flags):
        path = write_doc(tmp_path, clean_doc)
        assert main(["elicit", str(path), "--cell", "E1,C1", *flags]) == 2
        assert "--samples: curve sampling applies to continuous cells" in capsys.readouterr().err


class TestMetricsCommand:
    def test_consensus_from_report(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        report = tmp_path / "report.json"
        assert main(["solve", str(path), "-o", str(report)]) == 0
        out = tmp_path / "metrics.json"
        assert main(["metrics", str(report), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "consensus"
        assert 0.0 <= doc["gcl"] <= 1.0
        assert set(doc["psd"]["alternatives"]) == {f"A{k}" for k in range(1, 6)}
        assert doc["labels"]["global"] in ("less sensitive", "sensitive",
                                           "very sensitive", "high sensitive")

    def test_rejects_non_report_input(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        assert main(["metrics", str(path)]) == 2

    @pytest.mark.parametrize("shape, code", [((3, 1, 3), 2), ((2, 2, 3), 2), ((3, 2, 2), 0)],
                             ids=["3x1x3", "2x2x3", "3x2x2"])
    def test_small_panels(self, tmp_path, capsys, shape, code):
        _, doc = random_problem(np.random.default_rng(23), *shape)
        report = tmp_path / "report.json"
        assert main(["solve", str(write_doc(tmp_path, doc)), "-o", str(report)]) == 0
        assert main(["metrics", str(report), "-o", str(tmp_path / "m.json")]) == code
        if code:
            n_experts, n_attributes, _ = shape
            assert capsys.readouterr().err == (
                f"error: {report}: consensus diagnostics need 2 or more experts and "
                f"attributes - 1 - 2/experts > 0; got {n_experts} experts and "
                f"{n_attributes} attributes\n")


class TestSensitivityCommand:
    def test_table_layout(self, tmp_path, clean_doc, capsys):
        path = write_doc(tmp_path, clean_doc)
        assert main(["sensitivity", str(path), "--method", "opa"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "section,id,mean,skewness,kurtosis,cv,min,max"
        assert len(rows) == 1 + 3 + 2 + 5

    def test_raw_scenario_dump(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        out = tmp_path / "sens.csv"
        raw = tmp_path / "raw.csv"
        assert main(["sensitivity", str(path), "--method", "opa",
                     "-o", str(out), "--raw", str(raw)]) == 0
        rows = read_csv(raw)
        assert rows[0] == ["scenario", "section", "id", "weight"]
        assert len(rows) == 1 + 6 * (3 + 2 + 5)

    def test_two_expert_panel_rejected(self, tmp_path, capsys):
        _, doc = random_problem(np.random.default_rng(22), 2, 2, 4)
        path = write_doc(tmp_path, doc)
        assert main(["sensitivity", str(path), "--method", "opa"]) == 2
        err = capsys.readouterr().err
        assert "at least 3 experts" in err and "the panel has 2" in err


class TestVerifyCommand:
    def test_random_battery_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--random", "8", "--seed", "3", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        deltas = [c["delta"] for inst in doc["instances"] for c in inst["checks"]]
        assert max(deltas) <= 1e-8

    def test_input_file_verification(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        assert main(["verify", str(path), "-o", str(tmp_path / "v.json")]) == 0

    def test_needs_input_or_random(self):
        assert main(["verify"]) == 2


def child_env():
    # The child must import the package under test, also when pytest put it on
    # sys.path itself (`pythonpath` in pyproject.toml) rather than PYTHONPATH.
    src = str(Path(gopa.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_console_script_runs():
    result = subprocess.run([sys.executable, "-m", "gopa.cli", "verify",
                             "--random", "2"], capture_output=True, text=True, env=child_env())
    assert result.returncode == 0
    assert '"pass": true' in result.stdout


# Runs each argv of the JSON list in argv[1] through `main` with every import of
# scipy refused, and prints [exit code or ImportError text, stderr] per call.
WITHOUT_SCIPY = """
import contextlib, io, json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, RefuseScipy())
from gopa.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except ImportError as exc:
            code = repr(exc)
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def test_commands_run_without_scipy(tmp_path):
    _, doc = random_problem(np.random.default_rng(5), 3, 2, 3)
    path = write_doc(tmp_path, doc)
    empty = write_doc(tmp_path, {**doc, "contexts": {
        "E2": {"C1": {"lowerbound": [{"rank": "*", "gamma": 0.9}]}}}}, "empty.json")
    forced = write_doc(tmp_path, {**doc, "contexts": {
        "E1": {"C1": {"lowerbound": [{"rank": 1, "gamma": 1.0}]}}}}, "forced.json")
    out = {name: str(tmp_path / name) for name in
           ("solve.json", "opa.json", "elicit.csv", "metrics.json", "sens.csv", "verify.json")}
    argvs = [["solve", str(empty)],
             ["solve", str(forced), "-o", out["solve.json"]],
             ["opa", str(path), "-o", out["opa.json"]],
             ["elicit", str(forced), "--cell", "E1,C1", "-o", out["elicit.csv"]],
             ["metrics", out["solve.json"], "-o", out["metrics.json"]],
             ["sensitivity", str(path), "-o", out["sens.csv"]],
             ["verify", str(path), "-o", out["verify.json"]]]
    result = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, json.dumps(argvs)],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    (code, err), *rest = json.loads(result.stdout)
    assert code == 3 and "E2" in err and "C1" in err
    assert [code for code, _ in rest] == [0] * len(rest)
    report = json.loads(Path(out["solve.json"]).read_text())
    assert report["utilities"]["E1"]["C1"] == [1.0, 0.0, 0.0]
    rows = read_csv(out["elicit.csv"])
    assert [float(u) for _, u in rows[1:]] == [1.0, 0.0, 0.0]


class TestRepeatedCalls:
    """`main` builds its parser once per process; one call leaves nothing to the next."""

    def test_bad_flag_then_good_call(self, tmp_path, clean_doc, capsys):
        path = write_doc(tmp_path, clean_doc)
        assert main(["verify", str(path), "--bound-mode", "inequality", "--tol", "-1"]) == 2
        assert "error: argument --tol" in capsys.readouterr().err
        out = tmp_path / "report.json"
        assert main(["solve", str(path), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["bound_mode"] == "equality" and "orientation" not in report

    def test_csv_dir_does_not_carry_over(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        csv_dir = tmp_path / "csv"
        assert main(["solve", str(path), "-o", str(tmp_path / "s.json"),
                     "--csv", str(csv_dir)]) == 0
        for written in csv_dir.iterdir():
            written.unlink()
        assert main(["opa", str(path), "-o", str(tmp_path / "o.json")]) == 0
        assert list(csv_dir.iterdir()) == []


class TestInputBoundary:
    """Bad flags and bad documents end in exit 2 inside `main`."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--random", "-3"],
        ["verify", "--random", "2", "--seed", "-1"],
        ["verify", "--random", "2", "--tol", "nan"],
        ["verify", "--random", "x"],
        ["verify", "--random", "0"],
        ["verify", "input.json", "--random", "0"],
        ["elicit", "input.json", "--cell", "E2,C2", "--samples", "0"],
        ["elicit", "input.json", "--cell", "E2,C2", "--dump-target", "--samples", "0"],
    ])
    def test_bad_count_or_tolerance(self, argv, capsys):
        assert main(argv) == 2
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [command, "input.json", "--tol", "1e-6"]
        for command in ("solve", "opa", "metrics", "sensitivity")
    ] + [
        ["elicit", "input.json", "--cell", "E1,C1", "--tol", "1e-6"],
        ["metrics", "report.json", "--orientation", "literal"],
        ["metrics", "report.json", "--bound-mode", "inequality"],
    ] + [
        [command, "input.json", "--orientation", "literal"]
        for command in ("solve", "opa", "sensitivity", "verify")
    ] + [
        ["opa", "input.json", "--bound-mode", "inequality"],
    ])
    def test_options_only_where_read(self, argv, capsys):
        assert main(argv) == 2
        assert "error: unrecognized arguments" in capsys.readouterr().err

    def test_negative_samples_on_continuous_cell(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        assert main(["elicit", str(path), "--cell", "E2,C2", "--samples", "-3"]) == 2
        assert main(["elicit", str(path), "--cell", "E2,C2", "--dump-target",
                     "--samples", "-3"]) == 2

    def test_bad_choice_returns_instead_of_raising(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        assert main(["solve", str(path), "--bound-mode", "sideways"]) == 2
        assert main(["elicit", str(path), "--cell", "E2,C2", "--orientation", "sideways"]) == 2

    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: gopa" in capsys.readouterr().out

    @pytest.mark.parametrize("edit, where", [
        (lambda d: d["attribute_ranks"].update(E9=d["attribute_ranks"]["E1"]),
         "attribute_ranks: unknown expert ids"),
        (lambda d: d["alternative_ranks"].update(E9=d["alternative_ranks"]["E1"]),
         "alternative_ranks: unknown expert ids"),
        (lambda d: d["structures"]["cells"].update(E2=[]), "structures.cells.E2: expected"),
        (lambda d: d["structures"]["cells"]["E3"]["C1"].update(a="0.5"),
         "structures.cells.E3.C1.a: expected a finite number"),
        (lambda d: d["structures"]["cells"]["E2"]["C2"].update(beta=float("nan")),
         "structures.cells.E2.C2.beta: expected a finite number"),
        (lambda d: d["contexts"]["E1"]["C1"]["ratio"][0].update(alpha=float("inf")),
         "contexts.E1.C1.ratio[0].alpha: expected a finite number"),
        (lambda d: d["structures"]["cells"]["E3"]["C1"].update(alpha=3),
         "structures.cells.E3.C1.alpha: kind 'cara' reads no parameter 'alpha'"),
        (lambda d: d["structures"]["default"].update(alpha=3),
         "structures.default.alpha: kind 'roc' reads no parameter 'alpha'"),
    ], ids=["attribute_row", "alternative_row", "structure_row", "structure_text",
            "structure_nan", "context_inf", "structure_unread", "default_unread"])
    def test_document_faults(self, tmp_path, clean_doc, capsys, edit, where):
        edit(clean_doc)
        path = write_doc(tmp_path, clean_doc)
        assert main(["opa", str(path), "-o", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith(f"invalid input: {where}")

    @pytest.mark.parametrize("weight", [None, float("nan"), float("inf"), "0.5", True])
    def test_non_finite_cell_weight(self, tmp_path, clean_doc, capsys, weight):
        report = tmp_path / "report.json"
        assert main(["opa", str(write_doc(tmp_path, clean_doc)), "-o", str(report)]) == 0
        doc = json.loads(report.read_text())
        doc["cell_weights"]["E1"]["C1"]["A1"] = weight
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["metrics", str(report), "-o", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == (f"invalid input: {report}: malformed solution "
                                           "report (cell weights must be finite numbers)\n")
