import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gopa
from gopa.cli import main
from gopa.exceptions import ValidationError
from gopa.lpcheck import LPResult
from gopa.model import load_document
from gopa.structures import surrogate_weights

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
        # the tables hold the report's numbers, in its id order, at 12 digits
        report = json.loads((tmp_path / "r.json").read_text())
        ids = report["ids"]
        assert read_csv(tmp_path / "csv" / "weights.csv") == [
            ["section", "id", "weight"],
            *([section, name, format(report[section][name], ".12g")]
              for section in ("experts", "attributes", "alternatives") for name in ids[section])]
        block = report["utilities"]
        assert read_csv(tmp_path / "csv" / "utilities.csv") == [
            ["expert", "attribute", "rank", "utility"],
            *([eid, aid, str(r), format(u, ".12g")]
              for eid in ids["experts"] for aid in ids["attributes"]
              for r, u in enumerate(block["distinct"][block["cells"][eid][aid]], start=1))]

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


class TestElicitMatchesReport:
    def test_each_cell_equals_its_solve_report(self, tmp_path, clean_doc, capsys):
        path = write_doc(tmp_path, clean_doc)
        out = tmp_path / "report.json"
        assert main(["solve", str(path), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        continuous = {("E2", "C2"), ("E3", "C1")}
        for eid in report["ids"]["experts"]:
            for aid in report["ids"]["attributes"]:
                capsys.readouterr()
                assert main(["elicit", str(path), "--cell", f"{eid},{aid}"]) == 0
                rows = [float(r.split(",")[1]) for r in
                        capsys.readouterr().out.strip().splitlines()[1:]]
                utilities = report["utilities"]
                expected = utilities["distinct"][utilities["cells"][eid][aid]]
                assert rows == expected, (eid, aid)
                if (eid, aid) in continuous:
                    assert expected[0] > expected[-1]


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

    def test_invalid_json_input(self, tmp_path, capsys):
        path = tmp_path / "truncated.json"
        path.write_text('{"experts": [')
        assert main(["opa", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {path}: not valid JSON (")

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

    def test_contradicted_support_program_exits_4(self, tmp_path, capsys):
        # feasible, but the support program's second run finds a kept utility zero
        names = [f"A{k}" for k in range(1, 6)]
        doc = {"experts": [{"id": "E1", "rank": 1}], "attributes": ["C1"],
               "alternatives": names, "attribute_ranks": {"E1": {"C1": 1}},
               "alternative_ranks": {"E1": {"C1": dict(zip(names, range(1, 6)))}},
               "contexts": {"E1": {"C1": {"ratio": [{"rank": 4, "alpha": 1e10}]}}}}
        assert main(["elicit", str(write_doc(tmp_path, doc)), "--cell", "E1,C1"]) == 4
        assert capsys.readouterr().err == (
            "numeric failure: support linear program contradicts its first verdict\n")


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

    def test_discrete_target_dump(self, tmp_path, clean_doc, capsys):
        path = write_doc(tmp_path, clean_doc)
        assert main(["elicit", str(path), "--cell", "E1,C1", "--dump-target"]) == 0
        size = max(clean_doc["alternative_ranks"]["E1"]["C1"].values())
        target = surrogate_weights("roc", size)
        assert capsys.readouterr().out.splitlines() == [
            "rank,target", *(f"{r},{w:.12g}" for r, w in enumerate(target, start=1))]

    @pytest.mark.parametrize("flags", [["--dump-target"], []], ids=["target", "solved"])
    def test_crra_curve_unbounded_at_zero(self, tmp_path, capsys, flags):
        # the crra density is unbounded at x = 0: written inf, with no warning
        doc = {"experts": [{"id": "E1", "rank": 1}, {"id": "E2", "rank": 2}],
               "attributes": ["C1"], "alternatives": ["A1", "A2", "A3"],
               "attribute_ranks": {"E1": {"C1": 1}, "E2": {"C1": 1}},
               "alternative_ranks": {"E1": {"C1": {"A1": 1, "A2": 2, "A3": 3}},
                                     "E2": {"C1": {"A1": 2, "A2": 1, "A3": 3}}},
               "structures": {"default": {"kind": "crra", "alpha": 1.0, "gamma": 0.5}}}
        path = write_doc(tmp_path, doc)
        assert main(["elicit", str(path), "--cell", "E1,C1", *flags, "--samples", "4"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 6 and rows[1].startswith("0,inf")
        assert all(np.isfinite(float(row.split(",")[1])) for row in rows[2:])

    def test_unknown_cell(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        assert main(["elicit", str(path), "--cell", "E9,C1"]) == 2

    @pytest.mark.parametrize("flags", [["--samples", "5"], ["--dump-target", "--samples", "5"]])
    def test_samples_on_discrete_cell(self, tmp_path, clean_doc, capsys, flags):
        path = write_doc(tmp_path, clean_doc)
        assert main(["elicit", str(path), "--cell", "E1,C1", *flags]) == 2
        assert "--samples: curve sampling applies to continuous cells" in capsys.readouterr().err

    @pytest.mark.parametrize("cell, flags, option", [
        ("E1,C1", [], "the discrete cell E1,C1"),
        ("E1,C1", ["--dump-target"], "--dump-target"),
        ("E2,C2", ["--dump-target"], "--dump-target"),
        ("E2,C2", ["--dump-target", "--samples", "5"], "--dump-target"),
    ])
    @pytest.mark.parametrize("mode", ["equality", "inequality"])
    def test_bound_mode_without_continuous_density(self, tmp_path, clean_doc, capsys,
                                                   cell, flags, option, mode):
        path = write_doc(tmp_path, clean_doc)
        assert main(["elicit", str(path), "--cell", cell, *flags, "--bound-mode", mode]) == 2
        assert capsys.readouterr().err == (f"invalid input: --bound-mode: not read with "
                                           f"{option}, which elicits no continuous density\n")

    def test_bound_mode_on_continuous_cell(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        for flags in ([], ["--samples", "5"]):
            assert main(["elicit", str(path), "--cell", "E2,C2", *flags,
                         "--bound-mode", "inequality"]) == 0


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

    def test_raw_ids_quoted_as_csv_writer_quotes_them(self, tmp_path):
        experts = ["a,b", 'say "hi"', "line\nbreak"]
        attributes = [" lead", ""]
        alternatives = ["A1", "x,y", '"q"']
        doc = {"experts": [{"id": eid, "rank": n} for n, eid in enumerate(experts, 1)],
               "attributes": attributes, "alternatives": alternatives,
               "attribute_ranks": {eid: {aid: 1 for aid in attributes} for eid in experts},
               "alternative_ranks": {eid: {aid: {"A1": 1, "x,y": 2, '"q"': 2}
                                           for aid in attributes} for eid in experts}}
        raw = tmp_path / "raw.csv"
        assert main(["sensitivity", str(write_doc(tmp_path, doc)), "--method", "opa",
                     "-o", str(tmp_path / "sens.csv"), "--raw", str(raw)]) == 0
        text = raw.read_bytes().decode()
        rows = read_csv(raw)
        assert [row[2] for row in rows[1:]] == experts * 6 + attributes * 6 + alternatives * 6
        # the file is what csv.writer writes for the fields it holds
        assert '"a,b"' in text and '"say ""hi"""' in text and '"line\nbreak"' in text
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert text == buf.getvalue()

    def test_two_expert_panel_rejected(self, tmp_path, capsys):
        _, doc = random_problem(np.random.default_rng(22), 2, 2, 4)
        path = write_doc(tmp_path, doc)
        assert main(["sensitivity", str(path), "--method", "opa"]) == 2
        err = capsys.readouterr().err
        assert "at least 3 experts" in err and "the panel has 2" in err


class TestVerifyCommand:
    def test_random_battery_passes(self, tmp_path):
        rng = np.random.default_rng(3)
        out = tmp_path / "verify.json"
        for irregular in (False, True) * 4:
            _, doc = random_problem(rng, irregular=irregular)
            assert main(["verify", str(write_doc(tmp_path, doc)), "-o", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["pass"] is True
            assert max(c["delta"] for c in report["checks"]) <= 1e-8

    def test_input_file_verification(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        assert main(["verify", str(path), "-o", str(tmp_path / "v.json")]) == 0

    def test_needs_input(self, capsys):
        assert main(["verify"]) == 2
        assert "error: the following arguments are required: input" in capsys.readouterr().err

    def test_tol_must_be_finite(self, capsys):
        assert main(["verify", "input.json", "--tol", "inf"]) == 2
        err = capsys.readouterr().err
        assert "error: argument --tol: expected a finite positive number, got 'inf'" in err

    def test_unsolved_lp_fails_at_any_finite_tol(self, tmp_path, clean_doc, monkeypatch):
        # an LP that is not optimal has delta = inf, which no finite --tol reaches
        monkeypatch.setattr(gopa.cli, "solve_lp", lambda lp: LPResult("infeasible"))
        path, out = write_doc(tmp_path, clean_doc), tmp_path / "v.json"
        assert main(["verify", str(path), "--tol", "1e308", "-o", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        assert [c["pass"] for c in checks[:2]] == [False, False]

    def test_inflated_objective_accepted_fails(self, tmp_path, clean_doc, monkeypatch):
        # a certificate whose bound admits 1.1 z*, its residuals intact
        shipped = gopa.cli.verify_efficiency
        monkeypatch.setattr(gopa.cli, "verify_efficiency", lambda solution: (
            shipped(solution)[0], 1.1 * solution.objective))
        path, out = write_doc(tmp_path, clean_doc), tmp_path / "v.json"
        assert main(["verify", str(path), "-o", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert {c["name"]: c["pass"] for c in report["checks"]} == {
            "ordinal_lp_matches_formula": True, "generalized_lp_matches_formula": True,
            "stage2_min_slack_equals_objective": True,
            "stage2_rejects_inflated_objective": False}

    def test_perturbed_rank_weight_fails_the_certificate(self, tmp_path, clean_doc,
                                                         monkeypatch):
        shipped = gopa.cli.solve_opa

        def perturbed(problem):
            solution = shipped(problem)
            weights = solution.rank_weights.copy()
            weights[0, 0, 1] += 1e-6
            return replace(solution, rank_weights=weights)

        monkeypatch.setattr(gopa.cli, "solve_opa", perturbed)
        path, out = write_doc(tmp_path, clean_doc), tmp_path / "v.json"
        assert main(["verify", str(path), "-o", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        # the dual point and its bound do not read the weights
        assert [c["pass"] for c in checks] == [True, True, False, True]
        assert checks[2]["delta"] == checks[3]["delta"] > 1e-6

    def test_gap_free_10x10x15_passes(self, tmp_path):
        # the efficiency program of this document has 1,500 weights
        problem, doc = random_problem(np.random.default_rng(1015), 10, 10, 15)
        assert problem.gap_free
        path, out = write_doc(tmp_path, doc), tmp_path / "v.json"
        assert main(["verify", str(path), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [c["pass"] for c in report["checks"]] == [True] * 4


def child_env():
    # The child must import the package under test, also when pytest put it on
    # sys.path itself (`pythonpath` in pyproject.toml) rather than PYTHONPATH.
    src = str(Path(gopa.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_console_script_runs(tmp_path, clean_doc):
    result = subprocess.run([sys.executable, "-m", "gopa.cli", "verify",
                             str(write_doc(tmp_path, clean_doc))],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 0
    assert '"pass": true' in result.stdout


# Runs each argv of the JSON list in argv[1] through `main` and prints
# [[exit code or ImportError text, stderr] per call, the scipy modules loaded].
# With argv[2] == "refuse", every import of scipy is refused.
RUN_COMMANDS = """
import contextlib, io, json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

if sys.argv[2] == "refuse":
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
print(json.dumps([results, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def run_commands(argvs, scipy):
    result = subprocess.run([sys.executable, "-c", RUN_COMMANDS, json.dumps(argvs), scipy],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


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
    (code, err), *rest = run_commands(argvs, "refuse")[0]
    assert code == 3 and "E2" in err and "C1" in err
    assert [code for code, _ in rest] == [0] * len(rest)
    report = json.loads(Path(out["solve.json"]).read_text())
    utilities = report["utilities"]
    assert utilities["distinct"][utilities["cells"]["E1"]["C1"]] == [1.0, 0.0, 0.0]
    rows = read_csv(out["elicit.csv"])
    assert [float(u) for _, u in rows[1:]] == [1.0, 0.0, 0.0]


def test_commands_load_no_scipy(tmp_path):
    # scipy is importable, yet no command, continuous cells included, imports it
    _, doc = random_problem(np.random.default_rng(5), 3, 2, 3)
    doc["structures"] = {"cells": {"E2": {"C2": {"kind": "cara", "a": 0.5}}}}
    path = str(write_doc(tmp_path, doc))
    out = {name: str(tmp_path / name) for name in
           ("solve.json", "opa.json", "elicit.csv", "metrics.json", "sens.csv", "verify.json")}
    results, loaded = run_commands(
        [["solve", path, "-o", out["solve.json"]], ["opa", path, "-o", out["opa.json"]],
         ["elicit", path, "--cell", "E2,C2", "--samples", "10", "-o", out["elicit.csv"]],
         ["metrics", out["solve.json"], "-o", out["metrics.json"]],
         ["sensitivity", path, "-o", out["sens.csv"]], ["verify", path, "-o", out["verify.json"]]],
        "allow")
    assert results == [[0, ""]] * 6
    assert loaded == []
    assert read_csv(out["elicit.csv"])[0] == ["x", "density", "cdf"]   # a continuous density


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
        ["verify", "input.json", "--tol", "nan"],
        ["verify", "input.json", "--tol", "abc"],
        ["elicit", "input.json", "--cell", "E2,C2", "--samples", "0"],
        ["elicit", "input.json", "--cell", "E2,C2", "--samples", "x"],
        ["elicit", "input.json", "--cell", "E2,C2", "--dump-target", "--samples", "0"],
    ])
    def test_bad_count_or_tolerance(self, argv, capsys):
        assert main(argv) == 2
        assert f"error: argument {argv[-2]}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [command, "input.json", "--tol", "1e-6"]
        for command in ("solve", "opa", "metrics", "sensitivity")
    ] + [
        ["elicit", "input.json", "--cell", "E1,C1", "--tol", "1e-6"],
        ["elicit", "input.json", "--cell", "E2,C2", "--orientation", "literal"],
        ["metrics", "report.json", "--orientation", "literal"],
        ["metrics", "report.json", "--bound-mode", "inequality"],
    ] + [
        [command, "input.json", "--orientation", "literal"]
        for command in ("solve", "opa", "sensitivity", "verify")
    ] + [
        ["opa", "input.json", "--bound-mode", "inequality"],
        ["verify", "--random", "2"],
        ["verify", "input.json", "--seed", "0"],
    ] + [
        # argparse accepts --bound-mode here; the run refuses it before reading a file
        ["sensitivity", "input.json", "--method", "opa", "--bound-mode", "inequality"],
        ["sensitivity", "input.json", "--bound-mode", "equality", "--method", "opa"],
    ])
    def test_options_only_where_read(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        if "--bound-mode" in argv and argv[0] == "sensitivity":
            assert err == ("invalid input: --bound-mode: not read with --method opa, "
                           "which elicits no utilities\n")
        else:
            assert "error: unrecognized arguments" in err

    def test_bound_mode_where_read(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        for argv in (["sensitivity", str(path)], ["verify", str(path)]):
            outputs = []
            for mode in ([], ["--bound-mode", "equality"]):
                out = tmp_path / "out"
                assert main([*argv, *mode, "-o", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]
        for argv in (["sensitivity", str(path)], ["verify", str(path)]):
            assert main([*argv, "--bound-mode", "inequality", "-o", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", ["solve", "sensitivity", "verify"])
    @pytest.mark.parametrize("mode", ["equality", "inequality"])
    def test_bound_mode_on_all_discrete_document(self, tmp_path, clean_doc, capsys,
                                                 monkeypatch, command, mode):
        clean_doc["structures"] = {"default": {"kind": "roc"}}
        path, out = write_doc(tmp_path, clean_doc), tmp_path / "out"
        solves = []
        monkeypatch.setattr(gopa.pipeline, "elicit_discrete",
                            lambda *args: solves.append(args))
        assert main([command, str(path), "--bound-mode", mode, "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "invalid input: --bound-mode: not read with a document whose cells are all "
            "discrete, which elicits no continuous density\n")
        assert solves == [] and not out.exists()
        monkeypatch.undo()
        assert main([command, str(path), "-o", str(out)]) == 0
        if command == "solve":
            assert json.loads(out.read_text())["bound_mode"] == "equality"

    @pytest.mark.parametrize("structure, size, fault", [
        ({"kind": "ref", "exponent": 250}, 30, "ref target has a zero or non-finite weight "
                                               "on 30 ranks (exponent 250)"),
        # 10 ** 310 overflows as well; the largest power sets the limit, not the size
        ({"kind": "ref", "exponent": 310}, 10, "ref target has a zero or non-finite weight "
                                               "on 10 ranks (exponent 310)"),
        ({"kind": "cara", "a": -25}, 30, "cara density mass on [0, 30] overflows"),
        # the lower bound's breakpoint at 1 leaves [0, 1] no mass this far from the center
        ({"kind": "sshape", "steepness": 1000}, 10, "sshape target has mass 0 on the "
                                                    "segment [0, 1]"),
    ], ids=["ref", "ref-10", "cara", "sshape"])
    def test_structure_degenerate_at_cell_size(self, tmp_path, capsys, structure, size, fault):
        _, doc = random_problem(np.random.default_rng(4), 3, 2, size)
        doc["structures"] = {"default": {"kind": "roc"}, "cells": {"E2": {"C1": structure}}}
        doc["contexts"] = {"E2": {"C1": {"lowerbound": [{"rank": 1, "gamma": 0.2}]}}}
        path, out = write_doc(tmp_path, doc), tmp_path / "out"
        cell_argvs = [["elicit", str(path), "--cell", "E2,C1", *dump]
                      for dump in ([], ["--dump-target"])]
        if structure["kind"] == "sshape":
            # without breakpoints the target is one segment, and its dump is fine
            assert main([*cell_argvs.pop(), "-o", str(out)]) == 0
            out.unlink()
        for argvs, label in (([[command, str(path)] for command in
                               ("solve", "sensitivity", "verify")], "cell (E2, C1)"),
                             (cell_argvs, "--cell E2,C1")):
            for argv in argvs:
                assert main([*argv, "-o", str(out)]) == 2
                assert capsys.readouterr().err == f"invalid input: {label}: {fault}\n"
        assert not out.exists()

    def test_negative_samples_on_continuous_cell(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        assert main(["elicit", str(path), "--cell", "E2,C2", "--samples", "-3"]) == 2
        assert main(["elicit", str(path), "--cell", "E2,C2", "--dump-target",
                     "--samples", "-3"]) == 2

    def test_bad_choice_returns_instead_of_raising(self, tmp_path, clean_doc):
        path = write_doc(tmp_path, clean_doc)
        assert main(["solve", str(path), "--bound-mode", "sideways"]) == 2
        assert main(["elicit", str(path), "--cell", "E2,C2", "--bound-mode", "sideways"]) == 2

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

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), "0.5", True,
                                        pytest.param(10 ** 400, id="huge_int")])
    def test_non_finite_cell_weight(self, tmp_path, clean_doc, capsys, weight):
        report = tmp_path / "report.json"
        assert main(["opa", str(write_doc(tmp_path, clean_doc)), "-o", str(report)]) == 0
        doc = json.loads(report.read_text())
        doc["cell_weights"]["E1"]["C1"][0] = weight
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["metrics", str(report), "-o", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == (
            f"invalid input: {report}: malformed solution report (cell_weights.E1.C1: "
            "weights must be finite numbers or null (excluded))\n")

    def test_null_cell_weight_reads_as_excluded(self, tmp_path, clean_doc):
        report = tmp_path / "report.json"
        assert main(["opa", str(write_doc(tmp_path, clean_doc)), "-o", str(report)]) == 0
        doc = json.loads(report.read_text())
        doc["cell_weights"]["E1"]["C1"][0] = None
        report.write_text(json.dumps(doc))
        assert main(["metrics", str(report), "-o", str(tmp_path / "m.json")]) == 0


# A structure object that breaks one rule of its values, the parameter named and
# the message: every range rule of a kind, then a text, a bool, NaN and an infinity.
BAD_STRUCTURES = {
    "ref-exponent": ({"kind": "ref", "exponent": 0}, "exponent", "rank exponent must be > 0"),
    "hara-alpha": ({"kind": "hara", "alpha": 0}, "alpha", "density scale alpha must be > 0"),
    "crra-alpha": ({"kind": "crra", "alpha": -1, "gamma": 0.5}, "alpha",
                   "density scale alpha must be > 0"),
    "hara-gamma": ({"kind": "hara", "gamma": 0}, "gamma", "hara gamma must be nonzero"),
    "crra-gamma": ({"kind": "crra", "gamma": 1.5}, "gamma", "crra gamma must lie in (0, 1)"),
    "cara-a": ({"kind": "cara", "a": 0.0}, "a", "cara coefficient must be nonzero"),
    "sshape-steepness": ({"kind": "sshape", "steepness": -2}, "steepness",
                         "steepness must be > 0"),
    "text": ({"kind": "cara", "a": "x"}, "a", "expected a finite number"),
    "bool": ({"kind": "sshape", "steepness": True}, "steepness", "expected a finite number"),
    "nan": ({"kind": "hara", "beta": float("nan")}, "beta", "expected a finite number"),
    "inf": ({"kind": "ref", "exponent": float("inf")}, "exponent", "expected a finite number"),
}


class TestStructureErrors:
    """A broken structure object is reported at its own place in the document."""

    PLACES = {"default": "structures.default", "cell": "structures.cells.E2.C1"}

    @staticmethod
    def document(place, structure):
        _, doc = random_problem(np.random.default_rng(4), 3, 2, 4)
        if place == "default":
            doc["structures"] = {"default": structure}
        else:
            doc["structures"] = {"default": {"kind": "roc"}, "cells": {"E2": {"C1": structure}}}
        return doc

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("structure, name, fault", BAD_STRUCTURES.values(),
                             ids=BAD_STRUCTURES.keys())
    def test_load_document_names_the_place(self, place, structure, name, fault):
        with pytest.raises(ValidationError) as info:
            load_document(self.document(place, structure))
        assert str(info.value) == f"{self.PLACES[place]}.{name}: {fault}"

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("structure, name, fault", BAD_STRUCTURES.values(),
                             ids=BAD_STRUCTURES.keys())
    def test_solve_exits_2_naming_the_place(self, tmp_path, capsys, place, structure, name,
                                            fault):
        path, out = write_doc(tmp_path, self.document(place, structure)), tmp_path / "out"
        assert main(["solve", str(path), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"invalid input: {self.PLACES[place]}.{name}: {fault}\n")
        assert not out.exists()


def drop_expert(doc, sections):
    doc["ids"]["experts"].remove("E3")
    for section in sections:
        del doc[section]["E3"]


class TestMalformedReport:
    """`metrics` refuses a format-3 report whose ids and keys disagree, naming
    the section or the cell, where it once computed a consensus silently."""

    @pytest.mark.parametrize("edit, fault", [
        (lambda d: d["ids"]["experts"].append("E1"), "ids.experts: duplicate id 'E1'"),
        (lambda d: d["ids"]["alternatives"].insert(0, "A3"),
         "ids.alternatives: duplicate id 'A3'"),
        (lambda d: drop_expert(d, ()),
         "experts: keys differ from ids.experts (unknown ['E3'], missing [])"),
        (lambda d: drop_expert(d, ("experts",)),
         "cell_weights: keys differ from ids.experts (unknown ['E3'], missing [])"),
        (lambda d: d["attributes"].update(C9=d["attributes"].pop("C2")),
         "attributes: keys differ from ids.attributes (unknown ['C9'], missing ['C2'])"),
        (lambda d: d["ids"]["alternatives"].__setitem__(0, "A9"),
         "alternatives: keys differ from ids.alternatives (unknown ['A1'], missing ['A9'])"),
        (lambda d: d["cell_weights"]["E2"].update(C9=d["cell_weights"]["E2"].pop("C1")),
         "cell_weights.E2: keys differ from ids.attributes (unknown ['C9'], missing ['C1'])"),
        (lambda d: d["cell_weights"]["E2"]["C2"].pop(),
         "cell_weights.E2.C2: expected a list of 5 weights, one per alternative"),
        (lambda d: d["cell_weights"]["E3"]["C1"].append(0.0),
         "cell_weights.E3.C1: expected a list of 5 weights, one per alternative"),
        (lambda d: d["cell_weights"]["E1"].update(C2={"A1": 0.5}),
         "cell_weights.E1.C2: expected a list of 5 weights, one per alternative"),
        (lambda d: d.update(experts=[]), "experts: expected an object keyed by ids.experts"),
        (lambda d: d.update(objective=10 ** 400), "objective: expected a finite number"),
        (lambda d: d.update(objective="0.5"), "objective: expected a finite number"),
        (lambda d: d.update(objective="nan"), "objective: expected a finite number"),
        (lambda d: d.update(objective=True), "objective: expected a finite number"),
        (lambda d: d.update(objective=float("inf")), "objective: expected a finite number"),
        (lambda d: d.update(objective=float("nan")), "objective: expected a finite number"),
        (lambda d: d.update(objective=None), "objective: expected a finite number"),
        (lambda d: d.pop("format"), "report format 1; this version reads format 3"),
        (lambda d: d.update(format=2), "report format 2; this version reads format 3"),
        (lambda d: d.update(format=3.0), "report format 3.0; this version reads format 3"),
        (lambda d: d.update(format="3"), "report format '3'; this version reads format 3"),
    ], ids=["duplicate_expert", "duplicate_alternative", "expert_dropped_from_ids",
            "expert_dropped_from_ids_and_section", "section_key_renamed", "id_renamed",
            "cell_key_renamed", "cell_short", "cell_long", "cell_not_list",
            "section_not_object", "huge_objective", "text_objective", "text_nan_objective",
            "bool_objective", "infinite_objective", "nan_objective", "null_objective",
            "format_1", "format_2", "float_format", "text_format"])
    def test_fault_exits_2_and_names_it(self, tmp_path, clean_doc, capsys, edit, fault):
        report = tmp_path / "report.json"
        assert main(["solve", str(write_doc(tmp_path, clean_doc)), "-o", str(report)]) == 0
        doc = json.loads(report.read_text())
        edit(doc)
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["metrics", str(report), "-o", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == (f"invalid input: {report}: malformed solution "
                                           f"report ({fault})\n")

    def test_format_1_report(self, tmp_path, capsys):
        # the layout before format 2: no "format" key, cells keyed by alternative id
        ids = {"experts": ["E1", "E2"], "attributes": ["C1"], "alternatives": ["A1", "A2"]}
        cells = {"E1": {"C1": {"A1": 0.4, "A2": 0.2}}, "E2": {"C1": {"A1": 0.1, "A2": 0.3}}}
        report = write_doc(tmp_path, {"kind": "solution", "objective": 0.2, "ids": ids,
                                      "experts": {"E1": 0.6, "E2": 0.4}, "attributes": {"C1": 1.0},
                                      "alternatives": {"A1": 0.5, "A2": 0.5},
                                      "cell_weights": cells})
        assert main(["metrics", str(report)]) == 2
        assert capsys.readouterr().err == (f"invalid input: {report}: malformed solution "
                                           "report (report format 1; this version reads "
                                           "format 3)\n")

    def test_format_2_report(self, tmp_path, capsys):
        # format 2 held a rank_weights section beside the cell lists
        ids = {"experts": ["E1", "E2"], "attributes": ["C1"], "alternatives": ["A1", "A2"]}
        cells = {"E1": {"C1": [0.4, 0.2]}, "E2": {"C1": [0.1, 0.3]}}
        ranks = {"E1": {"C1": [0.4, 0.2]}, "E2": {"C1": [0.3, 0.1]}}
        report = write_doc(tmp_path, {"kind": "solution", "format": 2, "objective": 0.2,
                                      "ids": ids, "experts": {"E1": 0.6, "E2": 0.4},
                                      "attributes": {"C1": 1.0},
                                      "alternatives": {"A1": 0.5, "A2": 0.5},
                                      "cell_weights": cells, "rank_weights": ranks})
        assert main(["metrics", str(report)]) == 2
        assert capsys.readouterr().err == (f"invalid input: {report}: malformed solution "
                                           "report (report format 2; this version reads "
                                           "format 3)\n")
