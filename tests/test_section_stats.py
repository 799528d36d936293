"""The sweep and consensus statistics, computed once per section, equal the
scalar definitions of `oracles` bit for bit.

`sensitivity._describe_columns`, `metrics._psd_columns` and
`metrics._kendall_stack` reduce every column of a section at once; each
number must be the one the one-sample form gives, compared with ``==``.
The sample counts cross numpy's 128-element pairwise-summation block, and
the last class runs the `sensitivity` and `metrics` commands on seeded
`perfbench` documents against text built from the oracles.
"""

import csv
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gopa import cli, pipeline
from gopa.exceptions import DegenerateError, DomainError
from gopa.metrics import (
    ConsensusReport,
    _kendall_stack,
    _psd_columns,
    confidence_level,
    gcl,
    kendall_w,
    psd,
    ranks_from_weights,
    sensitivity_label,
)
from gopa.model import load_document
from gopa.pipeline import elicit_utilities, report_to_solution
from gopa.sensitivity import _describe_columns, describe, permutation_stats

from oracles import (
    describe_scalar,
    kendall_w_scalar,
    psd_scalar,
    random_problem,
    random_utilities,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

SECTIONS = ("experts", "attributes", "alternatives")


def sample_matrix(rng, n):
    """An (n, 7) matrix of columns with different shapes, scales and ties."""
    base = 0.3 + rng.integers(0, 2, n) * 5.5e-17
    return np.column_stack([
        rng.random(n),                               # uniform
        rng.lognormal(-3.0, 1.0, n),                 # skewed, small weights
        rng.integers(1, 4, n) / 7.0,                 # three tied values
        np.full(n, 0.3),                             # constant
        base,                                        # near-constant: 1e-16 spread
        1e-5 + 1e-3 * rng.standard_normal(n) ** 2,   # heavy right tail
        -rng.random(n),                              # negative mean
    ])


class TestDescribeColumns:
    @pytest.mark.parametrize("n", [4, 6, 24, 120, 720, 5040, 40320])
    def test_equals_scalar_oracle(self, n):
        x = sample_matrix(np.random.default_rng(n), n)
        expected = [describe_scalar(col) for col in x.T]
        assert _describe_columns(x) == expected
        assert [describe(col) for col in x.T] == expected

    @pytest.mark.parametrize("n_experts", [3, 4, 5, 6])
    def test_sweep_sections_equal_scalar_oracle(self, n_experts):
        rng = np.random.default_rng(40 + n_experts)
        p, _ = random_problem(rng, n_experts, 3, 6, irregular=True)
        for utilities in (None, random_utilities(rng, p)):
            stats = permutation_stats(p, utilities)
            for section in SECTIONS:
                assert [st for _, st in stats[section]] == [
                    describe_scalar(col) for col in stats["raw"][section].T]

    def test_too_few_samples(self):
        x = np.random.default_rng(0).random((3, 2))
        for call in (_describe_columns, lambda m: describe(m[:, 0]),
                     lambda m: describe_scalar(m[:, 0])):
            with pytest.raises(DegenerateError, match="^need at least 4 samples, got 3$"):
                call(x)

    def test_zero_mean_of_a_varying_column(self):
        x = np.column_stack([np.full(6, 0.2), [1.0, -1.0, 2.0, -2.0, 0.5, -0.5]])
        with pytest.raises(DegenerateError, match="zero mean"):
            describe_scalar(x[:, 1])
        with pytest.raises(DegenerateError, match="zero mean"):
            _describe_columns(x)

    def test_all_zero_column_is_constant(self):
        x = np.zeros((5, 2))
        assert _describe_columns(x) == [describe_scalar(col) for col in x.T]


class TestPsdColumns:
    @pytest.mark.parametrize("n_experts", [2, 3, 5, 8, 9, 30, 130, 300])
    def test_equals_scalar_oracle(self, n_experts):
        rng = np.random.default_rng(n_experts)
        w = rng.random((n_experts, 12)) / n_experts
        w[:, 3] = w[0, 3]                       # equal contributions
        w[:, 4] = np.round(w[:, 4] * n_experts, 1) / n_experts   # tied contributions
        for aggregates in (w.sum(axis=0), rng.random(12)):
            expected = [psd_scalar(w[:, j], aggregates[j]) for j in range(12)]
            assert _psd_columns(w, aggregates).tolist() == expected
            assert [psd(w[:, j], aggregates[j]) for j in range(12)] == expected

    def test_degenerate_inputs(self):
        for w, aggregates, message in ((np.ones((1, 3)), np.ones(3), "two experts"),
                                       (np.ones((3, 3)), [1.0, 0.0, 2.0], "zero")):
            with pytest.raises(DegenerateError, match=message):
                psd_scalar(w[:, 1], aggregates[1])
            with pytest.raises(DegenerateError, match=message):
                _psd_columns(w, aggregates)


class TestKendallStack:
    @pytest.mark.parametrize("n_raters,n_items", [(2, 3), (3, 5), (5, 30), (30, 30),
                                                  (4, 130), (30, 3)])
    def test_equals_scalar_oracle(self, n_raters, n_items):
        rng = np.random.default_rng(100 * n_raters + n_items)
        weights = rng.random((8, n_raters, n_items))
        weights[1::2, :, 1] = weights[1::2, :, 0]     # every rater ties two items
        weights[3::4] = np.round(weights[3::4], 1)    # tie groups of any size
        weights[2, 0] = 0.5                           # one rater ties every item
        ranks = ranks_from_weights(weights)
        expected = [kendall_w_scalar(r) for r in ranks]
        assert _kendall_stack(ranks) == expected
        assert [kendall_w(r) for r in ranks] == expected

    def test_every_rater_ties_every_item(self):
        ranks = np.stack([ranks_from_weights(np.random.default_rng(0).random((3, 4))),
                          np.full((3, 4), 2.5)])
        with pytest.raises(DegenerateError, match="every rater ties"):
            kendall_w_scalar(ranks[1])
        with pytest.raises(DegenerateError, match="every rater ties"):
            _kendall_stack(ranks)

    def test_shape_checked_before_the_stack(self):
        for bad in (np.ones(4), np.ones((1, 4)), np.ones((4, 1))):
            with pytest.raises(DomainError, match="^expected a raters-by-items matrix"):
                kendall_w_scalar(bad)
            with pytest.raises(DomainError, match="^expected a raters-by-items matrix"):
                kendall_w(bad)


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _fmt(x):
    return format(x, ".12g")


def sensitivity_texts(doc, method):
    """The summary and ``--raw`` CSV of `sensitivity`, from `describe_scalar`."""
    problem, context, structures = load_document(doc)
    utilities = None if method == "opa" else elicit_utilities(problem, context, structures)
    raw = permutation_stats(problem, utilities)["raw"]
    ids = {"experts": problem.expert_ids, "attributes": problem.attribute_ids,
           "alternatives": problem.alternative_ids}
    rows = [("section", "id", "mean", "skewness", "kurtosis", "cv", "min", "max")]
    raw_rows = [("scenario", "section", "id", "weight")]
    for section in SECTIONS:
        for name, col in zip(ids[section], raw[section].T):
            st = describe_scalar(col)
            rows.append((section, name, *map(_fmt, (st.mean, st.skewness, st.kurtosis,
                                                     st.cv, st.minimum, st.maximum))))
        for n, row in enumerate(raw[section].tolist()):
            raw_rows += [(n, section, name, _fmt(v)) for name, v in zip(ids[section], row)]
    return _csv_text(rows), _csv_text(raw_rows)


def metrics_texts(report_text):
    """The JSON and ``--csv`` output of `metrics`, from the scalar oracles."""
    solution = report_to_solution(json.loads(report_text))
    p = solution.problem
    n_experts, n_attributes, n_alternatives = solution.weights.shape
    w_ij = solution.expert_attribute_weights()
    w_ik = solution.expert_alternative_weights()
    psd_attr = np.array([psd_scalar(w_ij[:, j], solution.attribute_weights[j])
                         for j in range(n_attributes)])
    psd_alt = np.array([psd_scalar(w_ik[:, k], solution.alternative_weights[k])
                        for k in range(n_alternatives)])
    rho_attr = kendall_w_scalar(ranks_from_weights(w_ij))
    lcl_attr = confidence_level(rho_attr, n_experts, n_attributes)
    alt_ranks = ranks_from_weights(solution.weights.transpose(1, 0, 2))
    rho_alt = np.array([kendall_w_scalar(r) for r in alt_ranks])
    lcl_alt = np.array([confidence_level(rho, n_experts, n_alternatives) for rho in rho_alt])
    level = gcl(lcl_attr, solution.attribute_weights, lcl_alt)
    cons = ConsensusReport(
        psd_attributes=psd_attr, psd_alternatives=psd_alt,
        kendall_attributes=rho_attr, kendall_alternatives=rho_alt,
        lcl_attributes=lcl_attr, lcl_alternatives=lcl_alt, gcl=level,
        label_attributes=sensitivity_label(lcl_attr),
        label_alternatives=tuple(map(sensitivity_label, lcl_alt)),
        label_global=sensitivity_label(level))
    rows = [("section", "id", "psd", "kendall", "lcl", "label")]
    rows += [("attributes", aid, _fmt(psd_attr[j]), _fmt(rho_alt[j]), _fmt(lcl_alt[j]),
              cons.label_alternatives[j]) for j, aid in enumerate(p.attribute_ids)]
    rows += [("alternatives", mid, _fmt(psd_alt[k]), "", "", "")
             for k, mid in enumerate(p.alternative_ids)]
    json_text = pipeline.report_text({"kind": "consensus", **cons.to_dict(p)}) + "\n"
    return json_text, _csv_text(rows)


class TestCommandsAgainstOracles:
    """`sensitivity` (summary and ``--raw``, both methods) and `metrics` (JSON
    and ``--csv``) on seeded documents of both benchmark workloads."""

    SEED = 17

    @pytest.mark.parametrize("shape", ["case_mix", "wide_ordinal"])
    def test_sensitivity(self, shape, tmp_path):
        if shape == "case_mix":
            doc = workloads.sweep(self.SEED, 1)
        else:
            doc = workloads.leading_panel(workloads.wide_ordinal(self.SEED, 1), 5)
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        for method in ("gopa", "opa"):
            out, raw = tmp_path / f"{method}.csv", tmp_path / f"{method}-raw.csv"
            assert cli.main(["sensitivity", str(path), "--method", method,
                             "--raw", str(raw), "-o", str(out)]) == 0
            assert (out.read_text(), raw.read_text()) == sensitivity_texts(doc, method)

    @pytest.mark.parametrize("shape,command", [("case_mix", "solve"),
                                               ("wide_ordinal", "opa")])
    def test_metrics(self, shape, command, tmp_path):
        doc = getattr(workloads, shape)(self.SEED, 1)
        path, report = tmp_path / "in.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, str(path), "-o", str(report)]) == 0
        out, csv_dir = tmp_path / "metrics.json", tmp_path / "csv"
        assert cli.main(["metrics", str(report), "--csv", str(csv_dir), "-o", str(out)]) == 0
        got = (out.read_text(), (csv_dir / "metrics.csv").read_text())
        assert got == metrics_texts(report.read_text())
