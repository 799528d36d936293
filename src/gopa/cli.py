"""Command-line front end.

Subcommands: ``solve`` (full two-stage pipeline), ``opa`` (rankings only),
``elicit`` (first stage of one cell), ``metrics`` (consensus report from a
solution report), ``sensitivity`` (expert-rank permutation sweep), ``verify``
(the closed forms against their LPs, and a certificate that the ordinal
weights solve the stage-2 efficiency program); each has only the flags it reads.
``--bound-mode`` exits 2 where a run elicits no utilities (``sensitivity
--method opa``) or no continuous density (a document of discrete cells
only, ``elicit`` on a discrete cell or with ``--dump-target``).
Reports are deterministic: sorted keys, two-space indent except for a leaf
list of floats and nulls, which takes one line, ASCII-escaped strings, and
each float rounded to 12 significant digits and written as the shortest
string that reads back as the rounded value; NaN and infinities are written
``NaN`` and ``(-)Infinity``.  Solution reports are format 3, without the
``rank_weights`` of format 2.  `pipeline.solution_report` writes the solution
report and `pipeline.report_text` the other JSON documents.

Exit codes: 0 success, 1 failed verification, 2 validation error,
3 infeasible preference context, 4 numeric failure.  Exit 2 also covers an
input that cannot be read (a directory, not UTF-8, not JSON), an output path that
cannot be written (a missing directory, a ``--csv`` path that is a file)
and a solution report given to ``metrics`` that lacks a key, whose format
is not the integer 3 or that holds a malformed field (an objective that is
not a finite number, a duplicate id, keys that differ from the ids, a cell
list of the wrong length); the message names the path and the key, the
format, the field, the section or the cell.
A bad flag value is exit 2 too: argparse checks every flag, and `main`
returns its exit code rather than raising ``SystemExit``.
"""

import argparse
import csv
import io
import json
import sys
from functools import cache
from itertools import product, repeat
from pathlib import Path

import numpy as np

from .exceptions import (
    DegenerateError,
    DomainError,
    GopaError,
    InfeasibleContext,
    NumericFailure,
    ValidationError,
)
from .lpcheck import build_gopa_lp, build_opa_lp, solve_lp, verify_efficiency
from .metrics import consensus_report
from .model import load_document
from .pipeline import (
    SECTIONS,
    elicit_cell,
    elicit_utilities,
    report_text,
    report_to_solution,
    solution_report,
    solve_document,
)
from .sensitivity import permutation_stats
from .solver import solve_gopa, solve_opa
from .structures import surrogate_weights, target_density


def _fmts(values):
    """CSV texts of a list of floats at 12 significant digits, formatted in one ``%`` call."""
    return (",".join(["%.12g"] * len(values)) % tuple(values)).split(",")


def _write_text(text, path):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValidationError(str(path), f"cannot write output ({exc.strerror})")


def _write_json(doc, path):
    _write_text(report_text(doc) + "\n", path)


def _write_csv(rows, path):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    _write_text(buf.getvalue(), path)


def _csv_line(row):
    """``row`` as `_write_csv` writes it, without the line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()[:-1]


def _csv_dir(path):
    """The ``--csv`` directory, created with its parents if missing."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(str(path), f"cannot write output ({exc.strerror})")
    return Path(path)


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ValidationError(str(path), "input file not found")
    except OSError as exc:
        raise ValidationError(str(path), f"cannot read input ({exc.strerror})")
    except UnicodeDecodeError as exc:
        raise ValidationError(str(path), f"not UTF-8 text ({exc.reason} at byte {exc.start})")
    except json.JSONDecodeError as exc:
        raise ValidationError(str(path), f"not valid JSON ({exc})")


def _weights_csv(solution):
    p = solution.problem
    rows = [("section", "id", "weight")]
    for section, names, weights in zip(
            SECTIONS, (p.expert_ids, p.attribute_ids, p.alternative_ids),
            (solution.expert_weights, solution.attribute_weights, solution.alternative_weights)):
        rows += zip(repeat(section), names, _fmts(weights.tolist()))
    return rows


def _utilities_csv(solution):
    p = solution.problem
    keys = [(p.expert_ids[i], p.attribute_ids[j], r)
            for i, j in p.cells() for r in range(1, p.max_rank[i, j] + 1)]
    # rank_mask's C order runs over the cells, each by rank
    texts = _fmts(solution.utilities[p.rank_mask].tolist())
    return [("expert", "attribute", "rank", "utility"),
            *((*key, text) for key, text in zip(keys, texts))]


def _refuse_bound_mode(config, option, unread="utilities"):
    """``--bound-mode`` is an error where ``option`` elicits no continuous density."""
    if config.bound_mode is not None:
        raise ValidationError("--bound-mode", f"not read with {option}, which elicits "
                                              f"no {unread}")


def _cmd_solve(config):
    doc = _load_json(config.input)
    if config.command == "opa":
        solution = solve_document(doc, method="opa")
        text = solution_report(solution)
    else:
        solution = solve_document(doc, bound_mode=config.bound_mode)
        text = solution_report(solution, config.bound_mode)
    _write_text(text + "\n", config.output)
    if config.csv_dir is not None:
        out = _csv_dir(config.csv_dir)
        _write_csv(_weights_csv(solution), out / "weights.csv")
        if solution.utilities is not None:
            _write_csv(_utilities_csv(solution), out / "utilities.csv")
    return 0


def _find_cell(problem, label):
    try:
        eid, aid = (part.strip() for part in label.split(","))
        return problem.expert_ids.index(eid), problem.attribute_ids.index(aid)
    except (ValueError, AttributeError):
        raise ValidationError("--cell", f"expected 'EXPERT_ID,ATTRIBUTE_ID', got {label!r}")


def _curve_rows(xs, *curves):
    """A row per x: x and each curve's value there, formatted in one `_fmts` call."""
    width = 1 + len(curves)
    texts = _fmts([float(v) for x in xs for v in (x, *(curve(x) for curve in curves))])
    return zip(*(texts[n::width] for n in range(width)))


def _cmd_elicit(config):
    doc = _load_json(config.input)
    problem, context, structures = load_document(doc)
    i, j = _find_cell(problem, config.cell)
    kij = int(problem.max_rank[i, j])
    structure = structures.cell(i, j)
    if structure.is_discrete and config.samples:
        raise ValidationError("--samples", "curve sampling applies to continuous cells")
    if config.dump_target or structure.is_discrete:
        _refuse_bound_mode(config, "--dump-target" if config.dump_target
                           else f"the discrete cell {config.cell}", "continuous density")
    xs = np.linspace(0.0, kij, (config.samples or 200) + 1)
    try:
        if config.dump_target and structure.is_discrete:
            target = surrogate_weights(structure, kij)
            rows = [("rank", "target"), *enumerate(_fmts(target.tolist()), start=1)]
        elif config.dump_target:
            target = target_density(structure, kij)
            rows = [("x", "target"), *_curve_rows(xs, target.value)]
        else:
            u, density = elicit_cell(structure, kij, context.cell(i, j), config.bound_mode)
            if config.samples:
                rows = [("x", "density", "cdf"), *_curve_rows(xs, density.value, density.cdf)]
            else:
                rows = [("rank", "utility"), *enumerate(_fmts(u.tolist()), start=1)]
    except DomainError as exc:   # a structure degenerate at this cell's size
        raise DomainError(f"--cell {config.cell}: {exc}") from exc
    _write_csv(rows, config.output)
    return 0


def _cmd_metrics(config):
    report = _load_json(config.input)
    if not isinstance(report, dict) or report.get("kind") != "solution":
        raise ValidationError(str(config.input), "expected a solution report document")
    try:
        solution = report_to_solution(report)
    except KeyError as exc:
        raise ValidationError(str(config.input), f"solution report lacks key {exc.args[0]!r}")
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise ValidationError(str(config.input), f"malformed solution report ({exc})")
    try:
        cons = consensus_report(solution)
    except DegenerateError as exc:
        raise DegenerateError(f"{config.input}: {exc}") from exc
    p = solution.problem
    _write_json({"kind": "consensus", **cons.to_dict(p)}, config.output)
    if config.csv_dir is not None:
        psd, kendall, lcl = (_fmts(a.tolist()) for a in (
            cons.psd_attributes, cons.kendall_alternatives, cons.lcl_alternatives))
        rows = [("section", "id", "psd", "kendall", "lcl", "label"),
                *zip(repeat("attributes"), p.attribute_ids, psd, kendall, lcl,
                     cons.label_alternatives),
                *(("alternatives", mid, text, "", "", "") for mid, text in
                  zip(p.alternative_ids, _fmts(cons.psd_alternatives.tolist())))]
        _write_csv(rows, _csv_dir(config.csv_dir) / "metrics.csv")
    return 0


def _cmd_sensitivity(config):
    if config.method == "opa":
        _refuse_bound_mode(config, "--method opa")
    doc = _load_json(config.input)
    problem, context, structures = load_document(doc)
    utilities = None
    if config.method == "gopa":
        utilities = elicit_utilities(problem, context, structures, config.bound_mode)
    stats = permutation_stats(problem, utilities)
    rows = [("section", "id", "mean", "skewness", "kurtosis", "cv", "min", "max")]
    for section in SECTIONS:
        texts = _fmts([v for _, st in stats[section] for v in (
            st.mean, st.skewness, st.kurtosis, st.cv, st.minimum, st.maximum)])
        rows += [(section, name, *texts[6 * q:6 * q + 6])
                 for q, (name, _) in enumerate(stats[section])]
    _write_csv(rows, config.output)
    if config.raw is not None:
        # only an id can need quoting, so each (section, id) is formatted once
        lines = ["scenario,section,id,weight\n"]
        for section in SECTIONS:
            keys = [_csv_line((section, name)) for name, _ in stats[section]]
            matrix = stats["raw"][section]
            lines += [f"{n},{key},{text}\n" for (n, key), text in zip(
                product(range(matrix.shape[0]), keys), _fmts(matrix.ravel().tolist()))]
        _write_text("".join(lines), config.raw)
    return 0


def _cmd_verify(config):
    doc = _load_json(config.input)
    problem, context, structures = load_document(doc)
    utilities = elicit_utilities(problem, context, structures, config.bound_mode)
    tol, checks = config.tol, []
    sol = solve_opa(problem)
    for name, objective, lp in (
            ("ordinal_lp_matches_formula", sol.objective, build_opa_lp(problem)),
            ("generalized_lp_matches_formula", solve_gopa(problem, utilities).objective,
             build_gopa_lp(problem, utilities))):
        res = solve_lp(lp)
        delta = abs(res.value - objective) if res.status == "optimal" else float("inf")
        checks.append({"name": name, "pass": delta <= tol, "delta": delta})
    # one certificate: its bound holds only with its residuals, which the first check reads
    delta, bound = verify_efficiency(sol)
    checks += [{"name": "stage2_min_slack_equals_objective", "pass": delta <= tol,
                "delta": delta},
               {"name": "stage2_rejects_inflated_objective",
                "pass": 1.1 * sol.objective > bound, "delta": delta}]
    ok = all(c["pass"] for c in checks)
    _write_json({"kind": "verify", "pass": ok, "checks": checks}, config.output)
    return 0 if ok else 1


def _flag_type(convert, accept, expected):
    """An argparse ``type`` that converts a flag's text and refuses what ``accept`` rejects."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_finite_positive_float = _flag_type(float, lambda x: 0 < x < float("inf"),
                                   "a finite positive number")
_positive_int = _flag_type(int, lambda n: n >= 1, "an integer >= 1")


@cache   # built once per process: parse_args leaves the parser unchanged
def _parser():
    parser = argparse.ArgumentParser(prog="gopa",
                                     description="Ordinal weight elicitation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, elicits=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("input", help="input document (JSON)")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        if elicits:
            p.add_argument("--bound-mode", default=None,
                           choices=("equality", "inequality"), dest="bound_mode")
        return p

    p = command("solve", _cmd_solve, "full pipeline: elicit utilities, then weights")
    p.add_argument("--csv", dest="csv_dir", default=None,
                   help="directory for weights.csv and utilities.csv")

    p = command("opa", _cmd_solve, "weights from rankings alone", elicits=False)
    p.add_argument("--csv", dest="csv_dir", default=None)

    p = command("elicit", _cmd_elicit, "first-stage utilities of one cell")
    p.add_argument("--cell", required=True, help="EXPERT_ID,ATTRIBUTE_ID")
    p.add_argument("--samples", type=_positive_int, default=None,
                   help="sample the solved density curve at N+1 points")
    p.add_argument("--dump-target", action="store_true", dest="dump_target",
                   help="emit the target structure instead of solving")

    p = command("metrics", _cmd_metrics, "consensus report from a solution report",
                elicits=False)
    p.add_argument("--csv", dest="csv_dir", default=None)

    p = command("sensitivity", _cmd_sensitivity, "expert-rank permutation statistics (CSV)")
    p.add_argument("--method", default="gopa", choices=("gopa", "opa"))
    p.add_argument("--raw", default=None, help="also write per-scenario weights here")

    p = command("verify", _cmd_verify,
                "closed forms against their LPs, and stage-2 efficiency")
    p.add_argument("--tol", type=_finite_positive_float, default=1e-8)
    return parser


def main(argv=None):
    """Run one subcommand; returns the process exit code."""
    try:
        config = _parser().parse_args(argv)
    except SystemExit as exc:   # a bad flag (2) or --help (0); argparse printed why
        return exc.code
    try:
        return config.handler(config)
    except InfeasibleContext as exc:
        print(f"infeasible preference context: {exc}", file=sys.stderr)
        return 3
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (ValidationError, DomainError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except GopaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
