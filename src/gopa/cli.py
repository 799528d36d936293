"""Command-line front end.

Subcommands: ``solve`` (full two-stage pipeline), ``opa`` (rankings only),
``elicit`` (first stage of one cell), ``metrics`` (consensus report from a
solution report), ``sensitivity`` (expert-rank permutation sweep), ``verify``
(closed forms against the LP solver); each has only the flags it reads.
``--bound-mode`` exits 2 where a run elicits no utilities (``verify --random``,
``sensitivity --method opa``) or no continuous density (a document of
discrete cells only, ``elicit`` on a discrete cell or with ``--dump-target``).
Reports are deterministic: sorted keys, two-space indent except for a leaf
list of floats and nulls, which takes one line, ASCII-escaped strings, and
each float rounded to 12 significant digits and written as the shortest
string that reads back as the rounded value; NaN and infinities are written
``NaN`` and ``(-)Infinity``.  Solution reports are format 3, without the
``rank_weights`` of format 2; their cell weights arrive as `JsonText` leaves,
rendered in one pass by `pipeline.solution_report`, and the writer copies
them as they are.

Exit codes: 0 success, 1 failed verification, 2 validation error,
3 infeasible preference context, 4 numeric failure.  Exit 2 also covers an
input that cannot be read (a directory, not UTF-8), an output path that
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
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .exceptions import (
    DegenerateError,
    DomainError,
    GopaError,
    InfeasibleContext,
    InfeasibleStage2,
    NumericFailure,
    ValidationError,
)
from .lpcheck import build_gopa_lp, build_opa_lp, solve_lp, verify_efficiency
from .metrics import consensus_report
from .model import load_document
from .pipeline import (
    JsonText,
    _float_texts,
    _leaf,
    _leaf_texts,
    elicit_cell,
    elicit_utilities,
    report_to_solution,
    solution_report,
    solve_document,
)
from .sensitivity import permutation_stats
from .solver import solve_gopa, solve_opa
from .structures import surrogate_weights, target_density


def _fmt(x):
    return format(float(x), ".12g")


def _fmts(values):
    """`_fmt` of each of a list of floats, formatted in one ``%`` call."""
    return (",".join(["%.12g"] * len(values)) % tuple(values)).split(",")


def _report_text(obj, nl="\n", rows=None):
    """Indented JSON text of a report, floats at 12 significant digits.

    The layout is that of ``json.dumps(obj, indent=2, sort_keys=True)``
    (ASCII-escaped strings, ``NaN``/``Infinity``, tuples as lists, numpy
    scalars as their Python values), except that a leaf list, one whose
    items are all Python floats or None, is written on one line by
    `pipeline._leaf`, its floats formatted in one `_float_texts` call; a
    `JsonText` is copied as it is.  ``nl`` is the newline plus the indent
    of the current nesting level.

    The top-level call makes one memo and passes it down the recursion; it
    is dropped when the call returns, so no state carries over to the next
    report.  ``rows`` maps a dict's sorted key tuple and ``nl`` to its ``%``
    template, keys encoded and ``%`` escaped, so each distinct key row at
    each depth is encoded once.
    """
    if rows is None:
        rows = {}
    if isinstance(obj, str):
        return obj if type(obj) is JsonText else encode_basestring_ascii(obj)
    if isinstance(obj, float):
        return _float_texts([obj])[0]
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = tuple(sorted(obj))
        template = rows.get((keys, nl))
        if template is None:
            inner = nl + "  "
            items = [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys]
            template = rows[keys, nl] = "{" + inner + ("," + inner).join(items) + nl + "}"
        return template % tuple(_item_texts([obj[k] for k in keys], nl + "  ", rows))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if {*map(type, obj)} <= _LEAF_TYPES:
            return _leaf(_leaf_texts(obj))
        inner = nl + "  "
        texts = [_report_text(v, inner, rows) for v in obj]
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _report_text(obj.item(), nl, rows)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_LEAF_TYPES = {float, type(None)}


def _item_texts(values, nl, rows):
    """Texts of a dict's values; floats and Nones alone are formatted in one call."""
    if {*map(type, values)} <= _LEAF_TYPES:
        return _leaf_texts(values)
    return [_report_text(v, nl, rows) for v in values]


def _write_text(text, path):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValidationError(str(path), f"cannot write output ({exc.strerror})")


def _write_json(doc, path):
    _write_text(_report_text(doc) + "\n", path)


def _write_csv(rows, path):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    _write_text(buf.getvalue(), path)


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


def _weights_csv(report):
    rows = [("section", "id", "weight")]
    for section in ("experts", "attributes", "alternatives"):
        for name in report["ids"][section]:
            rows.append((section, name, _fmt(report[section][name])))
    return rows


def _utilities_csv(report):
    rows = [("expert", "attribute", "rank", "utility")]
    distinct, cells = report["utilities"]["distinct"], report["utilities"]["cells"]
    for eid in report["ids"]["experts"]:
        for aid in report["ids"]["attributes"]:
            for r, u in enumerate(distinct[cells[eid][aid]], start=1):
                rows.append((eid, aid, r, _fmt(u)))
    return rows


def _refuse_bound_mode(config, option, unread="utilities"):
    """``--bound-mode`` is an error where ``option`` elicits no continuous density."""
    if config.bound_mode is not None:
        raise ValidationError("--bound-mode", f"not read with {option}, which elicits "
                                              f"no {unread}")


def _cmd_solve(config):
    doc = _load_json(config.input)
    if config.command == "opa":
        report = solution_report(solve_document(doc, method="opa"))
    else:
        solution = solve_document(doc, bound_mode=config.bound_mode)
        report = solution_report(solution, config.bound_mode)
    _write_json(report, config.output)
    if config.csv_dir is not None:
        out = _csv_dir(config.csv_dir)
        _write_csv(_weights_csv(report), out / "weights.csv")
        if "utilities" in report:
            _write_csv(_utilities_csv(report), out / "utilities.csv")
    return 0


def _find_cell(problem, label):
    try:
        eid, aid = (part.strip() for part in label.split(","))
        return problem.expert_ids.index(eid), problem.attribute_ids.index(aid)
    except (ValueError, AttributeError):
        raise ValidationError("--cell", f"expected 'EXPERT_ID,ATTRIBUTE_ID', got {label!r}")


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
    if config.dump_target and structure.is_discrete:
        target = surrogate_weights(structure, kij)
        rows = [("rank", "target")] + [(r + 1, _fmt(v)) for r, v in enumerate(target)]
    elif config.dump_target:
        target = target_density(structure, kij)
        rows = [("x", "target")] + [(_fmt(x), _fmt(target.value(x))) for x in xs]
    else:
        u, density = elicit_cell(structure, kij, context.cell(i, j), config.bound_mode)
        if config.samples:
            rows = [("x", "density", "cdf")]
            rows += [(_fmt(x), _fmt(density.value(x)), _fmt(density.cdf(x))) for x in xs]
        else:
            rows = [("rank", "utility")] + [(r + 1, _fmt(v)) for r, v in enumerate(u)]
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
    out = {"kind": "consensus", **cons.to_dict(solution.problem)}
    _write_json(out, config.output)
    if config.csv_dir is not None:
        rows = [("section", "id", "psd", "kendall", "lcl", "label")]
        for j, aid in enumerate(solution.problem.attribute_ids):
            rows.append(("attributes", aid, _fmt(cons.psd_attributes[j]),
                         _fmt(cons.kendall_alternatives[j]),
                         _fmt(cons.lcl_alternatives[j]), cons.label_alternatives[j]))
        for k, mid in enumerate(solution.problem.alternative_ids):
            rows.append(("alternatives", mid, _fmt(cons.psd_alternatives[k]), "", "", ""))
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
    for section in ("experts", "attributes", "alternatives"):
        texts = _fmts([v for _, st in stats[section] for v in (
            st.mean, st.skewness, st.kurtosis, st.cv, st.minimum, st.maximum)])
        rows += [(section, name, *texts[6 * q:6 * q + 6])
                 for q, (name, _) in enumerate(stats[section])]
    _write_csv(rows, config.output)
    if config.raw is not None:
        raw_rows = [("scenario", "section", "id", "weight")]
        for section in ("experts", "attributes", "alternatives"):
            ids = [name for name, _ in stats[section]]
            matrix = stats["raw"][section]
            scenarios = [n for n in range(matrix.shape[0]) for _ in ids]
            raw_rows += zip(scenarios, repeat(section), ids * matrix.shape[0],
                            _fmts(matrix.ravel().tolist()))
        _write_csv(raw_rows, config.raw)
    return 0


def _check_instance(problem, utilities, tol):
    checks = []
    sol = solve_opa(problem)
    for name, objective, lp in (
            ("ordinal_lp_matches_formula", sol.objective, build_opa_lp(problem)),
            ("generalized_lp_matches_formula", solve_gopa(problem, utilities).objective,
             build_gopa_lp(problem, utilities))):
        res = solve_lp(lp)
        delta = abs(res.value - objective) if res.status == "optimal" else float("inf")
        checks.append({"name": name, "pass": delta <= tol, "delta": delta})
    if not problem.has_internal_gaps:
        # the efficiency program is unbounded at z* when a cell skips rank 1
        # (other gaps leave it optimal), so it runs on gap-free documents only
        eff = verify_efficiency(problem, sol.objective)
        slack_delta = abs(eff.min_slack - sol.objective)
        checks.append({"name": "stage2_min_slack_equals_objective",
                       "pass": slack_delta <= tol, "delta": slack_delta})
        try:
            verify_efficiency(problem, sol.objective * 1.1)
            rejected = False
        except InfeasibleStage2:
            rejected = True
        checks.append({"name": "stage2_rejects_inflated_objective", "pass": rejected,
                       "delta": 0.0})
    return checks


def _random_document(rng):
    n_e = int(rng.integers(1, 4))
    n_a = int(rng.integers(1, 4))
    n_m = int(rng.integers(2, 7))
    experts = [{"id": f"E{i+1}", "rank": int(r)}
               for i, r in enumerate(rng.permutation(n_e) + 1)]
    attributes = [f"C{j+1}" for j in range(n_a)]
    alternatives = [f"A{k+1}" for k in range(n_m)]
    attribute_ranks = {e["id"]: {a: int(r) for a, r in
                                 zip(attributes, rng.permutation(n_a) + 1)}
                       for e in experts}
    alternative_ranks = {}
    for e in experts:
        alternative_ranks[e["id"]] = {}
        for a in attributes:
            if rng.random() < 0.4:
                present = sorted(rng.choice(n_m, size=int(rng.integers(1, n_m + 1)),
                                            replace=False))
                ranks = {alternatives[k]: int(rng.integers(1, n_m + 1)) for k in present}
            else:
                ranks = {alt: int(r) for alt, r in
                         zip(alternatives, rng.permutation(n_m) + 1)}
            alternative_ranks[e["id"]][a] = ranks
    return {"experts": experts, "attributes": attributes,
            "alternatives": alternatives, "attribute_ranks": attribute_ranks,
            "alternative_ranks": alternative_ranks}


def _random_utilities(problem, rng):
    utilities = np.zeros(problem.rank_counts.shape)
    for i, j in problem.cells():
        kij = int(problem.max_rank[i, j])
        u = np.sort(rng.random(kij))[::-1] + 1e-3
        utilities[i, j, :kij] = u / u.sum()
    return utilities


def _cmd_verify(config):
    summary = {"kind": "verify", "instances": []}
    if config.random:
        _refuse_bound_mode(config, "--random")
        if config.input is not None:
            raise ValidationError("input", "not read with --random, which checks "
                                           "generated instances")
        rng = np.random.default_rng(config.seed or 0)
        for n in range(config.random):
            problem, _, _ = load_document(_random_document(rng))
            checks = _check_instance(problem, _random_utilities(problem, rng), config.tol)
            summary["instances"].append({"instance": f"random-{n}", "checks": checks})
    else:
        if config.seed is not None:
            raise ValidationError("--seed", "only read with --random")
        if config.input is None:
            raise ValidationError("input", "verify needs an input file or --random N")
        doc = _load_json(config.input)
        problem, context, structures = load_document(doc)
        utilities = elicit_utilities(problem, context, structures, config.bound_mode)
        checks = _check_instance(problem, utilities, config.tol)
        summary["instances"].append({"instance": str(config.input), "checks": checks})
    ok = all(c["pass"] for inst in summary["instances"] for c in inst["checks"])
    summary["pass"] = ok
    _write_json(summary, config.output)
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
_nonnegative_int = _flag_type(int, lambda n: n >= 0, "an integer >= 0")


@cache   # built once per process: parse_args leaves the parser unchanged
def _parser():
    parser = argparse.ArgumentParser(prog="gopa",
                                     description="Ordinal weight elicitation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, needs_input=True, elicits=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if needs_input:
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

    p = command("verify", _cmd_verify, "closed forms against the LP solver", needs_input=False)
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--random", type=_positive_int, default=None, metavar="N",
                   help="check N random instances instead of an input file")
    p.add_argument("--seed", type=_nonnegative_int, default=None,
                   help="seed of the --random instances (default 0)")
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
