"""End-to-end orchestration: validate, elicit per cell, solve, report."""

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import numpy as np

from .elicit_continuous import cumulative_utilities, elicit_continuous
from .elicit_discrete import elicit_discrete
from .exceptions import DomainError, InfeasibleContext, NumericFailure, ValidationError
from .model import load_document
from .solver import WeightSolution, solve_gopa, solve_opa
from .structures import surrogate_weights, target_density


def elicit_utilities(problem, context, structures, bound_mode=None):
    """Run the first stage for every cell.

    Returns a read-only padded (I, J, K) array: cell (i, j)'s per-rank
    utilities in ``[i, j, :max_rank[i, j]]``, 0 beyond.  Cells that share
    their validated (structure, size, context) are solved once per call.
    Errors from a cell are re-raised with the first offending cell (in
    ``problem.cells()`` order) named.  ``bound_mode=None`` means not given;
    a given one raises `ValidationError` before any solve when every cell is
    discrete, as no continuous density then reads it.
    """
    keys = [((i, j), (structures.cell(i, j), int(problem.max_rank[i, j]), context.cell(i, j)))
            for i, j in problem.cells()]
    if bound_mode is not None and all(key[0].is_discrete for _, key in keys):
        raise ValidationError("--bound-mode", "not read with a document whose cells are "
                                              "all discrete, which elicits no continuous density")
    # local to the call: a process-wide cache would grow with every document
    solved = {}
    utilities = np.zeros(problem.rank_counts.shape)
    for (i, j), key in keys:
        u = solved.get(key)
        if u is None:
            try:
                u = solved[key] = elicit_cell(*key, bound_mode)[0]
            except (InfeasibleContext, NumericFailure, DomainError) as exc:
                eid, aid = problem.expert_ids[i], problem.attribute_ids[j]
                raise type(exc)(f"cell ({eid}, {aid}): {exc}") from exc
        utilities[i, j, :u.size] = u
    utilities.setflags(write=False)
    return utilities


def elicit_cell(structure, size, ctx, bound_mode=None):
    """First stage of one cell: ``(utilities, density)``.

    The utilities are nonincreasing in rank and sum to 1.  A
    discrete structure projects its surrogate weights and has no density; a
    continuous one solves its `PiecewiseDensity` (``bound_mode`` None reads
    as ``"equality"``) and maps it to ranks with `cumulative_utilities`.
    """
    if structure.is_discrete:
        u = elicit_discrete(surrogate_weights(structure, size), ctx, size)
        density = None
    else:
        density = elicit_continuous(target_density(structure, size), ctx, size,
                                    bound_mode=bound_mode or "equality")
        u = cumulative_utilities(density)
    return u, density


def solve_document(doc, method="gopa", bound_mode=None):
    """Validate a document and run the selected pipeline; returns the `WeightSolution`.

    ``method="opa"`` ignores contexts and structures and uses rankings alone;
    ``method="gopa"`` elicits utilities per cell first (they are in
    ``solution.utilities``).
    """
    problem, context, structures = load_document(doc)
    if method == "opa":
        return solve_opa(problem)
    if method != "gopa":
        raise ValueError(f"unknown method {method!r}")
    return solve_gopa(problem, elicit_utilities(problem, context, structures,
                                                bound_mode=bound_mode))


REPORT_FORMAT = 3
SECTIONS = ("experts", "attributes", "alternatives")


class JsonText(str):
    """Report text that `report_text` copies as it is: a leaf list already rendered."""


def _float_texts(values):
    """JSON texts of floats rounded to 12 significant digits, formatted in one call.

    A 12-digit decimal is its own shortest round-trip string, so ``%.12g``
    is the answer, with ``.0`` appended when it has neither a point nor an
    exponent.  The exceptions take the exact route through the rounded
    float: NaN and infinities, anything ``%g`` writes with a positive
    exponent (``repr`` switches to exponents only at 1e16, and
    ``999999999999.5`` rounds up to ``1e+12``), and exponents that start with
    ``e-3``, which include the subnormals' (their shortest string can be
    shorter than 12 digits: ``5e-324`` formats as ``4.94065645841e-324``).
    """
    if not values:
        return []
    text = ",".join(["%.12g"] * len(values)) % tuple(values)
    texts = text.split(",")
    if (text.count(".") == len(texts) and "n" not in text and "e+" not in text
            and "e-3" not in text):
        return texts
    exact = []
    for s in texts:
        if "n" in s or "e+" in s or "e-3" in s:
            s = json.dumps(float(s))
        elif "." not in s and "e" not in s:
            s += ".0"
        exact.append(s)
    return exact


def _leaf_texts(values):
    """Texts of floats and Nones: the floats in one `_float_texts` call, None as ``null``."""
    texts = iter(_float_texts([v for v in values if v is not None]))
    return ["null" if v is None else next(texts) for v in values]


def _leaf(texts):
    """A leaf list, one whose items are all floats or nulls, from its item
    texts: written on one line, ``[a, b, null]``."""
    return JsonText("[" + ", ".join(texts) + "]")


_LEAF_TYPES = {float, type(None)}


def report_text(obj, nl="\n"):
    """Indented JSON text of a report, floats at 12 significant digits.

    The layout is that of ``json.dumps(obj, indent=2, sort_keys=True)``
    (ASCII-escaped strings, ``NaN``/``Infinity``, tuples as lists, numpy
    scalars as their Python values), except that a leaf list, one whose
    items are all Python floats or None, is written on one line by `_leaf`,
    its floats formatted in one `_float_texts` call; a `JsonText` is copied
    as it is.  ``nl`` is the newline plus the indent of the current nesting
    level.
    """
    if isinstance(obj, str):
        return obj if type(obj) is JsonText else encode_basestring_ascii(obj)
    if isinstance(obj, float):
        return _float_texts([obj])[0]
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj)
        inner = nl + "  "
        items = [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys]
        template = "{" + inner + ("," + inner).join(items) + nl + "}"
        return template % tuple(_item_texts([obj[k] for k in keys], inner))
    if isinstance(obj, (list, tuple)):
        if {*map(type, obj)} <= _LEAF_TYPES:   # an empty list too
            return _leaf(_leaf_texts(obj))
        inner = nl + "  "
        return "[" + inner + ("," + inner).join(_item_texts(obj, inner)) + nl + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return report_text(obj.item(), nl)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _item_texts(values, nl):
    """Texts of a dict's values or a list's items; floats and Nones alone are
    formatted in one call."""
    if {*map(type, values)} <= _LEAF_TYPES:
        return _leaf_texts(values)
    return [report_text(v, nl) for v in values]


def solution_report(solution, bound_mode=None):
    """The solution report text: what ``gopa solve`` and ``gopa opa`` write,
    without the trailing newline.  ``json.loads`` of it is the document
    `report_to_solution` reads.

    ``method`` is ``"gopa"`` for a solution with utilities, else ``"opa"``;
    ``bound_mode`` (None reads as ``"equality"``) is written only into a
    report that holds utilities.  In format 3 ``cell_weights[eid][aid]`` is
    a list in ``ids.alternatives`` order, ``null`` where the cell excludes
    the alternative.  The report holds no ``rank_weights`` (format 2 did):
    library users read `WeightSolution.rank_weights`.  ``utilities`` holds
    each distinct cell vector once and maps each cell to its index.
    """
    p = solution.problem
    report = {
        "kind": "solution",
        "format": REPORT_FORMAT,
        "method": "opa" if solution.utilities is None else "gopa",
        "objective": float(solution.objective),
        "ids": {
            "experts": list(p.expert_ids),
            "attributes": list(p.attribute_ids),
            "alternatives": list(p.alternative_ids),
        },
        "experts": dict(zip(p.expert_ids, solution.expert_weights.tolist())),
        "attributes": dict(zip(p.attribute_ids, solution.attribute_weights.tolist())),
        "alternatives": dict(zip(p.alternative_ids, solution.alternative_weights.tolist())),
        "cell_weights": _cell_leaves(p, solution.weights),
        "flags": {
            "gap_free": bool(p.gap_free),
            "has_exclusions": bool(solution.exclusions_flagged),
            "weight_sums": {
                "experts": float(solution.expert_weights.sum()),
                "attributes": float(solution.attribute_weights.sum()),
                "alternatives": float(solution.alternative_weights.sum()),
            },
        },
    }
    if solution.utilities is not None:
        report["bound_mode"] = bound_mode or "equality"
        report["utilities"] = _distinct_utilities(p, solution.utilities)
    return report_text(report)


def _cell_leaves(problem, weights):
    """``{eid: {aid: leaf}}`` of a padded (I, J, K) weight array, ``null`` where the
    cell excludes the alternative.  The distinct bit patterns of the held weights are
    formatted in one `_float_texts` call, so ``-0.0`` and ``0.0`` keep their own texts.
    Its temporaries are freed when it returns, before `report_text` runs."""
    held = problem.alternative_ranks > 0
    bits, inverse = np.unique(weights[held].view(np.uint64), return_inverse=True)
    texts = np.array(_float_texts(bits.view(np.float64).tolist()), dtype=object)
    cell_texts = np.full(held.shape, "null", dtype=object)
    cell_texts[held] = texts[inverse]
    return {eid: dict(zip(problem.attribute_ids, map(_leaf, row)))
            for eid, row in zip(problem.expert_ids, cell_texts.tolist())}


def _distinct_utilities(problem, padded):
    """``{"distinct": [...], "cells": {eid: {aid: index}}}`` of a padded (I, J, K)
    array: each distinct cell vector once, in first-appearance order over
    ``problem.cells()``, keyed by its exact bytes (so cells of different
    sizes never share one)."""
    index, distinct = {}, []
    cells = {eid: {} for eid in problem.expert_ids}
    for i, j in problem.cells():
        u = padded[i, j, :problem.max_rank[i, j]]
        n = index.setdefault(u.tobytes(), len(distinct))
        if n == len(distinct):
            distinct.append(u.tolist())
        cells[problem.expert_ids[i]][problem.attribute_ids[j]] = n
    return {"distinct": distinct, "cells": cells}


def report_to_solution(report):
    """Rebuild a weight solution from a format-3 report document (for
    diagnostics); its ``problem`` holds only the three id tuples, its ``rank_weights``
    is None, as the report holds none, and it flags exclusions where a weight is null.

    Raises `ValueError` naming the field, section or cell for a format
    other than the integer 3, a duplicate id, keys that differ from the ids,
    a cell list of the wrong length, a weight that is not a finite number or
    None (excluded), or an objective that is not a finite number.
    """
    ids = report["ids"]
    fmt = report.get("format", 1)   # format 1 had no "format" key
    if type(fmt) is not int or fmt != REPORT_FORMAT:
        raise ValueError(f"report format {fmt!r}; this version reads format {REPORT_FORMAT}")
    experts, attributes, alternatives = (_unique_ids(ids, section) for section in SECTIONS)
    for section, names in zip(SECTIONS, (experts, attributes, alternatives)):
        _check_keys(section, report[section], names, section)
    rows = report["cell_weights"]
    _check_keys("cell_weights", rows, experts, "experts")
    cells = []
    for eid in experts:
        _check_keys(f"cell_weights.{eid}", rows[eid], attributes, "attributes")
        for aid in attributes:
            cell = rows[eid][aid]
            if type(cell) is not list or len(cell) != len(alternatives):
                raise ValueError(f"cell_weights.{eid}.{aid}: expected a list of "
                                 f"{len(alternatives)} weights, one per alternative")
            cells.append(cell)
    read = _read_weights(list(chain.from_iterable(cells)))
    if read is None:
        c = next(c for c, cell in enumerate(cells) if _read_weights(cell) is None)
        raise ValueError(f"cell_weights.{experts[c // len(attributes)]}."
                         f"{attributes[c % len(attributes)]}: weights must be finite "
                         "numbers or null (excluded)")
    weights, excluded = read
    weights = weights.reshape(len(experts), len(attributes), len(alternatives))
    objective = report["objective"]
    # `_read_weights` reads a null as 0, which an objective may not be
    if objective is None or _read_weights([objective]) is None:
        raise ValueError("objective: expected a finite number")
    return WeightSolution(
        problem=SimpleNamespace(expert_ids=experts, attribute_ids=attributes,
                                alternative_ids=alternatives),
        objective=float(objective),
        rank_weights=None,
        weights=weights,
        exclusions_flagged=excluded,
    )


def _read_weights(values):
    """``values`` as a float array with None read as 0, and whether a None is there;
    or None unless each value is an int, a float or None and each number is finite."""
    # by type too: np.array(..., dtype=float) reads a text "0.5" or true as a number
    if not set(map(type, values)) <= {int, float, type(None)}:
        return None
    try:
        read = np.array(values, dtype=float)   # None reads as NaN
    except OverflowError:   # an int beyond the float range
        return None
    nonfinite = ~np.isfinite(read)
    if nonfinite.sum() != values.count(None):
        return None
    read[nonfinite] = 0.0
    return read, bool(nonfinite.any())


def _unique_ids(ids, section):
    names = ids[section]
    if type(names) is not list:
        raise ValueError(f"ids.{section}: expected a list of ids")
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"ids.{section}: duplicate id {name!r}")
        seen.add(name)
    return tuple(names)


def _check_keys(where, obj, names, section):
    """``obj`` must be an object keyed by exactly ``names`` (the ids of ``section``)."""
    if type(obj) is not dict:
        raise ValueError(f"{where}: expected an object keyed by ids.{section}")
    if obj.keys() != set(names):
        unknown = sorted(obj.keys() - set(names))
        missing = [name for name in names if name not in obj]
        raise ValueError(f"{where}: keys differ from ids.{section} "
                         f"(unknown {unknown}, missing {missing})")
