"""Output checks for every benchmark op and for every elicited cell.

An op's check returns None when its output is right and a short reason when
it is not.  Outputs are the files the CLI wrote, read back after the timed
region.
"""

import csv
import io
import json

import numpy as np

TOL = 1e-9
SECTIONS = ("experts", "attributes", "alternatives")


def _weight_sums(report):
    for section in SECTIONS:
        weights = np.array(list(report[section].values()), dtype=float)
        if (weights < -TOL).any():
            return f"negative {section} weight"
        if abs(weights.sum() - 1.0) > TOL:
            return f"{section} weights sum to {weights.sum()!r}"
    return None


def check_weights(data):
    report = json.loads(data)
    if report.get("kind") != "solution":
        return "not a solution report"
    return _weight_sums(report)


def independence_sections(doc):
    """Report sections on which `solve` must equal `opa` for this document.

    The paper's independence property: with every cell ranking each of its
    ranks once, expert and attribute weights do not depend on the elicited
    utilities.  With rank order centroid targets and no contexts the
    utilities equal the ordinal coefficients, so every section matches.
    """
    plain = not doc.get("contexts") and "structures" not in doc
    if plain:
        return SECTIONS
    for cells in doc["alternative_ranks"].values():
        for cell in cells.values():
            ranks = sorted(cell.values())
            if ranks != list(range(1, len(ranks) + 1)):
                return ()
    return ("experts", "attributes")


def check_independence(solve_data, opa_data, sections):
    solve, opa = json.loads(solve_data), json.loads(opa_data)
    for section in sections:
        for name, value in solve[section].items():
            if abs(value - opa[section][name]) > TOL:
                return f"solve and opa {section} weight of {name} differ"
    return None


def check_consensus(data):
    report = json.loads(data)
    if report.get("kind") != "consensus":
        return "not a consensus report"
    if not 0.0 <= report["gcl"] <= 1.0:
        return f"global consensus level {report['gcl']!r} outside [0, 1]"
    return None


def check_sensitivity(data):
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    means = [float(r["mean"]) for r in rows if r["section"] == "experts"]
    if not means or abs(sum(means) - 1.0) > TOL:
        return f"mean expert weights sum to {sum(means)!r}"
    return None


def check_verify(data):
    return None if json.loads(data).get("pass") is True else "verify did not pass"


def discrete_cell_residual(args, utilities):
    """KKT residual of one elicited discrete cell, called as (target, ctx, size)."""
    from gopa.elicit_discrete import kkt_residual_discrete
    target, ctx, _ = args
    return kkt_residual_discrete(utilities, target, ctx)


def continuous_cell_residual(args, kwargs, density):
    """Largest miss of one continuous cell's cumulative constraints.

    Called as (target, ctx, size, bound_mode=...): F(size) = 1, ratios
    F(r) = alpha F(r - 1), differences F(r) - F(r - 1) = beta, and lower
    bounds F(r) = gamma (or F(r) >= gamma when bounds are floors).
    """
    _, ctx, size = args[:3]
    floors = kwargs.get("bound_mode", "equality") == "inequality"
    cdf = density.cdf
    gaps = [abs(cdf(float(size)) - 1.0)]
    gaps += [abs(cdf(float(r)) - alpha * cdf(r - 1.0)) for r, alpha in ctx.ratio]
    gaps += [abs(cdf(float(r)) - cdf(r - 1.0) - beta) for r, beta in ctx.absdiff]
    for r, gamma in ctx.lowerbound:
        miss = gamma - cdf(float(r))
        gaps.append(max(miss, 0.0) if floors else abs(miss))
    return max(gaps)
