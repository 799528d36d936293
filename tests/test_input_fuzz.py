"""Type fuzz of the input boundary: every node of a small input document or
solution report is replaced by a value of another type, and the CLI must end
each run with an exit code instead of a traceback."""

import copy
import json
import math
import os

from gopa.cli import main

# 3 experts x 2 attributes x 3 alternatives, with every kind of section entry:
# an excluded alternative, a tied rank, all three constraint kinds and
# parameterized discrete and continuous structures.
DOCUMENT = {
    "experts": [{"id": "E1", "rank": 1}, {"id": "E2", "rank": 2}, {"id": "E3", "rank": 3}],
    "attributes": ["C1", "C2"],
    "alternatives": ["A1", "A2", "A3"],
    "attribute_ranks": {"E1": {"C1": 1, "C2": 2}, "E2": {"C1": 2, "C2": 1},
                        "E3": {"C1": 1, "C2": 1}},
    "alternative_ranks": {
        "E1": {"C1": {"A1": 1, "A2": 2, "A3": 3}, "C2": {"A1": 2, "A2": 1, "A3": 3}},
        "E2": {"C1": {"A1": 3, "A2": 1, "A3": 2}, "C2": {"A1": 1, "A2": 2}},
        "E3": {"C1": {"A1": 1, "A2": 1, "A3": 2}, "C2": {"A1": 3, "A2": 2, "A3": 1}},
    },
    "contexts": {"E1": {"C1": {"ratio": [{"rank": 1, "alpha": 1.2}],
                               "absdiff": [{"rank": 2, "beta": 0.05}]}},
                 "E2": {"C1": {"lowerbound": [{"rank": 1, "gamma": 0.2}]}}},
    "structures": {
        "default": {"kind": "rs"},
        "cells": {"E1": {"C2": {"kind": "ref", "exponent": 1.5}},
                  "E2": {"C1": {"kind": "hara", "alpha": 2.0, "beta": 1.0, "gamma": 1.5}},
                  "E3": {"C2": {"kind": "crra", "alpha": 1.0, "gamma": 0.5}}},
    },
}

VALUES = (None, True, "x", [], {}, 5, -1, 0.5, math.nan, math.inf)

# the parts of a solution report that `metrics` reads
REPORT_KEYS = ("kind", "format", "ids", "objective", "experts", "attributes", "alternatives",
               "cell_weights")


def _nodes(obj, path=()):
    """Paths of every value below ``obj``, depth first."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


def _mutants(doc, paths):
    for path in paths:
        for value in VALUES:
            mutant = copy.deepcopy(doc)
            holder = mutant
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]] = value
            yield f"{'.'.join(map(str, path))} = {value!r}", mutant


def _run(argv):
    """Exit code of one run, or the name of the exception it raised."""
    try:
        return main(argv)
    except (Exception, SystemExit) as exc:   # main must not let SystemExit escape either
        return type(exc).__name__


def test_document_fuzz_exits_cleanly(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(DOCUMENT))
    assert main(["solve", str(path), "-o", os.devnull]) == 0
    bad = []
    for name, mutant in _mutants(DOCUMENT, list(_nodes(DOCUMENT))):
        path.write_text(json.dumps(mutant))
        code = _run(["solve", str(path), "-o", os.devnull])
        if code not in (0, 2, 3, 4):
            bad.append(f"{name}: {code}")
    assert not bad, f"{len(bad)} runs without a clean exit: {bad[:10]}"


def test_report_fuzz_exits_cleanly_without_nonfinite_consensus(tmp_path):
    doc_path, report_path = tmp_path / "doc.json", tmp_path / "report.json"
    out = tmp_path / "consensus.json"
    doc_path.write_text(json.dumps(DOCUMENT))
    assert main(["solve", str(doc_path), "-o", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    paths = [p for p in _nodes(report) if p[0] in REPORT_KEYS]
    bad = []
    for name, mutant in _mutants(report, paths):
        report_path.write_text(json.dumps(mutant))
        out.unlink(missing_ok=True)
        code = _run(["metrics", str(report_path), "-o", str(out)])
        if code not in (0, 2):
            bad.append(f"{name}: {code}")
        elif code == 0 and ("NaN" in out.read_text() or "Infinity" in out.read_text()):
            bad.append(f"{name}: exit 0 with a non-finite consensus")
    assert not bad, f"{len(bad)} runs: {bad[:10]}"
