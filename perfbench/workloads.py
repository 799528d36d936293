"""Seeded input documents for the benchmark workloads.

Everything here depends only on numpy and the seed: the generator does not
import the package under test or its test helpers, so editing either cannot
shift the inputs.  Document ``n`` of a kind is drawn from its own stream
``default_rng([seed, kind tag, n])``, so one seed always yields the same
documents in the same order.

A run works on a fixed pool of items drawn from the seed and loops over it
until its time is up, so every item is measured several times.  Pools are
stratified: the shares of document sizes, structure families and context
sizes are the same for every seed, and only the drawn values differ.
"""

from dataclasses import dataclass

import numpy as np

# Structure families as they appear in a document's ``structures`` section:
# the six discrete surrogates, then the five continuous densities.
FAMILIES = (
    {"kind": "rs"},
    {"kind": "ref"},
    {"kind": "rr"},
    {"kind": "sr"},
    {"kind": "roc"},
    {"kind": "uniform"},
    {"kind": "neutral"},
    {"kind": "hara", "alpha": 2.0, "beta": 1.0, "gamma": 1.5},
    {"kind": "crra", "alpha": 1.0, "gamma": 0.5},
    {"kind": "cara", "a": 0.6},
    {"kind": "sshape", "steepness": 1.0},
)
DISCRETE = {"rs", "ref", "rr", "sr", "roc", "uniform"}

MAX_CONSTRAINTS = 4

_TAGS = {"case_mix": 1, "wide_ordinal": 2, "sweep": 3, "verify": 4}


def _rng(seed, tag, n):
    return np.random.default_rng([seed, _TAGS[tag], n])


def _ids(prefix, count):
    return [f"{prefix}{n + 1}" for n in range(count)]


def _rankings(rng, n_experts, n_attributes, n_alternatives, irregular_share=0.0):
    """Expert, attribute and alternative rankings of one document.

    A cell is irregular with probability ``irregular_share``: it ranks a
    random subset of the alternatives (the rest are excluded) with ranks drawn
    with replacement, which gives ties and skipped ranks.
    """
    experts = [{"id": eid, "rank": int(r)}
               for eid, r in zip(_ids("E", n_experts), rng.permutation(n_experts) + 1)]
    attributes = _ids("C", n_attributes)
    alternatives = _ids("A", n_alternatives)
    attribute_ranks = {}
    alternative_ranks = {}
    for e in experts:
        eid = e["id"]
        attribute_ranks[eid] = {a: int(r) for a, r in
                                zip(attributes, rng.permutation(n_attributes) + 1)}
        alternative_ranks[eid] = {}
        for a in attributes:
            if rng.random() < irregular_share:
                size = int(rng.integers(1, n_alternatives + 1))
                present = np.sort(rng.choice(n_alternatives, size=size, replace=False))
                ranks = rng.integers(1, n_alternatives + 1, size=size)
                cell = {alternatives[k]: int(r) for k, r in zip(present, ranks)}
            else:
                cell = {m: int(r) for m, r in
                        zip(alternatives, rng.permutation(n_alternatives) + 1)}
            alternative_ranks[eid][a] = cell
    return {"experts": experts, "attributes": attributes, "alternatives": alternatives,
            "attribute_ranks": attribute_ranks, "alternative_ranks": alternative_ranks}


class _Links:
    """Union-find over the unknowns a context ties together.

    A context is kept free of redundant equations: a constraint is dropped
    when the unknowns it relates are already tied by earlier ones.  Each
    equation then fixes one more degree of freedom.
    """

    def __init__(self, count):
        self.parent = list(range(count))

    def _root(self, k):
        while self.parent[k] != k:
            self.parent[k] = self.parent[self.parent[k]]
            k = self.parent[k]
        return k

    def join(self, a, b):
        """Tie `a` and `b`; False when they were tied already."""
        ra, rb = self._root(a), self._root(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _steps(rng, size):
    """Positive steps between neighbouring values of a witness.

    No step is below a fifth of the largest, so that no ratio or difference
    read off a witness sits within the package's numeric tolerances of a tie.
    Differences of 1e-7 made the stage-1 reduction fold a rank-order
    inequality into an equality and reject a feasible context as
    inconsistent.
    """
    return rng.uniform(0.2, 1.0, size)


def discrete_context(rng, size, count):
    """A feasible discrete cell context of up to `count` constraints.

    Built around a hidden witness, a positive decreasing utility vector:
    every ratio and difference is read off it and every lower bound sits below
    it, so the witness satisfies the whole context.  A ratio or difference at
    rank r ties u(r) to u(r + 1); at most one of them ties each pair.
    """
    witness = np.cumsum(_steps(rng, size))[::-1]
    witness /= witness.sum()
    found = {"ratio": {}, "absdiff": {}, "lowerbound": {}}
    links = _Links(size)
    for _ in range(count):
        kind = str(rng.choice(list(found)))
        if kind == "lowerbound":
            r = int(rng.integers(1, size + 1))
            found[kind].setdefault(r, float(witness[r - 1] * rng.uniform(0.2, 0.98)))
            continue
        r = int(rng.integers(1, size))
        if links.join(r - 1, r):
            found[kind][r] = float(witness[r - 1] / witness[r] if kind == "ratio"
                                   else witness[r - 1] - witness[r])
    return _context_doc(found)


def continuous_context(rng, size, count):
    """A feasible continuous cell context of up to `count` constraints.

    Built around a hidden increasing witness CDF read at the integer ranks.
    Ratios and differences at rank r tie F(r - 1) to F(r); a lower bound at r
    pins F(r), as F(size) = 1 is pinned.  A constraint whose values are tied
    already is dropped.
    """
    cdf = np.cumsum(_steps(rng, size))
    cdf /= cdf[-1]
    found = {"ratio": {}, "absdiff": {}, "lowerbound": {}}
    pinned = 0      # node 0 stands for every pinned value; node r for F(r)
    links = _Links(size + 1)
    links.join(size, pinned)
    for _ in range(count):
        kind = str(rng.choice(list(found)))
        if kind == "lowerbound":
            r = int(rng.integers(1, size))
            if links.join(r, pinned):
                found[kind][r] = float(cdf[r - 1])
            continue
        r = int(rng.integers(2, size))  # F(r - 1) > 0 and r below the top rank
        if links.join(r - 1, r):
            found[kind][r] = float(cdf[r - 1] / cdf[r - 2] if kind == "ratio"
                                   else cdf[r - 1] - cdf[r - 2])
    return _context_doc(found)


def _context_doc(found):
    keys = {"ratio": "alpha", "absdiff": "beta", "lowerbound": "gamma"}
    return {kind: [{"rank": r, keys[kind]: v} for r, v in sorted(entries.items())]
            for kind, entries in found.items() if entries}


def _with_case_mix(doc, rng, n):
    """Give every cell one of the 11 families and a random feasible context.

    Cell c of document n gets family (n * cells + c) mod 11 and a context of
    up to (n + c) mod 5 constraints, so that a pool of consecutive documents
    holds every family and every context size in fixed shares.
    """
    experts = [e["id"] for e in doc["experts"]]
    attributes = doc["attributes"]
    size = len(doc["alternatives"])
    cells = len(experts) * len(attributes)
    structures = {}
    contexts = {}
    c = 0
    for eid in experts:
        for aid in attributes:
            family = FAMILIES[(n * cells + c) % len(FAMILIES)]
            count = (n + c) % (MAX_CONSTRAINTS + 1)
            c += 1
            structures.setdefault(eid, {})[aid] = dict(family)
            if family["kind"] in DISCRETE:
                ctx = discrete_context(rng, size, count)
            else:
                ctx = continuous_context(rng, size, count)
            if ctx:
                contexts.setdefault(eid, {})[aid] = ctx
    doc["structures"] = {"default": {"kind": "roc"}, "cells": structures}
    if contexts:
        doc["contexts"] = contexts
    return doc


# case_mix: stage-1 elicitation does most of the work, including the discrete
# barrier tail and the stage-1 solve_lp calls; validation, stage 2 and
# serialization do little.  5 experts x 6 attributes with alternative counts
# cycling through 10, 20 and 30, every structure family, and contexts of up
# to four constraints.  A pool of 33 documents holds every (size, family)
# pair equally often.
CASE_MIX_SHAPE = (5, 6)
CASE_MIX_SIZES = (10, 20, 30)
CASE_MIX_DOCS = 33


def case_mix(seed, n):
    rng = _rng(seed, "case_mix", n)
    doc = _rankings(rng, *CASE_MIX_SHAPE, CASE_MIX_SIZES[n % len(CASE_MIX_SIZES)])
    return _with_case_mix(doc, rng, n)


# sweep: the expert-permutation sweep of `sensitivity`, 720 scenarios of
# stage 2 on one set of elicited utilities, on small case-mix documents, so
# that the solver loop does most of the work.  Seven experts (5040
# scenarios, 4-5 s per op) would leave too few samples in one run.
SWEEP_SHAPE = (6, 3, 5)
SWEEP_DOCS = 6


def sweep(seed, n):
    rng = _rng(seed, "sweep", n)
    return _with_case_mix(_rankings(rng, *SWEEP_SHAPE), rng, n)


# wide_ordinal: validation, stage-2 assembly, report serialization and
# consensus dominate.  Rankings only (default roc, no contexts), so stage 1
# runs only its empty-context path in `solve` and not at all in `opa`: a
# stage-1 change should move solve latency here and leave opa latency still.
# Every other document has irregular cells (ties, gaps, exclusions).
WIDE_SHAPE = (30, 30, 30)
WIDE_DOCS = 6
PANEL_EXPERTS = 5


def wide_ordinal(seed, n):
    rng = _rng(seed, "wide_ordinal", n)
    return _rankings(rng, *WIDE_SHAPE, irregular_share=0.3 if n % 2 else 0.0)


def leading_panel(doc, size):
    """The document restricted to its `size` top-ranked experts."""
    keep = [e for e in doc["experts"] if e["rank"] <= size]
    ids = [e["id"] for e in keep]
    return {"experts": keep, "attributes": doc["attributes"],
            "alternatives": doc["alternatives"],
            "attribute_ranks": {e: doc["attribute_ranks"][e] for e in ids},
            "alternative_ranks": {e: doc["alternative_ranks"][e] for e in ids}}


@dataclass(frozen=True)
class Op:
    """One CLI call: `command`, its input, then `args`.

    ``source`` names a document of the pool, or ``"out:<command>"`` for the
    output of an earlier op of the same item.
    """

    command: str
    source: str
    args: tuple = ()


@dataclass(frozen=True)
class Item:
    """Ops that run together, in order, each time the loop reaches the item."""

    name: str
    ops: tuple


# verify: the Bland simplex solves the ordinal and the generalized LP of a
# 4 x 4 x 8 document and checks both against the closed forms.  Half the
# cells are irregular and the first cell always skips rank 2.  With a skipped
# rank, `verify` leaves out its stage-2 efficiency checks, whose infeasible LP
# can exhaust the simplex iteration budget on gap-free documents of this size
# and would fail the op.
VERIFY_SHAPE = (4, 4, 8)
CASE_MIX_VERIFIES = 12
WIDE_VERIFIES = 6


def verify_doc(seed, n):
    rng = _rng(seed, "verify", n)
    doc = _rankings(rng, *VERIFY_SHAPE, irregular_share=0.5)
    size = len(doc["alternatives"])
    keep = np.sort(rng.choice(size, size=size - 1, replace=False))
    ranks = rng.permutation([r for r in range(1, size + 1) if r != 2])
    first = doc["experts"][0]["id"]
    doc["alternative_ranks"][first][doc["attributes"][0]] = {
        doc["alternatives"][k]: int(r) for k, r in zip(keep, ranks)}
    return doc


def _report_ops(name):
    return (Op("solve", name), Op("opa", name), Op("metrics", "out:solve"))


def _verifies(docs, seed, count):
    items = []
    for n in range(count):
        docs[f"verify{n}"] = verify_doc(seed, n)
        items.append(Item(f"verify{n}", (Op("verify", f"verify{n}"),)))
    return items


def _interleave(*groups):
    """Items of all groups, each group spread evenly over the pass."""
    placed = [((k + 0.5) / len(group), g, item)
              for g, group in enumerate(groups) for k, item in enumerate(group)]
    return [item for *_, item in sorted(placed, key=lambda p: p[:2])]


def pool(workload, seed):
    """Documents and items of a workload's pool, in the order one pass runs them.

    Every workload runs all five commands, so each end-to-end metric exists
    on each of them; what differs is which layer the documents stress.
    """
    if workload == "case_mix":
        docs = {f"doc{n}": case_mix(seed, n) for n in range(CASE_MIX_DOCS)}
        docs.update({f"sweep{n}": sweep(seed, n) for n in range(SWEEP_DOCS)})
        reports = [Item(f"doc{n}", _report_ops(f"doc{n}")) for n in range(CASE_MIX_DOCS)]
        sweeps = [Item(f"sweep{n}", (Op("sensitivity", f"sweep{n}"),))
                  for n in range(SWEEP_DOCS)]
        return docs, _interleave(reports, sweeps, _verifies(docs, seed, CASE_MIX_VERIFIES))
    if workload == "wide_ordinal":
        docs = {}
        reports, panels = [], []
        for n in range(WIDE_DOCS):
            doc = wide_ordinal(seed, n)
            docs[f"doc{n}"] = doc
            docs[f"panel{n}"] = leading_panel(doc, PANEL_EXPERTS)
            reports.append(Item(f"doc{n}", _report_ops(f"doc{n}")))
            panels.append(Item(f"panel{n}", (Op("sensitivity", f"panel{n}",
                                                 ("--method", "opa")),)))
        return docs, _interleave(reports, panels, _verifies(docs, seed, WIDE_VERIFIES))
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("case_mix", "wide_ordinal")
