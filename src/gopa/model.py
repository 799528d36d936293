"""Input data model: ordinal rankings, preference contexts, structure maps.

The single input document is a JSON object with keys ``experts``,
``attributes``, ``alternatives``, ``attribute_ranks``, ``alternative_ranks``,
``contexts``, and ``structures``.  All types here are immutable after
validation and safe to share across threads.
"""

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .exceptions import (
    ContextRangeError,
    DuplicateConstraintError,
    EmptyCellError,
    SignError,
    UtilityShapeError,
    ValidationError,
)
from .structures import UtilityStructure, finite


def _positive_int(value, path, top=2 ** 63 - 1, bound="the int64 range"):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected a positive integer, got {value!r}")
    if value < 1:
        raise ValidationError(path, f"rank must be >= 1, got {value}")
    if value > top:
        raise ValidationError(path, f"rank {value} exceeds {bound}")
    return value


@dataclass(frozen=True)
class RankingProblem:
    """Validated ordinal inputs with derived per-cell rank structure.

    ``alternative_ranks[i, j, k] == 0`` encodes an alternative excluded under
    that (expert, attribute) cell.  ``max_rank[i, j]`` is the largest rank
    present in the cell and ``rank_counts[i, j, r - 1]`` the number of
    alternatives carrying rank ``r`` there.
    """

    expert_ids: tuple
    attribute_ids: tuple
    alternative_ids: tuple
    expert_ranks: np.ndarray      # (I,)
    attribute_ranks: np.ndarray   # (I, J)
    alternative_ranks: np.ndarray  # (I, J, K), 0 = excluded
    max_rank: np.ndarray          # (I, J)
    rank_counts: np.ndarray       # (I, J, K)
    has_duplicates: np.ndarray    # (I, J)
    has_missing: np.ndarray       # (I, J)

    def __post_init__(self):
        for name in ("expert_ranks", "attribute_ranks", "alternative_ranks",
                     "max_rank", "rank_counts", "has_duplicates", "has_missing"):
            getattr(self, name).setflags(write=False)

    @property
    def n_experts(self):
        return len(self.expert_ids)

    @property
    def n_attributes(self):
        return len(self.attribute_ids)

    @property
    def n_alternatives(self):
        return len(self.alternative_ids)

    @property
    def gap_free(self):
        """True when no cell has missing or duplicate ranks and every cell ranks all alternatives."""
        return (not self.has_missing.any() and not self.has_duplicates.any()
                and (self.max_rank == self.n_alternatives).all())

    @property
    def rank_mask(self):
        """(I, J, K) mask of ranks ``1 .. max_rank[i, j]`` in per-rank padded arrays;
        in C order its entries run over `cells`, each cell by rank."""
        return np.arange(self.n_alternatives) < self.max_rank[..., None]

    @property
    def has_internal_gaps(self):
        """True when some cell skips a rank below its own maximum rank."""
        return bool(((self.rank_counts == 0) & self.rank_mask).any())

    def cells(self):
        """Iterate over (expert index, attribute index) pairs."""
        for i in range(self.n_experts):
            for j in range(self.n_attributes):
                yield i, j

    def cell_counts(self, i, j):
        """Rank frequencies ``c_r`` of cell (i, j), length ``max_rank[i, j]``."""
        return self.rank_counts[i, j, :self.max_rank[i, j]]


def pack_utilities(problem, utilities):
    """Pack ``(i, j) -> utility vector`` into the padded (I, J, K) layout.

    Raises `UtilityShapeError` if a cell is missing or has the wrong length.
    """
    packed = np.zeros(problem.rank_counts.shape)
    for i, j in problem.cells():
        kij = int(problem.max_rank[i, j])
        if (i, j) not in utilities:
            raise UtilityShapeError(f"missing utilities for cell ({i}, {j})")
        u = np.asarray(utilities[(i, j)], dtype=float)
        if u.shape != (kij,):
            raise UtilityShapeError(
                f"cell ({i}, {j}) expects {kij} utilities, got shape {u.shape}")
        packed[i, j, :kij] = u
    return packed


EMPTY_CELL_CONTEXT_FIELDS = ("ratio", "absdiff", "lowerbound")


@dataclass(frozen=True)
class CellContext:
    """Partial preference constraints for one (expert, attribute) cell.

    Each entry is a ``(rank, coefficient)`` pair.  In discrete cells a ratio
    or difference at rank ``r`` relates the utilities of ranks ``r`` and
    ``r + 1``; in continuous cells it relates the cumulative utilities at
    ``r - 1`` and ``r``.  Lower bounds apply at their own rank.
    """

    ratio: tuple = ()
    absdiff: tuple = ()
    lowerbound: tuple = ()

    @property
    def is_empty(self):
        return not (self.ratio or self.absdiff or self.lowerbound)

    def to_dict(self):
        out = {}
        if self.ratio:
            out["ratio"] = [{"rank": r, "alpha": a} for r, a in self.ratio]
        if self.absdiff:
            out["absdiff"] = [{"rank": r, "beta": b} for r, b in self.absdiff]
        if self.lowerbound:
            out["lowerbound"] = [{"rank": r, "gamma": g} for r, g in self.lowerbound]
        return out


_EMPTY_CELL = CellContext()


@dataclass(frozen=True)
class PreferenceContext:
    """Per-cell preference constraints keyed by (expert index, attribute index)."""

    cells: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))

    def cell(self, i, j):
        return self.cells.get((i, j), _EMPTY_CELL)

    @property
    def is_empty(self):
        return all(c.is_empty for c in self.cells.values())


@dataclass(frozen=True)
class StructureMap:
    """Per-cell utility structure selection with a problem-wide default."""

    default: UtilityStructure
    cells: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))

    def cell(self, i, j):
        return self.cells.get((i, j), self.default)


def validate_problem(raw):
    """Validate a raw problem document and derive per-cell rank structure.

    Parameters
    ----------
    raw : dict
        Parsed JSON object (only the ranking keys are consumed here).

    Returns
    -------
    RankingProblem

    Raises
    ------
    ValidationError, EmptyCellError
    """
    if not isinstance(raw, dict):
        raise ValidationError("$", "input document must be a JSON object")

    experts = raw.get("experts")
    if not isinstance(experts, list) or not experts:
        raise ValidationError("experts", "expected a nonempty list")
    expert_ids = []
    expert_ranks = []
    for n, item in enumerate(experts):
        path = f"experts[{n}]"
        if not isinstance(item, dict) or "id" not in item or "rank" not in item:
            raise ValidationError(path, "expected an object with 'id' and 'rank'")
        eid = str(item["id"])
        if eid in expert_ids:
            raise ValidationError(path, f"duplicate expert id {eid!r}")
        expert_ids.append(eid)
        expert_ranks.append(_positive_int(item["rank"], f"{path}.rank"))

    attribute_ids = _id_list(raw.get("attributes"), "attributes")
    alternative_ids = _id_list(raw.get("alternatives"), "alternatives")
    I, J, K = len(expert_ids), len(attribute_ids), len(alternative_ids)

    s = np.zeros((I, J), dtype=int)
    for i, j, path, value in _cells(raw.get("attribute_ranks"), "attribute_ranks",
                                    expert_ids, attribute_ids, "missing attribute rank"):
        s[i, j] = _positive_int(value, path)

    known = set(alternative_ids)
    entries = []   # raw rank entries, cell by cell in expert-then-attribute order
    try:
        for _, _, path, cell in _cells(raw.get("alternative_ranks"), "alternative_ranks",
                                       expert_ids, attribute_ids, "missing cell entry"):
            if not isinstance(cell, dict):
                raise ValidationError(path, "missing cell entry")
            if not known.issuperset(cell):
                raise ValidationError(path,
                                      f"unknown alternative ids {sorted(cell.keys() - known)}")
            entries += map(cell.get, alternative_ids)
    except ValidationError:
        # a bad rank in an earlier cell is reported first
        _rank_entries(entries, expert_ids, attribute_ids, alternative_ids)
        raise
    r = _rank_array(entries, K)
    if r is None:
        r = _rank_entries(entries, expert_ids, attribute_ids, alternative_ids)
    r = r.reshape(I, J, K)

    max_rank = r.max(axis=2)
    if not max_rank.all():
        i, j = np.argwhere(max_rank == 0)[0]
        raise EmptyCellError(f"alternative_ranks.{expert_ids[i]}.{attribute_ids[j]}",
                             "cell has no ranked alternative")
    # rank r of cell n = i * J + j is counted in bin n * K + r - 1
    slots = np.arange(I * J).reshape(I, J, 1) * K + r - 1
    counts = np.bincount(slots[r > 0], minlength=I * J * K).reshape(I, J, K)
    has_dups = (counts > 1).any(axis=2)
    has_missing = ((counts > 0).sum(axis=2) < max_rank) | (r == 0).any(axis=2)

    return RankingProblem(
        expert_ids=tuple(expert_ids),
        attribute_ids=tuple(attribute_ids),
        alternative_ids=tuple(alternative_ids),
        expert_ranks=np.asarray(expert_ranks, dtype=int),
        attribute_ranks=s,
        alternative_ranks=r,
        max_rank=max_rank,
        rank_counts=counts,
        has_duplicates=has_dups,
        has_missing=has_missing,
    )


def _rank_array(entries, K):
    """Rank entries (ints, ``None`` for excluded) as an int array with 0 for
    excluded, or None when some entry is not an int in ``1 .. K``."""
    if not {*map(type, entries)} <= {int, type(None)}:
        return None
    try:
        ranks = np.array(entries, dtype=float)   # None -> NaN
    except OverflowError:   # an int beyond the float range
        return None
    if ((ranks < 1) | (ranks > K)).any():
        return None
    return np.nan_to_num(ranks, nan=0.0).astype(int)


def _rank_entries(entries, expert_ids, attribute_ids, alternative_ids):
    """Check rank entries one by one; raises `ValidationError` at the first bad one."""
    K = len(alternative_ids)
    r = np.zeros(len(entries), dtype=int)
    names = itertools.product(expert_ids, attribute_ids, alternative_ids)
    for n, ((eid, aid, mid), value) in enumerate(zip(names, entries)):
        if value is not None:
            path = f"alternative_ranks.{eid}.{aid}.{mid}"
            r[n] = _positive_int(value, path, K, f"the {K} alternatives")
    return r


def _id_list(doc, path):
    if not isinstance(doc, list) or not doc:
        raise ValidationError(path, "expected a nonempty list of ids")
    ids = [str(x) for x in doc]
    if len(set(ids)) != len(ids):
        raise ValidationError(path, "ids must be unique")
    return ids


def _cells(doc, path, expert_ids, attribute_ids, missing=None):
    """Walk an ``expert id -> attribute id -> entry`` section of the document.

    The section and each of its rows must be objects keyed by known ids.
    Yields ``(i, j, path, entry)`` for every cell a row holds, expert by expert
    in attribute order.  Without ``missing`` the section and its rows are
    optional (absent or ``null`` means empty); with it every expert needs a
    row, and an absent cell raises `ValidationError` with that message.
    """
    if doc is None and missing is None:
        return
    if not isinstance(doc, dict):
        raise ValidationError(path, "expected an object keyed by expert id")
    unknown = sorted(doc.keys() - set(expert_ids))
    # a required section reports a missing row first: renaming an expert in
    # `experts` leaves one row missing and one unknown
    if unknown and missing is None:
        raise ValidationError(path, f"unknown expert ids {unknown}")
    attributes = set(attribute_ids)
    for i, eid in enumerate(expert_ids):
        row = doc.get(eid)
        if row is None:
            if missing is None:
                continue
            raise ValidationError(f"{path}.{eid}", "missing expert entry")
        if not isinstance(row, dict):
            raise ValidationError(f"{path}.{eid}", "expected an object keyed by attribute id")
        if not attributes.issuperset(row):
            raise ValidationError(f"{path}.{eid}",
                                  f"unknown attribute ids {sorted(row.keys() - attributes)}")
        for j, aid in enumerate(attribute_ids):
            if aid in row:
                yield i, j, f"{path}.{eid}.{aid}", row[aid]
            elif missing is not None:
                raise ValidationError(f"{path}.{eid}.{aid}", missing)
    if unknown:
        raise ValidationError(path, f"unknown expert ids {unknown}")


def _constraint_list(doc, path, coeff_key, kij, allow_wildcard=False):
    """Parse one constraint list, returning sorted (rank, coefficient) pairs."""
    if doc is None:
        return ()
    if not isinstance(doc, list):
        raise ValidationError(path, "expected a list of constraints")
    top = kij if allow_wildcard else kij - 1
    out = {}
    for n, item in enumerate(doc):
        ipath = f"{path}[{n}]"
        if not isinstance(item, dict) or "rank" not in item or coeff_key not in item:
            raise ValidationError(ipath, f"expected an object with 'rank' and {coeff_key!r}")
        coeff, cpath = item[coeff_key], f"{ipath}.{coeff_key}"
        if not isinstance(coeff, (int, float)) or isinstance(coeff, bool):
            raise ValidationError(cpath, "coefficient must be a number")
        if coeff_key == "alpha" and not coeff > 0:
            raise SignError(cpath, "ratio coefficient must be > 0")
        if coeff_key in ("beta", "gamma") and coeff < 0:
            raise SignError(cpath, "coefficient must be >= 0")
        coeff = finite(coeff, cpath)
        rank = item["rank"]
        if allow_wildcard and rank == "*":
            ranks = range(1, kij + 1)
        else:
            rank = _positive_int(rank, f"{ipath}.rank")
            if rank > top:
                raise ContextRangeError(f"{ipath}.rank",
                                        f"rank {rank} out of range [1, {top}]")
            ranks = (rank,)
        for rk in ranks:
            if rk in out:
                raise DuplicateConstraintError(f"{ipath}.rank",
                                               f"duplicate constraint at rank {rk}")
            out[rk] = coeff
    return tuple(sorted(out.items()))


def validate_context(ctx_doc, problem):
    """Validate the ``contexts`` section of the document against a problem.

    Missing entries mean the unbiased (empty) context for that cell.
    A lower bound may use ``"rank": "*"`` to apply to every rank of the cell.
    """
    cells = {}
    for i, j, path, cdoc in _cells(ctx_doc, "contexts", problem.expert_ids,
                                   problem.attribute_ids):
        if cdoc is None:
            continue
        if not isinstance(cdoc, dict):
            raise ValidationError(path, "expected an object")
        bad = set(cdoc) - set(EMPTY_CELL_CONTEXT_FIELDS)
        if bad:
            raise ValidationError(path, f"unknown constraint kinds {sorted(bad)}")
        kij = int(problem.max_rank[i, j])
        cell = CellContext(
            ratio=_constraint_list(cdoc.get("ratio"), f"{path}.ratio", "alpha", kij),
            absdiff=_constraint_list(cdoc.get("absdiff"), f"{path}.absdiff", "beta", kij),
            lowerbound=_constraint_list(cdoc.get("lowerbound"), f"{path}.lowerbound",
                                        "gamma", kij, allow_wildcard=True),
        )
        if not cell.is_empty:
            cells[(i, j)] = cell
    return PreferenceContext(cells=MappingProxyType(cells))


def validate_structures(doc, problem):
    """Validate the ``structures`` section (a default plus per-cell overrides)."""
    if doc is None:
        return StructureMap(default=UtilityStructure(kind="roc"))
    if not isinstance(doc, dict):
        raise ValidationError("structures", "expected an object")
    bad = set(doc) - {"default", "cells"}
    if bad:
        raise ValidationError("structures", f"unknown keys {sorted(bad)}")
    default = UtilityStructure(kind="roc")
    if "default" in doc:
        default = UtilityStructure.from_dict(doc["default"], "structures.default")
    cells = {(i, j): UtilityStructure.from_dict(entry, path)
             for i, j, path, entry in _cells(doc.get("cells"), "structures.cells",
                                             problem.expert_ids, problem.attribute_ids)}
    return StructureMap(default=default, cells=MappingProxyType(cells))


def load_document(doc):
    """Validate a full input document.

    Returns
    -------
    (RankingProblem, PreferenceContext, StructureMap)
    """
    problem = validate_problem(doc)
    context = validate_context(doc.get("contexts"), problem)
    structures = validate_structures(doc.get("structures"), problem)
    return problem, context, structures


def problem_to_dict(problem, context=None, structures=None):
    """Serialize back to the document form accepted by ``load_document``."""
    doc = {
        "experts": [{"id": eid, "rank": int(t)}
                    for eid, t in zip(problem.expert_ids, problem.expert_ranks)],
        "attributes": list(problem.attribute_ids),
        "alternatives": list(problem.alternative_ids),
        "attribute_ranks": {
            eid: {aid: int(problem.attribute_ranks[i, j])
                  for j, aid in enumerate(problem.attribute_ids)}
            for i, eid in enumerate(problem.expert_ids)
        },
        "alternative_ranks": {
            eid: {aid: {mid: int(problem.alternative_ranks[i, j, k])
                        for k, mid in enumerate(problem.alternative_ids)
                        if problem.alternative_ranks[i, j, k] > 0}
                  for j, aid in enumerate(problem.attribute_ids)}
            for i, eid in enumerate(problem.expert_ids)
        },
    }
    if context is not None and context.cells:
        ctx = {}
        for (i, j), cell in sorted(context.cells.items()):
            eid = problem.expert_ids[i]
            aid = problem.attribute_ids[j]
            ctx.setdefault(eid, {})[aid] = cell.to_dict()
        doc["contexts"] = ctx
    if structures is not None:
        out = {"default": structures.default.to_dict()}
        if structures.cells:
            cells = {}
            for (i, j), st in sorted(structures.cells.items()):
                eid = problem.expert_ids[i]
                aid = problem.attribute_ids[j]
                cells.setdefault(eid, {})[aid] = st.to_dict()
            out["cells"] = cells
        doc["structures"] = out
    return doc
