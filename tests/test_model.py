import numpy as np
import pytest

from gopa.exceptions import (
    ContextRangeError,
    DuplicateConstraintError,
    EmptyCellError,
    SignError,
    ValidationError,
)
from gopa.model import (
    load_document,
    validate_context,
    validate_problem,
    validate_structures,
)

from oracles import cell_counts


def minimal_doc():
    return {
        "experts": [{"id": "E1", "rank": 1}],
        "attributes": ["C1"],
        "alternatives": ["A1"],
        "attribute_ranks": {"E1": {"C1": 1}},
        "alternative_ranks": {"E1": {"C1": {"A1": 1}}},
    }


def cell_doc(ranks, n_alternatives=None):
    n = n_alternatives or len(ranks)
    alts = [f"A{k+1}" for k in range(n)]
    return {
        "experts": [{"id": "E1", "rank": 1}],
        "attributes": ["C1"],
        "alternatives": alts,
        "attribute_ranks": {"E1": {"C1": 1}},
        "alternative_ranks": {"E1": {"C1": {alts[k]: r for k, r in enumerate(ranks)
                                            if r is not None}}},
    }


class TestValidateProblem:
    def test_minimal_instance(self):
        p = validate_problem(minimal_doc())
        assert p.max_rank[0, 0] == 1
        assert p.rank_counts[0, 0, 0] == 1
        assert p.gap_free

    def test_duplicates_and_gaps_counts(self):
        p = validate_problem(cell_doc([1, 2, 2, 4]))
        assert p.max_rank[0, 0] == 4
        assert cell_counts(p, 0, 0).tolist() == [1, 2, 0, 1]
        assert p.rank_counts[0, 0].max() > 1                  # a tie
        assert (p.rank_counts[0, 0, :p.max_rank[0, 0]] == 0).any()   # a skipped rank
        assert p.has_internal_gaps
        assert not p.gap_free

    def test_rank_zero_rejected(self):
        with pytest.raises(ValidationError):
            validate_problem(cell_doc([1, 0, 2]))

    def test_rank_above_alternative_count_rejected(self):
        with pytest.raises(ValidationError):
            validate_problem(cell_doc([1, 5], n_alternatives=2))

    @pytest.mark.parametrize("section", ["experts", "attribute_ranks"])
    @pytest.mark.parametrize("rank, accepted", [(2 ** 63 - 1, True), (2 ** 63, False),
                                                (2 ** 70, False)])
    def test_expert_and_attribute_ranks_within_int64(self, section, rank, accepted):
        doc = minimal_doc()
        if section == "experts":
            doc["experts"][0]["rank"] = rank
            path = "experts[0].rank"
        else:
            doc["attribute_ranks"]["E1"]["C1"] = rank
            path = "attribute_ranks.E1.C1"
        if accepted:
            validate_problem(doc)
            return
        with pytest.raises(ValidationError) as info:
            validate_problem(doc)
        assert str(info.value) == f"{path}: rank {rank} exceeds the int64 range"

    def test_excluded_alternative_is_legal(self):
        p = validate_problem(cell_doc([1, None, 2]))
        assert p.alternative_ranks[0, 0].tolist() == [1, 0, 2]
        assert p.rank_counts[0, 0].tolist() == [1, 1, 0]   # 2 of 3 alternatives ranked
        assert not p.has_internal_gaps and not p.gap_free

    def test_empty_cell_rejected(self):
        doc = minimal_doc()
        doc["alternative_ranks"]["E1"]["C1"] = {}
        with pytest.raises(EmptyCellError):
            validate_problem(doc)

    def test_duplicate_expert_rank_accepted(self):
        doc = minimal_doc()
        doc["experts"] = [{"id": "E1", "rank": 2}, {"id": "E2", "rank": 2}]
        doc["attribute_ranks"]["E2"] = {"C1": 1}
        doc["alternative_ranks"]["E2"] = {"C1": {"A1": 1}}
        p = validate_problem(doc)
        assert p.expert_ranks.tolist() == [2, 2]

    def test_validation_error_names_path(self):
        doc = cell_doc([1, 0])
        with pytest.raises(ValidationError) as err:
            validate_problem(doc)
        assert "alternative_ranks.E1.C1.A2" in str(err.value)

    def test_derivation_idempotent(self):
        doc = cell_doc([1, 2, 2, 4])
        p1 = validate_problem(doc)
        p2 = validate_problem(doc)
        assert np.array_equal(p1.max_rank, p2.max_rank)
        assert np.array_equal(p1.rank_counts, p2.rank_counts)

    def test_clean_cell_counts_are_all_ones(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            p = validate_problem(cell_doc([int(r) for r in rng.permutation(n) + 1]))
            assert (cell_counts(p, 0, 0) == 1).all()
            assert p.max_rank[0, 0] == n

    def test_arrays_are_read_only(self):
        p = validate_problem(minimal_doc())
        with pytest.raises(ValueError):
            p.expert_ranks[0] = 5

    def test_unknown_attribute_in_cell_map_rejected(self):
        doc = minimal_doc()
        doc["alternative_ranks"]["E1"]["C9"] = {"A1": 1}
        with pytest.raises(ValidationError):
            validate_problem(doc)


def grid_doc():
    """Gap-free 2 x 2 x 3 document whose cells all rank A1 > A2 > A3."""
    experts = ["E1", "E2"]
    attributes = ["C1", "C2"]
    alternatives = ["A1", "A2", "A3"]
    return {
        "experts": [{"id": e, "rank": 1} for e in experts],
        "attributes": attributes,
        "alternatives": alternatives,
        "attribute_ranks": {e: {a: 1 for a in attributes} for e in experts},
        "alternative_ranks": {e: {a: {m: k + 1 for k, m in enumerate(alternatives)}
                                  for a in attributes} for e in experts},
    }


# Each bad entry of a 3-alternative document with the message the per-entry
# check gives for it.
BAD_RANKS = {
    "zero": (0, "rank must be >= 1, got 0"),
    "negative": (-1, "rank must be >= 1, got -1"),
    "bool": (True, "expected a positive integer, got True"),
    "float": (2.0, "expected a positive integer, got 2.0"),
    "string": ("2", "expected a positive integer, got '2'"),
    "above_k": (4, "rank 4 exceeds the 3 alternatives"),
    "beyond_int64": (2 ** 70, f"rank {2 ** 70} exceeds the 3 alternatives"),
    "beyond_float": (2 ** 1100, f"rank {2 ** 1100} exceeds the 3 alternatives"),
}


class TestRankEntryErrors:
    """The first bad rank entry in document order is the one reported."""

    @pytest.mark.parametrize("value, message", BAD_RANKS.values(), ids=BAD_RANKS.keys())
    @pytest.mark.parametrize("cell", [("E1", "C1"), ("E2", "C2")], ids=["first", "last"])
    @pytest.mark.parametrize("later", [False, True], ids=["alone", "with_later"])
    def test_first_bad_entry(self, value, message, cell, later):
        doc = grid_doc()
        eid, aid = cell
        doc["alternative_ranks"][eid][aid]["A1"] = value
        if later:
            doc["alternative_ranks"]["E2"]["C2"]["A3"] = 0
        with pytest.raises(ValidationError) as info:
            validate_problem(doc)
        assert type(info.value) is ValidationError
        assert info.value.path == f"alternative_ranks.{eid}.{aid}.A1"
        assert str(info.value) == f"alternative_ranks.{eid}.{aid}.A1: {message}"

    def test_bad_rank_precedes_later_structural_error(self):
        doc = grid_doc()
        doc["alternative_ranks"]["E1"]["C2"]["A2"] = 0
        doc["alternative_ranks"]["E2"]["C1"] = None
        with pytest.raises(ValidationError, match=r"^alternative_ranks\.E1\.C2\.A2: rank"):
            validate_problem(doc)

    def test_structural_error_precedes_later_bad_rank(self):
        doc = grid_doc()
        doc["alternative_ranks"]["E1"]["C2"]["B9"] = 1
        doc["alternative_ranks"]["E2"]["C1"]["A2"] = 0
        with pytest.raises(ValidationError,
                           match=r"^alternative_ranks\.E1\.C2: unknown alternative ids"):
            validate_problem(doc)

    def test_none_means_excluded(self):
        doc = grid_doc()
        doc["alternative_ranks"]["E1"]["C1"]["A1"] = None
        del doc["alternative_ranks"]["E2"]["C2"]["A3"]
        p = validate_problem(doc)
        assert p.alternative_ranks[0, 0].tolist() == [0, 2, 3]
        assert p.alternative_ranks[1, 1].tolist() == [1, 2, 0]
        assert p.alternative_ranks.dtype == np.int64
        assert p.rank_counts[0, 0].sum() == p.rank_counts[1, 1].sum() == 2
        assert not p.gap_free


class TestValidateContext:
    def test_empty_context_is_unbiased(self):
        p = validate_problem(minimal_doc())
        ctx = validate_context(None, p)
        assert ctx.is_empty
        assert ctx.cell(0, 0).is_empty

    def test_worked_cell_context(self):
        p = validate_problem(cell_doc(list(range(1, 8))))
        ctx = validate_context({"E1": {"C1": {
            "ratio": [{"rank": 2, "alpha": 1.15}],
            "absdiff": [{"rank": 4, "beta": 0.065}],
            "lowerbound": [{"rank": "*", "gamma": 0.03}],
        }}}, p)
        cell = ctx.cell(0, 0)
        assert cell.ratio == ((2, 1.15),)
        assert cell.absdiff == ((4, 0.065),)
        assert cell.lowerbound == tuple((r, 0.03) for r in range(1, 8))

    def test_ratio_at_top_rank_rejected(self):
        p = validate_problem(cell_doc([1, 2, 3]))
        with pytest.raises(ContextRangeError):
            validate_context({"E1": {"C1": {"ratio": [{"rank": 3, "alpha": 1.1}]}}}, p)

    def test_lowerbound_allows_top_rank(self):
        p = validate_problem(cell_doc([1, 2, 3]))
        ctx = validate_context({"E1": {"C1": {"lowerbound": [{"rank": 3, "gamma": 0.1}]}}}, p)
        assert ctx.cell(0, 0).lowerbound == ((3, 0.1),)

    def test_duplicate_constraint_rejected(self):
        p = validate_problem(cell_doc([1, 2, 3]))
        with pytest.raises(DuplicateConstraintError):
            validate_context({"E1": {"C1": {"ratio": [
                {"rank": 1, "alpha": 1.1}, {"rank": 1, "alpha": 1.2}]}}}, p)

    def test_sign_errors(self):
        p = validate_problem(cell_doc([1, 2, 3]))
        with pytest.raises(SignError):
            validate_context({"E1": {"C1": {"ratio": [{"rank": 1, "alpha": 0.0}]}}}, p)
        with pytest.raises(SignError):
            validate_context({"E1": {"C1": {"absdiff": [{"rank": 1, "beta": -0.1}]}}}, p)

    def test_unknown_ids_rejected(self):
        p = validate_problem(minimal_doc())
        with pytest.raises(ValidationError):
            validate_context({"E9": {}}, p)


class TestStructuresSection:
    def test_default_and_override(self):
        p = validate_problem(minimal_doc())
        sm = validate_structures({"default": {"kind": "rr"},
                                  "cells": {"E1": {"C1": {"kind": "cara", "a": 0.5}}}}, p)
        assert sm.default.kind == "rr"
        assert sm.cell(0, 0).kind == "cara"

    def test_missing_section_defaults_to_centroid(self):
        p = validate_problem(minimal_doc())
        sm = validate_structures(None, p)
        assert sm.default.kind == "roc"
        assert sm.cell(0, 0).kind == "roc"


class TestSectionWalk:
    """One walk checks every ``expert id -> attribute id -> entry`` section."""

    @pytest.mark.parametrize("section", ["attribute_ranks", "alternative_ranks"])
    def test_unknown_expert_row_rejected(self, section):
        doc = grid_doc()
        doc[section]["E9"] = doc[section]["E1"]
        with pytest.raises(ValidationError) as info:
            validate_problem(doc)
        assert str(info.value) == f"{section}: unknown expert ids ['E9']"

    def test_renamed_expert_reports_its_missing_row(self):
        doc = grid_doc()
        doc["experts"][0]["id"] = "E7"
        with pytest.raises(ValidationError) as info:
            validate_problem(doc)
        assert str(info.value) == "attribute_ranks.E7: missing expert entry"

    @pytest.mark.parametrize("section", ["attribute_ranks", "alternative_ranks"])
    def test_non_object_expert_row_rejected(self, section):
        doc = grid_doc()
        doc[section]["E2"] = ["C1", "C2"]
        with pytest.raises(ValidationError) as info:
            validate_problem(doc)
        assert info.value.path == f"{section}.E2"

    @pytest.mark.parametrize("row", [[], ["C1"], "C1", 5], ids=["empty", "list", "text", "number"])
    def test_non_object_structure_row_rejected(self, row):
        p = validate_problem(grid_doc())
        with pytest.raises(ValidationError) as info:
            validate_structures({"cells": {"E1": row}}, p)
        assert str(info.value) == "structures.cells.E1: expected an object keyed by attribute id"

    def test_absent_rows_and_cells_are_optional(self):
        p = validate_problem(grid_doc())
        sm = validate_structures({"cells": {"E1": None, "E2": {"C2": {"kind": "rr"}}}}, p)
        assert dict(sm.cells) == {(1, 1): sm.cell(1, 1)} and sm.cell(1, 1).kind == "rr"
        ctx = validate_context({"E1": None, "E2": {"C1": None}}, p)
        assert ctx.is_empty

    def test_null_structure_override_rejected(self):
        p = validate_problem(grid_doc())
        with pytest.raises(ValidationError) as info:
            validate_structures({"cells": {"E2": {"C1": None}}}, p)
        assert info.value.path == "structures.cells.E2.C1"

    @pytest.mark.parametrize("value", ["1", None, True, [], float("nan"), float("inf"),
                                       2 ** 1100],
                             ids=["text", "null", "bool", "list", "nan", "inf", "huge"])
    def test_structure_parameter_must_be_finite(self, value):
        p = validate_problem(grid_doc())
        override = {"kind": "hara", "alpha": 2.0, "beta": value, "gamma": 1.5}
        with pytest.raises(ValidationError) as info:
            validate_structures({"cells": {"E1": {"C2": override}}}, p)
        assert str(info.value) == "structures.cells.E1.C2.beta: expected a finite number"

    def test_parameter_checks_of_a_kind_come_first(self):
        p = validate_problem(grid_doc())
        with pytest.raises(ValidationError) as info:
            validate_structures({"default": {"kind": "crra", "gamma": float("nan")}}, p)
        assert str(info.value) == "structures.default.gamma: crra gamma must lie in (0, 1)"

    # a NaN ratio fails its sign check first (below)
    @pytest.mark.parametrize("kind, key, value", [
        pytest.param(kind, key, value, id=f"{kind}-{name}")
        for kind, key in [("ratio", "alpha"), ("absdiff", "beta"), ("lowerbound", "gamma")]
        for name, value in [("nan", float("nan")), ("inf", float("inf")), ("huge", 2 ** 1100)]
        if (kind, name) != ("ratio", "nan")])
    def test_context_coefficient_must_be_finite(self, kind, key, value):
        p = validate_problem(grid_doc())
        with pytest.raises(ValidationError) as info:
            validate_context({"E2": {"C1": {kind: [{"rank": 1, key: value}]}}}, p)
        assert str(info.value) == f"contexts.E2.C1.{kind}[0].{key}: expected a finite number"

    def test_nan_ratio_keeps_its_sign_error(self):
        p = validate_problem(grid_doc())
        with pytest.raises(SignError):
            validate_context({"E1": {"C1": {"ratio": [{"rank": 1, "alpha": float("nan")}]}}}, p)


def with_section(key, value):
    return lambda doc: {**doc, key: value}


# A fault of the document outside its rank entries, with the message it gives.
DOCUMENT_FAULTS = {
    "not_an_object": (lambda doc: [doc], "$: input document must be a JSON object"),
    "duplicate_expert": (lambda doc: {**doc, "experts": [*doc["experts"], doc["experts"][0]]},
                         "experts[2]: duplicate expert id 'E1'"),
    "duplicate_attribute": (with_section("attributes", ["C1", "C2", "C1"]),
                            "attributes: ids must be unique"),
    "duplicate_alternative": (with_section("alternatives", ["A1", "A2", "A3", "A2"]),
                              "alternatives: ids must be unique"),
    "constraint_kind": (with_section("contexts", {"E2": {"C1": {"ratios": []}}}),
                        "contexts.E2.C1: unknown constraint kinds ['ratios']"),
    "structures_key": (with_section("structures", {"default": {"kind": "rr"}, "cell": {}}),
                       "structures: unknown keys ['cell']"),
}


@pytest.mark.parametrize("edit, fault", DOCUMENT_FAULTS.values(), ids=DOCUMENT_FAULTS.keys())
def test_document_fault_is_named(edit, fault):
    with pytest.raises(ValidationError) as info:
        load_document(edit(grid_doc()))
    assert str(info.value) == fault
