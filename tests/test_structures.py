import importlib.util
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from gopa.exceptions import DomainError, ValidationError
from gopa.structures import (
    DISCRETE_KINDS,
    CONTINUOUS_KINDS,
    KIND_PARAMETERS,
    TargetDensity,
    UtilityStructure,
    surrogate_weights,
    target_density,
)

FAMILIES = ("rs", "ref", "rr", "sr", "roc")


class TestSurrogateWeights:
    def test_rank_sum_k4_first(self):
        assert surrogate_weights("rs", 4)[0] == pytest.approx(0.4, abs=1e-12)

    def test_rank_order_centroid_k10_first_by_harmonic_sum(self):
        expected = sum(1.0 / h for h in range(1, 11)) / 10.0
        assert surrogate_weights("roc", 10)[0] == pytest.approx(expected, abs=1e-15)
        assert surrogate_weights("roc", 10)[0] == pytest.approx(0.292897, abs=5e-7)

    @pytest.mark.parametrize("kind", DISCRETE_KINDS)
    def test_single_rank_is_unit(self, kind):
        assert surrogate_weights(kind, 1) == pytest.approx([1.0])

    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("size", range(2, 13))
    def test_normalized_and_strictly_decreasing(self, kind, size):
        v = surrogate_weights(kind, size)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(v) < 0).all()
        assert (v > 0).all()

    @pytest.mark.parametrize("size", range(2, 13))
    def test_sum_reciprocal_matches_direct_formula(self, size):
        raw = np.array([(size + 1 - r) / size + 1.0 / r for r in range(1, size + 1)])
        expected = raw / raw.sum()
        assert surrogate_weights("sr", size) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("size", range(2, 13))
    def test_rank_exponent_matches_direct_formula(self, size):
        z = 1.17
        raw = np.array([(size + 1 - r) ** z for r in range(1, size + 1)])
        assert surrogate_weights("ref", size) == pytest.approx(raw / raw.sum(), abs=1e-15)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_worst_to_best_differences_are_increasing(self, kind):
        # read against decreasing rank, increments grow (convex improvement)
        for size in range(3, 13):
            v = surrogate_weights(kind, size)[::-1]
            first = np.diff(v)
            assert (first > 0).all()
            second = np.diff(first)
            assert (second >= -1e-15).all()
            if kind != "rs":  # rank sum is exactly linear in rank
                assert (second > 0).all()

    @pytest.mark.parametrize("size, exponent", [(30, 250), (10, 310), (2, 1100)])
    def test_ref_overflow_is_domain_error(self, size, exponent):
        # the power sum overflows, so a normalized weight would be 0 or NaN
        with pytest.raises(DomainError, match=f"on {size} ranks"):
            surrogate_weights("ref", size, exponent)

    def test_ref_near_overflow_keeps_formula(self):
        # 30 ** 200 is ~1e295: the sum stays finite and the weights keep the plain formula
        r = np.arange(1, 31, dtype=float)
        raw = (31 - r) ** 200.0
        v = surrogate_weights("ref", 30, 200.0)
        assert v.tobytes() == (raw / raw.sum()).tobytes()
        assert (v > 0).all()

    def test_uniform_kind_is_flat(self):
        assert surrogate_weights("uniform", 5) == pytest.approx(np.full(5, 0.2))

    def test_structure_object_carries_exponent(self):
        st = UtilityStructure(kind="ref", exponent=2.0)
        raw = np.array([(5 - r) ** 2.0 for r in range(1, 5)])
        assert surrogate_weights(st, 4) == pytest.approx(raw / raw.sum())

    def test_rejects_unknown_kind_and_bad_exponent(self):
        with pytest.raises(ValidationError, match=r"^structures\.kind: unknown kind 'zipf'$"):
            surrogate_weights("zipf", 4)
        with pytest.raises(ValidationError):
            UtilityStructure(kind="ref", exponent=0.0)
        with pytest.raises(ValidationError, match=r"^structures\.exponent: rank exponent"):
            surrogate_weights("ref", 4, 0.0)

    @pytest.mark.parametrize("kind", ["cara", UtilityStructure(kind="cara")],
                             ids=["text", "structure"])
    def test_rejects_continuous_kind(self, kind):
        with pytest.raises(ValidationError,
                           match=r"^structures\.kind: 'cara' is not a discrete kind$"):
            surrogate_weights(kind, 5)

    def test_other_kinds_ignore_the_exponent(self):
        assert surrogate_weights("roc", 5, -1.0).tolist() == surrogate_weights("roc", 5).tolist()

    def test_rejects_empty_size(self):
        with pytest.raises(DomainError, match="size must be >= 1"):
            surrogate_weights("rs", 0)


class TestStructureValidation:
    def test_continuous_parameter_invariants(self):
        with pytest.raises(ValidationError):
            UtilityStructure(kind="hara", gamma=0.0)
        with pytest.raises(ValidationError):
            UtilityStructure(kind="crra", gamma=1.2)
        with pytest.raises(ValidationError):
            UtilityStructure(kind="cara", a=0.0)
        with pytest.raises(ValidationError):
            UtilityStructure(kind="sshape", steepness=-1.0)

    def test_round_trip_dict(self):
        doc = {"kind": "hara", "alpha": 2.0, "beta": 1.0, "gamma": 1.5}
        st = UtilityStructure.from_dict(doc)
        assert st == UtilityStructure(kind="hara", alpha=2.0, beta=1.0, gamma=1.5)
        assert {name: getattr(st, name) for name in doc} == doc
        with pytest.raises(ValidationError):
            UtilityStructure.from_dict({"kind": "hara", "bogus": 1})

    @pytest.mark.parametrize("kind, name", [
        (kind, name) for kind in DISCRETE_KINDS + CONTINUOUS_KINDS
        for name in ("exponent", "alpha", "beta", "gamma", "a", "steepness")
        if name not in KIND_PARAMETERS[kind]])
    def test_parameter_the_kind_does_not_read(self, kind, name):
        with pytest.raises(ValidationError) as info:
            UtilityStructure.from_dict({"kind": kind, name: 3}, "structures.cells.E1.C2")
        assert info.value.path == f"structures.cells.E1.C2.{name}"

    @pytest.mark.parametrize("kind, name", [
        (kind, name) for kind in DISCRETE_KINDS + CONTINUOUS_KINDS
        for name in ("exponent", "alpha", "beta", "gamma", "a", "steepness")
        if name not in KIND_PARAMETERS[kind]])
    def test_constructor_refuses_parameter_the_kind_does_not_read(self, kind, name):
        # a changed unread parameter would make two equal structures compare unequal
        with pytest.raises(ValidationError) as info:
            UtilityStructure(kind=kind, **{name: 3.0})
        assert info.value.path == f"structures.{name}"
        assert str(info.value).endswith(f"kind {kind!r} reads no parameter {name!r}")
        valid = {"crra": {"gamma": 0.5}}.get(kind, {})   # crra's default gamma is 1
        default = {f.name: f.default for f in fields(UtilityStructure)}[name]
        same = UtilityStructure(kind=kind, **valid, **{name: default})
        assert same == UtilityStructure(kind=kind, **valid)

    @pytest.mark.parametrize("kind, name", [
        (kind, name) for kind, names in KIND_PARAMETERS.items() for name in names])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "x"],
                             ids=["nan", "inf", "bool", "text"])
    def test_constructor_refuses_a_parameter_that_is_not_a_finite_number(self, kind, name,
                                                                         value):
        valid = {"crra": {"gamma": 0.5}}.get(kind, {})
        with pytest.raises(ValidationError) as info:
            UtilityStructure(kind=kind, **{**valid, name: value})
        assert info.value.path == f"structures.{name}"
        with pytest.raises(ValidationError) as info:
            UtilityStructure(kind=kind, **{**valid, name: value}, path="structures.cells.E1.C2")
        assert info.value.path == f"structures.cells.E1.C2.{name}"

    def test_path_is_no_field(self):
        at_cell = UtilityStructure(kind="cara", a=0.5, path="structures.cells.E1.C2")
        assert at_cell == UtilityStructure(kind="cara", a=0.5)
        assert hash(at_cell) == hash(UtilityStructure(kind="cara", a=0.5))
        assert [f.name for f in fields(UtilityStructure)] == [
            "kind", "exponent", "alpha", "beta", "gamma", "a", "steepness"]

    @pytest.mark.parametrize("kind", [[], {}, None, 3, "bogus"])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValidationError) as info:
            UtilityStructure.from_dict({"kind": kind, "alpha": 3})
        assert info.value.path == "structures.kind"

    def test_benchmark_families_validate_and_round_trip(self):
        # the benchmark documents use one structure object of every kind
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        assert sorted(f["kind"] for f in workloads.FAMILIES) == sorted(KIND_PARAMETERS)
        for family in workloads.FAMILIES:
            st = UtilityStructure.from_dict(family)
            assert UtilityStructure(**family) == st
            assert {name: getattr(st, name) for name in family} == family


def _structure(kind):
    params = {
        "neutral": {},
        "hara": {"alpha": 2.0, "beta": 1.0, "gamma": 1.5},
        "crra": {"alpha": 1.0, "gamma": 0.5},
        "cara": {"a": 0.7},
        "sshape": {"steepness": 1.0},
    }[kind]
    return UtilityStructure(kind=kind, **params)


class TestTargetDensity:
    def test_neutral_is_flat_unit_mass(self):
        d = target_density("neutral", 5)
        assert d.value(np.array([0.5, 2.0, 4.9])) == pytest.approx([0.2, 0.2, 0.2])
        assert d.integral(0, 5) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("kind", CONTINUOUS_KINDS)
    def test_unit_mass_and_positivity(self, kind):
        d = target_density(_structure(kind), 7)
        assert d.integral(0.0, 7.0) == pytest.approx(1.0, abs=1e-10)
        xs = np.linspace(0.01, 6.99, 97)
        assert (d.value(xs) > 0).all()

    def test_hara_is_decreasing_for_positive_gamma(self):
        d = target_density(_structure("hara"), 7)
        xs = np.linspace(0.0, 7.0, 200)
        assert (np.diff(d.value(xs)) < 0).all()

    def test_sshape_symmetric_about_center(self):
        d = target_density(_structure("sshape"), 7)
        for delta in (0.3, 1.1, 2.9):
            assert d.value(4.0 + delta) == pytest.approx(float(d.value(4.0 - delta)),
                                                         rel=1e-13)

    @pytest.mark.parametrize("kind", CONTINUOUS_KINDS)
    def test_segment_integrals_match_quadrature(self, kind):
        d = target_density(_structure(kind), 6)
        rng = np.random.default_rng(20240715)
        for _ in range(100):
            a, b = np.sort(rng.uniform(0.0, 6.0, size=2))
            if b - a < 1e-6:
                continue
            quad, _ = scipy.integrate.quad(lambda x: float(d.value(x)), a, b,
                                           epsabs=1e-13, epsrel=1e-13)
            assert d.integral(a, b) == pytest.approx(quad, abs=1e-9)

    def test_hara_log_integral(self):
        # gamma = 1: the density alpha / (beta + alpha x) integrates to a log
        d = target_density(UtilityStructure(kind="hara", alpha=2.0, beta=1.0, gamma=1.0), 6)
        for a, b in ((0.0, 6.0), (0.0, 1.5), (2.25, 4.0), (5.5, 6.0)):
            closed = math.log((1.0 + 2.0 * b) / (1.0 + 2.0 * a)) / math.log(13.0)
            assert d.integral(a, b) == pytest.approx(closed, rel=1e-14)
        assert d.value(1.5) == pytest.approx(2.0 / 4.0 / math.log(13.0), rel=1e-14)

    def test_cdf_endpoints(self):
        d = target_density(_structure("cara"), 4)
        assert d.cdf(0.0) == pytest.approx(0.0, abs=1e-15)
        assert d.cdf(4.0) == pytest.approx(1.0, abs=1e-12)

    def test_hara_domain_violation(self):
        with pytest.raises(DomainError):
            target_density(UtilityStructure(kind="hara", alpha=2.0, beta=-1.0, gamma=1.5), 7)
        with pytest.raises(DomainError):
            # gamma < 0 turns the base negative inside [0, K]
            target_density(UtilityStructure(kind="hara", alpha=2.0, beta=1.0, gamma=-1.0), 7)

    def test_risk_coefficients(self):
        assert target_density("neutral", 5).risk_coefficient(2.0) == 0.0
        assert target_density(_structure("cara"), 5).risk_coefficient(1.3) == 0.7
        d = target_density(_structure("hara"), 7)
        assert d.risk_coefficient(2.0) == pytest.approx(6.0 / 11.0, abs=1e-14)
        assert target_density(_structure("crra"), 7).risk_coefficient(2.0) == \
            pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("kind", CONTINUOUS_KINDS)
    def test_risk_coefficient_matches_log_derivative(self, kind):
        d = target_density(_structure(kind), 6)
        h = 1e-6
        for x in (0.7, 2.2, 4.9):
            fd = -(np.log(d.value(x + h)) - np.log(d.value(x - h))) / (2 * h)
            assert d.risk_coefficient(x) == pytest.approx(float(fd), abs=1e-6)

    def test_overflowing_mass_is_domain_error(self):
        with pytest.raises(DomainError, match=r"cara density mass on \[0, 30\] overflows"):
            target_density(UtilityStructure(kind="cara", a=-25.0), 30)

    def test_rejects_discrete_kind(self):
        with pytest.raises(ValidationError):
            TargetDensity(UtilityStructure(kind="roc"), 5)

    def test_rejects_empty_size(self):
        with pytest.raises(DomainError, match="size must be >= 1"):
            target_density("neutral", 0)

    def test_risk_coefficient_outside_the_domain(self):
        # the hara base 1 + (4/3) x is negative at x = -1
        with pytest.raises(DomainError, match="x=-1 outside the density domain"):
            target_density(_structure("hara"), 7).risk_coefficient(-1.0)
