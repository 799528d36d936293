import importlib.util
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

    def test_uniform_kind_is_flat(self):
        assert surrogate_weights("uniform", 5) == pytest.approx(np.full(5, 0.2))

    def test_structure_object_carries_exponent(self):
        st = UtilityStructure(kind="ref", exponent=2.0)
        raw = np.array([(5 - r) ** 2.0 for r in range(1, 5)])
        assert surrogate_weights(st, 4) == pytest.approx(raw / raw.sum())

    def test_rejects_unknown_kind_and_bad_exponent(self):
        with pytest.raises(ValidationError):
            surrogate_weights("zipf", 4)
        with pytest.raises(ValidationError):
            UtilityStructure(kind="ref", exponent=0.0)


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
        st = UtilityStructure(kind="hara", alpha=2.0, beta=1.0, gamma=1.5)
        assert UtilityStructure.from_dict(st.to_dict()) == st
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
            out = st.to_dict()
            assert list(out) == ["kind", *KIND_PARAMETERS[st.kind]]
            assert {**out, **family} == out
            assert UtilityStructure.from_dict(out) == st


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

    def test_rejects_discrete_kind(self):
        with pytest.raises(ValidationError):
            TargetDensity(UtilityStructure(kind="roc"), 5)
