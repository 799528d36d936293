"""One `PiecewiseDensity.cdf` path for points and arrays, bit for bit."""

import numpy as np
import pytest

from gopa.elicit_continuous import cumulative_utilities, elicit_continuous
from gopa.structures import target_density

from model_helpers import ALL_STRUCTURES
from oracles import cumulative_utilities_by_rank, point_cdf, random_continuous_context

CONTINUOUS = [s for s in ALL_STRUCTURES if not s.is_discrete]


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def solved_densities(structure):
    rng = np.random.default_rng(sorted(s.kind for s in CONTINUOUS).index(structure.kind))
    for size in range(1, 31):
        ctx, _ = random_continuous_context(rng, size, max_constraints=4)
        yield rng, elicit_continuous(target_density(structure, size), ctx, size)


@pytest.mark.parametrize("structure", CONTINUOUS, ids=lambda s: s.kind)
def test_array_cdf_equals_pointwise_cdf(structure):
    for rng, density in solved_densities(structure):
        xs = np.concatenate([rng.uniform(0.0, density.size, 25), density.breakpoints,
                             np.arange(density.size + 1.0)])
        values = density.cdf(xs)
        assert values.shape == xs.shape
        assert bits(values) == bits([density.cdf(x) for x in xs])
        assert bits(values) == bits([point_cdf(density, x) for x in xs])
        assert density.cdf(xs.reshape(-1, 1)).shape == (xs.size, 1)


@pytest.mark.parametrize("structure", CONTINUOUS, ids=lambda s: s.kind)
def test_cumulative_utilities_equal_rank_loop(structure):
    for _, density in solved_densities(structure):
        assert (bits(cumulative_utilities(density))
                == bits(cumulative_utilities_by_rank(density)))


def test_scalar_cdf_is_a_scalar():
    _, density = next(solved_densities(CONTINUOUS[0]))
    value = density.cdf(float(density.size))
    assert np.ndim(value) == 0 and isinstance(value, float)
    assert value == pytest.approx(1.0, abs=1e-12)
