"""The projected Newton core of `gopa.projection` against three references.

The working-set core it replaced (`oracles.working_set_kl_project`), the
closed form of the rank-order chain alone, and the KKT conditions on the cell
that made the old core's per-cell tail.
"""

import numpy as np
import pytest

import gopa.projection
from gopa.elicit_continuous import elicit_continuous
from gopa.elicit_discrete import elicit_discrete, kkt_residual_discrete
from gopa.exceptions import NumericFailure
from gopa.model import CellContext
from gopa.projection import kl_project
from gopa.structures import UtilityStructure, surrogate_weights, target_density

from oracles import (
    isotonic_kl_projection,
    newton_refine,
    random_continuous_context,
    random_discrete_context,
    working_set_kl_project,
)

SURROGATES = ("rs", "ref", "rr", "sr", "roc", "uniform")
DENSITIES = ("neutral", UtilityStructure(kind="hara", alpha=2.0, beta=1.0, gamma=1.5),
             UtilityStructure(kind="crra", alpha=1.0, gamma=0.5),
             UtilityStructure(kind="cara", a=0.6), UtilityStructure(kind="sshape"))


def test_matches_working_set_core(monkeypatch):
    calls = []
    core = gopa.projection.kl_project

    def record(*args):
        calls.append(args)
        return core(*args)

    monkeypatch.setattr(gopa.projection, "kl_project", record)
    rng = np.random.default_rng(2024)
    for n in range(1200):
        size = int(rng.integers(2, 31))
        if n % 2:
            ctx, _ = random_discrete_context(rng, size)
            elicit_discrete(surrogate_weights(SURROGATES[n // 2 % 6], size), ctx, size)
        else:
            ctx, _ = random_continuous_context(rng, size)
            elicit_continuous(target_density(DENSITIES[n // 2 % 5], size), ctx, size,
                              bound_mode=("equality", "inequality")[n // 2 % 2])
    assert len(calls) >= 1200
    for base, rows, rhs, n_eq in calls:
        try:
            _, y_ref = working_set_kl_project(base, rows, rhs, n_eq)
        except NumericFailure:
            with pytest.raises(NumericFailure):
                core(base, rows, rhs, n_eq)
            continue
        x, y = core(base, rows, rhs, n_eq)
        assert x == pytest.approx(newton_refine(base, rows, rhs, n_eq, y_ref), abs=1e-12)
        assert (y[n_eq:] >= 0.0).all()


def test_rank_order_chain_is_isotonic():
    rng = np.random.default_rng(88)
    for _ in range(300):
        size = int(rng.integers(2, 31))
        base = rng.uniform(0.05, 1.0, size) ** 2
        rows = np.eye(size)[:-1] - np.eye(size)[1:]
        x, _ = kl_project(base, rows, np.zeros(size - 1), 0)
        assert x == pytest.approx(isotonic_kl_projection(base), abs=1e-12)


def test_uniform_tail_cell(monkeypatch):
    # case_mix seed 2, document 17, cell E3/C1: every rank-order row starts
    # tight, so the working-set core added them one at a time (about 80 steps)
    ctx = CellContext(ratio=((19, 1.1084758920594369),),
                      absdiff=((2, 0.002467184027710005), (11, 0.0008924754906487614),
                               (20, 0.0012186439679401605)))
    target = surrogate_weights("uniform", 30)
    monkeypatch.setattr(gopa.projection, "_BUDGET", 20)
    u = elicit_discrete(target, ctx, 30)
    assert kkt_residual_discrete(u, target, ctx) <= 1e-12
