"""The exact DP's rounding bound: total mass and mean within 2 * L * eps.

Rounding accumulates over the L = horizon + n steps, so the total mass
misses 1, and the mean misses ``expected_return_count``, by an amount that
grows linearly in L (at most 1.33 * L * eps on these cases).  r_max is set
high enough that the truncated tail cannot move the mean.
"""

import numpy as np
import pytest

from reclab import (
    GibbsSystem,
    MarginalModel,
    PeriodicPoint,
    Potential,
    TransitionMatrix,
    TwoElementModel,
    Word,
    exact_count_distribution,
    expected_return_count,
    observation_time,
)

EPS = 2.0**-52
GOLDEN = TransitionMatrix([[1, 1], [1, 0]])
FIXED = PeriodicPoint(Word((0,)))


def _golden(n):
    system = GibbsSystem(GOLDEN, Potential.constant(0.0, GOLDEN, depth=2))
    target = FIXED.prefix(n)
    return system, None, target, observation_time(1.0, system.cylinder_mass(target))


def _depth_three():
    rng = np.random.default_rng(3)
    words = GOLDEN.admissible_tuples(3)
    system = GibbsSystem(GOLDEN, Potential(3, {w: float(rng.normal(scale=0.5)) for w in words}))
    target = (0, 1, 0, 0, 1, 0)
    return system, None, target, 3 * observation_time(1.0, system.cylinder_mass(target))


def _two_element(marginal):
    model = TwoElementModel(0.3, 0.7, 0.5)
    if marginal:
        model = MarginalModel(model)
    target = FIXED.prefix(14)
    horizon = observation_time(1.0, model.marginal_cylinder_mass(target))
    return model, model.draw_environment(horizon + 14, 1), target, horizon


CASES = {
    "golden-mean-n20": lambda: _golden(20),
    "golden-mean-n24": lambda: _golden(24),
    "depth-three-potential": _depth_three,
    "two-element-n14": lambda: _two_element(False),
    "two-element-marginal-n14": lambda: _two_element(True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_total_and_mean_within_linear_rounding_bound(case):
    model, env, target, horizon = CASES[case]()
    length = horizon + len(target)
    law = exact_count_distribution(model, env, target, horizon, r_max=128, budget_cells=10**10)
    assert law.tail_mass < 1e-20
    expected = expected_return_count(model, env, target, horizon)
    assert abs(law.total() - 1.0) <= 2 * length * EPS
    assert abs(law.mean() - expected) <= 2 * length * EPS * max(1.0, expected)
