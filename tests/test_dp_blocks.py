"""The Markov exact DP's block path and state pruning against the plain step loop."""

import numpy as np
import pytest

from reclab import (
    GibbsSystem,
    PeriodicPoint,
    Potential,
    TransitionMatrix,
    Word,
    bernoulli_potential,
    exact_count_distribution,
    observation_time,
)
from reclab import returns

GOLDEN = TransitionMatrix([[1, 1], [1, 0]])


def _laws(monkeypatch, system, target, horizon, r_max):
    """(default law, plain-loop law, blocks applied, live states, joint states)."""
    applied = []
    live = []
    apply_block = returns._apply_block
    counting_steps = returns._counting_steps

    def spy_apply(power, dist):
        applied.append(1)
        return apply_block(power, dist)

    def spy_steps(keep_op, emit_op, dist, steps):
        live.append(dist.shape[0])
        return counting_steps(keep_op, emit_op, dist, steps)

    monkeypatch.setattr(returns, "_apply_block", spy_apply)
    monkeypatch.setattr(returns, "_counting_steps", spy_steps)
    fast = exact_count_distribution(system, None, target, horizon, r_max=r_max)
    blocks = len(applied)
    # no block operator fits in zero floats: the plain loop runs every step
    monkeypatch.setattr(returns, "_BLOCK_FLOATS_MAX", 0)
    plain = exact_count_distribution(system, None, target, horizon, r_max=r_max)
    assert len(applied) == blocks
    joint = len(system.states) * len(target)
    return fast, plain, blocks, live[0], joint


def _assert_close(fast, plain, tol=1e-12):
    assert fast.r_max == plain.r_max
    np.testing.assert_allclose(fast.masses, plain.masses, rtol=0, atol=tol)
    assert abs(fast.tail_mass - plain.tail_mass) <= tol
    assert abs(fast.total() - plain.total()) <= tol


def test_blocks_match_loop_golden_mean_deep_cylinder(monkeypatch):
    system = GibbsSystem(GOLDEN, Potential.constant(0.0, GOLDEN, depth=2))
    target = PeriodicPoint(Word((0,))).prefix(20)
    horizon = observation_time(1.0, system.cylinder_mass(target))
    assert horizon == 12_920
    fast, plain, blocks, live, joint = _laws(monkeypatch, system, target, horizon, 64)
    assert blocks > 0
    assert live == joint // 2  # the chain state fixes the automaton's last symbol
    _assert_close(fast, plain)


def test_blocks_match_loop_when_top_bin_absorbs(monkeypatch):
    system = GibbsSystem(GOLDEN, Potential.constant(0.0, GOLDEN, depth=2))
    fast, plain, blocks, _, _ = _laws(monkeypatch, system, (0, 0), 20_000, 2)
    assert blocks > 0
    assert fast.tail_mass > 0.99
    _assert_close(fast, plain)


def test_blocks_match_loop_depth_three_constrained(monkeypatch):
    rng = np.random.default_rng(3)
    words = GOLDEN.admissible_tuples(3)
    system = GibbsSystem(GOLDEN, Potential(3, {w: float(rng.normal(scale=0.5)) for w in words}))
    target = (0, 1, 0, 0, 1, 0)
    horizon = 3 * observation_time(1.0, system.cylinder_mass(target))
    fast, plain, blocks, live, joint = _laws(monkeypatch, system, target, horizon, 16)
    assert blocks > 0
    assert live < joint
    _assert_close(fast, plain)


def test_blocks_match_loop_full_shift_prunes_nothing(monkeypatch):
    system = GibbsSystem(TransitionMatrix.full(3), bernoulli_potential([0.2, 0.5, 0.3]))
    target = (1, 2, 1, 1)
    horizon = 4 * observation_time(1.0, system.cylinder_mass(target))
    fast, plain, blocks, live, joint = _laws(monkeypatch, system, target, horizon, 12)
    assert blocks > 0
    assert live == joint
    _assert_close(fast, plain)


def test_short_horizon_stays_on_the_loop(monkeypatch):
    system = GibbsSystem(GOLDEN, Potential.constant(0.0, GOLDEN, depth=2))
    fast, plain, blocks, _, _ = _laws(monkeypatch, system, (0, 0, 0), 6, 64)
    assert blocks == 0
    assert fast.masses == plain.masses


@pytest.mark.parametrize("steps", [0, 1, 97, 1_000])
def test_counting_steps_against_the_plain_step(steps):
    rng = np.random.default_rng(steps)
    states, bins = 5, 7
    ops = rng.random((2, states, states))
    ops /= ops.sum(axis=(0, 1))  # columns of keep + emit sum to one
    dist = rng.random((states, bins))
    dist /= dist.sum()
    plain = dist
    shifted = np.empty_like(dist)
    for _ in range(steps):
        plain = returns._count_step(ops[0], ops[1], plain, shifted)
    fast = returns._counting_steps(ops[0], ops[1], dist, steps)
    np.testing.assert_allclose(fast, plain, rtol=0, atol=1e-13)
    assert fast.sum() == pytest.approx(1.0, abs=1e-12)
