"""The block-step operator against its dense reference: the plain counting
step run on every basis table, as the build did before it added the emitting
part one entry at a time."""

import math
import tracemalloc

import numpy as np
import pytest

from reclab import (
    GibbsSystem,
    PeriodicPoint,
    Potential,
    TransitionMatrix,
    Word,
    exact_count_distribution,
    observation_time,
)
from reclab import returns

GOLDEN = TransitionMatrix([[1, 1], [1, 0]])


def _dense_block_operator(keep_op, emit_op, bins, block):
    """``block`` plain ``_count_step``s on the stack of basis tables."""
    states = keep_op.shape[0]
    tables = np.zeros((states, states, bins))
    tables[np.arange(states), np.arange(states), 0] = 1.0
    shifted = np.empty_like(tables)
    for _ in range(block):
        tables = returns._count_step(keep_op, emit_op, tables, shifted)
    return np.ascontiguousarray(tables.transpose(1, 2, 0)).reshape(states, bins * states)


def _stationary_run(monkeypatch, system, target, horizon, r_max):
    """(keep_op, emit_op, bins, block) of the exact DP's stationary run."""
    runs = []
    counting_steps = returns._counting_steps

    def spy_steps(keep_op, emit_op, dist, steps):
        runs.append((keep_op.copy(), emit_op.copy(), dist.shape, steps))
        return counting_steps(keep_op, emit_op, dist, steps)

    monkeypatch.setattr(returns, "_counting_steps", spy_steps)
    exact_count_distribution(system, None, target, horizon, r_max=r_max)
    (keep_op, emit_op, (states, bins), steps), = runs
    return keep_op, emit_op, bins, max(1, round(math.sqrt(steps * bins / states)))


def _golden(n):
    system = GibbsSystem(GOLDEN, Potential.constant(0.0, GOLDEN, depth=2))
    target = PeriodicPoint(Word((0,))).prefix(n)
    return system, target, observation_time(1.0, system.cylinder_mass(target))


def _depth_three():
    rng = np.random.default_rng(3)
    words = GOLDEN.admissible_tuples(3)
    system = GibbsSystem(GOLDEN, Potential(3, {w: float(rng.normal(scale=0.5)) for w in words}))
    target = (0, 1, 0, 0, 1, 0)
    return system, target, 3 * observation_time(1.0, system.cylinder_mass(target))


@pytest.mark.parametrize(
    "case", [lambda: _golden(12), lambda: _golden(20), lambda: _golden(24), _depth_three],
    ids=["golden-n12", "golden-n20", "golden-n24", "depth3-n6"],
)
def test_block_operator_has_the_dense_bits(monkeypatch, case):
    keep_op, emit_op, bins, block = _stationary_run(monkeypatch, *case(), r_max=64)
    # every emit row has at most one entry: the target is at least as long
    # as the potential's depth
    assert np.count_nonzero(emit_op, axis=1).max() == 1
    fast = returns._block_operator(keep_op, emit_op, bins, block)
    dense = _dense_block_operator(keep_op, emit_op, bins, block)
    np.testing.assert_array_equal(fast.view(np.int64), dense.view(np.int64))


def test_block_operator_rows_with_several_emits_round_within_the_step_bound(monkeypatch):
    # depth 4 > n = 2: a completion's target state forgets the oldest symbol
    # of its source, so several sources emit into one row
    rng = np.random.default_rng(7)
    full = TransitionMatrix.full(2)
    system = GibbsSystem(full, Potential(4, {w: float(rng.normal(scale=0.5))
                                             for w in full.admissible_tuples(4)}))
    target = (0, 1)
    horizon = 20 * observation_time(1.0, system.cylinder_mass(target))
    keep_op, emit_op, bins, block = _stationary_run(monkeypatch, system, target, horizon, 16)
    assert np.count_nonzero(emit_op, axis=1).max() > 1
    fast = returns._block_operator(keep_op, emit_op, bins, block)
    dense = _dense_block_operator(keep_op, emit_op, bins, block)
    # each of the block's steps rounds a column's mass (at most 1) by a few
    # units in the last place at most
    np.testing.assert_allclose(fast, dense, rtol=0, atol=block * 2.0**-52)


def _dense_apply(power, dist):
    """The block operator times the whole lagged table: lagged[d, j, c] =
    dist[j, c - d], and the top bin holds the mass of every count of at
    least bins - 1 - d, summed from the top."""
    states, bins = dist.shape
    lagged = np.zeros((bins, states, bins))
    top = np.zeros(states)
    for d in range(bins):
        lagged[d, :, d:] = dist[:, : bins - d]
        top += dist[:, bins - 1 - d]
        lagged[d, :, -1] = top
    return power @ lagged.reshape(bins * states, bins)


@pytest.mark.parametrize("r_max", [0, 3, 64])
@pytest.mark.parametrize("columns", [1, 2, 5, None], ids=["1", "2", "5", "all"])
def test_slabs_of_count_columns_apply_the_block_operator(monkeypatch, r_max, columns):
    system, target, horizon = _golden(8)
    keep_op, emit_op, bins, block = _stationary_run(monkeypatch, system, target, horizon, r_max)
    states = keep_op.shape[0]
    power = returns._block_operator(keep_op, emit_op, bins, block)
    dist = np.random.default_rng(r_max).random((states, bins))
    dense = _dense_apply(power, dist)
    monkeypatch.setattr(returns, "_LAGGED_SLAB_FLOATS", (columns or bins) * bins * states)
    slabbed = returns._apply_block(power, dist)
    if columns is None or columns >= bins:  # one slab: the dense product
        np.testing.assert_array_equal(slabbed.view(np.int64), dense.view(np.int64))
    else:
        # every term is nonnegative, so each entry rounds by at most one unit
        # in the last place per term
        np.testing.assert_allclose(slabbed, dense, rtol=bins * states * 2.0**-52, atol=0)
    assert dense[:, -1].any()  # the top bin is compared too


def test_a_wide_count_axis_takes_the_block_path_in_bounded_memory(monkeypatch):
    # the whole lagged table would be (bins, states, bins): 69 MB at
    # r_max = 1,500 over the 4 live states of this target
    system = GibbsSystem(GOLDEN, Potential.constant(0.0, GOLDEN, depth=2))
    target, horizon = (0, 0, 0, 0), 20_000
    applied = []
    apply_block = returns._apply_block

    def spy_apply(power, dist):
        applied.append(1)
        return apply_block(power, dist)

    monkeypatch.setattr(returns, "_apply_block", spy_apply)
    tracemalloc.start()
    try:
        law = exact_count_distribution(system, None, target, horizon, r_max=1_500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert applied
    assert peak < 4 << 20
    assert abs(law.total() - 1.0) < 1e-9
    applied.clear()
    monkeypatch.setattr(returns, "_BLOCK_FLOATS_MAX", 0)
    loop = exact_count_distribution(system, None, target, horizon, r_max=1_500)
    assert not applied  # the plain loop
    # the DP's rounding bound, L * 2**-52 over L = horizon + n positions
    bound = (horizon + len(target)) * 2.0**-52
    np.testing.assert_allclose(law.masses, loop.masses, rtol=0, atol=bound)
    assert abs(law.tail_mass - loop.tail_mass) <= bound
