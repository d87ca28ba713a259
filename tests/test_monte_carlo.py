"""Monte Carlo on product fibers draws classes, not symbols.

At depth 1 each position's uniform is mapped straight to its class (which
distinct target symbol, or none).  Over the same streams this must give
the law of the words that ``word_sampler.sampled_words`` resolves from the
whole alphabet's cumulative weights, bit for bit, whatever the slab size:
every sampled symbol lies in the class its uniform falls in.  At depth > 1
the class masks compare the sampled words themselves, with the same
result.  The vectorised window counter and the cluster estimator must keep
the integers of the streaming window masks, and countable Monte Carlo must
agree with the exact DP within its sampling error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reclab import (
    CountableModel,
    GibbsSystem,
    MarginalModel,
    Potential,
    TransitionMatrix,
    TwoElementModel,
    exact_count_distribution,
    monte_carlo_count_distribution,
    theta_cluster_estimate,
)
from reclab import sampling
from reclab.returns import _window_counts
from word_sampler import sampled_words

TWO = TwoElementModel(0.3, 0.7, 0.5)
COUNTABLE = CountableModel(0.5, alphabet_cutoff=64)
CASES = [
    pytest.param(model, target, id=f"{name}-{'.'.join(map(str, target))}")
    for name, model, targets in (
        ("two-element", TWO, [(0,), (1,), (1, 0, 1)]),
        ("countable", COUNTABLE, [(3,), (4, 3, 4), (3, 5)]),
        ("marginal-two-element", MarginalModel(TWO), [(0,), (1,), (1, 0, 1)]),
        ("marginal-countable", MarginalModel(COUNTABLE), [(3,), (4, 3, 4), (3, 5)]),
    )
    for target in targets
]
GOLDEN = TransitionMatrix([[1, 1], [1, 0]])
GOLDEN_MEAN = GibbsSystem(GOLDEN, Potential.constant(0.0, GOLDEN, depth=2))
DEPTH_THREE = GibbsSystem(GOLDEN, Potential(3, {
    w: float(v) for w, v in zip(GOLDEN.admissible_tuples(3), np.random.default_rng(3).normal(size=5))
}))
GIBBS_CASES = [
    pytest.param(model, target, id=f"{name}-{'.'.join(map(str, target))}")
    for name, model in (("golden-mean", GOLDEN_MEAN), ("depth-three", DEPTH_THREE))
    for target in [(0, 1), (0, 1, 0)]
]
HORIZON, TRIALS, R_MAX = 300, 3_000, 12


def _window_matches(words, target, horizon: int):
    """For j = 1..horizon in turn, the mask of the rows of ``words`` (rows,
    length) whose window ``words[:, j : j + len(target)]`` equals the target:
    the columns of ``returns._window_mask``, one at a time."""
    for j in range(1, horizon + 1):
        match = np.ones(words.shape[0], dtype=bool)
        for d, s in enumerate(target):
            match &= words[:, j + d] == s
        yield match


def _sampled_words(model, env, length: int, trials: int, seed):
    """``sampled_words`` over Monte Carlo's streams, one child stream of
    ``seed`` (``sampling._STREAM_ROWS`` rows) at a time."""
    for take, rng in sampling._chunk_streams(trials, seed):
        yield sampled_words(model, env, length, take, rng)


def _law_of_sampled_words(model, env, target, seed):
    """The law over ``sampled_words``, counted by the window masks."""
    hist = np.zeros(R_MAX + 2, dtype=np.int64)
    length = HORIZON + len(target)
    for words in _sampled_words(model, env, length, TRIALS, seed):
        counts = sum(_window_matches(words, target, HORIZON))
        np.add.at(hist, np.minimum(counts, R_MAX + 1), 1)
    return tuple(float(h) / TRIALS for h in hist[: R_MAX + 1]), float(hist[-1]) / TRIALS


def _monte_carlo(model, env, target, seed):
    return monte_carlo_count_distribution(model, env, target, HORIZON, TRIALS, seed, r_max=R_MAX)


@pytest.mark.parametrize("model, target", CASES + GIBBS_CASES)
def test_class_draws_give_the_law_of_the_sampled_words(model, target):
    env = model.draw_environment(HORIZON + len(target), 4)
    mc = _monte_carlo(model, env, target, seed=9)
    assert (mc.masses, mc.tail_mass) == _law_of_sampled_words(model, env, target, seed=9)
    assert mc.bias_bound == 0.0


@pytest.mark.parametrize("model, target", [CASES[2], CASES[5], CASES[11]])
def test_slab_size_does_not_change_the_law(monkeypatch, model, target):
    env = model.draw_environment(HORIZON + len(target), 6)
    law = _monte_carlo(model, env, target, seed=2)  # slabs of _MC_SLAB_FLOATS uniforms
    # one row of uniforms, and one position of weights, per slab
    monkeypatch.setattr(sampling, "_SLAB_CELLS", 1)
    assert _monte_carlo(model, env, target, seed=2) == law
    monkeypatch.setattr(sampling, "_MC_SLAB_FLOATS", 1)
    assert _monte_carlo(model, env, target, seed=2) == law
    # 2**20 uniforms: every row of the stream in one slab
    monkeypatch.setattr(sampling, "_MC_SLAB_FLOATS", 1 << 20)
    assert _monte_carlo(model, env, target, seed=2) == law


@pytest.mark.parametrize(
    "model, target, period",
    [
        pytest.param(TWO, (0, 0), 1, id="two-element"),
        pytest.param(COUNTABLE, (3, 3), 1, id="countable"),
        pytest.param(MarginalModel(COUNTABLE), (3, 4, 3), 2, id="marginal-countable"),
        pytest.param(GOLDEN_MEAN, (0, 1, 0), 2, id="golden-mean"),
    ],
)
def test_theta_cluster_estimate_reads_the_window_matches(model, target, period):
    trials, seed = 5_000, 11  # two child streams: 4,096 rows, then 904
    length = HORIZON + len(target)
    env = model.draw_environment(length, 8)
    est = theta_cluster_estimate(model, env, target, period, HORIZON, trials, seed)
    at_period = returns_total = 0
    for words in _sampled_words(model, env, length, trials, seed):
        match = np.stack(list(_window_matches(words, target, HORIZON)), axis=1)
        returns_total += int(match.sum())
        at_period += int((match[:, period:] & match[:, :-period]).sum())
    assert at_period > 0
    assert est == at_period / returns_total


@pytest.mark.parametrize("model, target", CASES)
def test_sampled_symbols_fall_in_the_class_of_their_uniform(model, target):
    length, trials = 200, 500
    env = model.draw_environment(length, 5)
    distinct = sorted(set(target), key=model.alphabet.index)
    lo, hi = sampling._class_bounds(model, env, distinct, length)
    words = sampled_words(model, env, length, trials, np.random.default_rng(1))
    u = np.random.default_rng(1).random((trials, length))
    for j, s in enumerate(distinct):
        assert np.array_equal(words == s, (u >= lo[j]) & (u < hi[j]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.floats(min_value=0.2, max_value=0.9),
    st.lists(st.integers(3, 6), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**16),
)
def test_countable_monte_carlo_agrees_with_the_exact_dp(epsilon, target, horizon, seed):
    model = CountableModel(epsilon, alphabet_cutoff=64)
    env = model.draw_environment(horizon + len(target), seed)
    trials = 4_000
    dp = exact_count_distribution(model, env, target, horizon, r_max=horizon)
    mc = monte_carlo_count_distribution(model, env, target, horizon, trials, seed, r_max=horizon)
    # 4 sigma, plus 8 counts: a mass of 1e-6 is still seen once in 4,000 trials
    # with probability 0.4%, which the normal band alone would call an error
    for p, q in zip(dp.masses, mc.masses):
        assert abs(q - p) <= 4 * np.sqrt(p * (1 - p) / trials) + 8 / trials


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(0, 2), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
def test_window_counts_equal_the_summed_window_masks(rows, target, horizon, extra, data):
    length = horizon + len(target) + extra
    cells = data.draw(
        st.lists(st.integers(0, 2), min_size=rows * length, max_size=rows * length)
    )
    words = np.reshape(np.array(cells, dtype=np.int64), (rows, length))
    streamed = np.zeros(rows, dtype=np.int64)
    for match in _window_matches(words, target, horizon):
        streamed += match
    assert _window_counts(words, target, horizon).tolist() == streamed.tolist()
