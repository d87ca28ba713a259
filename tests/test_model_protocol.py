"""The engines against the model protocol alone.

A toy model that implements only the protocol (no reclab base class) runs
through every engine; the shared entry check refuses bad arguments on every
engine; random Markov Gibbs systems on constrained shifts keep the exact DP
equal to enumeration; the streaming window counter keeps the integers of the
plain slice comparisons; the cluster estimator counts the returns of the
sampled words on every model family; the DP on a ``MarginalModel`` is the
exact environment average of the quenched DP laws; every model's
``dp_tables`` from a start position gives the rows of its whole call.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reclab import (
    BudgetError,
    CountableModel,
    Environment,
    ExperimentConfig,
    GibbsSystem,
    MarginalModel,
    PeriodicPoint,
    Potential,
    TransitionMatrix,
    TwoElementModel,
    Word,
    as_word,
    binomial_moment_enumeration,
    count_returns,
    enumerate_count_distribution,
    exact_count_distribution,
    expected_return_count,
    monte_carlo_count_distribution,
    rare_vs_main_split,
    run_quenched,
    theta_cluster_estimate,
)
from reclab import sampling
from word_sampler import sampled_words


class ToyModel:
    """Three symbols with weights (u/2, (1 - u)/2, 1/2) at coordinate u, so the
    fiber weights vary by position; the model protocol and nothing else."""

    alphabet = range(3)
    tail_mass_bound = 0.0
    depth = 1
    environment_free = False

    def draw_environment(self, window_length, seed):
        rng = np.random.default_rng(seed)
        return Environment(window=rng.random(window_length))

    def validate_target(self, target):
        tw = as_word(target).symbols
        if any(s not in self.alphabet for s in tw):
            raise ValueError(f"toy symbols are 0, 1, 2; got {tw}")
        return tw

    def symbol_weight_matrix(self, env, start, length, symbols):
        u = env.coordinates(start, length)
        table = np.column_stack([u / 2, (1 - u) / 2, np.full(length, 0.5)])
        return table[:, list(symbols)]

    def marginal_symbol_weights(self, symbols):
        return np.array([0.25, 0.25, 0.5])[list(symbols)]

    def dp_width(self, tw):
        return len(self.alphabet)

    def dp_tables(self, env, tw, length, start=0):
        # one chain state and every symbol in its own column, none lumped
        weights = self.symbol_weight_matrix(env, start, length - start, self.alphabet)
        return list(self.alphabet), [()], [1.0], weights[:, :, None, None]


@pytest.mark.parametrize("target, horizon", [((0, 2), 8), ((2, 2, 2), 7), ((1, 0, 1), 6)])
def test_toy_model_runs_every_engine(target, horizon):
    toy = ToyModel()
    env = toy.draw_environment(horizon + len(target), 5)
    dp = exact_count_distribution(toy, env, target, horizon, r_max=horizon)
    brute = enumerate_count_distribution(toy, env, target, horizon)
    np.testing.assert_allclose(dp.masses, brute.masses, rtol=0, atol=1e-12)
    assert dp.tail_mass <= 1e-12

    trials = 20_000
    mc = monte_carlo_count_distribution(toy, env, target, horizon, trials, seed=3, r_max=horizon)
    for r in range(horizon + 1):
        se = math.sqrt(max(dp.masses[r] * (1 - dp.masses[r]), 1e-12) / trials)
        assert abs(mc.masses[r] - dp.masses[r]) <= 4 * se + 1e-9

    for k in range(4):
        moment = binomial_moment_enumeration(toy, env, target, horizon, k)
        assert moment == pytest.approx(dp.binomial_moment(k), rel=1e-10, abs=1e-12)
    assert expected_return_count(toy, env, target, horizon) == pytest.approx(dp.mean(), abs=1e-12)


class QuenchedToyModel(ToyModel):
    """The toy model plus what a quenched experiment reads besides the
    engines: marginal cylinder masses (its horizons) and theta (its limit law)."""

    def marginal_cylinder_mass(self, word):
        return float(np.prod(self.marginal_symbol_weights(as_word(word).symbols)))

    def theta(self, point):
        return 0.5


def test_toy_model_runs_a_quenched_experiment_over_several_environments():
    toy = QuenchedToyModel()
    config = ExperimentConfig(
        toy, PeriodicPoint(Word((0, 2))), (4, 6), 4.0,
        environments=3, master_seed=7, engines=("exact-dp",), r_max=10,
    )
    results = run_quenched(config)
    for k, n in enumerate(config.n_list):
        laws = []
        for res in results:
            row = res.rows[k]
            alone = exact_count_distribution(toy, res.environment, config.point.prefix(n),
                                             row.horizon, r_max=config.r_max)
            assert (row.distribution.masses, row.distribution.tail_mass) == (
                alone.masses, alone.tail_mass)
            laws.append(alone.masses)
        assert len(set(laws)) == config.environments


def test_marginal_model_of_the_toy_samples_and_runs_the_dp():
    marg = MarginalModel(ToyModel())
    env = marg.draw_environment(40, 2)
    # Monte Carlo's class masks of the three symbols, over 5,000 rows of 40
    counts = np.zeros(3)
    for hits, _ in sampling._sampled_classes(marg, env, (0, 1, 2), 37, 5_000, 4):
        counts += hits[:3].sum(axis=(1, 2))
    cells = 5_000 * 40
    for s, p in enumerate((0.25, 0.25, 0.5)):
        assert abs(counts[s] / cells - p) <= 4 * math.sqrt(p * (1 - p) / cells)
    dp = exact_count_distribution(marg, env, (2, 0), 30, r_max=30)
    assert dp.mean() == pytest.approx(30 * 0.5 * 0.25, abs=1e-12)


TWO = TwoElementModel(0.3, 0.7, 0.5)
ENV = TWO.draw_environment(20, 0)


def _held(tables, start, stop):
    """Rows start..stop-1 of a weight-table stack, its last row holding for
    every later position."""
    return tables[np.minimum(np.arange(start, stop), len(tables) - 1)]


def _depth_three_golden_mean():
    golden = TransitionMatrix([[1, 1], [1, 0]])
    words = golden.admissible_tuples(3)
    return GibbsSystem(golden, Potential(3, {w: 0.3 * i - 0.5 for i, w in enumerate(words)}))


@pytest.mark.parametrize(
    "model, target",
    [
        pytest.param(TWO, (0, 1, 0), id="two-element"),
        pytest.param(CountableModel(0.5, alphabet_cutoff=64), (3, 4, 3), id="countable"),
        pytest.param(MarginalModel(TWO), (0, 1), id="marginal"),
        pytest.param(_depth_three_golden_mean(), (0, 1, 0), id="gibbs-depth-3"),
        pytest.param(ToyModel(), (0, 2), id="toy"),
    ],
)
def test_dp_tables_from_a_start_position_are_rows_of_the_whole_call(model, target):
    # the exact DP reads every model's tables whole once, then a chunk at a
    # time; a chunk may be shorter than a Gibbs chain's memory
    length = 40
    env = model.draw_environment(length, 3)
    whole = model.dp_tables(env, target, length, 0)[3]
    for start, stop in ((0, length), (0, 1), (1, 2), (5, 17), (17, length), (length - 1, length)):
        chunk = model.dp_tables(env, target, stop, start)[3]
        assert 1 <= len(chunk) <= stop - start
        held, want = _held(chunk, 0, stop - start), _held(whole, start, stop)
        assert held.shape == want.shape and held.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: exact_count_distribution(TWO, ENV, "01", -1), id="exact-dp"),
        pytest.param(lambda: exact_count_distribution(TWO, ENV, "01", 5, r_max=-1),
                     id="exact-dp-r-max"),
        pytest.param(lambda: enumerate_count_distribution(TWO, ENV, "01", -1), id="enumeration"),
        pytest.param(lambda: monte_carlo_count_distribution(TWO, ENV, "01", -1, 10, 0),
                     id="monte-carlo"),
        pytest.param(lambda: monte_carlo_count_distribution(TWO, ENV, "01", 5, 10, 0, r_max=-1),
                     id="monte-carlo-r-max"),
        pytest.param(lambda: binomial_moment_enumeration(TWO, ENV, "01", -1, 2), id="moments"),
        pytest.param(lambda: rare_vs_main_split(TWO, ENV, "01", -1, 2, 2, 2, 1), id="rare-split"),
        pytest.param(lambda: expected_return_count(TWO, ENV, "01", -1), id="expected-count"),
    ],
)
def test_every_engine_rejects_a_negative_horizon_or_r_max(call):
    with pytest.raises(ValueError, match="must be nonnegative"):
        call()


def test_dp_budget_refusal_comes_before_any_horizon_sized_table():
    env = TWO.draw_environment(100, 0)
    with pytest.raises(BudgetError):
        exact_count_distribution(TWO, env, "01", 10**9)


@st.composite
def _markov_systems(draw):
    """A Gibbs system of depth 2 or 3 on a mixing, constrained shift."""
    size = draw(st.integers(min_value=2, max_value=3))
    entries = draw(st.lists(st.integers(0, 1), min_size=size * size, max_size=size * size))
    transitions = TransitionMatrix(np.reshape(entries, (size, size)))
    assume(not transitions.is_full() and transitions.is_topologically_mixing())
    depth = draw(st.integers(min_value=2, max_value=3))
    words = transitions.admissible_tuples(depth)
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(words), max_size=len(words)))
    return GibbsSystem(transitions, Potential(depth, dict(zip(words, values))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_markov_systems(), st.data())
def test_markov_dp_equals_enumeration_on_random_constrained_shifts(system, data):
    size = system.transitions.size
    n = data.draw(st.integers(min_value=1, max_value=3), label="n")
    target = data.draw(st.sampled_from(system.transitions.admissible_tuples(n)), label="target")
    # at most 2**11 or 3**7 words, each weighed through cylinder_mass
    longest = 11 if size == 2 else 7
    horizon = data.draw(st.integers(min_value=1, max_value=longest - n), label="horizon")
    dp = exact_count_distribution(system, None, target, horizon, r_max=horizon)
    brute = enumerate_count_distribution(system, None, target, horizon)
    np.testing.assert_allclose(dp.masses, brute.masses, rtol=0, atol=1e-12)
    assert dp.tail_mass <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99),
    st.lists(st.integers(0, 1), min_size=1, max_size=3), st.data(),
)
def test_marginal_dp_is_the_average_of_the_quenched_dp_laws(alpha, beta, driving_p, target, data):
    # every coin window of length L = horizon + n, weighted by its probability
    # (coordinate 0 has probability driving_p), integrates the environment out
    model = TwoElementModel(alpha, beta, driving_p)
    horizon = data.draw(st.integers(min_value=1, max_value=10 - len(target)), label="horizon")
    length = horizon + len(target)
    average = np.zeros(horizon + 1)
    for coins in itertools.product((0, 1), repeat=length):
        env = Environment(window=np.array(coins, dtype=np.int8))
        ones = sum(coins)
        weight = driving_p ** (length - ones) * (1.0 - driving_p) ** ones
        law = exact_count_distribution(model, env, target, horizon, r_max=horizon)
        average += weight * np.array(law.masses)
    marginal = MarginalModel(model)
    law = exact_count_distribution(
        marginal, marginal.draw_environment(length, 0), target, horizon, r_max=horizon
    )
    np.testing.assert_allclose(law.masses, average, rtol=0, atol=1e-12)


def test_count_returns_matches_the_slice_comparison():
    rng = np.random.default_rng(8)
    for _ in range(20):
        z = tuple(int(s) for s in rng.integers(0, 2, 60))
        for target in ((0,), (0, 1), (1, 1, 1), (0, 1, 1, 0)):
            naive = sum(1 for j in range(1, 51) if z[j : j + len(target)] == target)
            assert count_returns(z, target, 50) == naive


GOLDEN = TransitionMatrix([[1, 1], [1, 0]])
COUNTABLE = CountableModel(0.5, alphabet_cutoff=64)
THETA_CASES = [
    # the two-element cases keep their bare ids
    pytest.param(model, target, period, id="-".join(filter(None, (name, target, str(period)))))
    for name, model in (
        ("", TWO),
        ("countable", COUNTABLE),
        ("marginal-two-element", MarginalModel(TWO)),
        ("golden-mean", GibbsSystem(GOLDEN, Potential.constant(0.0, GOLDEN, depth=2))),
    )
    for target, period in (("0", 1), ("000", 1), ("0101", 2), ("010010", 3))
]


@pytest.mark.parametrize("model, target, period", THETA_CASES)
def test_theta_estimate_matches_the_match_matrix(model, target, period):
    # the target's digits index the model's alphabet
    target = tuple(model.alphabet[int(c)] for c in target)
    env = model.draw_environment(200, 7)
    horizon, trials = 150, 1_500  # one sampling chunk: one child stream of the seed
    est = theta_cluster_estimate(model, env, target, period, horizon, trials, seed=1)
    child = np.random.SeedSequence(1).spawn(1)[0]
    words = sampled_words(model, env, horizon + len(target), trials, np.random.default_rng(child))
    match = np.ones((trials, horizon), dtype=bool)
    for d, s in enumerate(target):
        match &= words[:, 1 + d : 1 + d + horizon] == s
    at_period = (match[:, period:] & match[:, :-period]).sum()
    assert est == at_period / match.sum()


@pytest.mark.parametrize(
    "model, target, changes, message",
    [
        pytest.param(TWO, "00", dict(period=0), "period must be >= 1", id="period-0"),
        pytest.param(TWO, "00", dict(period=-1), "period must be >= 1", id="period-negative"),
        pytest.param(TWO, "00", dict(horizon=-3), "horizon must be nonnegative", id="horizon"),
        pytest.param(TWO, "00", dict(trials=0), "trials must be >= 1", id="trials"),
        pytest.param(TWO, "02", dict(), "alphabet", id="symbol"),
        pytest.param(COUNTABLE, (3, 65), dict(), "past the sampling cutoff", id="past-cutoff"),
    ],
)
def test_theta_estimate_rejects_bad_arguments(model, target, changes, message):
    args = dict(period=1, horizon=10, trials=10, seed=0)
    args.update(changes)
    with pytest.raises(ValueError, match=message):
        theta_cluster_estimate(model, model.draw_environment(20, 0), target, **args)
