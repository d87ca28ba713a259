import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reclab import (
    BudgetError,
    GibbsSystem,
    PatternClass,
    PeriodicPoint,
    Potential,
    ReturnPattern,
    TransitionMatrix,
    TwoElementModel,
    Word,
    as_word,
    bernoulli_potential,
    binomial_moment_enumeration,
    classify_pattern,
    count_returns,
    enumerate_count_distribution,
    exact_count_distribution,
    expected_return_count,
    is_rare,
    monte_carlo_count_distribution,
    observation_time,
    rare_vs_main_split,
)


def test_count_returns_examples():
    assert count_returns("111111", "00", 4) == 0
    assert count_returns("000000", "00", 4) == 4
    assert count_returns("010101", "01", 4) == 2  # positions 2 and 4
    # the occurrence at position 0 is not a return
    assert count_returns("001111", "00", 4) == 0
    with pytest.raises(ValueError):
        count_returns("0101", "01", 4)


def test_observation_time():
    assert observation_time(1.0, 0.25) == 4
    assert observation_time(1.0, 1.0) == 1
    assert observation_time(2.5, 0.5) == 5
    with pytest.raises(ValueError):
        observation_time(0.5, 0.9)  # floor(0.55) = 0
    with pytest.raises(ValueError):
        observation_time(1.0, 0.0)


def test_observation_time_refuses_a_window_too_long_for_a_float():
    mass = 0.5**1060  # subnormal: t / mass overflows to infinity
    with pytest.raises(ValueError, match=f"not finite: t=1.0, mass={mass}"):
        observation_time(1.0, mass)


def test_return_pattern_validation():
    ReturnPattern((1, 5, 9), horizon=9)
    with pytest.raises(ValueError):
        ReturnPattern((0, 3), horizon=5)
    with pytest.raises(ValueError):
        ReturnPattern((2, 2), horizon=5)
    with pytest.raises(ValueError):
        ReturnPattern((2, 6), horizon=5)


def test_classify_pattern_examples():
    one_block = classify_pattern((1, 2, 3), block_gap=5, period=1)
    assert one_block.j == 1
    assert one_block.heads == (1,)
    assert one_block.total_overlap == 2.0
    assert one_block.delta is None

    two_blocks = classify_pattern((1, 100), block_gap=5, period=1)
    assert two_blocks.j == 2
    assert two_blocks.heads == (1, 2)
    assert two_blocks.total_overlap == 0.0
    assert two_blocks.delta == 99

    single = classify_pattern((7,), block_gap=5, period=1)
    assert single.j == 1 and single.total_overlap == 0.0 and single.delta is None


def test_classify_pattern_refuses_an_empty_pattern():
    with pytest.raises(ValueError, match="at least one time"):
        ReturnPattern((), horizon=3)
    with pytest.raises(ValueError, match="at least one time"):
        classify_pattern([], block_gap=2, period=1)


def test_classify_pattern_period_units():
    cls = classify_pattern((1, 3, 5, 20), block_gap=6, period=2)
    assert cls.j == 2
    assert cls.individual_overlaps == (1.0, 1.0)
    assert cls.non_multiple_gaps == ()
    odd = classify_pattern((1, 4), block_gap=6, period=2)
    assert odd.non_multiple_gaps == (3,)
    assert odd.individual_overlaps == (1.5,)
    with pytest.raises(ValueError):
        classify_pattern((1, 2), block_gap=1, period=2)


def test_is_rare():
    n, delta = 3, 2
    # gap - n = delta + 1: not rare
    far = classify_pattern((1, 1 + n + delta + 1), block_gap=2, period=1)
    assert not is_rare(far, delta, n)
    # gap - n = 1 < delta
    near = classify_pattern((1, 1 + n + 1), block_gap=2, period=1)
    assert is_rare(near, delta, n)
    single = classify_pattern((1, 2, 3), block_gap=5, period=1)
    assert not is_rare(single, delta, n)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=8, unique=True),
    st.integers(min_value=1, max_value=10),
)
def test_classify_pattern_structure(times, block_gap):
    times = tuple(sorted(times))
    cls = classify_pattern(times, block_gap=block_gap, period=1)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert cls.j == 1 + sum(1 for g in gaps if g > block_gap)
    assert len(cls.individual_overlaps) == len(gaps) - (cls.j - 1)
    assert cls.heads[0] == 1 and len(cls.heads) == cls.j
    inter = [g for g in gaps if g > block_gap]
    assert cls.delta == (min(inter) if inter else None)
    assert cls.total_overlap == pytest.approx(sum(g for g in gaps if g <= block_gap))


# -- exact engines ------------------------------------------------------------


def test_dp_zero_horizon_is_point_mass():
    model = TwoElementModel(0.3, 0.7, 0.5)
    env = model.draw_environment(4, 0)
    dist = exact_count_distribution(model, env, "0", 0, r_max=3)
    assert dist.masses == (1.0, 0.0, 0.0, 0.0)


def test_dp_fair_coin_binomial():
    model = TwoElementModel(0.5, 0.5, 0.5)
    env = model.draw_environment(4, 0)
    dist = exact_count_distribution(model, env, "0", 2, r_max=4)
    assert dist.masses[:3] == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)
    assert dist.tail_mass == pytest.approx(0.0, abs=1e-15)


def test_dp_budget_error():
    model = TwoElementModel(0.3, 0.7, 0.5)
    env = model.draw_environment(40, 0)
    with pytest.raises(BudgetError):
        exact_count_distribution(model, env, "01", 30, r_max=30, budget_cells=10)


def test_dp_rejects_invalid_targets():
    model = TwoElementModel(0.3, 0.7, 0.5)
    env = model.draw_environment(10, 0)
    with pytest.raises(ValueError):
        exact_count_distribution(model, env, (0, 2), 4)
    golden = GibbsSystem(
        TransitionMatrix([[1, 1], [1, 0]]),
        Potential.constant(0.0, TransitionMatrix([[1, 1], [1, 0]]), depth=2),
    )
    with pytest.raises(ValueError):
        exact_count_distribution(golden, None, "11", 4)


@pytest.mark.parametrize(
    "alpha,beta,driving,target,horizon,env_seed",
    [
        (0.3, 0.7, 0.5, "0", 9, 1),
        (0.3, 0.7, 0.5, "01", 8, 2),
        (0.25, 0.8, 0.4, "00", 10, 3),
        (0.6, 0.45, 0.7, "010", 9, 4),
        (0.5, 0.5, 0.5, "0110", 8, 5),
    ],
)
def test_oracle_triangle_two_element(alpha, beta, driving, target, horizon, env_seed):
    model = TwoElementModel(alpha, beta, driving)
    n = len(as_word(target))
    env = model.draw_environment(horizon + n, env_seed)
    dp = exact_count_distribution(model, env, target, horizon, r_max=horizon)
    brute = enumerate_count_distribution(model, env, target, horizon)
    for r in range(horizon + 1):
        b = brute.masses[r] if r < len(brute.masses) else 0.0
        assert dp.masses[r] == pytest.approx(b, abs=1e-12)
    trials = 40_000
    mc = monte_carlo_count_distribution(model, env, target, horizon, trials, seed=env_seed)
    for r in range(horizon + 1):
        se = math.sqrt(max(dp.masses[r] * (1 - dp.masses[r]), 0.0) / trials)
        assert abs(mc.masses[r] - dp.masses[r]) <= 4 * se + 1e-9


def _golden_markov_system(seed=0, depth=2):
    golden = TransitionMatrix([[1, 1], [1, 0]])
    rng = np.random.default_rng(seed)
    words = golden.admissible_tuples(depth)
    return GibbsSystem(golden, Potential(depth, {w: float(rng.normal(scale=0.5)) for w in words}))


@pytest.mark.parametrize("depth", [2, 3])
def test_oracle_triangle_markov(depth):
    system = _golden_markov_system(seed=depth, depth=depth)
    horizon = 8
    for target in ("0", "00", "01"):
        n = len(as_word(target))
        dp = exact_count_distribution(system, None, target, horizon, r_max=horizon)
        brute = enumerate_count_distribution(system, None, target, horizon)
        for r in range(horizon + 1):
            b = brute.masses[r] if r < len(brute.masses) else 0.0
            assert dp.masses[r] == pytest.approx(b, abs=1e-12)
    trials = 40_000
    dp = exact_count_distribution(system, None, "0", horizon, r_max=horizon)
    mc = monte_carlo_count_distribution(system, None, "0", horizon, trials, seed=1)
    for r in range(horizon + 1):
        se = math.sqrt(max(dp.masses[r] * (1 - dp.masses[r]), 0.0) / trials)
        assert abs(mc.masses[r] - dp.masses[r]) <= 4 * se + 1e-9


def test_oracle_triangle_iid_ternary():
    system = GibbsSystem(TransitionMatrix.full(3), bernoulli_potential([0.2, 0.5, 0.3]))
    horizon = 7
    target = (0, 1)
    dp = exact_count_distribution(system, None, target, horizon, r_max=horizon)
    brute = enumerate_count_distribution(system, None, target, horizon)
    for r in range(horizon + 1):
        b = brute.masses[r] if r < len(brute.masses) else 0.0
        assert dp.masses[r] == pytest.approx(b, abs=1e-12)


def test_brute_force_unavailable_for_countable():
    from reclab import CountableModel

    model = CountableModel(0.5, alphabet_cutoff=64)
    env = model.draw_environment(6, 0)
    with pytest.raises(ValueError):
        enumerate_count_distribution(model, env, (3,), 4)


def test_countable_dp_vs_monte_carlo():
    from reclab import CountableModel

    model = CountableModel(0.5, alphabet_cutoff=512)
    target = (3, 3)
    horizon = observation_time(1.0, model.marginal_cylinder_mass(target))
    env = model.draw_environment(horizon + 2, 7)
    dp = exact_count_distribution(model, env, target, horizon, r_max=16)
    trials = 30_000
    mc = monte_carlo_count_distribution(model, env, target, horizon, trials, seed=2, r_max=16)
    assert mc.bias_bound == 0.0
    for r in range(10):
        se = math.sqrt(max(dp.masses[r] * (1 - dp.masses[r]), 0.0) / trials)
        assert abs(mc.masses[r] - dp.masses[r]) <= 4 * se + 1e-9


def test_enumeration_budget_error():
    model = TwoElementModel(0.3, 0.7, 0.5)
    env = model.draw_environment(40, 0)
    with pytest.raises(BudgetError):
        enumerate_count_distribution(model, env, "0", 30, budget_words=100)


def test_enumeration_budget_refusal_never_forms_the_word_count():
    from reclab.returns import _enumeration_words

    # 3^(10^8 + 1) has ~48 million digits: forming it would take minutes
    three = GibbsSystem(TransitionMatrix.full(3), bernoulli_potential([0.2, 0.3, 0.5]))
    with pytest.raises(BudgetError, match=r"enumeration needs 3\^100000001 words"):
        enumerate_count_distribution(three, three.draw_environment(1, 0), "0", 10**8)
    assert _enumeration_words(three, 13, 3**13) == 3**13
    with pytest.raises(BudgetError):
        _enumeration_words(three, 14, 3**14 - 1)
    # one symbol spells one word at any length
    one = GibbsSystem(TransitionMatrix.full(1), bernoulli_potential([1.0]))
    assert _enumeration_words(one, 10**8, 1) == 1


def test_monte_carlo_is_seed_deterministic():
    model = TwoElementModel(0.3, 0.7, 0.5)
    env = model.draw_environment(12, 0)
    a = monte_carlo_count_distribution(model, env, "0", 8, 5_000, seed=3)
    b = monte_carlo_count_distribution(model, env, "0", 8, 5_000, seed=3)
    assert a.masses == b.masses
    assert a.provenance == "monte-carlo"
    assert abs(a.total() - 1.0) < 1e-12


# -- moment enumeration -------------------------------------------------------


def test_binomial_moment_fair_coin_examples():
    model = TwoElementModel(0.5, 0.5, 0.5)
    env = model.draw_environment(4, 0)
    assert binomial_moment_enumeration(model, env, "0", 2, 1) == pytest.approx(1.0)
    assert binomial_moment_enumeration(model, env, "0", 2, 2) == pytest.approx(0.25)
    assert binomial_moment_enumeration(model, env, "0", 2, 3) == 0.0
    assert binomial_moment_enumeration(model, env, "0", 2, 0) == 1.0


def test_moment_identity_against_dp():
    model = TwoElementModel(0.35, 0.65, 0.45)
    for target, horizon, seed in (("0", 12, 1), ("01", 10, 2), ("010", 9, 3), ("00", 11, 4)):
        n = len(as_word(target))
        env = model.draw_environment(horizon + n, seed)
        dp = exact_count_distribution(model, env, target, horizon, r_max=horizon)
        assert dp.tail_mass < 1e-12
        for k in range(4):
            direct = math.fsum(math.comb(r, k) * m for r, m in enumerate(dp.masses))
            enum = binomial_moment_enumeration(model, env, target, horizon, k)
            assert direct == pytest.approx(enum, abs=1e-10)


def test_mean_identity():
    model = TwoElementModel(0.25, 0.7, 0.4)
    env = model.draw_environment(40, 9)
    dp = exact_count_distribution(model, env, "01", 30, r_max=30)
    mean = math.fsum(r * m for r, m in enumerate(dp.masses))
    assert mean == pytest.approx(expected_return_count(model, env, "01", 30), abs=1e-10)
    # and against the first moment sum
    assert mean == pytest.approx(
        binomial_moment_enumeration(model, env, "01", 30, 1), abs=1e-10
    )


def test_moment_enumeration_iid_gibbs():
    system = GibbsSystem(TransitionMatrix.full(3), bernoulli_potential([0.2, 0.5, 0.3]))
    dp = exact_count_distribution(system, None, (1,), 9, r_max=9)
    for k in range(3):
        direct = math.fsum(math.comb(r, k) * m for r, m in enumerate(dp.masses))
        assert direct == pytest.approx(
            binomial_moment_enumeration(system, None, (1,), 9, k), abs=1e-11
        )


def test_moment_enumeration_rejects_markov_fibers():
    system = _golden_markov_system()
    with pytest.raises(ValueError):
        binomial_moment_enumeration(system, None, "0", 6, 2)


# -- rare/main split ----------------------------------------------------------


def _placement_mass(model, env, tw, positions):
    required = {}
    for v in positions:
        for i, s in enumerate(tw):
            q = v + i
            if required.get(q, s) != s:
                return 0.0
            required[q] = s
    mass = 1.0
    for q, s in sorted(required.items()):
        mass *= float(model.symbol_weight_matrix(env, q, 1, [s])[0, 0])
    return mass


def _brute_split(model, env, target, horizon, r, delta, block_gap, period):
    tw = as_word(target).symbols
    n = len(tw)
    rare = main = 0.0
    for comb in itertools.combinations(range(1, horizon + 1), r):
        mass = _placement_mass(model, env, tw, comb)
        if mass == 0.0:
            continue
        cls = classify_pattern(comb, block_gap=block_gap, period=period)
        if is_rare(cls, delta, n):
            rare += mass
        else:
            main += mass
    return rare, main


@pytest.mark.parametrize(
    "target,horizon,r,delta,block_gap,period",
    [
        ("00", 20, 2, 4, 1, 1),
        ("00", 20, 2, 0, 1, 1),
        ("01", 18, 2, 5, 2, 2),
        ("0", 14, 3, 3, 2, 1),
        ("010", 16, 2, 6, 8, 2),
        ("00", 15, 3, 2, 1, 1),
        # r = 4; the overlap gap 3 of 0000 lies in the rare window (2, 6]
        ("0000", 20, 4, 3, 2, 1),
        ("010", 20, 4, 5, 2, 2),
    ],
)
def test_rare_split_matches_brute_force(target, horizon, r, delta, block_gap, period):
    model = TwoElementModel(0.35, 0.7, 0.45)
    n = len(as_word(target))
    env = model.draw_environment(horizon + n, 13)
    got = rare_vs_main_split(
        model, env, target, horizon, r=r, delta=delta, block_gap=block_gap, period=period
    )
    want = _brute_split(model, env, target, horizon, r, delta, block_gap, period)
    assert got[0] == pytest.approx(want[0], rel=1e-11, abs=1e-13)
    assert got[1] == pytest.approx(want[1], rel=1e-11, abs=1e-13)


def test_rare_split_partition_identity():
    model = TwoElementModel(0.5, 0.5, 0.5)
    env = model.draw_environment(50, 1)
    rare, main = rare_vs_main_split(model, env, "00", 40, r=2, delta=4, block_gap=1, period=1)
    total = binomial_moment_enumeration(model, env, "00", 40, 2)
    assert rare + main == pytest.approx(total, rel=1e-11)


def test_rare_split_partitions_moment_far_past_tuple_walks():
    # ~1e9 return-time tuples; the placement recurrence needs ~45k terms
    model = TwoElementModel(0.3, 0.7, 0.5)
    env = model.draw_environment(1034, 5)
    target = "0" * 10
    rare, main = rare_vs_main_split(model, env, target, 1024, r=4, delta=10, block_gap=5, period=1)
    assert type(rare) is float and type(main) is float
    assert rare > 0.0 and main > 0.0
    total = binomial_moment_enumeration(model, env, target, 1024, 4)
    assert rare + main == pytest.approx(total, rel=1e-12)


def test_rare_split_r1_never_rare():
    model = TwoElementModel(0.4, 0.6, 0.5)
    env = model.draw_environment(30, 2)
    rare, main = rare_vs_main_split(model, env, "01", 20, r=1, delta=10, block_gap=3, period=1)
    assert rare == 0.0
    assert main == pytest.approx(binomial_moment_enumeration(model, env, "01", 20, 1))


def test_rare_split_budget_error():
    model = TwoElementModel(0.4, 0.6, 0.5)
    env = model.draw_environment(600, 2)
    with pytest.raises(BudgetError):
        rare_vs_main_split(
            model, env, "0", 500, r=3, delta=5, block_gap=2, period=1, budget_tuples=1000
        )


def test_rare_mass_decays_with_cylinder_depth():
    model = TwoElementModel(0.3, 0.7, 0.5)
    point = PeriodicPoint(Word((0,)))
    env = model.draw_environment(2**12 + 12, 20260808)
    rare_by_n = {}
    for n in range(4, 13, 2):
        target = point.prefix(n)
        horizon = observation_time(1.0, model.marginal_cylinder_mass(target))
        rare, _ = rare_vs_main_split(
            model, env, target, horizon, r=2, delta=n, block_gap=n // 2, period=1
        )
        rare_by_n[n] = rare
    assert rare_by_n[12] < rare_by_n[8] < rare_by_n[4]


def test_moment_identity_at_production_scale():
    # the automaton DP and the placement aggregation are independent
    # algorithms; they must agree far past desk scale too
    model = TwoElementModel(0.3, 0.7, 0.5)
    horizon = 2000
    env = model.draw_environment(horizon + 2, 31)
    # ~500 expected returns at this horizon; r_max must clear the support
    dp = exact_count_distribution(model, env, "00", horizon, r_max=800)
    assert dp.tail_mass < 1e-12
    for k in range(4):
        direct = math.fsum(math.comb(r, k) * m for r, m in enumerate(dp.masses))
        enum = binomial_moment_enumeration(model, env, "00", horizon, k)
        assert direct == pytest.approx(enum, rel=1e-10)
    assert dp.mean() == pytest.approx(
        expected_return_count(model, env, "00", horizon), rel=1e-12
    )


@pytest.mark.parametrize("target", [(3, 4, 5, 3), (3, 4, 5, 6)])
def test_moment_identity_where_several_weights_meet_in_one_operator_entry(target):
    from reclab import CountableModel
    from reclab.returns import _automaton

    model = CountableModel(0.5, alphabet_cutoff=64)
    alphabet = list(dict.fromkeys(target)) + [object()]  # the DP's lumped symbol last
    next_state, emit = _automaton(target, alphabet)
    # from state 0 every symbol but the first target symbol falls back to 0,
    # so the keep operator's (0, 0) entry sums at least three weights
    assert ((next_state[:, 0] == 0) & ~emit[:, 0]).sum() >= 3
    horizon = observation_time(1.0, model.marginal_cylinder_mass(target))
    env = model.draw_environment(horizon + len(target), 5)
    dp = exact_count_distribution(model, env, target, horizon, r_max=24)
    assert dp.tail_mass < 1e-20
    for k in (1, 2, 3):
        enum = binomial_moment_enumeration(model, env, target, horizon, k)
        dp_moment = math.fsum(math.comb(r, k) * m for r, m in enumerate(dp.masses))
        assert dp_moment == pytest.approx(enum, rel=1e-12)
    assert dp.mean() == pytest.approx(
        expected_return_count(model, env, target, horizon), rel=1e-12
    )
