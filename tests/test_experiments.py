import math
import statistics
from fractions import Fraction

import numpy as np
import pytest

from reclab import (
    CountDistribution,
    ExperimentConfig,
    GibbsSystem,
    MarginalModel,
    PeriodicPoint,
    PolyaAeppliParams,
    Potential,
    TransitionMatrix,
    TwoElementModel,
    Word,
    exact_count_distribution,
    observation_time,
    overlap_count_check,
    pa_mean_variance,
    run_annealed,
    run_quenched,
    theta_cluster_estimate,
    tv_distance,
)
from reclab import experiments
from reclab.experiments import environment_seed


@pytest.fixture(scope="module")
def canonical_model():
    return TwoElementModel(0.3, 0.7, 0.5)


@pytest.fixture(scope="module")
def small_config(canonical_model):
    return ExperimentConfig(
        model=canonical_model,
        point=PeriodicPoint(Word((0,))),
        n_list=(4, 6, 8),
        t=1.0,
        environments=5,
        master_seed=20260808,
        engines=("exact-dp",),
        r_max=32,
    )


def test_config_validation(canonical_model):
    point = PeriodicPoint(Word((0, 1)))
    with pytest.raises(ValueError):
        ExperimentConfig(canonical_model, point, (3, 6), 1.0)  # n < 2m
    with pytest.raises(ValueError):
        ExperimentConfig(canonical_model, point, (), 1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(canonical_model, point, (6, 4), 1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(canonical_model, point, (4, 6), 0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(canonical_model, point, (4, 6), 1.0, engines=("warp",))
    with pytest.raises(ValueError):
        ExperimentConfig(canonical_model, point, (4, 6), 1.0, engines=("monte-carlo",))
    with pytest.raises(ValueError, match="master_seed must be a nonnegative integer"):
        ExperimentConfig(canonical_model, point, (4, 6), 1.0, master_seed=-1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_list", (4.7, 6)),
        ("n_list", (True, 6)),
        ("environments", 2.9),
        ("environments", True),
        ("trials", 5.0),
        ("master_seed", "1"),
        ("r_max", 10.9),
        ("budget_cells", 1e9),
        ("budget_words", None),
    ],
)
def test_config_rejects_non_integers_from_library_callers(canonical_model, field, value):
    args = dict(model=canonical_model, point=PeriodicPoint(Word((0,))), n_list=(4, 6), t=1.0)
    args[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ExperimentConfig(**args)


def test_config_refuses_a_point_the_model_cannot_carry(canonical_model):
    with pytest.raises(ValueError, match="alphabet \\{0, 1\\}, got symbol 5"):
        ExperimentConfig(canonical_model, PeriodicPoint(Word((5,))), (2,), 1.0)
    golden = TransitionMatrix([[1, 1], [1, 0]])
    system = GibbsSystem(golden, Potential.constant(0.0, golden, depth=2))
    with pytest.raises(ValueError, match="periodic orbit '1' is not admissible"):
        ExperimentConfig(system, PeriodicPoint(Word((1,))), (2,), 1.0)


def test_config_takes_numpy_integers_as_ints(canonical_model):
    config = ExperimentConfig(
        canonical_model, PeriodicPoint(Word((0,))), np.array([4, 6]), 1.0,
        environments=np.int64(3), master_seed=np.uint32(7),
    )
    assert config.n_list == (4, 6)
    assert type(config.environments) is int and type(config.master_seed) is int


def test_tv_distance_examples():
    def limit(masses):
        return CountDistribution(masses=masses, tail_mass=0.0, provenance="polya-aeppli")

    a = CountDistribution(masses=(0.25, 0.5, 0.25), tail_mass=0.0, provenance="exact-dp")
    assert tv_distance(a, limit((0.25, 0.5, 0.25))) == 0.0
    point0 = CountDistribution(masses=(1.0, 0.0), tail_mass=0.0, provenance="exact-dp")
    assert tv_distance(point0, limit((0.0, 1.0))) == pytest.approx(1.0)
    b = limit((0.5, 0.5, 0.0))
    assert tv_distance(a, b) == pytest.approx(0.25)
    # tails fold into a shared bucket
    c = CountDistribution(masses=(0.5, 0.2), tail_mass=0.3, provenance="exact-dp")
    d = limit((0.5, 0.2, 0.2, 0.1))
    assert tv_distance(c, d) == pytest.approx(0.0)


def test_theoretical_mean_is_t():
    # the limiting law with cluster parameter theta has mean exactly t
    for theta in (0.1, 0.25, 0.5, 0.9):
        params = PolyaAeppliParams(t=(1 - theta) * 2.0, p=theta)
        mean, _ = pa_mean_variance(params)
        assert mean == pytest.approx(2.0, rel=1e-14)


def test_quenched_reproducibility(small_config):
    a = run_quenched(small_config)
    b = run_quenched(small_config)
    for ra, rb in zip(a, b):
        for rowa, rowb in zip(ra.rows, rb.rows):
            assert rowa.tv == rowb.tv
            assert rowa.distribution.masses == rowb.distribution.masses


def test_degenerate_model_is_environment_free():
    model = TwoElementModel(0.4, 0.4, 0.5)  # alpha = beta: fibers never vary
    config = ExperimentConfig(
        model=model,
        point=PeriodicPoint(Word((0,))),
        n_list=(4, 6),
        t=1.0,
        environments=4,
        master_seed=5,
        engines=("exact-dp",),
        r_max=24,
    )
    results = run_quenched(config)
    base = results[0]
    for res in results[1:]:
        for row, row0 in zip(res.rows, base.rows):
            assert row.distribution.masses == pytest.approx(
                row0.distribution.masses, abs=1e-12
            )
    annealed = run_annealed(config, quenched=results)
    for row, row0 in zip(annealed, base.rows):
        assert row.distribution.masses == pytest.approx(
            row0.distribution.masses, abs=1e-12
        )


def test_gibbs_environments_are_zero_windows_labelled_by_index(monkeypatch):
    golden = TransitionMatrix([[1, 1], [1, 0]])
    system = GibbsSystem(golden, Potential.constant(0.0, golden, depth=2))
    config = ExperimentConfig(
        system, PeriodicPoint(Word((0,))), (4, 6), 1.0,
        environments=3, master_seed=9, engines=("exact-dp",),
    )

    def no_seed_sequence(*args):
        raise AssertionError("an environment-free run built an environment seed")

    monkeypatch.setattr(experiments, "environment_seed", no_seed_sequence)
    results = run_quenched(config)
    assert [res.env_index for res in results] == [0, 1, 2]
    for i, res in enumerate(results):
        drawn = system.draw_environment(config.window_length(), i)
        assert np.array_equal(res.environment.window, drawn.window)
        assert not res.environment.window.any()


def test_marginal_model_rows_are_one_exact_law_over_its_index_seeded_draws(canonical_model):
    marg = MarginalModel(canonical_model)
    point = PeriodicPoint(Word((0,)))
    config = ExperimentConfig(
        marg, point, (4, 6), 1.0, environments=3, master_seed=9,
        engines=("exact-dp",), r_max=24,
    )
    results = run_quenched(config)
    window = config.window_length()
    for i, res in enumerate(results):
        # the base's coordinates are drawn from the plain index, and never read
        drawn = canonical_model.draw_environment(window, i)
        assert np.array_equal(res.environment.window, drawn.window)
    env = marg.draw_environment(window, 0)
    for k, n in enumerate(config.n_list):
        want = exact_count_distribution(marg, env, point.prefix(n), config.horizon(n), r_max=24)
        for res in results:
            assert res.rows[k].n == n
            assert res.rows[k].distribution == want


def test_annealed_needs_two_environments(canonical_model):
    config = ExperimentConfig(
        canonical_model, PeriodicPoint(Word((0,))), (4,), 1.0,
        environments=1, engines=("exact-dp",),
    )
    with pytest.raises(ValueError):
        run_annealed(config)


def test_exact_annealed_mean_identity(canonical_model):
    # environment average done exactly through the marginal product measure
    marg = MarginalModel(canonical_model)
    point = PeriodicPoint(Word((0,)))
    for n in (4, 6, 10):
        target = point.prefix(n)
        mass = canonical_model.marginal_cylinder_mass(target)
        horizon = observation_time(1.0, mass)
        env = marg.draw_environment(horizon + n, 0)
        dist = exact_count_distribution(marg, env, target, horizon, r_max=horizon)
        assert dist.mean() == pytest.approx(horizon * mass, abs=1e-10)


def test_sampled_annealed_matches_exact_annealed(canonical_model):
    # the environment average of quenched laws converges to the marginal law
    point = PeriodicPoint(Word((0,)))
    config = ExperimentConfig(
        canonical_model, point, (6,), 1.0,
        environments=60, master_seed=11, engines=("exact-dp",), r_max=24,
    )
    annealed = run_annealed(config)[0]
    marg = MarginalModel(canonical_model)
    env = marg.draw_environment(annealed.horizon + 6, 0)
    exact = exact_count_distribution(
        marg, env, point.prefix(6), annealed.horizon, r_max=24
    )
    diff = max(abs(a - b) for a, b in zip(annealed.distribution.masses, exact.masses))
    assert diff < 0.01  # 60-environment average, CLT-scale agreement


def test_mean_convergence_trend(canonical_model):
    config = ExperimentConfig(
        canonical_model, PeriodicPoint(Word((0,))), (4, 12), 1.0,
        environments=30, master_seed=20260808, engines=("exact-dp",),
    )
    rows = overlap_count_check(config, (0,))
    spread4 = max(abs(r.expected_count - config.t) for r in rows if r.n == 4)
    spread12 = max(abs(r.expected_count - config.t) for r in rows if r.n == 12)
    assert spread12 < spread4


def test_mean_convergence_dyadic_exactness():
    model = TwoElementModel(0.5, 0.5, 0.5)  # deterministic fair coin fibers
    config = ExperimentConfig(
        model, PeriodicPoint(Word((0,))), (4, 8), 1.0,
        environments=2, master_seed=0, engines=("exact-dp",),
    )
    for row in overlap_count_check(config, (0,)):
        assert abs(row.expected_count - config.t) <= 1e-12


def test_mean_convergence_floor_identity():
    # deterministic fibers: E equals floor(t/mass) * mass, inside (t - mass, t]
    model = TwoElementModel(0.4, 0.4, 0.5)
    point = PeriodicPoint(Word((0,)))
    config = ExperimentConfig(
        model, point, (4, 6), 1.0, environments=2, master_seed=0,
        engines=("exact-dp",),
    )
    for row in overlap_count_check(config, (0,)):
        mass = model.marginal_cylinder_mass(point.prefix(row.n))
        horizon = observation_time(1.0, mass)
        assert row.expected_count == pytest.approx(horizon * mass, abs=1e-12)
        assert 1.0 - mass < row.expected_count <= 1.0 + 1e-12


def test_overlap_counts_closed_form_for_deterministic_fibers():
    model = TwoElementModel(0.4, 0.4, 0.5)
    point = PeriodicPoint(Word((0,)))
    config = ExperimentConfig(
        model, point, (4, 6), 1.0, environments=2, master_seed=0,
        engines=("exact-dp",),
    )
    for row in overlap_count_check(config, (0, 1, 2)):
        mass_deep = model.marginal_cylinder_mass(point.prefix(row.n + row.u))
        horizon = observation_time(
            1.0, model.marginal_cylinder_mass(point.prefix(row.n))
        )
        assert row.expected_count == pytest.approx(horizon * mass_deep, rel=1e-12)


@pytest.mark.parametrize("u_list", [(), (0, -1)])
def test_overlap_count_check_rejects_u_before_any_draw(monkeypatch, u_list):
    model = TwoElementModel(0.3, 0.7, 0.5)
    config = ExperimentConfig(
        model, PeriodicPoint(Word((0,))), (4, 6), 1.0, environments=2,
        master_seed=0, engines=("exact-dp",),
    )
    drawn = []
    monkeypatch.setattr(model, "draw_environment", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="u_list"):
        overlap_count_check(config, u_list)
    assert drawn == []


def test_overlap_count_check(canonical_model):
    config = ExperimentConfig(
        canonical_model, PeriodicPoint(Word((0,))), (4, 10), 1.0,
        environments=10, master_seed=20260808, engines=("exact-dp",),
    )
    rows = overlap_count_check(config, (0, 1, 2))
    mean_rows = overlap_count_check(config, (0,))
    # u = 0 rows (the mean law) do not depend on the deeper u's window
    for r in rows:
        if r.u == 0:
            match = [
                m for m in mean_rows if m.n == r.n and m.env_index == r.env_index
            ][0]
            assert r.expected_count == pytest.approx(match.expected_count, abs=1e-12)
            assert r.limit == pytest.approx(1.0)
    theta = canonical_model.theta(PeriodicPoint(Word((0,))))
    for u in (1, 2):
        dev4 = statistics.mean(
            abs(r.expected_count - r.limit) for r in rows if r.n == 4 and r.u == u
        )
        dev10 = statistics.mean(
            abs(r.expected_count - r.limit) for r in rows if r.n == 10 and r.u == u
        )
        assert dev10 < dev4
        for r in rows:
            if r.u == u:
                assert r.limit == pytest.approx(theta**u * 1.0)


def test_median_tv_is_nonincreasing_with_slack(canonical_model):
    config = ExperimentConfig(
        canonical_model, PeriodicPoint(Word((0,))), (4, 6, 8, 10, 12, 14), 1.0,
        environments=20, master_seed=20260808, engines=("exact-dp",), r_max=40,
    )
    results = run_quenched(config)
    medians = []
    for n in config.n_list:
        medians.append(
            statistics.median(
                row.tv for res in results for row in res.rows if row.n == n
            )
        )
    for earlier, later in zip(medians, medians[1:]):
        assert later <= earlier + 0.01


def test_cluster_theta_estimate(canonical_model):
    point = PeriodicPoint(Word((0,)))
    n = 10
    target = point.prefix(n)
    horizon = observation_time(1.0, canonical_model.marginal_cylinder_mass(target))
    env = canonical_model.draw_environment(horizon + n, environment_seed(20260808, 0))
    est = theta_cluster_estimate(
        canonical_model, env, target, period=1, horizon=horizon, trials=20_000, seed=9
    )
    assert abs(est - 0.5) < 0.05


def test_all_three_engines_agree_through_the_experiment(canonical_model):
    config = ExperimentConfig(
        model=canonical_model,
        point=PeriodicPoint(Word((0,))),
        n_list=(4,),
        t=1.0,
        environments=2,
        trials=40_000,
        master_seed=3,
        engines=("exact-dp", "enumeration", "monte-carlo"),
        r_max=16,
    )
    results = run_quenched(config)
    for res in results:
        by_engine = {row.engine: row for row in res.rows}
        assert set(by_engine) == {"exact-dp", "enumeration", "monte-carlo"}
        exact = by_engine["exact-dp"].distribution
        brute = by_engine["enumeration"].distribution
        mc = by_engine["monte-carlo"].distribution
        assert tv_distance(exact, brute) < 1e-12
        assert tv_distance(exact, mc) < 0.02
        assert exact.provenance == "exact-dp"
        assert brute.provenance == "enumeration"
        assert mc.provenance == "monte-carlo"


def test_quenched_gibbs_system_runs():
    golden = TransitionMatrix([[1, 1], [1, 0]])
    system = GibbsSystem(golden, Potential.constant(0.0, golden, depth=2))
    config = ExperimentConfig(
        system, PeriodicPoint(Word((0,))), (4, 6), 1.0,
        environments=2, master_seed=1, engines=("exact-dp",), r_max=24,
    )
    results = run_quenched(config)
    # deterministic measure: identical across environments
    for row0, row1 in zip(results[0].rows, results[1].rows):
        assert row0.distribution.masses == row1.distribution.masses
        assert row0.theta == pytest.approx(1 / ((1 + math.sqrt(5)) / 2))


@pytest.mark.parametrize(
    "t", [True, False, float("inf"), float("nan"), "2", None, 0.0, -1.5, -math.inf, 10**400]
)
def test_config_rejects_t_that_is_not_a_finite_positive_real(canonical_model, t):
    with pytest.raises(ValueError, match="t must be a finite positive number"):
        ExperimentConfig(canonical_model, PeriodicPoint(Word((0,))), (4, 6), t)


def test_config_stores_t_as_float(canonical_model):
    for t in (2, np.float32(0.5), Fraction(3, 2)):
        config = ExperimentConfig(canonical_model, PeriodicPoint(Word((0,))), (4, 6), t)
        assert type(config.t) is float and config.t == float(t)


def test_quenched_rows_are_the_direct_engine_calls(canonical_model):
    from reclab import enumerate_count_distribution, monte_carlo_count_distribution, pa_pmf_table
    from reclab.experiments import ENGINES, trial_seed

    config = ExperimentConfig(
        canonical_model, PeriodicPoint(Word((0,))), (2, 3), 1.0,
        environments=3, master_seed=4, trials=200, engines=ENGINES, r_max=8,
    )
    window = config.window_length()
    theta = canonical_model.theta(config.point)
    params = PolyaAeppliParams(t=(1.0 - theta) * config.t, p=theta)
    results = run_quenched(config)
    assert [res.env_index for res in results] == [0, 1, 2]
    for i, res in enumerate(results):
        env = canonical_model.draw_environment(window, environment_seed(4, i))
        assert np.array_equal(res.environment.window, env.window)
        assert [(row.n, row.engine) for row in res.rows] == [
            (n, engine) for n in config.n_list for engine in ENGINES
        ]
        for row in res.rows:
            target = config.point.prefix(row.n)
            horizon = config.horizon(row.n)
            if row.engine == "exact-dp":
                want = exact_count_distribution(canonical_model, env, target, horizon, r_max=8)
            elif row.engine == "enumeration":
                want = enumerate_count_distribution(canonical_model, env, target, horizon)
            else:
                want = monte_carlo_count_distribution(
                    canonical_model, env, target, horizon,
                    trials=200, seed=trial_seed(4, i), r_max=8,
                )
            assert row.horizon == horizon and row.theta == theta
            assert row.distribution == want
            assert row.tv == tv_distance(want, pa_pmf_table(params, r_max=want.r_max))


def test_annealed_refuses_rows_of_one_key_with_different_r_max(small_config):
    from dataclasses import replace

    from reclab.experiments import QuenchedResult

    quenched = run_quenched(small_config)
    row = quenched[1].rows[0]
    dist = row.distribution
    shorter = CountDistribution(
        masses=dist.masses[:-1], tail_mass=dist.tail_mass + dist.masses[-1],
        provenance=dist.provenance,
    )
    quenched[1] = QuenchedResult(
        env_index=1, environment=quenched[1].environment,
        rows=(replace(row, distribution=shorter),) + quenched[1].rows[1:],
    )
    with pytest.raises(ValueError, match="r_max"):
        run_annealed(small_config, quenched=quenched)
