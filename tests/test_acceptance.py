"""
Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured runtime.  Run with `pytest
tests/test_acceptance.py -s` to see the lines as they complete.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

import reclab as rl
from reclab.cli import main as cli_main
from reclab.experiments import environment_seed
from reclab.models import ratio_convergence

MASTER_SEED = 20260808

CANONICAL_MODEL = rl.TwoElementModel(0.3, 0.7, 0.5)
POINT_1 = rl.PeriodicPoint(rl.Word((0,)))
POINT_2 = rl.PeriodicPoint(rl.Word((0, 1)))


class _Timer:
    def __init__(self, name, limit):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.1f}s, limit {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.name} overran: {elapsed:.1f}s"
        return False


# -- 1, 2, 3: the compound law ------------------------------------------------


def test_criterion_01_closed_forms():
    with _Timer("acceptance-01 compound-law closed forms", 1.0):
        for t in (0.5, 1.0, 2.0, 5.0):
            for p in (0.0, 0.3, 0.5, 0.9):
                params = rl.PolyaAeppliParams(t=t, p=p)
                table = rl.pa_pmf_table(params)
                assert abs(table.total() - 1.0) < 1e-10
                mean = math.fsum(r * m for r, m in enumerate(table.masses))
                second = math.fsum(r * r * m for r, m in enumerate(table.masses))
                want_mean, want_var = rl.pa_mean_variance(params)
                assert abs(mean - want_mean) < 1e-8
                assert abs((second - mean * mean) - want_var) < 1e-8


def test_criterion_02_poisson_reduction():
    with _Timer("acceptance-02 Poisson reduction at p=0", 1.0):
        for t in (0.5, 1.0, 2.0, 5.0):
            params = rl.PolyaAeppliParams(t=t, p=0.0)
            for r in range(31):
                want = math.exp(-t) * t**r / math.factorial(r)
                assert abs(rl.pa_pmf(params, r) - want) <= 1e-12 * want


def test_criterion_03_compound_sampler():
    with _Timer("acceptance-03 compound sampler vs closed form", 5.0):
        params = rl.PolyaAeppliParams(t=2.0, p=0.5)
        rng = np.random.default_rng(MASTER_SEED)
        sample = rl.pa_sample_many(params, 1_000_000, rng)
        assert abs(sample.mean() - 4.0) <= 3.0 * math.sqrt(12.0 / 1_000_000)
        table = rl.pa_pmf_table(params, r_max=int(sample.max()))
        emp = np.bincount(sample, minlength=len(table.masses)) / len(sample)
        tv = 0.5 * (float(np.abs(emp - np.array(table.masses)).sum()) + table.tail_mass)
        assert tv < 0.005


# -- 4, 5: engine agreement on randomized desk-scale instances ----------------


@pytest.fixture(scope="module")
def oracle_instances():
    rng = np.random.default_rng(414243)
    records = []
    for i in range(35):
        model = rl.TwoElementModel(
            float(rng.uniform(0.15, 0.85)),
            float(rng.uniform(0.15, 0.85)),
            float(rng.uniform(0.2, 0.8)),
        )
        n = int(rng.integers(1, 4))
        horizon = int(rng.integers(2, 18 - n + 1))
        target = tuple(int(s) for s in rng.integers(0, 2, size=n))
        env = model.draw_environment(horizon + n, int(rng.integers(0, 2**31)))
        records.append((model, env, target, horizon))
    for i in range(15):
        weights = rng.uniform(0.15, 1.0, size=3)
        weights /= weights.sum()
        system = rl.GibbsSystem(
            rl.TransitionMatrix.full(3),
            rl.bernoulli_potential([float(w) for w in weights]),
        )
        n = int(rng.integers(1, 3))
        horizon = int(rng.integers(2, 11 - n + 1))
        target = tuple(int(s) for s in rng.integers(0, 3, size=n))
        records.append((system, None, target, horizon))
    out = []
    for model, env, target, horizon in records:
        dp = rl.exact_count_distribution(model, env, target, horizon, r_max=horizon)
        brute = rl.enumerate_count_distribution(model, env, target, horizon)
        out.append((model, env, target, horizon, dp, brute))
    return out


def test_criterion_04_oracle_triangle(oracle_instances):
    with _Timer("acceptance-04 oracle triangle on 50 instances", 120.0):
        assert len(oracle_instances) == 50
        trials = 100_000
        for idx, (model, env, target, horizon, dp, brute) in enumerate(oracle_instances):
            for r in range(horizon + 1):
                b = brute.masses[r] if r < len(brute.masses) else 0.0
                assert abs(dp.masses[r] - b) < 1e-12, (idx, r)
            mc = rl.monte_carlo_count_distribution(
                model, env, target, horizon, trials, seed=idx, r_max=horizon
            )
            for r in range(horizon + 1):
                se = math.sqrt(max(dp.masses[r] * (1 - dp.masses[r]), 0.0) / trials)
                assert abs(mc.masses[r] - dp.masses[r]) <= 4 * se + 1e-9, (idx, r)


def test_criterion_05_moment_identity(oracle_instances):
    with _Timer("acceptance-05 moment identity k<=3", 60.0):
        for idx, (model, env, target, horizon, dp, _) in enumerate(oracle_instances):
            for k in range(4):
                direct = math.fsum(math.comb(r, k) * m for r, m in enumerate(dp.masses))
                enum = rl.binomial_moment_enumeration(model, env, target, horizon, k)
                assert abs(direct - enum) < 1e-10, (idx, k)


# -- 6, 7, 8, 9: quenched convergence -----------------------------------------


@pytest.fixture(scope="module")
def canonical_config():
    return rl.ExperimentConfig(
        model=CANONICAL_MODEL,
        point=POINT_1,
        n_list=(4, 6, 8, 10, 12, 14),
        t=1.0,
        environments=20,
        master_seed=MASTER_SEED,
        engines=("exact-dp",),
        r_max=40,
    )


def _tv_by_n(results):
    table = {}
    for res in results:
        for row in res.rows:
            table.setdefault(row.n, []).append(row.tv)
    return table


def test_criterion_06_quenched_convergence(canonical_config):
    with _Timer("acceptance-06 quenched convergence, fixed point", 600.0):
        results = rl.run_quenched(canonical_config)
        tv = _tv_by_n(results)
        assert all(
            late < early for early, late in zip(tv[4], tv[14])
        ), "some environment did not improve from n=4 to n=14"
        assert statistics.median(tv[14]) < 0.05


def test_criterion_07_quenched_convergence_period_two():
    with _Timer("acceptance-07 quenched convergence, period-2 point", 600.0):
        assert CANONICAL_MODEL.theta(POINT_2) == pytest.approx(0.25)
        config = rl.ExperimentConfig(
            model=CANONICAL_MODEL,
            point=POINT_2,
            n_list=(6, 8, 10, 12, 14),
            t=1.0,
            environments=20,
            master_seed=MASTER_SEED,
            engines=("exact-dp",),
            r_max=40,
        )
        results = rl.run_quenched(config)
        tv = _tv_by_n(results)
        assert all(late < early for early, late in zip(tv[6], tv[14]))


def test_criterion_08_mean_and_overlap_laws(canonical_config):
    with _Timer("acceptance-08 mean law and overlap counts", 120.0):
        config = canonical_config
        rows = rl.overlap_count_check(config, (0,))
        worst = {
            n: max(abs(r.expected_count - config.t) for r in rows if r.n == n)
            for n in config.n_list
        }
        assert worst[14] < worst[4]
        orows = rl.overlap_count_check(config, (0, 1, 2))
        for u in (0, 1, 2):
            dev = {
                n: statistics.mean(
                    abs(r.expected_count - r.limit)
                    for r in orows
                    if r.n == n and r.u == u
                )
                for n in (4, 14)
            }
            assert dev[14] < dev[4], f"u={u}: {dev}"


def test_criterion_09_rare_set_decay(canonical_config):
    with _Timer("acceptance-09 rare-set decay and main-term limit", 300.0):
        config = canonical_config
        window = config.window_length()
        q2 = rl.pa_binomial_moment(rl.PolyaAeppliParams(t=0.5, p=0.5), 2)
        rare = {n: [] for n in range(4, 11)}
        main10 = []
        for i in range(config.environments):
            env = CANONICAL_MODEL.draw_environment(
                window, environment_seed(MASTER_SEED, i)
            )
            for n in range(4, 11):
                target = POINT_1.prefix(n)
                horizon = rl.observation_time(
                    1.0, CANONICAL_MODEL.marginal_cylinder_mass(target)
                )
                r_mass, m_sum = rl.rare_vs_main_split(
                    CANONICAL_MODEL, env, target, horizon,
                    r=2, delta=n, block_gap=max(n // 2, 1),
                    period=1,
                )
                rare[n].append(r_mass)
                if n == 10:
                    main10.append(m_sum)
                    total = rl.binomial_moment_enumeration(
                        CANONICAL_MODEL, env, target, horizon, 2
                    )
                    assert r_mass + m_sum == pytest.approx(total, rel=1e-11)
        # rare mass shrinks with the cylinder, environment by environment
        assert all(late < early for early, late in zip(rare[4], rare[10]))
        # the environment-averaged main term approaches the limiting moment
        assert abs(statistics.mean(main10) - q2) / q2 < 0.15


# -- 10, 11: operator numerics and overlap structure ---------------------------


def test_criterion_10_transfer_operator():
    with _Timer("acceptance-10 transfer-operator numerics", 10.0):
        golden = rl.TransitionMatrix([[1, 1], [1, 0]])
        system = rl.GibbsSystem(golden, rl.Potential.constant(0.0, golden, depth=2))
        assert abs(system.perron.lam - (1 + math.sqrt(5)) / 2) < 1e-10
        coin = rl.GibbsSystem(
            rl.TransitionMatrix.full(2), rl.bernoulli_potential([0.3, 0.7], depth=2)
        )
        assert abs(coin.cylinder_mass("01") - 0.21) < 1e-12
        assert abs(coin.cylinder_mass("0101") - 0.0441) < 1e-12
        assert abs(coin.cylinder_mass("11") - 0.49) < 1e-12
        for sys_, point in (
            (system, POINT_1),
            (system, POINT_2),
            (coin, POINT_1),
        ):
            rows = ratio_convergence(sys_, point, 12)
            _, last_ratio, _ = rows[-1]
            assert abs(sys_.theta(point) - last_ratio) < 1e-8
            factor = rl.fit_decay_factor([dev for _, _, dev in rows])
            assert factor < 1.0


def test_criterion_11_overlap_structure():
    with _Timer("acceptance-11 overlap multiples at periodic cylinders", 5.0):
        rng = np.random.default_rng(MASTER_SEED)
        checked = 0
        while checked < 200:
            m = int(rng.integers(1, 6))
            gen = tuple(int(s) for s in rng.integers(0, 3, size=m))
            try:
                x = rl.PeriodicPoint(rl.Word(gen))
            except ValueError:
                continue
            checked += 1
            for n in range(2 * m, 12 * m + 1):
                word = x.prefix(n)
                for ell in rl.self_overlaps(word):
                    if ell <= n - m:
                        assert ell % m == 0, (gen, n, ell)


# -- 12: reproducibility --------------------------------------------------------


def test_criterion_12_byte_identical_runs(tmp_path):
    with _Timer("acceptance-12 byte-identical converge runs", 120.0):
        config = {
            "model": {"kind": "two-element", "alpha": 0.3, "beta": 0.7, "driving_p": 0.5},
            "point": {"generator": "0"},
            "schedule": {"t": 1.0, "n_list": [4, 6, 8]},
            "engines": ["exact-dp"],
            "seeds": {"master_seed": MASTER_SEED, "environments": 5},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli_main(["converge", "--config", str(path), "--out", str(out1)]) == 0
        assert cli_main(["converge", "--config", str(path), "--out", str(out2)]) == 0
        for name in ("quenched.csv", "summary.csv", "annealed.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
