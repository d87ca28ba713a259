import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reclab import (
    PolyaAeppliParams,
    pa_binomial_moment,
    pa_mean_variance,
    pa_pgf,
    pa_pmf,
    pa_pmf_table,
    pa_sample_many,
)
from reclab.polya_aeppli import R_MAX_CAP


def test_pmf_at_zero_is_exp_minus_t():
    assert pa_pmf(PolyaAeppliParams(t=1.0, p=0.0), 0) == pytest.approx(
        math.exp(-1.0), rel=1e-15
    )
    assert pa_pmf(PolyaAeppliParams(t=3.0, p=0.7), 0) == pytest.approx(
        math.exp(-3.0), rel=1e-15
    )


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.9])
def test_pmf_at_one_single_term(t, p):
    # only the j = 1 term survives: e^{-t} (1-p) t
    assert pa_pmf(PolyaAeppliParams(t=t, p=p), 1) == pytest.approx(
        math.exp(-t) * (1.0 - p) * t, rel=1e-14
    )


def test_poisson_reduction():
    for t in (0.5, 2.0, 7.0):
        params = PolyaAeppliParams(t=t, p=0.0)
        for r in range(31):
            want = math.exp(-t) * t**r / math.factorial(r)
            assert abs(pa_pmf(params, r) - want) <= 1e-12 * want


def test_pmf_matches_the_direct_sum_past_order_fifty():
    # the closed-form sum at an order whose terms span many magnitudes
    params = PolyaAeppliParams(t=4.0, p=0.6)
    direct = sum(
        params.p ** (55 - j)
        * (1 - params.p) ** j
        * params.t**j
        / math.factorial(j)
        * math.comb(54, j - 1)
        for j in range(1, 56)
    ) * math.exp(-params.t)
    assert pa_pmf(params, 55) == pytest.approx(direct, rel=1e-11)


def test_parameter_validation():
    with pytest.raises(ValueError):
        PolyaAeppliParams(t=0.0, p=0.5)
    with pytest.raises(ValueError):
        PolyaAeppliParams(t=-1.0, p=0.5)
    with pytest.raises(ValueError):
        PolyaAeppliParams(t=1.0, p=1.0)
    with pytest.raises(ValueError):
        PolyaAeppliParams(t=1.0, p=-0.1)
    with pytest.raises(ValueError):
        pa_pmf(PolyaAeppliParams(t=1.0, p=0.5), -1)


def _exact_scaled_mass(t: float, p: float, r: int) -> Fraction:
    """e^t P(r) = sum_j p^(r-j) (1-p)^j t^j / j! C(r-1, j-1) in exact rationals."""
    t, p = Fraction(t), Fraction(p)
    if r == 0:
        return Fraction(1)
    return sum(p ** (r - j) * (1 - p) ** j * t**j / math.factorial(j) * math.comb(r - 1, j - 1)
               for j in range(1, r + 1))


@pytest.mark.parametrize("t", [0.05, 1.0, 10.0])
@pytest.mark.parametrize("p", [0.0, 0.5, 0.95, 0.99])
def test_pmf_table_against_exact_rationals(t, p):
    scale = math.exp(-t)
    masses = pa_pmf_table(PolyaAeppliParams(t=t, p=p), r_max=100).masses
    for r in (0, 1, 2, 7, 33, 100):
        want = _exact_scaled_mass(t, p, r)
        assert abs(Fraction(masses[r] / scale) - want) <= Fraction(1, 10**14) * want


@pytest.mark.parametrize("t,p", [(0.5, 0.0), (2.0, 0.5), (10.0, 0.95)])
def test_fixed_table_has_the_bits_of_the_adaptive_table(t, p):
    params = PolyaAeppliParams(t=t, p=p)
    adaptive = pa_pmf_table(params)
    fixed = pa_pmf_table(params, r_max=adaptive.r_max)
    assert fixed.masses == adaptive.masses
    half = adaptive.r_max // 2
    assert pa_pmf_table(params, r_max=half).masses == adaptive.masses[: half + 1]
    assert pa_pmf(params, adaptive.r_max) == adaptive.masses[-1]


def test_r_max_past_the_cap_is_refused_before_any_table():
    params = PolyaAeppliParams(t=1.0, p=0.5)
    assert pa_pmf_table(params, r_max=R_MAX_CAP).r_max == R_MAX_CAP
    with pytest.raises(ValueError, match=f"r_max must be at most {R_MAX_CAP}, got 200001"):
        pa_pmf_table(params, r_max=R_MAX_CAP + 1)


def test_table_fixed_truncation():
    table = pa_pmf_table(PolyaAeppliParams(t=1.0, p=0.0), r_max=0)
    assert table.masses == (pytest.approx(math.exp(-1.0)),)
    assert table.tail_mass == pytest.approx(1.0 - math.exp(-1.0))


def test_table_total_mass_deep():
    table = pa_pmf_table(PolyaAeppliParams(t=2.0, p=0.5), r_max=200)
    assert table.tail_mass < 1e-12
    assert table.total() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t", [0.5, 1.0, 10.0])
@pytest.mark.parametrize("p", [0.0, 0.5, 0.95])
def test_partial_sums_reach_one(t, p):
    params = PolyaAeppliParams(t=t, p=p)
    table = pa_pmf_table(params, r_max=2000)
    assert math.fsum(table.masses) == pytest.approx(1.0, abs=1e-10)


def test_adaptive_table_moments():
    # adaptive truncation must carry enough mass for mean/variance work
    cases = [(t, p) for t in (0.5, 2.0, 5.0) for p in (0.0, 0.5, 0.9)] + [(10.0, 0.95)]
    for t, p in cases:
        table = pa_pmf_table(PolyaAeppliParams(t=t, p=p))
        assert abs(table.total() - 1.0) < 1e-10
        mean = sum(r * m for r, m in enumerate(table.masses))
        second = sum(r * r * m for r, m in enumerate(table.masses))
        want_mean, want_var = pa_mean_variance(PolyaAeppliParams(t=t, p=p))
        assert mean == pytest.approx(want_mean, abs=1e-8)
        assert second - mean**2 == pytest.approx(want_var, abs=1e-7)


def test_binomial_moment_values():
    assert pa_binomial_moment(PolyaAeppliParams(t=3.0, p=0.4), 0) == 1.0
    # first moment is the mean t/(1-p)
    assert pa_binomial_moment(PolyaAeppliParams(t=2.0, p=0.5), 1) == pytest.approx(4.0)
    # at p = 0 only j = k survives: t^k/k!
    assert pa_binomial_moment(PolyaAeppliParams(t=2.0, p=0.0), 2) == pytest.approx(2.0)
    # hand evaluation of the k = 2 sum at (0.5, 0.5)
    assert pa_binomial_moment(PolyaAeppliParams(t=0.5, p=0.5), 2) == pytest.approx(1.5)


def test_moment_consistency_against_table():
    params = PolyaAeppliParams(t=2.0, p=0.5)
    table = pa_pmf_table(params, r_max=400)
    for k in range(6):
        direct = math.fsum(math.comb(r, k) * m for r, m in enumerate(table.masses))
        assert direct == pytest.approx(pa_binomial_moment(params, k), abs=1e-8)


def test_mean_variance_closed_forms():
    assert pa_mean_variance(PolyaAeppliParams(t=2.0, p=0.5)) == (
        pytest.approx(4.0),
        pytest.approx(12.0),
    )
    assert pa_mean_variance(PolyaAeppliParams(t=3.0, p=0.0)) == (
        pytest.approx(3.0),
        pytest.approx(3.0),
    )
    mean, var = pa_mean_variance(PolyaAeppliParams(t=1.0, p=0.9))
    assert mean == pytest.approx(10.0)
    assert var == pytest.approx(190.0)


def test_pgf_values_and_domain():
    params = PolyaAeppliParams(t=2.0, p=0.5)
    assert pa_pgf(params, 1.0) == 1.0
    assert pa_pgf(PolyaAeppliParams(t=1.0, p=0.0), 0.0) == pytest.approx(math.exp(-1.0))
    assert pa_pgf(params, 0.5) == pytest.approx(math.exp(-4.0 / 3.0), rel=1e-14)
    with pytest.raises(ValueError):
        pa_pgf(params, 2.0)  # p*z = 1


def test_pgf_matches_series():
    params = PolyaAeppliParams(t=1.5, p=0.5)
    table = pa_pmf_table(params, r_max=400)
    for z in (0.0, 0.25, 0.5, 0.9):
        series = math.fsum(z**r * m for r, m in enumerate(table.masses))
        assert series == pytest.approx(pa_pgf(params, z), abs=1e-10)


def test_sampler_poisson_at_p_zero():
    rng = np.random.default_rng(5)
    draws = pa_sample_many(PolyaAeppliParams(t=3.0, p=0.0), 200_000, rng)
    assert draws.mean() == pytest.approx(3.0, abs=4 * math.sqrt(3.0 / 200_000))
    assert draws.var() == pytest.approx(3.0, abs=0.1)


def test_sampler_agrees_with_pmf():
    params = PolyaAeppliParams(t=1.0, p=0.5)
    rng = np.random.default_rng(11)
    draws = pa_sample_many(params, 200_000, rng)
    table = pa_pmf_table(params, r_max=int(draws.max()))
    emp = np.bincount(draws, minlength=len(table.masses)) / len(draws)
    tv = 0.5 * (float(np.abs(emp - np.array(table.masses)).sum()) + table.tail_mass)
    assert tv < 0.01


@settings(max_examples=150, deadline=None)
@given(
    t=st.floats(min_value=0.05, max_value=8.0),
    p=st.floats(min_value=0.0, max_value=0.9),
    r=st.integers(min_value=0, max_value=120),
)
def test_pmf_nonnegative_and_bounded(t, p, r):
    mass = pa_pmf(PolyaAeppliParams(t=t, p=p), r)
    assert 0.0 <= mass <= 1.0


@pytest.mark.parametrize("t,p", [(2.0, 0.5), (5.0, 0.9), (0.5, 0.3)])
def test_pmf_against_panjer_recursion(t, p):
    # independent oracle: the compound Poisson recursion
    # p_k = (t/k) sum_{j<=k} j q_j p_{k-j} with geometric severities
    # q_j = p^{j-1}(1-p), started from p_0 = e^{-t}
    r_max = 200
    q = [0.0] + [(p ** (j - 1)) * (1 - p) for j in range(1, r_max + 1)]
    rec = [math.exp(-t)]
    for k in range(1, r_max + 1):
        rec.append((t / k) * math.fsum(j * q[j] * rec[k - j] for j in range(1, k + 1)))
    params = PolyaAeppliParams(t=t, p=p)
    for r in range(r_max + 1):
        want = rec[r]
        got = pa_pmf(params, r)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)
