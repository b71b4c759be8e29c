"""Hand-worked cases for the reference routes.

    python3 -m pytest perfbench/selftest_reference.py

Each expected value below is worked out on paper in the comment above it.
"""

import math

import numpy as np
import pytest

import reference as ref


def test_logrank_four_subjects():
    # Rx dies at 1 and 3; C dies at 2 and is censored at 4.
    # t=1: n=4, n_rx=2, d=1, d_rx=1 -> O-E +1/2, V 1*(1/2)(1/2)(3/3) = 1/4
    # t=2: n=3, n_rx=1, d=1, d_rx=0 -> O-E -1/3, V (1/3)(2/3)(2/2) = 2/9
    # t=3: n=2, n_rx=1, d=1, d_rx=1 -> O-E +1/2, V (1/2)(1/2)(1/1) = 1/4
    oe, var, z, p = ref.logrank([1, 2, 3, 4], [1, 1, 1, 0], [1, 0, 1, 0])
    assert oe == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert var == pytest.approx(13.0 / 18.0, rel=1e-15)
    assert z == pytest.approx((2.0 / 3.0) / math.sqrt(13.0 / 18.0), rel=1e-15)
    assert p == pytest.approx(math.erfc(abs(z) / math.sqrt(2.0)), rel=1e-15)


def test_logrank_tied_deaths():
    # Two deaths at t=1, one per arm, out of n=4 (2 per arm):
    # E_rx = 2 * 2/4 = 1 -> O-E 0, V = 2 (1/2)(1/2)(4-2)/(4-1) = 1/3;
    # t=2: n=2, n_rx=1, d=1, d_rx=0 -> O-E -1/2, V 1/4
    oe, var, _, _ = ref.logrank([1, 1, 2, 3], [1, 1, 1, 0], [1, 0, 0, 1])
    assert oe == pytest.approx(-0.5, rel=1e-15)
    assert var == pytest.approx(1.0 / 3.0 + 0.25, rel=1e-15)


def test_km_median():
    # S after 1, 2, 3 = 4/5, 3/5, 2/5: the median is 3
    assert ref.km_median([5, 4, 3, 2, 1], [1] * 5) == 3.0
    # censored at 2: S(1) = 3/4, S(3) = 3/4 * 1/2 = 3/8 <= 1/2
    assert ref.km_median([1, 2, 3, 4], [1, 0, 1, 1]) == 3.0
    # S never falls below 2/3
    assert ref.km_median([1, 2, 3], [1, 0, 0]) is None


def test_cox_alternating_deaths():
    # Rx dies at 1 and 3, C at 2 and 4. With e = exp(b) the score is
    # (1 - 2e/(2+2e)) + (0 - e/(2+e)) + (1 - e/(1+e)) = 2/(1+e) - e/(2+e),
    # zero at e^2 - e - 4 = 0, e = (1 + sqrt 17)/2; the information is
    # 2e/(1+e)^2 + 2e/(2+e)^2.
    beta, se = ref.cox_two_arm([1, 2, 3, 4], [1, 1, 1, 1], [1, 0, 1, 0])
    e = (1.0 + math.sqrt(17.0)) / 2.0
    assert beta == pytest.approx(math.log(e), rel=1e-13)
    info = 2 * e / (1 + e) ** 2 + 2 * e / (2 + e) ** 2
    assert se == pytest.approx(1.0 / math.sqrt(info), rel=1e-12)


def test_pair_count_and_win_fraction():
    # x > y: (3, 2), (3, 2.5); tie (2, 2) counts half -> 2.5 of 6 pairs
    assert ref.pair_count([1, 2, 3], [2, 2.5]) == 2.5
    assert ref.win_fraction([1, 2, 3], [2, 2.5]) == 2.5 / 6
    rng = np.random.default_rng(0)
    x, y = rng.integers(0, 5, 3000), rng.integers(0, 5, 7)
    loop = sum((a > b) + 0.5 * (a == b) for a in x for b in y)
    assert ref.pair_count(x, y) == loop


def test_weibull_mle_profile_equations():
    # Deaths at 1 and e: the profile score is 2/k + 1 - 2 e^k/(1 + e^k) and
    # the scale solves lam^k = (1 + e^k)/2.
    k, lam = ref.weibull_mle([1.0, math.e], [True, True])
    assert 2.0 / k + 1.0 - 2.0 * math.exp(k) / (1.0 + math.exp(k)) == pytest.approx(0.0, abs=1e-12)
    assert lam ** k == pytest.approx((1.0 + math.exp(k)) / 2.0, rel=1e-12)
    # with the second subject censored: 1/k - e^k/(1 + e^k) = 0, lam^k = 1 + e^k
    k, lam = ref.weibull_mle([1.0, math.e], [True, False])
    assert 1.0 / k - math.exp(k) / (1.0 + math.exp(k)) == pytest.approx(0.0, abs=1e-12)
    assert lam ** k == pytest.approx(1.0 + math.exp(k), rel=1e-12)


def test_weibull_win_equal_shapes():
    # With one shape k the hazards are proportional with ratio (b/a)^k, so
    # P(T_rx > T_c) = 1/(1 + (b/a)^k).
    value, err = ref.weibull_pair_win((1.3, 2.0), (1.3, 1.0))
    assert value == pytest.approx(1.0 / (1.0 + 0.5 ** 1.3), abs=1e-12)
    assert err < 1e-10
    mix, _ = ref.weibull_mixture_win([(0.25, 1.3, 2.0), (0.75, 1.3, 1.0)], [(1.0, 1.3, 1.0)])
    assert mix == pytest.approx(0.25 / (1.0 + 0.5 ** 1.3) + 0.75 * 0.5, abs=1e-12)


def test_weibull_mixture_median_and_density():
    # one component: median lam (ln 2)^(1/k)
    assert ref.weibull_mixture_median([(1.0, 1.5, 3.0)]) == pytest.approx(3.0 * math.log(2) ** (1 / 1.5), rel=1e-13)
    # exponential with rate 1/2 at t=1: (1/2) e^(-1/2)
    assert ref.weibull_mixture_density([(1.0, 1.0, 2.0)], 1.0) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-15)


def test_step_mixture_median():
    # curve A drops to 0 at t=1, curve B to 0 at t=3; with weights 0.4/0.6
    # the mixture is 0.6 on [1, 3) and 0 from 3: median 3. With 0.6/0.4 the
    # mixture is 0.4 from t=1: median 1.
    a = (np.array([1.0]), np.array([0.0]))
    b = (np.array([3.0]), np.array([0.0]))
    assert ref.step_mixture_median([(0.4, *a), (0.6, *b)]) == 3.0
    assert ref.step_mixture_median([(0.6, *a), (0.4, *b)]) == 1.0


def test_power_null_moments_small_case():
    # theta = 1, n = m = 2: all 6 orderings are equally likely and the
    # count takes 0, 1, 2, 2, 3, 4 -> mean 2, variance 10/6.
    mean, var = ref.power_null_moments(1.0, 2, 2)
    assert mean == pytest.approx(2.0, rel=1e-15)
    assert var == pytest.approx(10.0 / 6.0, rel=1e-15)


def test_power_null_moments_by_simulation():
    n, m, theta, draws = 3, 4, 2.0, 200_000
    rng = np.random.default_rng(1)
    a = rng.random((draws, m))
    b = rng.random((draws, n)) ** (1.0 / theta)
    counts = (b[:, :, None] < a[:, None, :]).sum(axis=(1, 2))
    mean, var = ref.power_null_moments(theta, n, m)
    assert abs(counts.mean() - mean) < 5 * math.sqrt(var / draws)
    assert abs(counts.var() - var) < 0.02 * var


def test_normal_pivot_interval():
    # Equal arms and count = nm/2: theta and 1/theta swap the roles of the
    # arms, so the interval is symmetric on the log scale.
    lo, hi = ref.normal_pivot_interval(5000.0, 100, 100, 0.95)
    assert lo * hi == pytest.approx(1.0, rel=1e-9)
    mean, var = ref.power_null_moments(lo, 100, 100)
    assert mean - 1.959963984540054 * math.sqrt(var) == pytest.approx(5000.0, rel=1e-9)


def test_wilson_and_p():
    # 0 of 10: lower end 0, upper z^2/(n + z^2)
    z = 1.959963984540054
    lo, hi = ref.wilson_interval(0, 10)
    assert lo == 0.0 and hi == pytest.approx(z * z / (10 + z * z), rel=1e-14)
    assert ref.two_sided_p(z) == pytest.approx(0.05, rel=1e-12)
