"""Reference computations for the benchmark's output checks.

Every routine here is written from its textbook definition and imports
nothing from survquack, so a check that compares a report against one of
them compares two independent routes. Speed matters only as far as the
checks must finish within a benchmark run; clarity comes first.

Times are positive floats, ``event`` flags deaths (False = censored) and
``is_rx`` flags the treated arm.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
COX_STEP_TOL = 1e-13     # Newton stops once a step is this small
COX_MAX_STEPS = 60
PAIR_BLOCK = 1024        # rows of x compared against all of y at once


def two_sided_p(z):
    """Two-sided normal tail probability of a z statistic."""
    return math.erfc(abs(z) / _SQRT2)


def _count_at(sorted_values, points, side):
    """Number of sorted values strictly below (side='left') or at most
    (side='right') each point."""
    return np.searchsorted(sorted_values, points, side=side)


def death_tables(time, event, is_rx):
    """Per distinct death time: (times, d, d_rx, n, n_rx).

    ``n`` counts subjects still under observation just before the time
    (observed time >= t), ``d`` the deaths at it; the ``_rx`` columns
    restrict both to the treated arm.
    """
    t = np.asarray(time, dtype=float)
    e = np.asarray(event, dtype=bool)
    x = np.asarray(is_rx, dtype=bool)
    times = np.unique(t[e])
    all_sorted = np.sort(t)
    rx_sorted = np.sort(t[x])
    deaths = np.sort(t[e])
    deaths_rx = np.sort(t[e & x])
    n = t.size - _count_at(all_sorted, times, "left")
    n_rx = rx_sorted.size - _count_at(rx_sorted, times, "left")
    d = _count_at(deaths, times, "right") - _count_at(deaths, times, "left")
    d_rx = _count_at(deaths_rx, times, "right") - _count_at(deaths_rx, times, "left")
    return times, d.astype(float), d_rx.astype(float), n.astype(float), n_rx.astype(float)


def logrank(time, event, is_rx):
    """Unweighted log-rank test: (O - E for the treated arm, variance, z, p).

    E sums d * n_rx / n over death times; the variance is the
    hypergeometric one, d (n_rx/n)(1 - n_rx/n)(n - d)/(n - 1), with
    single-subject risk sets contributing nothing.
    """
    _, d, d_rx, n, n_rx = death_tables(time, event, is_rx)
    frac = n_rx / n
    o_minus_e = float(np.sum(d_rx - d * frac))
    multi = n > 1.0
    variance = float(np.sum(d[multi] * frac[multi] * (1.0 - frac[multi])
                            * (n[multi] - d[multi]) / (n[multi] - 1.0)))
    z = o_minus_e / math.sqrt(variance)
    return o_minus_e, variance, z, two_sided_p(z)


def km_median(time, event):
    """Product-limit median: the first death time where S(t) <= 1/2, else None."""
    t = np.asarray(time, dtype=float)
    e = np.asarray(event, dtype=bool)
    times, d, _, n, _ = death_tables(t, e, np.zeros(t.size, dtype=bool))
    survival = np.cumprod(1.0 - d / n)
    hits = np.flatnonzero(survival <= 0.5)
    return float(times[hits[0]]) if hits.size else None


def km_curve(time, event):
    """(death times, survival just after each) of the product-limit estimate."""
    t = np.asarray(time, dtype=float)
    e = np.asarray(event, dtype=bool)
    times, d, _, n, _ = death_tables(t, e, np.zeros(t.size, dtype=bool))
    return times, np.cumprod(1.0 - d / n)


def cox_two_arm(time, event, is_rx):
    """Breslow partial-likelihood fit of the treatment log hazard ratio.

    Plain Newton iteration on the score
    U(b) = sum(d_rx - d n_rx e^b / (n_c + n_rx e^b)) with information
    I(b) = sum(d n_c n_rx e^b / (n_c + n_rx e^b)^2), started at 0. Returns
    (log HR, SE = I(b)^-1/2).
    """
    _, d, d_rx, n, n_rx = death_tables(time, event, is_rx)
    n_c = n - n_rx

    def score_info(beta):
        eb = math.exp(beta)
        denom = n_c + n_rx * eb
        return (float(np.sum(d_rx - d * n_rx * eb / denom)),
                float(np.sum(d * n_c * n_rx * eb / (denom * denom))))

    beta = 0.0
    for _ in range(COX_MAX_STEPS):
        score, info = score_info(beta)
        step = max(min(score / info, 1.0), -1.0)
        beta += step
        if abs(step) <= COX_STEP_TOL:
            break
    else:
        raise ArithmeticError("reference Cox fit did not converge")
    return beta, 1.0 / math.sqrt(score_info(beta)[1])


def pair_count(x, y):
    """Number of (x_i, y_j) pairs with x_i > y_j, ties counted half, by
    comparing every pair."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wins = 0
    ties = 0
    for start in range(0, x.size, PAIR_BLOCK):
        block = x[start:start + PAIR_BLOCK, None]
        wins += int(np.count_nonzero(block > y[None, :]))
        ties += int(np.count_nonzero(block == y[None, :]))
    return wins + 0.5 * ties


def win_fraction(x, y):
    """Share of all (x_i, y_j) pairs where x_i is larger, ties counted half."""
    return pair_count(x, y) / (len(x) * len(y))


def weibull_mle(time, event):
    """Censored Weibull fit (shape k, scale lam) through the profile likelihood.

    For fixed k the scale solves lam^k = sum(t^k) / d in closed form, and
    the profile score d/k + sum_deaths(log t) - d * sum(t^k log t) / sum(t^k)
    falls from +inf to a negative limit, so its root is bracketed and
    found by ``scipy.optimize.brentq``.
    """
    from scipy.optimize import brentq

    t = np.asarray(time, dtype=float)
    e = np.asarray(event, dtype=bool)
    logt = np.log(t)
    d = float(e.sum())
    sum_event_logt = float(logt[e].sum())
    top = float(logt.max())

    def profile_score(k):
        w = np.exp(k * (logt - top))
        return d / k + sum_event_logt - d * float(np.sum(w * logt)) / float(np.sum(w))

    lo, hi = 1e-3, 1.0
    while profile_score(hi) > 0.0:
        lo, hi = hi, hi * 2.0
    k = brentq(profile_score, lo, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=500)
    log_sum = top * k + math.log(float(np.sum(np.exp(k * (logt - top)))))
    lam = math.exp((log_sum - math.log(d)) / k)
    return k, lam


def weibull_pair_win(rx, c):
    """P(T_rx > T_c) for independent Weibull laws rx = (k1, a), c = (k2, b).

    On the control's probability scale u = S_c(T_c) the control time is
    Q_c(u) = b (-log u)^(1/k2), so the probability is the integral over
    u in (0, 1) of S_rx(Q_c(u)), a bounded integrand, done by
    ``scipy.integrate.quad``. Returns (value, quad's error estimate).
    """
    from scipy.integrate import quad

    k1, a = rx
    k2, b = c

    def integrand(u):
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return 1.0
        return math.exp(-((b / a) * (-math.log(u)) ** (1.0 / k2)) ** k1)

    value, err = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=400)
    return value, err


def weibull_mixture_win(rx_parts, c_parts):
    """P(T_rx > T_c) for two Weibull mixtures, each a list of (weight, k, lam).

    The mixture probability is the weighted double sum of the pairwise
    ones. Returns (value, summed error estimate).
    """
    total = 0.0
    err = 0.0
    for w_c, k_c, lam_c in c_parts:
        for w_rx, k_rx, lam_rx in rx_parts:
            value, e = weibull_pair_win((k_rx, lam_rx), (k_c, lam_c))
            total += w_c * w_rx * value
            err += w_c * w_rx * e
    return total, err


def weibull_mixture_median(parts):
    """Median of a Weibull mixture [(weight, k, lam), ...] by ``brentq``."""
    from scipy.optimize import brentq

    def surv_minus_half(t):
        return sum(w * math.exp(-((t / lam) ** k)) for w, k, lam in parts) - 0.5

    hi = max(lam for _, _, lam in parts)
    while surv_minus_half(hi) > 0.0:
        hi *= 2.0
    return brentq(surv_minus_half, 0.0, hi, xtol=1e-13, rtol=4.0 * np.finfo(float).eps, maxiter=500)


def weibull_mixture_density(parts, t):
    """Density at t of a Weibull mixture [(weight, k, lam), ...]."""
    return sum(w * (k / lam) * (t / lam) ** (k - 1.0) * math.exp(-((t / lam) ** k))
               for w, k, lam in parts)


def step_mixture_median(curves):
    """Median of a mixture of step survival curves [(weight, times, surv_after)].

    The mixture only changes at the union of the jump times, so its
    median is the first of those where the mixed survival is <= 1/2.
    """
    grid = np.unique(np.concatenate([times for _, times, _ in curves]))
    mixed = np.zeros(grid.size)
    for w, times, surv_after in curves:
        idx = np.searchsorted(times, grid, side="right")
        mixed += w * np.concatenate(([1.0], surv_after))[idx]
    hits = np.flatnonzero(mixed <= 0.5)
    return float(grid[hits[0]]) if hits.size else None


def power_null_moments(theta, n, m):
    """Mean and variance of the treated-wins pair count under the power null.

    Treated survival is control survival raised to ``theta``; n treated and
    m control subjects. On the control's probability scale a control value
    a is uniform and a treated value b has cdf x^theta; a pair is a treated
    win when b < a. Then P = P(b < a) = 1/(1 + theta), two treated values
    under one control give E[a^(2 theta)] = 1/(1 + 2 theta), and one treated
    value under two controls gives E[min(a1, a2)^theta] = 2/((theta+1)(theta+2))
    (Mann & Whitney 1947; Lehmann 1953).
    """
    p = 1.0 / (1.0 + theta)
    same_control = 1.0 / (1.0 + 2.0 * theta)
    same_treated = 2.0 / ((theta + 1.0) * (theta + 2.0))
    mean = n * m * p
    var = n * m * (p * (1.0 - p) + (n - 1) * (same_control - p * p)
                   + (m - 1) * (same_treated - p * p))
    return mean, var


def normal_pivot_interval(count, n, m, level):
    """Confidence interval for theta from the normal approximation.

    theta is accepted when |count - mean(theta)| <= z sd(theta), with z the
    two-sided normal quantile at ``level``. The mean falls with theta, so
    the lower end solves count = mean - z sd and the upper end
    count = mean + z sd; both are found by ``brentq`` on log theta.
    """
    from scipy.optimize import brentq
    from scipy.stats import norm

    z = float(norm.ppf(0.5 + 0.5 * level))

    def edge(sign):
        def f(log_theta):
            mean, var = power_null_moments(math.exp(log_theta), n, m)
            return mean + sign * z * math.sqrt(var) - count
        return math.exp(brentq(f, math.log(1e-6), math.log(1e6), xtol=1e-12))

    return edge(-1.0), edge(+1.0)


def wilson_interval(successes, trials, z=1.959963984540054):
    """Wilson score interval for a binomial proportion (95% by default)."""
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)
