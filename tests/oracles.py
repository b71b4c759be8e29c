"""Independent reference implementations the test suite checks against.

Everything here is written the slow, obvious way: explicit loops,
exhaustive enumeration, scipy quadrature, plain bisection. Nothing
imports survquack, so agreement between these routes and the package
is a real two-route check rather than the same code called twice.
"""

import math
from itertools import combinations

import numpy as np
from scipy import integrate, stats

LN2 = math.log(2.0)


def empirical_survival(times, t):
    """P(T > t) by counting."""
    times = [float(x) for x in times]
    return sum(1 for x in times if x > t) / len(times)


def km_by_hand(times, events, t):
    """Product-limit estimate at ``t`` via explicit risk-set loops."""
    pairs = [(float(x), bool(e)) for x, e in zip(times, events)]
    surv = 1.0
    for u in sorted({x for x, e in pairs if e}):
        if u > t:
            break
        n = sum(1 for x, _ in pairs if x >= u)
        d = sum(1 for x, e in pairs if e and x == u)
        surv *= 1.0 - d / n
    return surv


def pairwise_win_fraction(rx_times, c_times):
    """Double-loop fraction of (Rx, C) pairs with Rx living longer, ties half."""
    total = 0.0
    for x in rx_times:
        for y in c_times:
            if x > y:
                total += 1.0
            elif x == y:
                total += 0.5
    return total / (len(rx_times) * len(c_times))


def logrank_by_hand(times, events, is_rx):
    """(O-E, V) from per-event-time 2x2 tables, written out longhand.

    The variance term for a table with a single subject at risk is zero.
    """
    rows = [(float(t), bool(e), bool(x)) for t, e, x in zip(times, events, is_rx)]
    oe = 0.0
    var = 0.0
    for u in sorted({t for t, e, _ in rows if e}):
        n = sum(1 for t, _, _ in rows if t >= u)
        n1 = sum(1 for t, _, x in rows if t >= u and x)
        d = sum(1 for t, e, _ in rows if e and t == u)
        d1 = sum(1 for t, e, x in rows if e and x and t == u)
        oe += d1 - d * n1 / n
        if n > 1:
            var += d * (n1 / n) * (1.0 - n1 / n) * (n - d) / (n - 1)
    return oe, var


def breslow_score(times, events, is_rx):
    """The two-arm Breslow partial-likelihood score U(beta), as a function.

    At each distinct death time u with d1 treated and d0 control deaths and
    n1, n0 subjects at risk (time >= u): U gains d1 - (d1 + d0) n1 e^b / (n0 + n1 e^b).
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    x = np.asarray(is_rx, dtype=bool)
    u = np.unique(t[e])

    def at_risk(group):
        return group.size - np.searchsorted(np.sort(group), u, side="left")

    def deaths(group):
        group = np.sort(group)
        return np.searchsorted(group, u, side="right") - np.searchsorted(group, u, side="left")

    n1, n0 = at_risk(t[x]), at_risk(t[~x])
    d1, d0 = deaths(t[e & x]), deaths(t[e & ~x])

    def score(beta):
        r = math.exp(beta)
        return float(np.sum(d1 - (d1 + d0) * n1 * r / (n0 + n1 * r)))

    return score


def logrank_moments_scipy(times, events, is_rx):
    """Same statistic through scipy's hypergeometric moments."""
    rows = [(float(t), bool(e), bool(x)) for t, e, x in zip(times, events, is_rx)]
    observed = 0.0
    expected = 0.0
    var = 0.0
    for u in sorted({t for t, e, _ in rows if e}):
        n = sum(1 for t, _, _ in rows if t >= u)
        n1 = sum(1 for t, _, x in rows if t >= u and x)
        d = sum(1 for t, e, _ in rows if e and t == u)
        d1 = sum(1 for t, e, x in rows if e and x and t == u)
        rv = stats.hypergeom(M=n, n=n1, N=d)
        observed += d1
        # scipy computes every moment at once; kurtosis divides by
        # (M-2)(M-3), which is zero for tiny tables. Mean and variance
        # are unaffected, so silence just that.
        with np.errstate(invalid="ignore"):
            expected += rv.mean()
            if n > 1:
                var += rv.var()
    return observed - expected, var


def bisect_complement_scale(shape_minus, overall_median, prev_plus, plus_surv_at_median):
    """Solve the complement Weibull scale by bisection on the mixture survival.

    ``plus_surv_at_median`` is the favorable component's survival at the
    target median, evaluated by the caller (keeping this routine free of
    any curve machinery). The mixture survival at the median is strictly
    increasing in the unknown scale, so plain bisection applies.
    """

    def mix_surv(lam):
        s_minus = math.exp(-((overall_median / lam) ** shape_minus))
        return prev_plus * plus_surv_at_median + (1.0 - prev_plus) * s_minus

    lo, hi = 1e-9, 1.0
    while mix_surv(hi) < 0.5:
        hi *= 2.0
        if hi > 1e15:
            raise AssertionError("no finite scale reaches the target median")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mix_surv(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def quad_llp(rx_survival, c_density, upper=np.inf):
    """P(T_rx > T_c) = integral of S_rx * f_c by scipy quadrature."""
    value, err = integrate.quad(
        lambda t: rx_survival(t) * c_density(t),
        0.0,
        upper,
        limit=400,
        epsabs=1e-12,
        epsrel=1e-10,
    )
    if err > 1e-8:
        raise AssertionError(f"quadrature oracle error estimate too large: {err}")
    return value


def weibull_density(shape, scale):
    """f(t) = (shape / scale) (t / scale)^(shape - 1) exp(-(t / scale)^shape), t > 0."""

    def f(t):
        z = t / scale
        return shape / scale * z ** (shape - 1.0) * math.exp(-(z**shape))

    return f


def power_curve_density(reference_survival, reference_density, theta):
    """Density of S(t)^theta: theta * S(t)^(theta - 1) * f(t), and 0 where S = 0."""

    def f(t):
        s = float(reference_survival(t))
        return theta * s ** (theta - 1.0) * reference_density(t) if s > 0.0 else 0.0

    return f


def mixture_density(parts):
    """Density of a mixture given (prevalence, density) pairs."""
    return lambda t: math.fsum(p * f(t) for p, f in parts)


def quantile_llp(rx_survival, c_quantile):
    """P(T_rx > T_c) = integral of S_rx(Q_c(u)) over u in (0, 1) by scipy quadrature.

    ``c_quantile`` maps a survival level u to the control time where S_c = u;
    the integrand is bounded by 1, so no time horizon is needed.
    """
    value, err = integrate.quad(
        lambda u: rx_survival(c_quantile(u)),
        0.0,
        1.0,
        limit=400,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    if err > 1e-11:
        raise AssertionError(f"quadrature oracle error estimate too large: {err}")
    return value


def mw_exact_pmf(n, m, theta):
    """Exact pmf of the Mann-Whitney pair count under the exponent-theta null.

    The null places m reference values as uniforms and n treated values
    with density theta*x^(theta-1) on (0,1); the count is the number of
    pairs with the treated value below the reference value. Each of the
    C(n+m, n) interleaving patterns has probability
    n!*m! * integral over the ordered simplex of the product of densities,
    and that integral telescopes into a single product when integrated
    from the smallest coordinate up.
    """
    pmf = {}
    norm = math.factorial(n) * math.factorial(m)
    for b_positions in combinations(range(n + m), n):
        bset = frozenset(b_positions)
        coef = 1.0
        poly_exp = 0.0
        count = 0
        b_seen = 0
        for pos in range(n + m):
            if pos in bset:
                e = (theta - 1.0) + poly_exp
                coef *= theta
                # reference values after this position all beat this treated one
                count += m - (pos - b_seen)
                b_seen += 1
            else:
                e = poly_exp
            coef /= e + 1.0
            poly_exp = e + 1.0
        pmf[count] = pmf.get(count, 0.0) + coef * norm
    total = math.fsum(pmf.values())
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"pattern probabilities sum to {total}, not 1")
    return pmf


def mw_exact_region(n, m, theta, level, margin=0.0):
    """Equal-tailed quantile region [lo, hi] for the exact count pmf.

    Cut points are min{c : F(c) >= q} at q = alpha/2 and 1 - alpha/2,
    matching the boundary-inclusive rounding of the implementation under
    test. With ``margin`` > 0 the exact CDF must clear both cut levels by
    at least that much on both sides, which guarantees a Monte Carlo
    order-statistic estimate of the same cut points converges to exactly
    these values; a knife-edge raises instead of silently passing.
    """
    pmf = mw_exact_pmf(n, m, theta)
    alpha2 = 0.5 * (1.0 - level)
    lo = hi = None
    cdf = 0.0
    for c in sorted(pmf):
        prev = cdf
        cdf += pmf[c]
        if lo is None and cdf >= alpha2:
            if margin and not (prev < alpha2 - margin and cdf > alpha2 + margin):
                raise AssertionError(
                    f"knife-edge lower cut at (n={n}, m={m}, theta={theta}): "
                    f"F jumps {prev:.6f} -> {cdf:.6f} across {alpha2}"
                )
            lo = c
        if hi is None and cdf >= 1.0 - alpha2:
            if margin and not (prev < 1.0 - alpha2 - margin and cdf > 1.0 - alpha2 + margin):
                raise AssertionError(
                    f"knife-edge upper cut at (n={n}, m={m}, theta={theta}): "
                    f"F jumps {prev:.6f} -> {cdf:.6f} across {1.0 - alpha2}"
                )
            hi = c
    return float(lo), float(hi)


def weibull_loglik(times, events, shape, scale):
    """Censored Weibull log-likelihood, written directly from the density."""
    total = 0.0
    for t, e in zip(times, events):
        z = (t / scale) ** shape
        if e:
            total += math.log(shape / scale) + (shape - 1.0) * math.log(t / scale) - z
        else:
            total += -z
    return total
