"""Independent reference implementations the test suite checks against.

Everything here is written the slow, obvious way: explicit loops,
exhaustive enumeration, scipy quadrature, plain bisection. Nothing
imports survquack, so agreement between these routes and the package
is a real two-route check rather than the same code called twice.
"""

import csv
import hashlib
import io
import math
from itertools import combinations

import numpy as np
from scipy import integrate, optimize, stats

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
    """The two-arm Breslow partial-likelihood score U(beta), as a function."""
    return breslow_functions(*breslow_counts(times, events, is_rx))[0]


def breslow_counts(times, events, is_rx):
    """(d1, d0, n1, n0) at each distinct death time u: the treated and
    control deaths at u and the treated and control subjects at risk
    (time >= u)."""
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    x = np.asarray(is_rx, dtype=bool)
    u = np.unique(t[e])

    def at_risk(group):
        return group.size - np.searchsorted(np.sort(group), u, side="left")

    def deaths(group):
        group = np.sort(group)
        return np.searchsorted(group, u, side="right") - np.searchsorted(group, u, side="left")

    return deaths(t[e & x]), deaths(t[e & ~x]), at_risk(t[x]), at_risk(t[~x])


def breslow_functions(d1, d0, n1, n0):
    """(U, I): the Breslow score and information, as functions of beta,
    from per-death-time counts. With r = e^beta, each death time adds
    d1 - (d1 + d0) n1 r / (n0 + n1 r) to U(beta) and
    (d1 + d0) n0 n1 r / (n0 + n1 r)^2 to I(beta) = -U'(beta)."""
    d1, d0, n1, n0 = (np.asarray(c, dtype=float) for c in (d1, d0, n1, n0))

    def score(beta):
        r = math.exp(beta)
        return float(np.sum(d1 - (d1 + d0) * n1 * r / (n0 + n1 * r)))

    def information(beta):
        r = math.exp(beta)
        return float(np.sum((d1 + d0) * n0 * n1 * r / (n0 + n1 * r) ** 2))

    return score, information


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


def seed_stream(master_seed, *path):
    """numpy's own route to the generator of stream ``path``: a
    ``SeedSequence`` whose spawn key holds each int as itself and each
    string tag as the first eight bytes of its SHA-256 digest, big-endian."""
    if master_seed < 0 or any(isinstance(p, int) and p < 0 for p in path):
        raise ValueError("seeds and path parts must be nonnegative")
    key = tuple(
        p if isinstance(p, int) else int.from_bytes(hashlib.sha256(p.encode()).digest()[:8], "big")
        for p in path
    )
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def pcg64_state(master_seed, *path):
    """(state, inc) of ``seed_stream(master_seed, *path)``'s PCG64."""
    state = seed_stream(master_seed, *path).bit_generator.state["state"]
    return state["state"], state["inc"]


def draw_trial(scenario, rep):
    """Trial ``rep`` of a realised simulate scenario drawn on its own:
    (event times with Rx subjects first, subgroup index per subject).

    Membership takes one uniform per subject from stream (rep,
    "membership"); each arm's stream (rep, "times", arm) is read
    subgroup by subgroup, members in subject order, and each uniform u
    becomes scale * (-log u)^(1/shape), with u floored at the smallest
    normal double.
    """
    cfg = scenario.config
    n_total, n_rx = cfg.n_total, scenario.n_rx
    u = seed_stream(cfg.master_seed, rep, "membership").random(n_total)
    edges = np.cumsum([g.prevalence for g in scenario.subgroups])
    g_idx = np.minimum(np.searchsorted(edges, u, side="right"), len(scenario.subgroups) - 1)
    time = np.empty(n_total)
    for arm_label, arm in (("Rx", slice(0, n_rx)), ("C", slice(n_rx, n_total))):
        rng = seed_stream(cfg.master_seed, rep, "times", arm_label)
        arm_time, arm_g = time[arm], g_idx[arm]
        for gi, row in enumerate(scenario.subgroups):
            members = arm_g == gi
            dist = row.rx if arm_label == "Rx" else row.c
            u = np.maximum(rng.random(int(members.sum())), np.finfo(float).tiny)
            arm_time[members] = dist.scale * np.power(-np.log(u), 1.0 / dist.shape)
    return time, g_idx


def complete_tables_by_argsort(times, n_rx):
    """The block risk tables of complete samples the argsort way, for the
    rows of ``times`` with their Rx subjects in the first ``n_rx`` columns:
    (times in argsort order, Rx flag of each sorted entry, Rx subjects at
    risk there, irregular), all as float arrays but the boolean irregular
    flag of each row. A row is irregular when it holds a tied time or one
    that is not finite and positive."""
    order = np.argsort(times, axis=1)
    t = np.take_along_axis(times, order, axis=1)
    x = order < n_rx
    irregular = (t[:, 1:] == t[:, :-1]).any(axis=1) | ~(t[:, 0] > 0.0) | ~np.isfinite(t[:, -1])
    at_risk_rx = n_rx - (np.cumsum(x, axis=1) - x)
    return t, x.astype(float), at_risk_rx.astype(float), irregular


def weibull_profile_root(times, events):
    """Censored Weibull fit (shape k, scale lam) through the profile likelihood.

    For fixed k the scale solves lam^k = sum(t^k) / d, and the profile score
    d/k + sum_deaths(log t) - d * sum(t^k log t) / sum(t^k) falls from +inf
    to a negative limit, so its root is bracketed by halving and doubling k
    from 1 and found by ``scipy.optimize.brentq``.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    logt = np.log(t)
    d = float(e.sum())
    sum_event_logt = float(logt[e].sum())
    top = float(logt.max())

    def profile_score(k):
        w = np.exp(k * (logt - top))
        return d / k + sum_event_logt - d * float(np.sum(w * logt)) / float(np.sum(w))

    lo = hi = 1.0
    while profile_score(lo) <= 0.0:
        lo *= 0.5
    while profile_score(hi) > 0.0:
        hi *= 2.0
    k = optimize.brentq(profile_score, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)
    log_sum = top * k + math.log(float(np.sum(np.exp(k * (logt - top)))))
    return k, math.exp((log_sum - math.log(d)) / k)


def step_survival_by_hand(times, survival_after, t, left=False):
    """A right-continuous step curve at ``t``, or its left limit: the value
    after the last jump before ``t`` (or at it, unless ``left``)."""
    value = 1.0
    for u, s in zip(times, survival_after):
        if u < t or (u == t and not left):
            value = float(s)
    return value


def llp_against_steps_by_hand(rx_survival, c_survival, c_jumps):
    """P(T_rx > T_c), ties counted half, for a control that dies only at
    ``c_jumps``: the sum over its jumps of the jump's mass times the mean of
    the Rx curve's two limits there. ``rx_survival(t, left)`` and
    ``c_survival(t, left)`` give a curve's value or left limit at t."""
    return math.fsum(
        (c_survival(u, True) - c_survival(u, False)) * 0.5 * (rx_survival(u, True) + rx_survival(u, False))
        for u in sorted(set(float(u) for u in c_jumps))
    )


class DatasetRefused(Exception):
    """A dataset file that ``read_dataset_by_rows`` refuses; ``details``
    lists one diagnostic per bad record, as ``ValidationError`` does."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = list(details or [])


def read_dataset_by_rows(path):
    """(time, event, is_rx, {factor: labels}) of a dataset CSV, read one
    ``csv`` record at a time, or DatasetRefused with the dataset reader's
    message and details. Blank records are skipped and every cell but a
    time is stripped; a record is numbered by its first line."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DatasetRefused(f"cannot open dataset: {exc}") from exc
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = raw[exc.start:exc.end]
        raise DatasetRefused(f"{path}: not UTF-8 text ({bad!r} at byte offset {exc.start})") from None
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetRefused(f"{path}: file is empty") from None
        except csv.Error as exc:
            raise DatasetRefused(f"{path}: line 1: unreadable record ({exc})") from None
        header = [h.strip() for h in header]
        required = ("time", "event", "arm")
        missing = [c for c in required if c not in header]
        if missing:
            raise DatasetRefused(f"{path}: missing required column(s) {missing}")
        dupes = [c for c in set(header) if header.count(c) > 1]
        if dupes:
            raise DatasetRefused(f"{path}: duplicate column(s) {sorted(dupes)}")
        if "s:" in header:
            raise DatasetRefused(f"{path}: column 's:' has an empty factor name; strata are named 's:<factor>'")
        factor_cols = {}
        unknown = []
        for idx, name in enumerate(header):
            if name in required:
                continue
            if name.startswith("s:"):
                factor_cols[name[2:]] = idx
            else:
                unknown.append(name)
        if unknown:
            raise DatasetRefused(
                f"{path}: unrecognized column(s) {unknown}; strata need an 's:' prefix"
            )
        i_time, i_event, i_arm = (header.index(c) for c in required)
        times, events, arms = [], [], []
        labels = {name: [] for name in factor_cols}
        problems = []
        end = reader.line_num
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:  # the reader cannot resume inside a record
                problems.append(f"line {end + 1}: unreadable record ({exc})")
                break
            lineno, end = end + 1, reader.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                problems.append(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
                continue
            ok = True
            try:
                t = float(row[i_time])
                if not (t > 0.0 and np.isfinite(t)):
                    raise ValueError("time must be a positive finite number")
            except ValueError as exc:
                problems.append(f"line {lineno}: bad time {row[i_time]!r} ({exc})")
                ok = False
            ev_raw = row[i_event].strip()
            if ev_raw not in ("0", "1"):
                problems.append(f"line {lineno}: event must be 0 or 1, got {ev_raw!r}")
                ok = False
            arm_raw = row[i_arm].strip()
            if arm_raw not in ("Rx", "C"):
                problems.append(f"line {lineno}: arm must be 'Rx' or 'C', got {arm_raw!r}")
                ok = False
            if not ok:
                continue
            times.append(t)
            events.append(ev_raw == "1")
            arms.append(arm_raw == "Rx")
            for name, idx in factor_cols.items():
                labels[name].append(row[idx].strip())
        if problems:
            shown = "; ".join(problems[:5])
            more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
            raise DatasetRefused(f"{path}: {shown}{more}", details=problems)
        if not times:
            raise DatasetRefused(f"{path}: no data rows")
    return (
        np.asarray(times),
        np.asarray(events, dtype=bool),
        np.asarray(arms, dtype=bool),
        {name: np.asarray(vals) for name, vals in labels.items()},
    )
