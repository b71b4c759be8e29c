"""Output checks: every report against the reference routes in ``reference``.

Each check has a name; ``Findings`` records which names passed and which
failed with what detail. The tolerances are argued in README.md from the
error bounds of the two routes being compared.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
SCHEMA_PATH = os.path.join(os.path.dirname(HERE), "src", "survquack", "data", "report_schema.json")

# Relative tolerances; README.md "Check tolerances" derives each one.
TOL_SUMS = 1e-9           # log-rank sums, Cox fit, per-level ratios, naive pooling
TOL_EXACT_SUMS = 1e-10    # complete-data win fractions and step-curve medians
TOL_WEIBULL_HR = 1e-6     # censored sme HR: two Weibull fits plus two quadratures
TOL_WEIBULL_TR = 1e-7     # censored sme TR: two Weibull fits plus two root finds
PIVOT_GRID_STEPS = 2.5    # hull endpoint vs normal-approximation endpoint
P_AMBIGUOUS = 1e-9        # a p-value this close to alpha may fall either side
SIGMAS = 5.0              # width of the sampling-noise bands, in standard errors
TARGET_MEDIAN = 8.0       # both arms' overall median in builtin:section3
REJECTION_BAND = (0.25, 0.36)  # acceptance criterion 2's band at 1,000 replications
WORKERS_PREFIX = 64       # replications rerun with --workers 2


class Findings:
    """Named pass/fail results of the checks."""

    def __init__(self):
        self.passed = set()
        self.failed = {}

    def expect(self, name, ok, detail=""):
        if ok:
            self.passed.add(name)
        else:
            self.failed.setdefault(name, detail)
        return ok

    def close(self, name, got, want, rel=0.0, abs_=0.0):
        ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
              and math.isfinite(got) and abs(got - want) <= max(abs_, rel * abs(want)))
        return self.expect(name, ok, f"got {got!r}, want {want!r}")

    @property
    def ok(self):
        return not self.failed


def strip_volatile(report):
    """A report without the fields outside the byte-determinism contract."""
    return {k: v for k, v in report.items() if k not in ("created", "version")}


def check_schema(findings, reports):
    import jsonschema

    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        schema = json.load(fh)
    validator = jsonschema.validators.validator_for(schema)(schema)
    for report in reports:
        try:
            validator.validate(report)
        except jsonschema.ValidationError as exc:
            findings.expect("schema", False, exc.message)
            return
    findings.expect("schema", True)


def read_dataset(path):
    """(time, event, is_rx, strata) from a dataset CSV, parsed here."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        rows = [line.rstrip("\r\n").split(",") for line in fh if line.strip()]
    cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    time = np.array([float(v) for v in cols["time"]])
    event = np.array(cols["event"]) == "1"
    is_rx = np.array(cols["arm"]) == "Rx"
    strata = {name[2:]: np.array(vals) for name, vals in cols.items() if name.startswith("s:")}
    return time, event, is_rx, strata


# --- equal-median-study -------------------------------------------------


def reference_replications(pkg, scenario, seed, reps):
    """Per-replication reference outcomes for ``simulate --seed seed``.

    Draws each trial of the realised ``scenario`` at master seed ``seed``
    with ``sim.simulate_sample`` and recomputes the log-rank p, both
    product-limit medians and the Cox Wald p here. Returns (rows, pooled)
    where rows holds (p_logrank, median_rx, median_c, p_cox) per
    replication and pooled the drawn times per arm and the number of g+
    subjects.
    """
    scenario = dataclasses.replace(
        scenario, config=dataclasses.replace(scenario.config, master_seed=seed, replications=reps))
    rows = []
    rx_times, c_times, g_plus = [], [], 0
    for rep in range(reps):
        s = pkg.sim.simulate_sample(scenario, rep)
        t, e, x = np.asarray(s.time), np.asarray(s.event), np.asarray(s.is_rx)
        p_lr = ref.logrank(t, e, x)[3]
        beta, se = ref.cox_two_arm(t, e, x)
        rows.append((p_lr, ref.km_median(t[x], e[x]), ref.km_median(t[~x], e[~x]),
                     ref.two_sided_p(beta / se)))
        rx_times.append(t[x])
        c_times.append(t[~x])
        g_plus += int(np.count_nonzero(s.strata["subgroup"] == "g+"))
    return rows, (rx_times, c_times, g_plus)


def tally(rows, alpha):
    """Reference tally and the number of replications whose log-rank
    (first) or Cox (second) p-value is too close to alpha to call."""
    counts = dict(rejections=0, rx_longer=0, c_longer=0, ties=0, cox_rejections=0)
    ambiguous_lr = ambiguous_cox = 0
    for p_lr, med_rx, med_c, p_cox in rows:
        ambiguous_lr += abs(p_lr - alpha) <= P_AMBIGUOUS
        ambiguous_cox += abs(p_cox - alpha) <= P_AMBIGUOUS
        counts["cox_rejections"] += p_cox < alpha
        if p_lr >= alpha:
            continue
        counts["rejections"] += 1
        if med_rx is None or med_c is None or med_rx == med_c:
            counts["ties"] += 1
        elif med_rx > med_c:
            counts["rx_longer"] += 1
        else:
            counts["c_longer"] += 1
    return counts, ambiguous_lr, ambiguous_cox


def check_tally(findings, name, study, rows, alpha):
    counts, amb_lr, amb_cox = tally(rows, alpha)
    for key, want in counts.items():
        slack = amb_cox if key == "cox_rejections" else amb_lr
        findings.expect(name, abs(study[key] - want) <= slack,
                        f"{key}: report {study[key]}, reference {want} (+-{slack})")


def check_equal_median(findings, results, pkg, scenario, run_cli=None, references=None):
    """Checks on ``simulate`` reports.

    ``results`` is [(op, report)] and ``scenario`` the realised
    builtin:section3 scenario. ``references`` maps an op seed to its
    ``reference_replications`` output, for every op when not given; only
    the reports of those ops are checked against the reference tally and
    their draws pooled. ``run_cli(argv) -> report`` runs the --workers 2
    comparison on the first of them.
    """
    if references is None:
        references = {op.meta["seed"]: reference_replications(
            pkg, scenario, op.meta["seed"], op.replications) for op, _ in results}
    parts = None
    pooled_rejections = pooled_reps = 0
    for op, report in results:
        scen = report["sections"]["scenario"]["data"]
        study = report["sections"]["study"]["data"]
        findings.expect("sections_ok", all(s["ok"] for s in report["sections"].values()))
        reps, alpha = study["replications"], study["alpha"]
        findings.expect("replications", reps == op.replications and report["seed"] == op.meta["seed"],
                        f"{reps} replications at seed {report['seed']}")
        findings.expect("buckets_add_up",
                        study["rejections"] == study["rx_longer"] + study["c_longer"] + study["ties"],
                        str(study))
        for key in ("rejection", "rx_longer", "c_longer", "cox_rejection"):
            count = study[key + "s"] if key.endswith("rejection") else study[key]
            findings.close("rates", study[key + "_rate"], count / reps, rel=1e-15)
            if key != "cox_rejection":
                lo, hi = ref.wilson_interval(count, reps)
                findings.close("wilson", study[key + "_ci95"][0], lo, abs_=1e-12)
                findings.close("wilson", study[key + "_ci95"][1], hi, abs_=1e-12)
        if op.meta["seed"] in references:
            check_tally(findings, "tally", study, references[op.meta["seed"]][0], alpha)
        parts = {arm: [(g["prevalence"], g["shape"], g[f"{arm}_scale"]) for g in scen["subgroups"]]
                 for arm in ("rx", "c")}
        for arm, label in (("rx", "Rx"), ("c", "C")):
            findings.close("scenario_median", ref.weibull_mixture_median(parts[arm]), TARGET_MEDIAN, rel=1e-6)
            findings.close("scenario_median", scen["arm_medians"][label], TARGET_MEDIAN, rel=1e-6)
        pooled_rejections += study["rejections"]
        pooled_reps += reps

    rate = pooled_rejections / pooled_reps
    findings.expect("rejection_band", REJECTION_BAND[0] <= rate <= REJECTION_BAND[1],
                    f"pooled rejection rate {rate:.4f} over {pooled_reps} replications")

    # pooled draws: each arm's empirical median near 8 and the g+ share near 1/2
    rx_all = np.concatenate([t for _, (rx, _, _) in references.values() for t in rx])
    c_all = np.concatenate([t for _, (_, c, _) in references.values() for t in c])
    for arm, times in (("rx", rx_all), ("c", c_all)):
        se = math.sqrt(0.25 / times.size) / ref.weibull_mixture_density(parts[arm], TARGET_MEDIAN)
        findings.close("pooled_median", float(np.median(times)), TARGET_MEDIAN, abs_=SIGMAS * se)
    subjects = rx_all.size + c_all.size
    g_plus = sum(g for _, (_, _, g) in references.values())
    findings.close("g_plus_share", g_plus / subjects, 0.5, abs_=SIGMAS * math.sqrt(0.25 / subjects))

    if run_cli is not None:
        seed = next(iter(references))
        argv = ["simulate", "builtin:section3", "--seed", str(seed),
                "--replications", str(WORKERS_PREFIX)]
        sequential = run_cli(argv)["sections"]["study"]["data"]
        parallel = run_cli(argv + ["--workers", "2"])["sections"]["study"]["data"]
        findings.expect("workers_identical", parallel == sequential, f"{parallel} != {sequential}")
        rows, _ = references[seed]
        check_tally(findings, "workers_identical", parallel, rows[:WORKERS_PREFIX], parallel["alpha"])
    return references


# --- audits --------------------------------------------------------------


def _level_masks(labels):
    return [(str(level), labels == level) for level in np.unique(labels)]


def check_sections(findings, report, censored):
    """Every section of an ``analyze`` report is ok, except that
    ``win_probability`` must refuse censored data."""
    sec = report["sections"]
    expected_ok = {name: True for name in sec}
    expected_ok["win_probability"] = not censored
    findings.expect("sections_ok", all(sec[k]["ok"] == v for k, v in expected_ok.items()),
                    str({k: sec[k]["error"] for k in sec if not sec[k]["ok"]}))


def check_audit(findings, op, report):
    """Checks on one ``analyze`` report against its dataset CSV."""
    time, event, is_rx, strata = read_dataset(op.meta["path"])
    censored = not event.all()
    sec = report["sections"]
    n = time.size

    ds = sec["dataset"]["data"]
    want = {"n": n, "n_rx": int(is_rx.sum()), "n_c": int((~is_rx).sum()),
            "events": int(event.sum()), "censored": int((~event).sum()),
            "factors": {f: {lv: int(m.sum()) for lv, m in _level_masks(v)} for f, v in strata.items()}}
    findings.expect("dataset", ds == want, f"{ds} != {want}")
    check_sections(findings, report, censored)

    # a failed section has no data; sections_ok has already reported it
    data = {name: s["data"] or {} for name, s in sec.items()}

    lr = data["logrank"]
    oe, var, z, p = ref.logrank(time, event, is_rx)
    findings.close("logrank", lr.get("observed_minus_expected"), oe, rel=TOL_SUMS, abs_=1e-9)
    findings.close("logrank", lr.get("variance"), var, rel=TOL_SUMS)
    findings.close("logrank", lr.get("z"), z, rel=TOL_SUMS, abs_=1e-9)
    findings.close("logrank", lr.get("p_two_sided"), p, rel=1e-7, abs_=1e-300)

    med = data["medians"]
    med_rx = ref.km_median(time[is_rx], event[is_rx])
    med_c = ref.km_median(time[~is_rx], event[~is_rx])
    got = [med.get(arm, {}).get("value") for arm in ("median_rx", "median_c")]
    findings.expect("medians", got == [med_rx, med_c], f"{got} vs {[med_rx, med_c]}")
    if med_rx is not None and med_c is not None:
        findings.close("medians", med.get("time_ratio"), med_rx / med_c, rel=1e-15)

    beta, se = ref.cox_two_arm(time, event, is_rx)
    cox = data["cox_wald"]
    findings.close("cox", cox.get("log_hr"), beta, abs_=TOL_SUMS)
    findings.close("cox", cox.get("se_log_hr"), se, rel=TOL_SUMS)
    findings.close("cox", cox.get("p_two_sided"), ref.two_sided_p(beta / se), rel=1e-6, abs_=1e-300)

    if censored:
        err = sec["win_probability"]["error"] or ""
        findings.expect("win_probability", err.startswith("UnsupportedCensoring"), err)
    else:
        llp = ref.win_fraction(time[is_rx], time[~is_rx])
        findings.close("win_probability", data["win_probability"].get("llp"), llp, rel=TOL_EXACT_SUMS)

    for measure in ("hr", "tr"):
        audit = data[f"stratified_audit_{measure}"]
        if not audit:
            continue
        findings.expect("audit_factors", [f["factor"] for f in audit["factors"]] == list(strata),
                        str([f["factor"] for f in audit["factors"]]))
        if measure == "hr":
            marginal = math.exp(beta)
        else:
            marginal = med_rx / med_c
        for entry in audit["factors"]:
            levels = _level_masks(strata[entry["factor"]])
            weights = [m.sum() / n for _, m in levels]
            findings.expect("dropped_levels", entry["dropped_levels"] == [], str(entry["dropped_levels"]))
            findings.close("marginal", entry["marginal"], marginal, rel=TOL_SUMS)
            ratios = [_level_ratio(measure, time[m], event[m], is_rx[m]) for _, m in levels]
            naive = math.exp(sum(w * math.log(r) for w, r in zip(weights, ratios)))
            findings.close("naive", entry["naive"], naive, rel=TOL_SUMS)
            name = f"sme_{measure}"
            if censored:
                findings.close(name, entry["sme"], _sme_weibull(measure, levels, weights, time, event, is_rx),
                               rel=TOL_WEIBULL_HR if measure == "hr" else TOL_WEIBULL_TR)
            else:
                findings.close(name, entry["sme"], _sme_complete(measure, levels, weights, time, event, is_rx),
                               rel=TOL_EXACT_SUMS)


def _level_ratio(measure, t, e, x):
    if measure == "hr":
        return math.exp(ref.cox_two_arm(t, e, x)[0])
    return ref.km_median(t[x], e[x]) / ref.km_median(t[~x], e[~x])


def _sme_complete(measure, levels, weights, time, event, is_rx):
    if measure == "hr":
        # sum over control level l and treated level k of p_l p_k W(Rx_k, C_l)
        llp = sum(w_l * w_k * ref.win_fraction(time[m_k & is_rx], time[m_l & ~is_rx])
                  for (_, m_l), w_l in zip(levels, weights)
                  for (_, m_k), w_k in zip(levels, weights))
        return (1.0 - llp) / llp
    medians = []
    for arm in (is_rx, ~is_rx):
        curves = [(w, *ref.km_curve(time[m & arm], event[m & arm])) for (_, m), w in zip(levels, weights)]
        medians.append(ref.step_mixture_median(curves))
    return medians[0] / medians[1]


def _sme_weibull(measure, levels, weights, time, event, is_rx):
    parts = []
    for arm in (is_rx, ~is_rx):
        parts.append([(w, *ref.weibull_mle(time[m & arm], event[m & arm])) for (_, m), w in zip(levels, weights)])
    if measure == "hr":
        llp, err = ref.weibull_mixture_win(parts[0], parts[1])
        if err > 1e-10:
            raise ArithmeticError(f"reference quadrature error estimate {err:g}")
        return (1.0 - llp) / llp
    return ref.weibull_mixture_median(parts[0]) / ref.weibull_mixture_median(parts[1])


# --- pivot-ci --------------------------------------------------------------


def check_pivot(findings, op, report):
    """Checks on one ``pivot-ci`` report against its dataset CSV."""
    time, event, is_rx, _ = read_dataset(op.meta["path"])
    data = report["sections"]["pivot_ci"]["data"]
    rx, c = time[is_rx], time[~is_rx]
    count = ref.pair_count(rx, c)
    findings.expect("observed_count", data["observed_count"] == count,
                    f"report {data['observed_count']!r}, reference {count!r}")
    findings.expect("pivot_shape", (data["n_rx"], data["n_c"], data["mc_reps"], data["grid"]["points"])
                    == (rx.size, c.size, 2000, 200), str(data))
    findings.expect("not_empty", data["empty"] is False and data["accepted_points"] > 0, str(data))
    grid = data["grid"]
    step = math.log(grid["max"] / grid["min"]) / (grid["points"] - 1)
    lo, hi = ref.normal_pivot_interval(count, rx.size, c.size, data["level"])
    for got, want in zip(data["interval"], (lo, hi)):
        findings.close("hull_endpoints", math.log(got), math.log(want), abs_=PIVOT_GRID_STEPS * step)
