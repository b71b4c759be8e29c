"""Command line front end.

Four subcommands: ``analyze`` runs the standard battery (log-rank, Cox
Wald, product-limit medians, win probability, stratified audits) on a
CSV dataset; ``simulate`` runs a scenario's Monte Carlo study;
``pivot-ci`` inverts the rank test into a confidence set for the
survival-curve power parameter; ``eq1-demo`` prints the worked
log-averaging example. Every command emits one JSON report (see
``report``). Exit codes: 0 success, 2 input, validation or output error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys

import numpy as np

from . import report as report_mod
from ._config import _read_config
from ._version import __version__
from .errors import (
    NotReachedError,
    NumericalError,
    SurvquackError,
    UnsupportedCensoring,
    ValidationError,
)
from .estim import (
    ARM_C,
    ARM_RX,
    Measure,
    NOT_REACHED,
    SurvivalSample,
    empirical_llp,
    hr_from_llp,
    km_median,
)
from .infer import logrank_test, mw_pivot_ci, wald_test_cox
from .sim import ScenarioConfig, SubgroupSpec, realize_scenario, run_study
from .sme import naive_stratified_ratio, stratified_audit

__all__ = ["main", "read_dataset", "parse_scenario_config"]

# a quote, or ASCII whitespace other than a line end, which the line-by-line pass strips
_NOT_PLAIN = '" \t\x0b\x0c\x1c\x1d\x1e\x1f'
_BLOCK_ROWS = 1024  # data rows the column-wise parse splits into cells at a time

# typed INI schemas: section (or "prefix:<placeholder>") -> ({key: parse}, required keys)
_SCENARIO_SCHEMA = {
    "scenario": (
        {
            "n_total": int,
            "allocation": float,
            "alpha": float,
            "overall_median": float,
            "solve_subgroup": str,
            "membership": str,
            "replications": int,
            "master_seed": int,
        },
        (),
    ),
    "subgroup:<label>": (
        {
            "prevalence": float,
            "shape": float,
            "rx_median": float,
            "c_median": float,
        },
        ("prevalence", "shape"),
    ),
}


def read_dataset(path) -> SurvivalSample:
    """Parse a dataset CSV into a sample, or fail with line diagnostics.

    Required columns: time (positive decimal), event (0/1), arm (Rx/C).
    Columns named ``s:<factor>`` carry stratum labels. Every malformed
    line is reported with its 1-based line number; nothing is dropped
    silently. Valid data rows of plain ASCII cells (no quotes, whitespace or
    blank lines) are parsed column by column, with the same result. A file
    that is not UTF-8 is reported with the offset of its first bad byte.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot open dataset: {exc}") from exc
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = raw[exc.start:exc.end]
        raise ValidationError(f"{path}: not UTF-8 text ({bad!r} at byte offset {exc.start})") from None
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        required = ("time", "event", "arm")
        missing = [c for c in required if c not in header]
        if missing:
            raise ValidationError(f"{path}: missing required column(s) {missing}")
        dupes = [c for c in set(header) if header.count(c) > 1]
        if dupes:
            raise ValidationError(f"{path}: duplicate column(s) {sorted(dupes)}")
        factor_cols = {}
        unknown = []
        for idx, name in enumerate(header):
            if name in required:
                continue
            if name.startswith("s:") and len(name) > 2:
                factor_cols[name[2:]] = idx
            else:
                unknown.append(name)
        if unknown:
            raise ValidationError(
                f"{path}: unrecognized column(s) {unknown}; strata need an 's:' prefix"
            )
        i_time, i_event, i_arm = (header.index(c) for c in required)

        plain = _plain_columns(fh.read(), len(header), [i_time, i_event, i_arm, *factor_cols.values()])
        if plain is not None:
            return SurvivalSample(*plain[:3], dict(zip(factor_cols, plain[3:])))
        fh.seek(0)  # back to the first data row for the line-by-line pass
        next(reader)
        times, events, arms = [], [], []
        labels = {name: [] for name in factor_cols}
        problems = []
        for lineno, row in enumerate(reader, start=2):
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
            if arm_raw not in (ARM_RX, ARM_C):
                problems.append(f"line {lineno}: arm must be {ARM_RX!r} or {ARM_C!r}, got {arm_raw!r}")
                ok = False
            if not ok:
                continue
            times.append(t)
            events.append(ev_raw == "1")
            arms.append(arm_raw == ARM_RX)
            for name, idx in factor_cols.items():
                labels[name].append(row[idx].strip())
        if problems:
            shown = "; ".join(problems[:5])
            more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
            raise ValidationError(f"{path}: {shown}{more}", details=problems)
        if not times:
            raise ValidationError(f"{path}: no data rows")
    return SurvivalSample(
        np.asarray(times),
        np.asarray(events, dtype=bool),
        np.asarray(arms, dtype=bool),
        {name: np.asarray(vals) for name, vals in labels.items()},
    )


def _plain_columns(text, width, columns):
    """[time, event, arm, labels...] of data rows of plain, valid cells, else
    None. Rows become cells a block at a time, so that few cells exist at once."""
    if not text.isascii() or any(c in text for c in _NOT_PLAIN):
        return None
    # trailing line ends make only blank rows, which the line-by-line pass skips
    rows = text.rstrip("\r\n").split("\r\n" if "\r\n" in text else "\n")
    if {row.count(",") for row in rows} != {width - 1}:
        return None
    i_time, i_event, i_arm, *i_labels = columns
    blocks = []
    for first in range(0, len(rows), _BLOCK_ROWS):
        cells = ",".join(rows[first:first + _BLOCK_ROWS])
        if "\r" in cells or "\n" in cells:  # a line end other than the first one's
            return None
        cells = cells.split(",")
        try:
            time = np.array(list(map(float, cells[i_time::width])))
        except ValueError:
            return None
        event, arm = np.array(cells[i_event::width]), np.array(cells[i_arm::width])
        died, is_rx = event == "1", arm == ARM_RX
        if not np.all((time > 0) & np.isfinite(time) & (died | (event == "0")) & (is_rx | (arm == ARM_C))):
            return None
        blocks.append([time, died, is_rx, *(np.asarray(cells[i::width]) for i in i_labels)])
    return [np.concatenate(column) for column in zip(*blocks)]


def parse_scenario_config(spec: str) -> ScenarioConfig:
    """Parse an INI scenario config ([scenario] plus [subgroup:<label>])."""
    sections = _read_config(spec, "scenario", _SCENARIO_SCHEMA)
    fields = sections.pop("scenario")
    subgroups = tuple(SubgroupSpec(label=s.split(":", 1)[1], **f) for s, f in sections.items())
    return ScenarioConfig(subgroups=subgroups, **fields)


def _median_entry(value):
    if value is NOT_REACHED:
        return {"value": None, "reached": False}
    return {"value": float(value), "reached": True}


def _guarded(sections, name, fn):
    """Run one analysis section, embedding failures instead of aborting."""
    try:
        sections[name] = report_mod.section(data=fn())
    except SurvquackError as exc:
        sections[name] = report_mod.section(error=f"{type(exc).__name__}: {exc}")


def _cmd_analyze(args):
    sample = read_dataset(args.dataset)
    alpha = float(args.alpha)
    if not (0.0 < alpha < 1.0):
        raise ValidationError("alpha must lie in (0, 1)")
    factors = [f for chunk in args.strata for f in chunk.split(",") if f]
    measures = [Measure(m) for m in (args.measure or ["HR"])]
    for f in factors:
        if f not in sample.strata:
            raise ValidationError(
                f"factor {f!r} not in dataset (available: {sorted(sample.strata)})"
            )

    sections = {}
    sections["dataset"] = report_mod.section(
        data={
            "n": sample.n,
            "n_rx": int(sample.is_rx.sum()),
            "n_c": int((~sample.is_rx).sum()),
            "events": int(sample.event.sum()),
            "censored": int((~sample.event).sum()),
            "factors": {name: {lv: sub.n for lv, sub in sample.levels(name)} for name in sample.strata},
        }
    )

    def logrank_section():
        res = logrank_test(sample)
        return {
            "observed_minus_expected": res.observed_minus_expected,
            "variance": res.variance,
            "z": res.z,
            "p_two_sided": res.p_two_sided,
            "zero_variance": res.zero_variance,
            "alpha": alpha,
            "rejected": bool(res.p_two_sided < alpha),
        }

    def cox_section():
        log_hr, se = sample.cox
        z, p = wald_test_cox(sample)
        return {
            "log_hr": log_hr,
            "hr": float(np.exp(log_hr)),
            "se_log_hr": se,
            "z": z,
            "p_two_sided": p,
            "rejected": bool(p < alpha),
        }

    def medians_section():
        med_rx = km_median(sample.km(True))
        med_c = km_median(sample.km(False))
        reached = med_rx is not NOT_REACHED and med_c is not NOT_REACHED
        return {
            "median_rx": _median_entry(med_rx),
            "median_c": _median_entry(med_c),
            "time_ratio": float(med_rx / med_c) if reached else None,
        }

    def win_section():
        rx_t, rx_e = sample.arm(True)
        c_t, c_e = sample.arm(False)
        llp = empirical_llp(rx_t, c_t, rx_e, c_e)
        if 0.0 < llp < 1.0:
            return {"llp": llp, "hr_from_llp": hr_from_llp(llp)}
        reason = f"the arms separate completely (llp = {llp!r}); no finite positive hr matches"
        return {"llp": llp, "hr_from_llp": None, "hr_from_llp_reason": reason}

    _guarded(sections, "logrank", logrank_section)
    _guarded(sections, "cox_wald", cox_section)
    _guarded(sections, "medians", medians_section)
    _guarded(sections, "win_probability", win_section)
    for measure in measures:
        def audit_section(measure=measure):
            comparisons = stratified_audit(sample, factors, measure=measure)
            return {
                "measure": measure.value,
                "factors": [
                    {
                        "factor": c.factor,
                        "naive": c.naive_value,
                        "sme": c.sme_value,
                        "marginal": c.marginal_value,
                        "dropped_levels": list(c.dropped_levels),
                    }
                    for c in comparisons
                ],
            }

        if factors:
            _guarded(sections, f"stratified_audit_{measure.value.lower()}", audit_section)

    inputs = {
        "dataset": str(args.dataset),
        "alpha": alpha,
        "strata": factors,
        "measures": [m.value for m in measures],
    }
    return report_mod.build_report("analyze", None, inputs, sections)


def _cmd_simulate(args):
    config = parse_scenario_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    if args.replications is not None:
        if args.replications < 1:
            raise ValidationError("--replications must be >= 1")
        config = dataclasses.replace(config, replications=int(args.replications))
    scenario = realize_scenario(config)
    study = run_study(scenario, workers=args.workers)

    sections = {
        "scenario": report_mod.section(
            data={
                "n_total": config.n_total,
                "allocation": config.allocation,
                "alpha": config.alpha,
                "membership": config.membership,
                "overall_median": config.overall_median,
                "arm_medians": {
                    ARM_RX: scenario.arm_median(True),
                    ARM_C: scenario.arm_median(False),
                },
                "subgroups": [
                    {
                        "label": g.label,
                        "prevalence": g.prevalence,
                        "shape": g.rx.shape,
                        "rx_scale": g.rx.scale,
                        "c_scale": g.c.scale,
                        "rx_median": g.rx.median,
                        "c_median": g.c.median,
                        "time_ratio": g.time_ratio,
                        "hazard_ratio": g.hazard_ratio,
                    }
                    for g in scenario.subgroups
                ],
            }
        ),
        "study": report_mod.section(
            data={
                "replications": study.replications,
                "alpha": study.alpha,
                "rejections": study.rejections,
                "rx_longer": study.rx_longer,
                "c_longer": study.c_longer,
                "ties": study.ties,
                "cox_rejections": study.cox_rejections,
                "rejection_rate": study.rejection_rate,
                "rx_longer_rate": study.rx_longer_rate,
                "c_longer_rate": study.c_longer_rate,
                "cox_rejection_rate": study.cox_rejection_rate,
                "rejection_ci95": list(study.rejection_ci),
                "rx_longer_ci95": list(study.rx_longer_ci),
                "c_longer_ci95": list(study.c_longer_ci),
            }
        ),
    }
    inputs = {
        "config": str(args.config),
        "replications": config.replications,
        "workers": args.workers,
    }
    return report_mod.build_report("simulate", config.master_seed, inputs, sections)


def _cmd_pivot_ci(args):
    sample = read_dataset(args.dataset)
    censored = int((~sample.event).sum())
    if censored:
        raise UnsupportedCensoring(
            f"pivot-ci needs fully observed data; {censored} censored row(s) present"
        )
    level = float(args.level)
    if not (np.isfinite([args.grid_min, args.grid_max]).all() and 0 < args.grid_min < args.grid_max):
        raise ValidationError("grid bounds must be finite and satisfy 0 < min < max")
    if args.grid_points < 2:
        raise ValidationError("--grid-points must be >= 2")
    grid = np.geomspace(args.grid_min, args.grid_max, int(args.grid_points))
    rx_t, _ = sample.arm(True)
    c_t, _ = sample.arm(False)
    result = mw_pivot_ci(rx_t, c_t, level=level, grid=grid, seed=args.seed)
    sections = {
        "pivot_ci": report_mod.section(
            data={
                "level": result.level,
                "interval": [result.lo, result.hi],
                "observed_count": result.observed_count,
                "n_rx": result.n_rx,
                "n_c": result.n_c,
                "mc_reps": result.mc_reps,
                "seed": result.seed,
                "non_convex": result.non_convex,
                "empty": result.empty,
                "accepted_points": int(np.asarray(result.accepted).sum()),
                "grid": {
                    "min": float(grid[0]),
                    "max": float(grid[-1]),
                    "points": int(grid.size),
                },
            }
        )
    }
    inputs = {
        "dataset": str(args.dataset),
        "level": level,
        "mc_reps": result.mc_reps,
        "grid": {"min": float(args.grid_min), "max": float(args.grid_max), "points": int(args.grid_points)},
    }
    return report_mod.build_report("pivot-ci", result.seed, inputs, sections)


def _cmd_eq1_demo(args):
    ratios = (0.521, 0.983)
    weights = (0.5, 0.5)
    pooled = naive_stratified_ratio(zip(ratios, weights))
    note = (
        "Averaging the logarithms of per-stratum ratios uses only the ratios "
        "and the weights. The control arm's outcome level in each stratum "
        "never enters, so regrouping the same subjects under a different "
        "factor changes the pooled number even though no observation changed. "
        "Mixing each arm's survival over strata first, then comparing the "
        "mixtures, keeps the overall summary anchored to the arms themselves."
    )
    sections = {
        "pooled_ratio": report_mod.section(
            data={
                "strata": [
                    {"label": lab, "ratio": r, "weight": w}
                    for lab, r, w in zip(("A", "B"), ratios, weights)
                ],
                "pooled": pooled,
                "pooled_display": f"{pooled:.3f}",
                "rule": "exp(sum(weight * ln(ratio)))",
                "note": note,
            }
        )
    }
    return report_mod.build_report("eq1-demo", None, {}, sections)


def _write_tables(report: dict, out_dir):
    """Optional flat CSV export, one file per section."""
    os.makedirs(out_dir, exist_ok=True)
    for name, sec in report["sections"].items():
        path = os.path.join(out_dir, f"{name}.csv")
        data = sec["data"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if data is None:
                writer.writerow(["error"])
                writer.writerow([sec["error"]])
                continue
            rows = None
            for key in ("factors", "subgroups", "strata"):
                if isinstance(data.get(key), list) and data[key] and isinstance(data[key][0], dict):
                    rows = data[key]
                    break
            if rows is not None:
                cols = list(rows[0])
                writer.writerow(cols)
                for row in rows:
                    writer.writerow([row.get(c) for c in cols])
            else:
                writer.writerow(["key", "value"])
                for key, value in data.items():
                    writer.writerow([key, value])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survquack",
        description=(
            "Two-arm survival analysis with aggregation rules that keep the "
            "overall answer inside the subgroup range, plus a Monte Carlo "
            "study of directional errors after a significant log-rank test."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="write the JSON report here instead of stdout")
    output.add_argument("--tables", metavar="DIR", help="also export per-section CSV tables")

    pa = sub.add_parser("analyze", parents=[output], help="run the analysis battery on a dataset CSV")
    pa.add_argument("dataset", help="CSV with columns time,event,arm and optional s:<factor>")
    pa.add_argument("--alpha", type=float, default=0.05, help="two-sided test level (default 0.05)")
    pa.add_argument(
        "--strata",
        action="append",
        default=[],
        metavar="FACTOR",
        help="stratification factor to audit (repeatable, comma-splittable)",
    )
    pa.add_argument(
        "--measure",
        action="append",
        choices=[Measure.HR.value, Measure.TR.value],
        help="efficacy measure for the stratified audit (repeatable, default HR)",
    )
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("simulate", parents=[output], help="run a scenario config's Monte Carlo study")
    ps.add_argument("config", help="scenario INI path, or builtin:section3")
    ps.add_argument("--seed", type=int, help="override the config's master seed")
    ps.add_argument("--replications", type=int, help="override the config's replication count")
    ps.add_argument("--workers", type=int, help="parallel worker processes (result is identical)")
    ps.set_defaults(func=_cmd_simulate)

    pp = sub.add_parser(
        "pivot-ci", parents=[output], help="rank-test confidence set for the curve-power parameter"
    )
    pp.add_argument("dataset", help="CSV with columns time,event,arm (no censoring)")
    pp.add_argument("--level", type=float, default=0.95, help="confidence level (default 0.95)")
    pp.add_argument("--grid-min", type=float, default=1.0 / 50.0, help="smallest grid value")
    pp.add_argument("--grid-max", type=float, default=50.0, help="largest grid value")
    pp.add_argument("--grid-points", type=int, default=200, help="grid size (log-spaced)")
    pp.add_argument("--seed", type=int, default=0, help="seed for the acceptance-region draws")
    pp.set_defaults(func=_cmd_pivot_ci)

    pe = sub.add_parser(
        "eq1-demo", parents=[output], help="worked example of the log-averaging pooling rule"
    )
    pe.set_defaults(func=_cmd_eq1_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except (NumericalError, NotReachedError) as exc:
        print(f"survquack: numerical failure: {exc}", file=sys.stderr)
        return 3
    except SurvquackError as exc:
        print(f"survquack: error: {exc}", file=sys.stderr)
        for line in exc.details[:20] if isinstance(exc, ValidationError) else ():
            print(f"  - {line}", file=sys.stderr)
        return 2
    try:
        report_mod.write_report(report, path=args.out, stream=sys.stdout)
        if args.tables:
            _write_tables(report, args.tables)
    except OSError as exc:
        print(f"survquack: error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
