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
import collections
import csv
import dataclasses
import errno
import functools
import io
import itertools
import json
import operator
import os
import re
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
    SurvivalSample,
    empirical_llp,
    hr_from_llp,
    km_median,
    tr_to_hr,
)
from .infer import MC_REPS, logrank_test, mw_pivot_ci, wald_test_cox
from .sim import _MIN_CHUNK, ScenarioConfig, SubgroupSpec, realize_scenario, run_study
from .sme import naive_stratified_ratio, stratified_audit

__all__ = ["main", "read_dataset", "parse_scenario_config"]

_EVENTS = {"0": False, "1": True}
_ARMS = {ARM_RX: True, ARM_C: False}
_BLOCK_ROWS = 1024  # records a tokenizer hands to the typed conversion at a time
_LINE_END = re.compile(r"\r\n?|\n")  # as a file opened with newline="" splits its lines

def read_dataset(path) -> SurvivalSample:
    """Parse a dataset CSV into a sample, or fail with line diagnostics.

    Required columns: time (positive decimal), event (0/1), arm (Rx/C). Columns
    named ``s:<factor>`` carry stratum labels. A file with no quote is split at
    its line ends, any other (or one the split refuses) is tokenized by ``csv``,
    and one conversion types the records (``_typed_columns``). Every malformed
    record is reported with the 1-based number of its first line, as a quoted
    cell may span lines; nothing is dropped silently. A file that is not UTF-8
    is reported with the offset of its first bad byte. The file is decoded once.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot open dataset: {exc}") from exc
    try:
        # not utf-8-sig, whose error offsets would count from after a byte-order mark
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = raw[exc.start:exc.end]
        raise ValidationError(f"{path}: not UTF-8 text ({bad!r} at byte offset {exc.start})") from None
    text = text.removeprefix("\ufeff")  # one leading byte-order mark (Excel's "CSV UTF-8")
    # csv reads the header off the first line alone unless a quote there may hold a line end:
    # a StringIO of the whole text costs 0.3 ms on a 6,000-row file
    first = text[:end.end()] if (end := _LINE_END.search(text)) else text
    try:
        header = next(csv.reader(io.StringIO(text if '"' in first else first, newline=""), strict=True))
    except StopIteration:
        raise ValidationError(f"{path}: file is empty") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: line 1: unreadable record ({exc})") from None
    header = [h.strip() for h in header]
    required = ("time", "event", "arm")
    missing = [c for c in required if c not in header]
    if missing:
        raise ValidationError(f"{path}: missing required column(s) {missing}")
    dupes = [c for c in set(header) if header.count(c) > 1]
    if dupes:
        raise ValidationError(f"{path}: duplicate column(s) {sorted(dupes)}")
    if "s:" in header:
        raise ValidationError(f"{path}: column 's:' has an empty factor name; strata are named 's:<factor>'")
    factor_cols = {name[2:]: idx for idx, name in enumerate(header) if name.startswith("s:")}
    unknown = [name for name in header if not (name.startswith("s:") or name in required)]
    if unknown:
        raise ValidationError(f"{path}: unrecognized column(s) {unknown}; strata need an 's:' prefix")
    columns = [header.index(c) for c in required] + list(factor_cols.values())
    width = len(header)
    split = functools.partial(str.split, sep=",")
    typed = None if '"' in text else _typed_columns(_plain_blocks(text, columns[0]), split, width, columns)
    if typed is None:
        typed = _typed_columns(_csv_blocks(_records(text), width, columns[0]), tuple, width, columns)
    if typed is None:
        raise _refusal(path, _records(text), width, *columns[:3])
    time, died, is_rx, factorizations = typed
    factors = dict(zip(factor_cols, factorizations))
    sample = SurvivalSample(time, died, is_rx, {name: lv[codes] for name, (lv, codes) in factors.items()})
    # the conversion factorized the strata already
    sample._factors.update({name: (tuple(map(str, lv)), codes) for name, (lv, codes) in factors.items()})
    return sample


def _plain_blocks(text, i_time):
    """Blocks of (time cells, keys) of the records after a quote-free text's header, split at its line
    ends (a ValueError if they are mixed, in the header too); a key is a record's text after its time
    cell's comma, then the cells before it."""
    body = text.rstrip("\r\n")  # trailing line ends make only blank records, which are skipped
    rows = body.split("\r\n" if "\r" in body else "\n")  # a scan for "\r\n" is far slower
    head, tail, comma = operator.itemgetter(0), operator.itemgetter(2), itertools.repeat(",")
    for first in range(0, len(rows), _BLOCK_ROWS):
        block = rows[first:first + _BLOCK_ROWS]
        if "\r" in (joined := "".join(block)) or "\n" in joined:  # a line end the split left
            raise ValueError("mixed line ends")
        if not first:
            del block[0]  # the header, checked as the records are
        if i_time:  # rotate each record's cells so that its time cell comes first
            block = [f"{parts.pop()},{','.join(parts)}" for parts in (row.split(",", i_time) for row in block)]
        # a pass each, so that every partition's tuple dies at once: 1,024 live ones would start a gc
        yield [*map(head, map(str.partition, block, comma))], [*map(tail, map(str.partition, block, comma))]


def _records(text):
    """A ``csv`` reader of the records after ``text``'s header; it refuses a
    quote left open at the end of the text, or a closing quote followed by
    anything but a comma or a line end."""
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    next(reader)
    return reader


def _csv_blocks(reader, width, i_time):
    """Blocks of (time cells, keys) of the records ``reader`` reads, blank ones skipped;
    a key is the tuple of a record's cells after its time cell, then those before it.
    A ValueError if a record has the wrong number of fields."""
    records = (row for row in reader if any(map(str.strip, row)))
    while rows := list(itertools.islice(records, _BLOCK_ROWS)):
        if set(map(len, rows)) - {width}:
            raise ValueError("a record has the wrong number of fields")
        columns = list(zip(*rows))
        del rows  # so that no two blocks' cells are alive at once
        yield columns[i_time], list(zip(*columns[i_time + 1:], *columns[:i_time]))
        del columns


def _typed_columns(blocks, split, width, columns):
    """(time, event, arm, [(levels, codes) per label column]) of the records ``blocks`` hands
    over as (time cells, keys), the columns at ``columns``; None if it (or ``csv``) refuses the
    file, a record is not valid or there is none. Each time cell is parsed and each key coded as
    it arrives; each distinct key is then cut by ``split`` into its ``width - 1`` cells (those
    after the time cell, then those before it), stripped and checked once. ``np.unique`` sorts
    the levels, merging cells a numpy string holds alike (``a\\0`` and ``a``) as labels do."""
    coded = collections.defaultdict(itertools.count().__next__)  # key -> code; a new key takes the next
    times, codes = [], []
    try:
        for time, keys in blocks:
            times.append(np.fromiter(map(float, time), float, len(time)))
            codes.append(np.fromiter(map(coded.__getitem__, keys), np.intp, len(keys)))
            del time, keys  # so that no two blocks' cells are alive at once
        time, codes = np.concatenate(times), np.concatenate(codes)  # a ValueError if there is no record
    except (ValueError, csv.Error):
        return None
    cells = list(map(split, coded))
    if {*map(len, cells)} != {width - 1}:
        return None
    events, arms, *labels = ([key[(i - columns[0] - 1) % width].strip() for key in cells] for i in columns[1:])
    if not np.all((time > 0) & np.isfinite(time)) or {*events} - _EVENTS.keys() or {*arms} - _ARMS.keys():
        return None
    died = np.array([_EVENTS[cell] for cell in events])[codes]
    is_rx = np.array([_ARMS[cell] for cell in arms])[codes]
    uniques = [np.unique(np.array(column), return_inverse=True) for column in labels]
    return time, died, is_rx, [(levels, inverse[codes]) for levels, inverse in uniques]


def _refusal(path, reader, width, i_time, i_event, i_arm):
    """The ValidationError of a file ``_typed_columns`` refused: each bad record of
    ``reader`` with its first line's number (a quoted cell may hold line ends), up to
    one ``csv`` cannot read, or no data rows."""
    problems = []
    end = reader.line_num
    try:
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not any(map(str.strip, row)):
                continue
            if len(row) != width:
                problems.append(f"line {lineno}: expected {width} fields, got {len(row)}")
                continue
            try:
                t = float(row[i_time])
                if not (t > 0.0 and np.isfinite(t)):
                    raise ValueError("time must be a positive finite number")
            except ValueError as exc:
                problems.append(f"line {lineno}: bad time {row[i_time]!r} ({exc})")
            if row[i_event].strip() not in _EVENTS:
                problems.append(f"line {lineno}: event must be 0 or 1, got {row[i_event].strip()!r}")
            if row[i_arm].strip() not in _ARMS:
                problems.append(f"line {lineno}: arm must be {ARM_RX!r} or {ARM_C!r}, got {row[i_arm].strip()!r}")
    except csv.Error as exc:  # a stray quote or a cell past csv's size limit; the reader cannot resume
        problems.append(f"line {end + 1}: unreadable record ({exc})")
    if not problems:
        return ValidationError(f"{path}: no data rows")
    shown = "; ".join(problems[:5])
    more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
    return ValidationError(f"{path}: {shown}{more}", details=problems)


def parse_scenario_config(spec: str) -> ScenarioConfig:
    """Parse an INI scenario config ([scenario] plus [subgroup:<label>])."""
    return _read_config(spec, "scenario", "scenario", ScenarioConfig, "subgroup", SubgroupSpec)


def _median_entry(value):
    return {"value": value, "reached": value is not None}


def _sections(**data):
    """A report section of each keyword's data, named by its keyword (see ``report.section``)."""
    return {name: report_mod.section(data=value, _path=name) for name, value in data.items()}


def _guarded(sections, name, fn):
    """Run one analysis section, embedding failures (a non-finite float among them) instead of aborting."""
    try:
        sections[name] = report_mod.section(data=fn(), _path=name)
    except SurvquackError as exc:
        sections[name] = report_mod.section(error=f"{type(exc).__name__}: {exc}")


def _level_counts(sample, name):
    """{label: subjects} of one stratum factor, in label order."""
    labels, codes = sample.factor(name)
    return dict(zip(labels, np.bincount(codes, minlength=len(labels)).tolist()))


def _cmd_analyze(args):
    sample = read_dataset(args.dataset)
    alpha = float(args.alpha)
    if not (0.0 < alpha < 1.0):
        raise ValidationError("alpha must lie in (0, 1)")
    factors = [f for chunk in args.strata for f in chunk.split(",") if f]
    measures = [Measure(m) for m in (args.measure or ["HR"])]
    for i, m in enumerate(measures):
        if m in measures[:i]:
            raise ValidationError(f"measure {m.value!r} is given more than once in --measure")
    for i, f in enumerate(factors):
        if f not in sample.strata:
            raise ValidationError(
                f"factor {f!r} not in dataset (available: {sorted(sample.strata)})"
            )
        if f in factors[:i]:
            raise ValidationError(f"factor {f!r} is given more than once in --strata")

    sections = _sections(
        dataset={
            "n": sample.n,
            "n_rx": int(sample.is_rx.sum()),
            "n_c": int((~sample.is_rx).sum()),
            "events": int(sample.event.sum()),
            "censored": int((~sample.event).sum()),
            "factors": {name: _level_counts(sample, name) for name in sample.strata},
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
        reached = med_rx is not None and med_c is not None
        return {
            "median_rx": _median_entry(med_rx),
            "median_c": _median_entry(med_c),
            "time_ratio": med_rx / med_c if reached else None,
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
        config = dataclasses.replace(config, replications=args.replications)
    scenario = realize_scenario(config)
    study = run_study(scenario, workers=args.workers)

    sections = _sections(
        scenario={
            "n_total": config.n_total,
            "allocation": config.allocation,
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
                    # both arms share the subgroup's shape, so its hazards are proportional
                    "time_ratio": (tr := g.rx.median / g.c.median),
                    "hazard_ratio": tr_to_hr(tr, g.rx.shape),
                }
                for g in scenario.subgroups
            ],
        },
        study={
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
        },
    )
    return report_mod.build_report("simulate", config.master_seed, {"config": str(args.config)}, sections)


def _cmd_pivot_ci(args):
    sample = read_dataset(args.dataset)
    censored = int((~sample.event).sum())
    if censored:
        raise UnsupportedCensoring(
            f"pivot-ci needs fully observed data; {censored} censored row(s) present"
        )
    rx_t, _ = sample.arm(True)
    c_t, _ = sample.arm(False)
    result = mw_pivot_ci(rx_t, c_t, level=args.level, seed=args.seed)
    sections = _sections(
        pivot_ci={
            "level": result.level,
            "interval": [result.lo, result.hi],
            "observed_count": result.observed_count,
            "n_rx": rx_t.size,
            "n_c": c_t.size,
            "mc_reps": MC_REPS,
            "empty": result.empty,
            "accepted_points": int(np.asarray(result.accepted).sum()),
            "grid": {"min": result.grid[0], "max": result.grid[-1], "points": result.grid.size},
        }
    )
    return report_mod.build_report("pivot-ci", args.seed, {"dataset": str(args.dataset)}, sections)


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
    sections = _sections(
        pooled_ratio={
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
    return report_mod.build_report("eq1-demo", None, {}, sections)


def _cell(value):
    """A table cell: a string as it is, any other value as JSON."""
    return value if isinstance(value, str) else json.dumps(value)


def _write_table(out_dir, name, header, rows):
    with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_tables(report: dict, out_dir):
    """Optional flat CSV export: ``<section>.csv`` holds each field of a
    section as a (key, value) row, or a failed section's error; each field
    that holds a list of objects is also ``<section>.<field>.csv``, one row
    per object. A missing ``out_dir`` is made; one that holds anything is
    refused, so that it never mixes the tables of two runs."""
    os.makedirs(out_dir, exist_ok=True)
    if os.listdir(out_dir):
        raise OSError(errno.ENOTEMPTY, os.strerror(errno.ENOTEMPTY), out_dir)
    for name, sec in report["sections"].items():
        data = sec["data"]
        if data is None:
            _write_table(out_dir, name, ["error"], [[sec["error"]]])
            continue
        _write_table(out_dir, name, ["key", "value"], [[key, _cell(value)] for key, value in data.items()])
        for key, rows in data.items():
            if isinstance(rows, list) and rows and isinstance(rows[0], dict):
                cols = list(rows[0])
                cells = [[_cell(row[col]) for col in cols] for row in rows]
                _write_table(out_dir, f"{name}.{key}", cols, cells)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared."""
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

    ps = sub.add_parser("simulate", parents=[output], help="run a scenario config's Monte Carlo study")
    ps.add_argument("config", help="scenario INI path, or builtin:section3")
    ps.add_argument("--seed", type=int, help="override the config's master seed")
    ps.add_argument("--replications", type=int, help="override the config's replication count")
    ps.add_argument(
        "--workers",
        type=int,
        help=f"processes, this one included (default: every usable CPU; each takes at least "
        f"{_MIN_CHUNK} replications; the result is identical)",
    )

    pp = sub.add_parser(
        "pivot-ci", parents=[output], help="rank-test confidence set for the curve-power parameter"
    )
    pp.add_argument("dataset", help="CSV with columns time,event,arm (no censoring)")
    pp.add_argument("--level", type=float, default=0.95, help="confidence level (default 0.95)")
    pp.add_argument("--seed", type=int, default=0, help="seed for the acceptance-region draws")

    sub.add_parser(
        "eq1-demo", parents=[output], help="worked example of the log-averaging pooling rule"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up per call, as the shared parser holds no command function
        report = globals()["_cmd_" + args.command.replace("-", "_")](args)
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
