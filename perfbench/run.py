"""Benchmark of survquack's CLI verbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this single process: it imports the
package from the checkout's ``src``, generates the inputs from the seed,
then calls ``survquack.cli.main(argv)`` in-process, one verb call per
operation, in whole rounds until S seconds have passed. Every report is
checked, a seeded sample of them against the reference routes in
reference.py. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7

import spans  # noqa: E402
from calibrate import Clock  # noqa: E402
import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Per-layer metrics of a traced run, all per operation (one verb call).
LAYER_FUNCTIONS = [f"{m}.{f}" for m, f in spans.TARGETS if (m, f) != ("cli", "main")]
PER_LAYER = (
    [(f"{name}.calls", "count") for name in LAYER_FUNCTIONS]
    + [(f"{name}.self_s", "s") for name in LAYER_FUNCTIONS]
    + [
        ("cli.main.self_s", "s"),
        ("estim._risk_tables.calls_per_replication", "count"),
        ("cli.read_dataset.bytes", "bytes"),
        ("infer.mw_acceptance_region.draws", "count"),
        ("trace.overhead_pct", "%"),
    ]
)
COUNTS = {
    "cli.read_dataset": lambda args, kwargs: {"cli.read_dataset.bytes": os.path.getsize(args[0])},
    "infer.mw_acceptance_region": lambda args, kwargs: {
        "infer.mw_acceptance_region.draws": args[4] if len(args) > 4 else kwargs["mc_reps"]},
}


def import_package():
    """Import survquack afresh from ``src``; returns its modules by name."""
    for name in [k for k in sys.modules if k == "survquack" or k.startswith("survquack.")]:
        del sys.modules[name]
    importlib.import_module("survquack.cli")
    return types.SimpleNamespace(**{
        name: sys.modules[f"survquack.{name}"] for name in ("cli", "sim", "fixtures", "estim", "errors")
    })


def set_up(name, seed, workdir):
    """Import the package afresh and build the workload's first inputs."""
    pkg = import_package()
    return pkg, WORKLOADS[name](pkg, seed, workdir)


def call(pkg, argv):
    """One verb call; returns (exit code, captured standard output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = pkg.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = -1
    return code, buf.getvalue()


def measure(pkg, workload, seconds, tracer, clock):
    """Run whole rounds of the workload until ``seconds`` have passed.

    With a tracer, rounds alternate untraced and traced (ending on a traced
    one), so the traced rounds give the per-layer numbers and the untraced
    ones the overhead baseline. Times are as ``clock`` gives them
    (calibrate.py); ``raw_times`` keeps the wall times. Returns the run's
    tallies and the (op, report) of every call that succeeded.
    """
    run = dict(attempted=0, failed=0, replications=0, subjects=0, traced_replications=0,
               times=[], raw_times=[], traced_times=[], untraced_times=[])
    results = []
    start = time.perf_counter()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        ops = workload.ops(r)
        if tracer is not None:
            tracer.enabled = traced
        for op in ops:
            (code, text), raw, elapsed = clock.measure(call, pkg, op.argv)
            run["attempted"] += 1
            run["times"].append(elapsed)
            run["raw_times"].append(raw)
            run["traced_times" if traced else "untraced_times"].append(elapsed)
            run["replications"] += op.replications
            run["subjects"] += op.subjects
            if code != 0:
                run["failed"] += 1
                print(f"operation failed with exit code {code}: {' '.join(op.argv)}", file=sys.stderr)
            else:
                results.append((op, json.loads(text)))
            if traced:
                run["traced_replications"] += op.replications
        if tracer is not None:
            tracer.enabled = False
        r += 1
        if time.perf_counter() - start >= seconds and (tracer is None or r % 2 == 0):
            return run, results


def run_checks(pkg, workload, results, seed):
    """Check the reports of a run; returns Findings.

    Every report is validated against the schema and checked for what it
    must hold on its own. ``workload.checked_ops`` of them (all when None),
    drawn from the benchmark seed, are checked against the reference
    routes. The first call is made once more: its report must not change.
    """
    findings = checks.Findings()

    def run_cli(argv):
        code, text = call(pkg, argv)
        if code != 0:
            raise RuntimeError(f"check call failed with exit code {code}: {argv}")
        return json.loads(text)

    try:
        if not results:
            return findings
        op, report = results[0]
        again = run_cli(op.argv)
        findings.expect("deterministic", checks.strip_volatile(again) == checks.strip_volatile(report),
                        f"a second call of {' '.join(op.argv)} gave another report")
        checks.check_schema(findings, [report for _, report in results])
        checked = results
        if workload.checked_ops is not None and workload.checked_ops < len(results):
            picks = np.random.default_rng([seed, 5]).choice(len(results), workload.checked_ops, replace=False)
            checked = [results[i] for i in sorted(picks)]
        if workload.name == "equal-median-study":
            references = {op.meta["seed"]: checks.reference_replications(
                pkg, workload.scenario, op.meta["seed"], op.replications) for op, _ in checked}
            checks.check_equal_median(findings, results, pkg, workload.scenario, run_cli, references)
        elif workload.name == "pivot-ci":
            for op, report in checked:
                checks.check_pivot(findings, op, report)
        else:
            for op, report in results:
                checks.check_sections(findings, report, op.meta["censored"])
            for op, report in checked:
                checks.check_audit(findings, op, report)
    except Exception:  # a report the checks cannot read is a wrong report
        findings.expect("checks_completed", False, traceback.format_exc())
    return findings


def end_to_end(run, setup_times, peak_rss_mb):
    busy = sum(run["times"])
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_median_s": (statistics.median(run["times"]), "s"),
        "replications_per_s": (run["replications"] / busy, "1/s"),
        "subjects_per_s": (run["subjects"] / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(run, tracer):
    ops = len(run["traced_times"])
    summary = tracer.summary()
    metrics = {}
    for name in LAYER_FUNCTIONS + ["cli.main"]:
        calls, self_s = summary.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / ops, "count")
        metrics[f"{name}.self_s"] = (self_s / ops, "s")
    metrics["estim._risk_tables.calls_per_replication"] = (
        summary.get("estim._risk_tables", (0, 0.0))[0] / run["traced_replications"], "count")
    for name in ("cli.read_dataset.bytes", "infer.mw_acceptance_region.draws"):
        metrics[name] = (tracer.counters.get(name, 0.0) / ops, dict(PER_LAYER)[name])
    overhead = sum(run["traced_times"]) / sum(run["untraced_times"]) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return {name: metrics[name] for name, _ in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "survquack", "cli.py")):
        print(f"run.py: no survquack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        # untimed first pass: compiles the sources
        _, workload = set_up(args.workload, args.seed, workdir)
        # set-up is short enough to scale on every workload; calls only where
        # scaling steadies them (calibrate.py)
        setup_clock, clock = Clock(), Clock(scale=workload.scaled)
        setup_times, raw_setup_times = [], []
        for _ in range(SETUP_REPEATS):
            (pkg, workload), raw, scaled = setup_clock.measure(set_up, args.workload, args.seed, workdir)
            setup_times.append(scaled)
            raw_setup_times.append(raw)

        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(counts=COUNTS)
        run, results = measure(pkg, workload, args.seconds, tracer, clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        findings = run_checks(pkg, workload, results, args.seed)
        for name, detail in sorted(findings.failed.items()):
            print(f"check failed: {name}: {detail}", file=sys.stderr)

        if tracer is not None:
            metrics = per_layer(run, tracer)
            tracer.write_csv(os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.csv"))
        else:
            metrics = end_to_end(run, setup_times, peak_rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unscaled = {"setup_s": statistics.median(raw_setup_times), "op_median_s": statistics.median(run["raw_times"])}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:20s} {name:45s} {value:14.6g} {unit}")
    for name, value in unscaled.items():
        print(f"{args.workload:20s} {'unscaled ' + name:45s} {value:14.6g} s")
    result = {
        "correct": findings.ok,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    # the saved copy also keeps the wall-time medians behind the scaled ones
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, unscaled_s=unscaled, calls_scaled=workload.scaled), fh)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
