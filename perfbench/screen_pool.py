"""Screens the pools of simulate seeds and audit cohorts for ``workloads.LEFT_OUT``.

    python3 perfbench/screen_pool.py [equal-median-study|audit-complete|audit-censored ...]

Makes the workload's call on every pool candidate (workloads.POOL of them)
and prints each candidate whose call fails or whose report has a failed
section, other than ``win_probability`` on censored data (the method's
documented refusal). The printed candidates are the ones to pin in
``workloads.LEFT_OUT``. The benchmark itself never runs this: its
inputs must not depend on the code being measured.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run
from workloads import AUDIT_FLAGS, POOL, audit_sample, simulate_argv


def main(names):
    pkg = run.import_package()
    spec = pkg.fixtures.load_oak_analog_spec()
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        path = os.path.join(workdir, "cohort.csv")
        for name in names:
            censored = name == "audit-censored"
            failed = []
            for k in range(POOL):
                if name == "equal-median-study":
                    argv = simulate_argv(k)
                else:
                    pkg.fixtures.write_dataset_csv(audit_sample(pkg, spec, k, censored), path)
                    argv = ("analyze", path, *AUDIT_FLAGS)
                code, text = run.call(pkg, argv)
                sections = json.loads(text)["sections"] if code == 0 else {}
                errors = {s: v["error"] for s, v in sections.items()
                          if not v["ok"] and not (censored and s == "win_probability")}
                if code != 0 or errors:
                    failed.append(k)
                    print(f"{name} candidate {k}: exit code {code}, {errors}", flush=True)
            print(f'"{name}": {tuple(failed)},', flush=True)


if __name__ == "__main__":
    sys.path.insert(0, run.SRC)
    main(sys.argv[1:] or ["equal-median-study", "audit-complete", "audit-censored"])
