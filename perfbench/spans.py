"""In-memory span tracing around survquack's public functions.

``Tracer.install`` replaces every binding of each target function in the
loaded survquack modules with a wrapper, so calls made through any module
that imported the name are seen. While ``enabled`` is true a wrapper
records one span (name, start, end, parent); otherwise it only forwards
the call. Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in a traced run; "cli.main" is the root
# span of every operation.
TARGETS = (
    ("cli", "main"),
    ("cli", "read_dataset"),
    ("report", "render"),
    ("sim", "simulate_sample"),
    ("dist", "sample_times"),
    ("dist", "quantile"),
    ("rng", "derive_rng"),
    ("infer", "decision_procedure"),
    ("infer", "logrank_test"),
    ("infer", "wald_test_cox"),
    ("infer", "mw_pivot_ci"),
    ("infer", "mw_acceptance_region"),
    ("estim", "km_fit"),
    ("estim", "_risk_tables"),
    ("estim", "cox_fit_two_arm"),
    ("estim", "weibull_mle"),
    ("estim", "empirical_llp"),
    ("sme", "stratified_audit"),
    ("sme", "mixture_llp"),
)


class Tracer:
    """Collects spans and per-call counters while enabled."""

    def __init__(self):
        self.enabled = False
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn, count=None):
        """Wrap ``fn`` so each enabled call records a span named ``name``.

        ``count(args, kwargs)`` returns {counter: amount} to add per call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if count is not None:
                for key, amount in count(args, kwargs).items():
                    self.counters[key] += amount
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()

        return traced

    def install(self, counts):
        """Wrap every target in the loaded survquack modules; ``counts`` maps
        a target's name to its per-call counter function (see ``wrap``)."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "survquack" or k.startswith("survquack."))]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"survquack.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self.wrap(name, original, counts.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def summary(self):
        """{name: (calls, self seconds)}; self time is a span's duration
        minus the durations of its direct children, which run one after
        another in this single-threaded process."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child_time[i])
        return out

    def write_csv(self, path):
        """Write every span as id,parent,name,start_s,end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start:.9f},{end:.9f}\n")
