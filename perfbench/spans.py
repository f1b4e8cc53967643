"""Spans around lippoly's public calls, recorded from outside the package.

`Tracer.install` replaces functions at the module names where their
callers look them up, so each call leaves a span (name, start, end,
parent) in memory, and some calls also feed counters read off their
arguments or results.  `uninstall` restores the originals.  Per-layer
metrics come from the spans once the run is over.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time

import numpy as np

MB = float(1 << 20)

# (module, attribute, span name).  The pipeline, the purify package and the
# population module each hold their own reference to what they call, so the
# base solve and purify are told apart from the lifted ones by where they
# are looked up.
TARGETS = (
    ("lippoly.harness.pipeline", "run_pipeline", "harness.pipeline"),
    ("lippoly.harness.pipeline", "write_report", "harness.write"),
    ("lippoly.harness.pipeline", "load_game", "game.load"),
    ("lippoly.harness.pipeline", "game_digest", "game.digest"),
    ("lippoly.harness.pipeline", "check_game", "game.check"),
    ("lippoly.harness.pipeline", "solve_mixed", "solver.solve"),
    ("lippoly.harness.pipeline", "purify", "purify.purify"),
    ("lippoly.harness.pipeline", "reduce_and_solve", "population.reduce"),
    ("lippoly.purify", "ane_to_wsne_binary", "purify.snap"),
    ("lippoly.purify", "ane_to_wsne_m", "purify.snap"),
    ("lippoly.purify", "purify_rounding_binary", "purify.sweep"),
    ("lippoly.purify", "purify_rounding_m", "purify.sweep"),
    ("lippoly.purify", "correct_binary", "purify.correct"),
    ("lippoly.purify", "correct_m", "purify.correct"),
    ("lippoly.population", "induce", "population.lift"),
    ("lippoly.population", "solve_mixed", "population.lifted_solve"),
    ("lippoly.population", "purify", "population.lifted_purify"),
) + tuple(
    (module, "regret_report", "game.regret")
    for module in (
        "lippoly.harness.pipeline",
        "lippoly.purify",
        "lippoly.purify.common",
        "lippoly.purify.binary",
        "lippoly.purify.maction",
        "lippoly.solver",
        "lippoly.population",
    )
)

# Spans reported with their children's time included; every other time
# metric is self time.
INCLUSIVE = ("purify.purify", "population.lifted_purify", "harness.pipeline")

# Per-layer metrics: name -> unit.  Times are seconds per pass.
METRICS = {
    "game.load_s": "s",
    "game.digest_s": "s",
    "game.check_s": "s",
    "game.regret_s": "s",
    "game.regret_calls": "count",
    "solver.solve_s": "s",
    "solver.iterations": "count",
    "purify.snap_s": "s",
    "purify.sweep_s": "s",
    "purify.correct_s": "s",
    "purify.purify_s": "s",
    "purify.rounded_players": "count",
    "purify.trace_retained_mb": "MB",
    "population.reduce_s": "s",
    "population.lift_s": "s",
    "population.lifted_solve_s": "s",
    "population.lifted_purify_s": "s",
    "population.lift_mb": "MB",
    "harness.write_s": "s",
    "harness.records_kb": "KB",
    "harness.pipeline_s": "s",
}


def retained_bytes(obj, seen=None):
    """Bytes reachable from a purification trace: arrays, profiles, sets."""
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        # getsizeof counts the data only when the array owns it.
        return sys.getsizeof(obj) + (obj.nbytes if obj.base is not None else 0)
    size = sys.getsizeof(obj)
    if dataclasses.is_dataclass(obj):
        return size + sum(retained_bytes(getattr(obj, f.name), seen)
                          for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return size + sum(retained_bytes(k, seen) + retained_bytes(v, seen)
                          for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return size + sum(retained_bytes(x, seen) for x in obj)
    return size


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {"solver.iterations": 0, "purify.rounded_players": 0,
                         "purify.trace_retained_mb": 0.0, "population.lift_mb": 0.0}
        self._stack = []
        self._saved = []
        self._traces = []  # purification traces not yet measured

    def install(self):
        for module_name, attr, span in TARGETS:
            # import_module, not getattr on the parent: `lippoly.purify` the
            # attribute is the purify function, the module is only in sys.modules.
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            self._count(name, args, result)
            if not self._stack:
                # Walking the traces is slow, so it waits until no span is open.
                mb = max((retained_bytes(t) / MB for t in self._traces), default=0.0)
                c = self.counters
                c["purify.trace_retained_mb"] = max(c["purify.trace_retained_mb"], mb)
                self._traces.clear()
            return result

        return traced

    def _count(self, name, args, result):
        c = self.counters
        if name == "solver.solve":
            c["solver.iterations"] += result.iterations_used
        elif name == "purify.sweep":
            wsne = args[1]
            c["purify.rounded_players"] += int((wsne.probs.max(axis=1) < 1.0).sum())
        elif name == "purify.purify":
            self._traces.append(result[1])
        elif name == "population.lift":
            base, L = args[0], args[1]
            mb = (base.n * L) ** 2 * base.m ** 2 * 8 / MB
            c["population.lift_mb"] = max(c["population.lift_mb"], mb)

    def times(self):
        """Seconds per span name: self time, or inclusive for INCLUSIVE."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            t = end - start if name in INCLUSIVE else end - start - child[k]
            out[name] = out.get(name, 0.0) + t
        return out

    def metrics(self, passes, records_bytes):
        """Per-layer metrics per pass, as {name: (value, unit)}.

        Times and counts are summed over the run and divided by the number
        of passes; the two MB figures are the largest single value.
        """
        times = self.times()
        out = {}
        for name, unit in METRICS.items():
            if name in self.counters:
                value = self.counters[name]
                if name in ("solver.iterations", "purify.rounded_players"):
                    value /= passes
            elif name == "game.regret_calls":
                value = sum(s[0] == "game.regret" for s in self.spans) / passes
            elif name == "harness.records_kb":
                value = records_bytes / 1024.0 / passes
            else:
                value = times.get(name[: -len("_s")], 0.0) / passes
            out[name] = (value, unit)
        return out

    def span_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
