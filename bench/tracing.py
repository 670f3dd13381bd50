"""Tracing wrappers installed around the public functions of each module.

The wrappers are installed from the benchmark's own files, replacing
every binding of a wrapped function in the bernsym modules (the modules
import each other's functions by name) and the wrapped methods on the
value classes.  Each call is timed as a span; a span's self time is its
duration minus the time covered by the wrapped calls nested inside it.

Coarse calls (main, build_instances, sweep_verify, verify_theorem,
expansion_sum, the two lambda routes, enumerate_characters) are kept as
individual spans: (id, name, start, end, parent id, instance id, pid).
The arithmetic layers run millions of calls per sweep, so for them only
per-name totals (calls, busy time, self time) are kept, which bounds the
memory of a traced run.  Spans stay in memory until the run ends.

Pool workers are forked from the traced process, so they inherit the
wrappers.  Each worker starts with empty totals and attaches what it
recorded since its previous result to the VerificationReport it returns;
the wrapper around sweep_verify takes those payloads off the reports
before the CLI renders them, so the report bytes are unchanged.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

from workloads import EXPANSION_LABELS, THEOREMS

_PAYLOAD = "_bench_trace"
# the calls main makes whose time is not report assembly and rendering
_MAIN_WORK = (
    "cli.build_instances",
    "identities.sweep_verify",
    "identities.lambda_closed",
    "identities.lambda_integrals",
    "characters.enumerate",
)


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.in_worker = False
        self.instance = None  # id of the instance or pair being worked on
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.repeats: dict[str, list] = defaultdict(lambda: [0, 0])  # name -> [calls, repeats]
        self._seen: dict[str, set] = defaultdict(set)
        self._stack: list[list[float]] = []  # child time of each open call
        self._open_spans: list[int] = []
        self._ids = itertools.count()

    # -- recording ------------------------------------------------------------

    def wrap(self, fn, name, *, span=False, key=None, after=None):
        """Return fn timed under name (a string or a function of the args)."""
        stack, totals, perf = self._stack, self.totals, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            if key is not None:
                k = key(args)
                seen, count = self._seen[label], self.repeats[label]
                count[0] += 1
                if k in seen:
                    count[1] += 1
                else:
                    seen.add(k)
            if span:
                span_id = next(self._ids)
                parent = self._open_spans[-1] if self._open_spans else None
                self._open_spans.append(span_id)
            child = [0.0]
            stack.append(child)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                entry = totals.get(label)
                if entry is None:
                    entry = totals[label] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - child[0]
                if span:
                    self._open_spans.pop()
                    self.spans.append(
                        (span_id, label, start, end, parent, self.instance, os.getpid())
                    )
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_fork(self):
        # a pool worker: start empty, ship what it records with its results
        self.in_worker = True
        self.spans.clear()
        self.totals.clear()
        self.repeats.clear()
        self._seen.clear()
        self._stack.clear()
        self._open_spans.clear()

    def _drain(self) -> dict:
        payload = {
            "spans": list(self.spans),
            "totals": {k: list(v) for k, v in self.totals.items()},
            "repeats": {k: list(v) for k, v in self.repeats.items()},
        }
        self.spans.clear()
        self.totals.clear()
        self.repeats.clear()
        return payload

    def _merge(self, payload: dict):
        self.spans.extend(payload["spans"])
        for name, (calls, busy, own) in payload["totals"].items():
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += busy
            entry[2] += own
        for name, (calls, repeats) in payload["repeats"].items():
            entry = self.repeats[name]
            entry[0] += calls
            entry[1] += repeats

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap the public functions of every bernsym module, in place."""
        from bernsym import bernoulli, characters, cli, identities, series
        from bernsym.cyclotomic import CycloElement
        from bernsym.series import TruncatedSeries

        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "bernsym"]

        def rebind(fn, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

        def rebind_method(cls, attr, wrapper_of):
            fn = cls.__dict__[attr]
            wrapper = wrapper_of(fn)
            for other, value in list(cls.__dict__.items()):
                if value is fn:  # aliases such as __radd__ = __add__
                    setattr(cls, other, wrapper)

        def degree_name(args):
            return "cyclotomic.mul.deg1" if len(args[0].coeffs) == 1 else "cyclotomic.mul.deg2plus"

        for attr, name in (("__mul__", degree_name), ("__add__", "cyclotomic.add"),
                           ("scale", "cyclotomic.scale"), ("lift", "cyclotomic.lift"),
                           ("__eq__", "cyclotomic.eq")):
            rebind_method(CycloElement, attr, lambda fn, name=name: self.wrap(fn, name))
        for attr, name in (("__mul__", "series.mul"), ("invert", "series.invert")):
            rebind_method(TruncatedSeries, attr, lambda fn, name=name: self.wrap(fn, name))

        def chi_args(args):
            return (args[0].key(),) + tuple(args[1:])

        def instance_id(instance):
            w = ",".join(str(x) for x in instance.weights)
            ys = ",".join(str(y) for y in instance.ys)
            return (f"{instance.theorem}:d{instance.chi.modulus}:c{instance.chi.label}"
                    f":n{instance.n}:w{w}:y{ys}")

        def verify(fn):
            inner = self.wrap(fn, lambda args: "identities.verify." + args[0].theorem,
                              span=True, after=self._ship)

            def set_instance(*args, **kwargs):
                self.instance = instance_id(args[0])
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.instance = None

            return set_instance

        plain = (
            (series.exp_series, "series.exp_series", {}),
            (bernoulli.gen_bernoulli_poly, "bernoulli.poly", {"key": chi_args}),
            (bernoulli.power_sum, "bernoulli.power_sum", {"key": chi_args}),
            (bernoulli.gen_bernoulli_number, "bernoulli.number", {}),
            (bernoulli.char_exp_sum, "bernoulli.char_exp_sum", {}),
            (characters.enumerate_characters, "characters.enumerate", {"span": True}),
            (identities.expansion_sum, lambda args: "identities.expansion." + args[0],
             {"span": True}),
            (identities.lambda_series, "identities.lambda_closed", {"span": True}),
            (identities.lambda_series_from_integrals, "identities.lambda_integrals",
             {"span": True}),
            (identities.sweep_verify, "identities.sweep_verify",
             {"span": True, "after": self._collect}),
            (cli.build_instances, "cli.build_instances", {"span": True}),
            (cli.main, "cli.main", {"span": True}),
        )
        for fn, name, options in plain:
            rebind(fn, self.wrap(fn, name, **options))
        rebind(identities.verify_theorem, verify(identities.verify_theorem))
        os.register_at_fork(after_in_child=self._after_fork)

    def _ship(self, args, report):
        if self.in_worker:
            report.__dict__[_PAYLOAD] = self._drain()

    def _collect(self, args, reports):
        for report in reports:
            payload = report.__dict__.pop(_PAYLOAD, None)
            if payload is not None:
                self._merge(payload)

    # -- metrics --------------------------------------------------------------

    def metrics(self, ops: int, main_s: float, jobs: int, report_bytes: int) -> dict:
        """Every per-layer metric of one traced repetition, 0 where a layer did not run."""
        t = self.totals
        out: dict[str, float] = {}

        def calls(name):
            return t.get(name, (0, 0.0, 0.0))[0]

        def busy(name):
            return t.get(name, (0, 0.0, 0.0))[1]

        def own(*names):
            return sum(t.get(n, (0, 0.0, 0.0))[2] for n in names)

        def ratio(name):
            total, repeats = self.repeats.get(name, (0, 0))
            return repeats / total if total else 0.0

        deg = ("cyclotomic.mul.deg1", "cyclotomic.mul.deg2plus")
        out["cyclotomic.mul.calls.deg1"] = calls(deg[0])
        out["cyclotomic.mul.calls.deg2plus"] = calls(deg[1])
        out["cyclotomic.mul.self_s"] = own(*deg)
        for op in ("add", "scale"):
            out[f"cyclotomic.{op}.calls"] = calls(f"cyclotomic.{op}")
            out[f"cyclotomic.{op}.self_s"] = own(f"cyclotomic.{op}")
        out["cyclotomic.lift.calls"] = calls("cyclotomic.lift")
        out["cyclotomic.eq.calls"] = calls("cyclotomic.eq")

        out["characters.enumerate.calls"] = calls("characters.enumerate")
        out["characters.enumerate.busy_s"] = busy("characters.enumerate")

        for op in ("mul", "invert", "exp_series"):
            out[f"series.{op}.calls"] = calls(f"series.{op}")
            out[f"series.{op}.self_s"] = own(f"series.{op}")

        for op in ("poly", "power_sum"):
            out[f"bernoulli.{op}.calls"] = calls(f"bernoulli.{op}")
            out[f"bernoulli.{op}.self_s"] = own(f"bernoulli.{op}")
            out[f"bernoulli.{op}.repeat_ratio"] = ratio(f"bernoulli.{op}")
        out["bernoulli.number.calls"] = calls("bernoulli.number")
        out["bernoulli.char_exp_sum.calls"] = calls("bernoulli.char_exp_sum")
        out["bernoulli.char_exp_sum.self_s"] = own("bernoulli.char_exp_sum")

        verify_spans = [s for s in self.spans if s[1].startswith("identities.verify.")]
        out["identities.verify.calls"] = len(verify_spans)
        for theorem in THEOREMS:
            ms = sorted((s[3] - s[2]) * 1e3 for s in verify_spans
                        if s[1] == "identities.verify." + theorem)
            prefix = f"identities.verify.{theorem}"
            out[f"{prefix}.samples"] = len(ms)
            out[f"{prefix}.p50_ms"] = statistics.median(ms) if ms else 0.0
            # the highest percentile with at least ten samples beyond it
            if len(ms) > 10:
                out[f"{prefix}.tail_ms"] = ms[len(ms) - 11]
                out[f"{prefix}.tail_pct"] = 100.0 * (len(ms) - 10) / len(ms)
            else:
                out[f"{prefix}.tail_ms"] = 0.0
                out[f"{prefix}.tail_pct"] = 0.0
        for label in EXPANSION_LABELS:
            out[f"identities.expansion.{label}.self_s"] = own(f"identities.expansion.{label}")
        out["identities.lambda_closed.self_s"] = own("identities.lambda_closed")
        out["identities.lambda_integrals.self_s"] = own("identities.lambda_integrals")

        out.update(self._pool_metrics(verify_spans, jobs))

        mains = {s[0]: s for s in self.spans if s[1] == "cli.main"}
        main_total = sum(s[3] - s[2] for s in mains.values())
        direct = [s for s in self.spans if s[4] in mains and s[6] == self.pid]
        out["cli.build_instances_s"] = sum(
            s[3] - s[2] for s in direct if s[1] == "cli.build_instances"
        )
        out["cli.report_s"] = main_total - sum(s[3] - s[2] for s in direct if s[1] in _MAIN_WORK)
        out["cli.report_bytes"] = report_bytes
        out["traced.ops_per_s"] = ops / main_s
        return out

    def _pool_metrics(self, verify_spans, jobs: int) -> dict:
        sweeps = [s for s in self.spans if s[1] == "identities.sweep_verify"]
        if not sweeps:
            return {name: 0.0 for name in POOL_METRICS}
        busy: dict[int, float] = {}
        count: dict[int, int] = {}
        for s in verify_spans:
            busy[s[6]] = busy.get(s[6], 0.0) + (s[3] - s[2])
            count[s[6]] = count.get(s[6], 0) + 1
        if jobs > 1 and len(busy) < jobs:
            # a worker that never received a chunk still counts, as idle
            for missing in range(jobs - len(busy)):
                busy[-1 - missing] = 0.0
                count[-1 - missing] = 0
        wall = sum(s[3] - s[2] for s in sweeps)
        total = sum(busy.values())
        return {
            "pool.worker_busy_s.max": max(busy.values()),
            "pool.worker_busy_s.min": min(busy.values()),
            "pool.worker_instances.max": max(count.values()),
            "pool.worker_instances.min": min(count.values()),
            "pool.imbalance": max(busy.values()) / (total / len(busy)) if total else 0.0,
            "pool.idle_s": jobs * wall - total,
        }

    def dump(self, path: str):
        """Write the kept spans, one JSON object a line, and the per-name totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, instance, pid in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "instance": instance, "pid": pid,
                }) + "\n")
            for name, (calls, busy, own) in sorted(self.totals.items()):
                fh.write(json.dumps({
                    "totals": name, "calls": calls, "busy_s": busy, "self_s": own,
                }) + "\n")


POOL_METRICS = (
    "pool.worker_busy_s.max",
    "pool.worker_busy_s.min",
    "pool.worker_instances.max",
    "pool.worker_instances.min",
    "pool.imbalance",
    "pool.idle_s",
)
