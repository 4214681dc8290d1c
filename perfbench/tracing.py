"""Span recording around calls into ramcast's public functions.

The tracer wraps a fixed list of ``module.function`` targets from the
outside: every ramcast module that binds the original function object
(``cli`` binds ``stable_equals_throughput_frontier``, ``capacity`` binds
``pareto_frontier``, the package namespace binds most of them) gets the
wrapper, so a call is seen whichever binding it goes through.

A span is ``(id, parent, name, job, start, end, attrs)``.  Spans stay in
memory and are written out once per process: the job process calls
``flush`` itself, and a process forked from it (the ``figure`` worker
pool) resets its buffer after the fork and flushes when it exits.
Span ids carry the pid, so a worker span's parent can be the
``service_rates_grid`` span that was open in the job process when the
pool forked.  Timestamps come from ``time.perf_counter``, which is the
same monotonic clock in every process on Linux.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import multiprocessing.util
import os
import statistics
import sys
import time
from pathlib import Path

# Wrapped functions, by ramcast module.  gf2, channel and checks are left
# out on purpose: none of them is on a workload's hot path (see README).
TARGETS = (
    "cli.main",
    "cli.write_csv",
    "capacity.capacity_sweep",
    "retrans.service_rates_grid",
    "regions.pareto_frontier",
    "regions.stable_equals_throughput_frontier",
    "rlc_markov.service_rates_grid",
    "rlc_markov.build_chain",
    "rlc_markov.service_rate",
    "sim.run",
    "sim.stability_probe",
)


def _attrs(name: str, bound: inspect.BoundArguments, result) -> dict:
    """Per-call attributes the per-module metrics need.

    ``pareto_frontier`` gets its argument untouched.  Its ``points_in`` is
    the argument's length when it has one; an iterator (the zip the
    callers pass today) is counted later from the grid step of the
    enclosing sweep span (see ``job_metrics``).
    """
    args = bound.arguments
    if name == "regions.pareto_frontier":
        points = next(iter(args.values()))
        out = {"points_out": len(result)}
        if hasattr(points, "__len__"):
            out["points_in"] = len(points)
        return out
    if name in ("capacity.capacity_sweep", "regions.stable_equals_throughput_frontier"):
        return {"grid_step": args["grid_step"]}
    if name == "cli.write_csv":
        return {"bytes": os.path.getsize(args["path"])}
    if name == "rlc_markov.build_chain":
        return {"K": args["K"], "variant": args["variant"]}
    if name == "sim.run":
        cfg = args["config"]
        return {
            "policy": cfg.policy,
            "K": cfg.K if cfg.policy == "rlc" else 1,
            "mode": cfg.mode,
            "slots": cfg.slots,
            "services": sum(s.services for s in result.sources),
        }
    return {}


class Tracer:
    """Records spans for one job; install() wraps, uninstall() restores."""

    def __init__(self, out_dir: str | Path, job: int) -> None:
        self.out_dir = Path(out_dir)
        self.job = job
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[str] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # Runs in a forked multiprocessing child: keep the open-span stack
        # (its ids name spans of the parent), drop the parent's finished spans.
        self.pid = os.getpid()
        self.spans = []
        self._ids = itertools.count()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=10)

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if n == "ramcast" or n.startswith("ramcast.")
        ]
        for target in TARGETS:
            mod_name, fn_name = target.split(".")
            module = importlib.import_module(f"ramcast.{mod_name}")
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = f"{tracer.pid}:{next(tracer._ids)}"
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            try:
                attrs = _attrs(name, bound, result)
            except (KeyError, IndexError, AttributeError, TypeError) as exc:
                # The function's interface changed; keep the span, flag the gap.
                attrs = {"attrs_error": f"{type(exc).__name__}: {exc}"}
            tracer.spans.append([span_id, parent, name, tracer.job, start, end, attrs])
            return result

        return wrapper

    def flush(self) -> None:
        """Write this process's spans; one file per process and job."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.job}-{self.pid}.json"
        payload = {"pid": self.pid, "job": self.job, "missing": self.missing, "spans": self.spans}
        path.write_text(json.dumps(payload), encoding="utf-8")


def load_spans(trace_dir: str | Path, job: int) -> tuple[list[list], list[str]]:
    """All spans one job wrote, over its processes, plus missing targets."""
    spans: list[list] = []
    missing: set[str] = set()
    for path in sorted(Path(trace_dir).glob(f"spans-{job}-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        spans.extend(payload["spans"])
        missing.update(payload["missing"])
    return spans, sorted(missing)


def self_times(spans: list[list]) -> dict[str, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children may run in other processes and overlap each other (the pool
    workers do), so their intervals are merged before subtracting.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, _, _, start, end, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[span_id] = (end - start) - covered
    return out


def job_metrics(spans: list[list]) -> dict[str, float]:
    """Per-module metrics of one job, keyed ``module.function.metric``."""
    selfs = self_times(spans)
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    steps = {s[0]: s[6]["grid_step"] for s in spans if "grid_step" in s[6]}
    first_build: dict[tuple[int, int], list] = {}
    sim_rate: dict[str, list[float]] = {}
    for span in spans:
        span_id, parent, name, _, start, end, attrs = span
        if name == "regions.pareto_frontier" and "points_in" not in attrs and parent in steps:
            # An iterator over the caller's (p1, p2) grid: (round(1/step) + 1)**2 points.
            attrs["points_in"] = (max(1, round(1.0 / steps[parent])) + 1) ** 2
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", selfs[span_id])
        add(f"{name}.s", end - start)
        for key in ("points_in", "points_out", "bytes", "services"):
            if key in attrs:
                add(f"{name}.{key}", attrs[key])
        if name == "rlc_markov.build_chain" and "K" in attrs:
            key = (span_id.split(":")[0], attrs["K"])
            if key not in first_build or start < first_build[key][4]:
                first_build[key] = span
        if name == "sim.run" and "slots" in attrs:
            rate_key = f"{attrs['policy']}.K{attrs['K']}.{attrs['mode']}"
            slots, secs = sim_rate.get(rate_key, (0, 0.0))
            sim_rate[rate_key] = (slots + attrs["slots"], secs + end - start)
    # The first build_chain per K in each process pays the state-space build.
    cold: dict[int, list[float]] = {}
    for (_, K), span in first_build.items():
        cold.setdefault(K, []).append(span[5] - span[4])
    for K, durations in cold.items():
        out[f"rlc_markov.build_chain.cold_s.K{K}"] = statistics.median(durations)
    for key, (slots, secs) in sim_rate.items():
        out[f"sim.run.kslots_per_s.{key}"] = slots / secs / 1000.0
    return out
