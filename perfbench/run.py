#!/usr/bin/env python3
"""ramcast benchmark: four workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload figure-k50 --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 42       # every workload in turn

Run from the root of a checkout; the program is imported from ``src``.
Every job runs in a fresh process, one at a time.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-module metrics of a run
that alternates plain and traced jobs.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.  See README.md.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402

OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
JOB_TIMEOUT_S = 150
# Single-threaded children are pinned here, so its speed is the one to sample.
PIN_CPU = min(os.sched_getaffinity(0))

# Spans each workload must produce; one that never fires is reported absent.
EXPECTED_SPANS = {
    "figure-k50": (
        "cli.main", "cli.write_csv", "capacity.capacity_sweep",
        "regions.pareto_frontier", "regions.stable_equals_throughput_frontier",
        "retrans.service_rates_grid", "rlc_markov.service_rates_grid",
        "rlc_markov.build_chain", "rlc_markov.service_rate",
    ),
    "fine-grid": (
        "cli.main", "cli.write_csv", "capacity.capacity_sweep",
        "regions.pareto_frontier", "regions.stable_equals_throughput_frontier",
        "retrans.service_rates_grid",
    ),
    "sim-saturated": ("sim.run",),
    "sim-arrivals": ("sim.stability_probe", "sim.run"),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], log: Path, cpus, capture: bool = False):
    """Run one child to completion; (returncode, start, end, sampler, peak_rss_mb, stdout).

    ``start`` and ``end`` are perf_counter times.  ``sampler`` holds the
    speed of ``cpus`` (the CPUs the child runs on) sampled before, during
    and after it, for reference seconds.  The child gets its own session
    so a stuck job and any workers it forked are killed together.  Peak
    RSS comes from wait4, which covers the child and the descendants it
    waited for.
    """
    with open(log, "ab") as fh, calib.Sampler(cpus) as sampler:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [str(c) for c in cmd],
            stdout=subprocess.PIPE if capture else fh,
            stderr=fh,
            env=child_env(),
            cwd=ROOT,
            start_new_session=True,
        )
        timer = threading.Timer(JOB_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            out = proc.stdout.read() if capture else b""
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _wait_group_gone(proc.pid)
    if capture:
        proc.stdout.close()
    rss_mb = usage.ru_maxrss / 1024.0
    return proc.returncode, start, end, sampler, rss_mb, out.decode("utf-8", "replace")


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int) -> None:
    """Wait until nothing the child started is left; kill leftovers after 10 s."""
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        if time.monotonic() > deadline:
            _kill_group(pgid)
            deadline = time.monotonic() + 10
        time.sleep(0.01)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return "unavailable"


def host_block() -> dict:
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "commit": git_commit(),
        "loadavg_start": loadavg(),
    }


def tail(samples: list[float]) -> dict:
    """Median, count, and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 11:
        k = len(samples) - 10
        out[f"p{100.0 * k / len(samples):.0f}"] = sorted(samples)[k - 1]
    return out


def measure_setup(work: Path, repeats: int) -> list[tuple[float, float]]:
    """Fresh interpreter until ready, several times; (wall s, reference s) each."""
    samples = []
    for _ in range(repeats):
        rc, start, _, sampler, _, out = spawn(
            [sys.executable, HERE / "job.py", "--cpu", PIN_CPU, "setup",
             "--inputs", work / "inputs.json"],
            work / "setup.log",
            [PIN_CPU],
            capture=True,
        )
        if rc != 0:
            raise BenchError(f"set-up failed (exit {rc}); see {work / 'setup.log'}")
        ready = json.loads(out.strip().splitlines()[-1])["ready"]
        samples.append((ready - start, sampler.ref_seconds(start, ready)))
    return samples


class Ops:
    """Output checks counted as operations: attempted, failed, first messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, name: str, check) -> None:
        self.attempted += 1
        try:
            bad = check()
        except Exception as exc:  # a check that raises is a failed op
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(f"{name}: {m}" for m in bad)


def run_sweep(inputs: dict, work: Path, seconds: float, trace: bool, ops: Ops) -> list[dict]:
    """Passes of CLI jobs for ``seconds``; in a traced run odd passes are traced."""
    ref = None if inputs["smoke"] else verify.load_reference(inputs["workload"], inputs["seed"])
    out_dir = work / "out"
    jobs = gen.cli_jobs(inputs, str(work / "channel.json"), str(out_dir))
    passes = []
    start = time.perf_counter()
    while True:
        n = len(passes)
        traced = trace and n % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        walls, refs, rss, rcs = {}, {}, 0.0, {}
        for label, argv in jobs:
            # figure runs a two-worker pool on every CPU; the rest are single-threaded.
            cpus = sorted(os.sched_getaffinity(0)) if label == "figure" else [PIN_CPU]
            cmd = [sys.executable, HERE / "job.py"]
            if label != "figure":
                cmd += ["--cpu", PIN_CPU]
            cmd += ["cli", "--job", n]
            if traced:
                cmd += ["--trace-dir", work / "trace"]
            rc, t0, t1, sampler, rss_mb, _ = spawn(cmd + ["--"] + argv, work / "jobs.log", cpus)
            walls[label], refs[label], rcs[label] = t1 - t0, sampler.ref_seconds(t0, t1), rc
            rss = max(rss, rss_mb)

        def exited(label):
            return [] if rcs[label] == 0 else [f"exit code {rcs[label]}"]

        step = inputs["step"]
        if inputs["workload"] == "figure-k50":
            ops.record(
                f"pass {n} figure",
                lambda: exited("figure")
                or verify.check_figure(out_dir / "figure", step, inputs["K_list"], ref),
            )
        else:
            results = {}

            def fine_grid():
                if "both" not in results:
                    results["both"] = verify.check_fine_grid(
                        out_dir / "capacity.csv", out_dir / "retrans.csv", step, ref
                    )
                return results["both"]

            ops.record(f"pass {n} capacity", lambda: exited("capacity") or fine_grid()[0])
            ops.record(f"pass {n} region", lambda: exited("region") or fine_grid()[1])
        passes.append(
            {
                "traced": traced,
                "wall_s": sum(walls.values()),
                "ref_s": sum(refs.values()),
                "jobs_wall_s": walls,
                "jobs_ref_s": refs,
                "rss_mb": rss,
            }
        )
        if len(passes) >= (2 if trace else 1) and time.perf_counter() - start >= seconds:
            break
    shutil.rmtree(out_dir, ignore_errors=True)
    return passes


def run_sim(inputs: dict, work: Path, seconds: float, trace: bool, ops: Ops):
    """One fresh sim process running passes for ``seconds``; checks every cell."""
    res_path = work / "sim-result.json"
    rc, _, _, sampler, rss_mb, _ = spawn(
        [
            sys.executable, HERE / "job.py", "--cpu", PIN_CPU, "sim",
            "--inputs", work / "inputs.json", "--seconds", seconds, "--trace", int(trace),
            "--trace-dir", work / "trace", "--out", res_path,
        ],
        work / "jobs.log",
        [PIN_CPU],
    )
    if rc != 0:
        raise BenchError(f"sim job failed (exit {rc}); see {work / 'jobs.log'}")
    result = json.loads(res_path.read_text(encoding="utf-8"))
    first = result["passes"][0]["cells"]
    passes = []
    for n, p in enumerate(result["passes"]):
        for i, cell in enumerate(p["cells"]):
            name = f"pass {n} {cell['name']}"
            if result["analytic"] is not None:
                ops.record(
                    name,
                    lambda: verify.check_saturated_cell(name, cell, result["analytic"][i])
                    + verify.check_repeat(name, cell["rates"], first[i]["rates"]),
                )
            else:
                factors = inputs["factors"]
                if len(cell["points"]) != len(factors):
                    got = len(cell["points"])
                    ops.record(name, lambda: [f"{got} verdicts, expected {len(factors)}"])
                for point, factor in zip(cell["points"], factors):
                    ops.record(
                        f"{name} x{factor}",
                        lambda: verify.check_verdict(f"{name} x{factor}", point["stable"], factor),
                    )
        walls = {c["name"]: c["t"][1] - c["t"][0] for c in p["cells"]}
        refs = {c["name"]: sampler.ref_seconds(*c["t"]) for c in p["cells"]}
        slots = sum(c["slots"] for c in p["cells"])
        passes.append(
            {
                "traced": p["traced"],
                "wall_s": sum(walls.values()),
                "ref_s": sum(refs.values()),
                "kslots_per_s": slots / sum(refs.values()) / 1000.0,
                "cells_wall_s": walls,
                "cells_ref_s": refs,
                "rss_mb": rss_mb,
            }
        )
    for probe, points in zip(result["probes"] or (), result["conservation"] or ()):
        for factor, sources in zip(inputs["factors"], points):
            name = f"conservation {probe['policy']}.K{probe['K']} x{factor}"
            ops.record(name, lambda: verify.check_conservation(name, sources))
    return passes, result


def layer_metrics(work: Path, passes: list[dict], import_s, workload: str, declared: list[dict]):
    """Per-module metrics: per traced pass, then the median over traced passes.

    Times are scaled by the pass's mean sampled CPU speed (ref_s / wall_s),
    so they are in reference seconds like job_s; rates are divided by it.
    """
    units = {m["name"]: m["unit"] for m in declared}
    per_pass: dict[str, list[float]] = {}
    missing: set[str] = set()
    fired: dict[str, list[int]] = {}
    for n, p in enumerate(passes):
        if not p["traced"]:
            continue
        spans, miss = tracing.load_spans(work / "trace", n)
        missing.update(miss)
        values = tracing.job_metrics(spans)
        meta = work / "trace" / f"meta-{n}.json"
        values["process.import_s"] = (
            json.loads(meta.read_text(encoding="utf-8"))["import_s"] if meta.exists() else import_s
        )
        speed = p["ref_s"] / p["wall_s"]
        for key, v in values.items():
            if units.get(key) == "s":
                v *= speed
            elif units.get(key) == "kslots/s":
                v /= speed
            per_pass.setdefault(key, []).append(v)
        for name in tracing.TARGETS:
            fired.setdefault(name, []).append(int(values.get(f"{name}.calls", 0)))
    plain = [p["ref_s"] for p in passes if not p["traced"]]
    traced = [p["ref_s"] for p in passes if p["traced"]]
    per_pass["trace.overhead_ratio"] = [statistics.median(traced) / statistics.median(plain) - 1]
    metrics, absent = {}, {}
    for m in declared:
        vals = per_pass.get(m["name"])
        metrics[m["name"]] = {"value": statistics.median(vals) if vals else 0, "unit": m["unit"]}
    for name in tracing.TARGETS:
        if name in missing:
            absent[name] = "function not found in its module; not wrapped"
        elif name in EXPECTED_SPANS[workload] and max(fired.get(name, [0])) == 0:
            absent[name] = "expected on this workload but never fired"
        elif name not in EXPECTED_SPANS[workload] and max(fired.get(name, [0])) == 0:
            absent[name] = "not on this workload's path (prediction: no change)"
    span_counts = {name: statistics.median(c) for name, c in fired.items() if max(c) > 0}
    return metrics, absent, span_counts


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict):
    work = OUT_ROOT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    host = host_block()
    inputs = gen.make_inputs(workload, seed, smoke)
    if workload in gen.SWEEPS:
        channel_file = work / "channel.json"
        channel_file.write_text(json.dumps(inputs["channel"], indent=2) + "\n", encoding="utf-8")
        inputs["channel_file"] = str(channel_file)
    (work / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")

    setup = measure_setup(work, 1 if smoke else SETUP_REPEATS)
    ops = Ops()
    if workload in gen.SWEEPS:
        passes = run_sweep(inputs, work, seconds, trace, ops)
        import_s = None
    else:
        passes, sim_result = run_sim(inputs, work, seconds, trace, ops)
        import_s = sim_result["import_s"]
        if sim_result["probes"]:
            inputs["probes_resolved"] = sim_result["probes"]
    host["loadavg_end"] = loadavg()

    plain = [p for p in passes if not p["traced"]]
    job_s = tail([p["ref_s"] for p in plain])
    e2e = {
        "job_s": job_s["median"],
        "setup_s": statistics.median(ref for _, ref in setup),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
    }
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "inputs": inputs,
        "host": host,
        "job_s": job_s,
        "job_wall_s": tail([p["wall_s"] for p in plain]),
        "setup_s_samples": [ref for _, ref in setup],
        "setup_wall_s_samples": [wall for wall, _ in setup],
        "ops": ops.attempted,
        "ops_failed": ops.failed,
        "ops_failed_ratio": ops.failed / ops.attempted,
        "failures": ops.messages,
        "passes": passes,
    }
    if workload not in gen.SWEEPS:
        report["kslots_per_s"] = tail([p["kslots_per_s"] for p in plain])
    if trace:
        metrics, absent, spans = layer_metrics(work, passes, import_s, workload, spec["per_layer"])
        report["absent"] = absent
        report["span_counts"] = spans
    else:
        metrics = {
            m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
        }
    report["metrics"] = metrics
    shutil.rmtree(work / "trace", ignore_errors=True)
    (work / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def print_report(report: dict) -> None:
    w = report["workload"]
    print(f"== {w}  seed={report['seed']}  trace={report['trace']}  "
          f"passes={len(report['passes'])}  host={report['host']}")
    if not report["trace"]:
        js = report["job_s"]
        extra = ", ".join(f"{k}={v:.4f}" for k, v in js.items() if k.startswith("p"))
        print(f"  job_s            {js['median']:.4f} s  (reference seconds, median of "
              f"{js['n']} passes{'; ' + extra if extra else ''}; "
              f"wall median {report['job_wall_s']['median']:.4f} s)")
        if "kslots_per_s" in report:
            ks = report["kslots_per_s"]
            print(f"  kslots_per_s     {ks['median']:.2f} kslots/s  (median of {ks['n']} passes)")
        else:
            print("  kslots_per_s     n/a kslots/s  (no simulation on this workload)")
        for name in ("setup_s", "peak_rss_mb"):
            m = report["metrics"][name]
            print(f"  {name:<16} {m['value']:.4f} {m['unit']}")
    else:
        for name, m in report["metrics"].items():
            print(f"  {name:<52} {m['value']:.6g} {m['unit']}")
        for name, why in report["absent"].items():
            print(f"  absent: {name}: {why}")
    print(f"  ops_failed_ratio {report['ops_failed_ratio']:.4f} ratio  "
          f"({report['ops_failed']} of {report['ops']} ops)")
    for msg in report["failures"]:
        print(f"  FAILED {msg}")
    print("report: " + json.dumps(report, separators=(",", ":")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sweep grids, one set-up")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ramcast" / "__init__.py").is_file():
        print(f"run.py: no ramcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = []
        for w in workloads:
            reports.append(run_workload(w, args.seed, seconds, bool(args.trace), args.smoke, spec))
            print_report(reports[-1])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["ops"] for r in reports)
    failed = sum(r["ops_failed"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
