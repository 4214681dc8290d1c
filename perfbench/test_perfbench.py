"""Tests of the benchmark itself: python3 -m pytest perfbench -q

Smoke runs must print every metric BENCHMARK.json declares, with its
unit; corrupted outputs must be counted as failed ops, so the failure
gate cannot pass silently.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _smoke(workload: str, trace: str) -> subprocess.CompletedProcess:
    return _run(
        "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke"
    )


@pytest.mark.parametrize("workload", ["figure-k50", "fine-grid", "sim-saturated", "sim-arrivals"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_declared_metric(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_figure_trace_counts_every_chain_solve():
    proc = _smoke("figure-k50", "1")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    # Smoke step 0.1: 11 x 11 grid points, two sources, five K values.
    assert metrics["rlc_markov.service_rate.calls"]["value"] == 2 * 121 * 5
    assert metrics["rlc_markov.build_chain.cold_s.K50"]["value"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        "--workload", "fine-grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _frontier_csv(path: Path, xs, ys) -> None:
    rows = ["kind,K,p1,p2,x,y"]
    rows += [f"rlc,1,0.5,0.5,{float(x)!r},{float(y)!r}" for x, y in zip(xs, ys)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _figure_dir(tmp_path: Path, corrupt: str | None = None) -> Path:
    xs = np.linspace(0.0, 0.5, 11)
    outer = 0.5 - xs
    out = tmp_path / "figure"
    out.mkdir()
    _frontier_csv(out / "capacity.csv", xs, outer)
    _frontier_csv(out / "retrans.csv", xs[:-1], 0.8 * outer[:-1])
    for n, K in enumerate((1, 2)):
        ys = (0.7 + 0.1 * n) * outer[:-1]
        if corrupt == f"rlc_K{K}":
            ys[3], ys[4] = ys[4], ys[3]  # no longer strictly decreasing
        _frontier_csv(out / f"rlc_K{K}.csv", xs[:-1], ys)
    return out


def test_valid_frontiers_pass(tmp_path):
    assert verify.check_figure(_figure_dir(tmp_path), 0.05, (1, 2), None) == []


def test_corrupted_frontier_counts_as_failed_op(tmp_path):
    ops = run.Ops()
    out = _figure_dir(tmp_path, corrupt="rlc_K2")
    ops.record("figure", lambda: verify.check_figure(out, 0.05, (1, 2), None))
    assert (ops.attempted, ops.failed) == (1, 1)
    assert "rlc_K2" in ops.messages[0]


def test_frontier_off_reference_counts_as_failed_op(tmp_path):
    out = _figure_dir(tmp_path)
    ref = {n: verify.summarize(*verify.read_frontier_csv(out / f"{n}.csv"))
           for n in ("capacity", "retrans", "rlc_K1", "rlc_K2")}
    assert verify.check_figure(out, 0.05, (1, 2), ref) == []
    moved = copy.deepcopy(ref)
    moved["retrans"]["y"][2] += 1e-8
    ops = run.Ops()
    ops.record("figure", lambda: verify.check_figure(out, 0.05, (1, 2), moved))
    assert ops.failed == 1


def test_missing_output_counts_as_failed_op(tmp_path):
    ops = run.Ops()
    ops.record("figure", lambda: verify.check_figure(tmp_path / "nothing", 0.05, (1, 2), None))
    assert ops.failed == 1 and "FileNotFoundError" in ops.messages[0]


def test_capacity_grid_flags_must_be_the_pareto_set():
    grid = np.array(
        [[0, 0, 0.1, 0.5, 1], [0, 1, 0.3, 0.3, 1], [1, 0, 0.5, 0.1, 1], [1, 1, 0.2, 0.2, 0]],
        dtype=float,
    )
    assert verify.check_capacity_grid(grid) == []
    bad = grid.copy()
    bad[3, 4] = 1  # a dominated point flagged as frontier
    assert verify.check_capacity_grid(bad)


def test_perturbed_sim_result_counts_as_failed_op():
    cell = {"rates": [[0.2710, 0.0012], [0.2705, 0.0011]]}
    analytic = (0.27123, 0.27123)
    ops = run.Ops()
    ops.record("ok", lambda: verify.check_saturated_cell("ok", cell, analytic))
    perturbed = {"rates": [[0.2710 * 1.05, 0.0012], [0.2705, 0.0011]]}
    ops.record("perturbed", lambda: verify.check_saturated_cell("perturbed", perturbed, analytic))
    assert (ops.attempted, ops.failed) == (2, 1)
    assert "perturbed source 1" in ops.messages[0]


def test_probe_checks_verdict_and_conservation():
    assert verify.check_verdict("p", True, 0.7) == []
    assert verify.check_verdict("p", True, 1.3)  # stable where unstable is expected
    assert verify.check_conservation("p", [[100, 95, 5], [80, 80, 0]]) == []
    ops = run.Ops()
    ops.record("leaky", lambda: verify.check_conservation("leaky", [[100, 94, 5], [80, 80, 0]]))
    assert ops.failed == 1 and "leaky source 1" in ops.messages[0]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["1:0", None, "a", 0, 0.0, 10.0, {}],
        ["2:0", "1:0", "b", 0, 1.0, 5.0, {}],
        ["3:0", "1:0", "b", 0, 3.0, 6.0, {}],  # overlaps its sibling in another process
        ["1:1", "1:0", "c", 0, 8.0, 9.0, {}],
    ]
    selfs = tracing.self_times(spans)
    assert selfs["1:0"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs["2:0"] == pytest.approx(4.0)
    metrics = tracing.job_metrics(spans)
    assert metrics["b.calls"] == 2 and metrics["b.self_s"] == pytest.approx(7.0)


def test_pareto_points_in_leaves_the_argument_alone(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import ramcast.capacity
    import ramcast.regions

    seen = []
    original = ramcast.regions.pareto_frontier

    def spy(points):
        seen.append(points)
        return original(points)

    bindings = [(m, "pareto_frontier") for m in (ramcast, ramcast.regions, ramcast.capacity)]
    bindings = [(m, a) for m, a in bindings if getattr(m, a, None) is original]
    tracer = tracing.Tracer(tmp_path, 0)
    try:
        for module, attr in bindings:
            setattr(module, attr, spy)
        tracer.install()
        channel = ramcast.load_channel("strong_mpr")
        ramcast.capacity.capacity_sweep(channel, 0.05)  # passes an iterator over 21 x 21 points
        listed = [(0.1, 0.5, 0.0, 1.0), (0.5, 0.1, 1.0, 0.0), (0.2, 0.2, 0.5, 0.5)]
        assert len(ramcast.regions.pareto_frontier(listed)) == 3
    finally:
        tracer.uninstall()
        for module, attr in bindings:
            setattr(module, attr, original)
    assert len(seen) == 2 and seen[1] is listed
    metrics = tracing.job_metrics(tracer.spans)
    assert metrics["regions.pareto_frontier.calls"] == 2
    assert metrics["regions.pareto_frontier.points_in"] == 21 * 21 + 3
