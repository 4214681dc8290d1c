#!/usr/bin/env python3
"""Record the frontier values the sweep checks compare against.

    python3 perfbench/record_reference.py 0-23 42

For each seed, runs the CLI jobs of the figure-k50 and fine-grid
workloads on the seed's generated channel, exactly as the benchmark
runs them (``gen.cli_jobs`` through ``job.py cli``), reads the CSVs they
write and stores verify.summarize() of each frontier in
perfbench/reference.json (merged with the seeds already there).  Run it
only when a change is meant to move frontier values, and say so with
the change.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402


def _run_jobs(inputs: dict, work: Path) -> Path:
    """Run one pass of the workload's CLI jobs; the directory they wrote to."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    channel_file = work / "channel.json"
    channel_file.write_text(json.dumps(inputs["channel"]), encoding="utf-8")
    out_dir = work / "out"
    for _, argv in gen.cli_jobs(inputs, str(channel_file), str(out_dir)):
        subprocess.run(
            [sys.executable, str(HERE / "job.py"), "cli", "--job", "0", "--", *argv],
            env=run.child_env(), cwd=run.ROOT, check=True, timeout=run.JOB_TIMEOUT_S,
        )
    return out_dir


def record(seed: int, work: Path) -> dict:
    inputs = gen.make_inputs("figure-k50", seed)
    out_dir = _run_jobs(inputs, work) / "figure"
    names = ["capacity", "retrans"] + [f"rlc_K{k}" for k in inputs["K_list"]]
    out = {
        "figure-k50": {
            n: verify.summarize(*verify.read_frontier_csv(out_dir / f"{n}.csv")) for n in names
        }
    }
    out_dir = _run_jobs(gen.make_inputs("fine-grid", seed), work)
    grid = verify.read_capacity_csv(out_dir / "capacity.csv")
    out["fine-grid"] = {
        "capacity": verify.summarize(*verify.capacity_frontier(grid)),
        "retrans": verify.summarize(*verify.read_frontier_csv(out_dir / "retrans.csv")),
    }
    shutil.rmtree(work)
    return out


def parse_seeds(args: list[str]) -> list[int]:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str]) -> int:
    seeds = parse_seeds(argv)
    data = json.loads(verify.REFERENCE.read_text()) if verify.REFERENCE.exists() else {}
    work = run.OUT_ROOT / "record-reference"
    for seed in seeds:
        for workload, fronts in record(seed, work).items():
            data.setdefault(workload, {})[str(seed)] = fronts
        print(f"recorded seed {seed}", flush=True)
    verify.REFERENCE.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
