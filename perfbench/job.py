"""Child processes of the benchmark; each runs in a fresh interpreter.

    job.py setup --inputs F        set up once, print {"ready": t, "import_s": s}
    job.py cli --job N [--trace-dir D] -- ARGV...
                                   run ``ramcast ARGV`` in this process
    job.py sim --inputs F --seconds T --trace 0|1 --trace-dir D --out R
                                   run simulator passes, write results to R

``--cpu N`` (before the subcommand) pins the process to one CPU, so the
benchmark knows which CPU's speed to sample.  ``run.py`` puts the
checkout's ``src`` on PYTHONPATH before starting these.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from tracing import Tracer


def _import_ramcast() -> float:
    t0 = time.perf_counter()
    import ramcast  # noqa: F401
    import ramcast.cli  # noqa: F401

    return time.perf_counter() - t0


def _probe_lambdas(ramcast, inputs: dict) -> list[dict]:
    """sim-arrivals probes: lambda2 = share * mu_2b, lambda1 = factor * boundary.

    The boundary comes from the retrans closed form or the exact chain.
    """
    channel = ramcast.load_channel(inputs["channel"])
    access = ramcast.AccessProbabilities(inputs["p"], inputs["p"])
    probes = []
    for policy, K in inputs["probes"]:
        if policy == "retrans":
            rates = ramcast.retrans_service_rates(channel, access)
        else:
            rates = ramcast.rlc_service_rates(channel, access, K, variant="exact")
        lam2 = inputs["lambda2_share"] * rates.backlogged[1]
        bound = ramcast.stability_region_at(rates).lambda1_bound(lam2)
        grid = [[f * bound, lam2] for f in inputs["factors"]]
        probes.append({"policy": policy, "K": K, "boundary": bound, "grid": grid})
    return probes


def cmd_setup(args) -> int:
    """Fresh interpreter until ready: import plus the workload's cold calls."""
    import_s = _import_ramcast()
    import ramcast
    from ramcast import sim

    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    workload = inputs["workload"]
    if workload in ("figure-k50", "fine-grid"):
        channel = ramcast.validate(ramcast.load_channel(inputs["channel_file"]))
        if workload == "figure-k50":
            access = ramcast.AccessProbabilities(0.5, 0.5)
            for K in inputs["K_list"]:
                ramcast.service_rate(ramcast.build_chain(channel, access, 1, True, K, "paper"))
    else:
        channel = ramcast.load_channel(inputs["channel"])
        if workload == "sim-saturated":
            cells = [(pol, K, p) for pol, K, p in inputs["cells"]]
        else:
            cells = [(pr["policy"], pr["K"], inputs["p"]) for pr in _probe_lambdas(ramcast, inputs)]
        mode = "saturated" if workload == "sim-saturated" else "arrivals"
        for policy, K, p in cells:
            sim.run(
                sim.SimConfig(
                    channel=channel,
                    access=ramcast.AccessProbabilities(p, p),
                    arrivals=ramcast.ArrivalRates(0.1, 0.1),
                    policy=policy,
                    K=K,
                    slots=1000,
                    seed=inputs["sim_seed"],
                    mode=mode,
                )
            )
    print(json.dumps({"ready": time.perf_counter(), "import_s": import_s}), flush=True)
    return 0


def cmd_cli(args) -> int:
    import_s = _import_ramcast()
    import ramcast.cli

    tracer = None
    if args.trace_dir:
        tracer = Tracer(args.trace_dir, args.job)
        tracer.install()
    try:
        return ramcast.cli.main(args.argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.flush()
            meta = Path(args.trace_dir) / f"meta-{args.job}.json"
            meta.write_text(json.dumps({"import_s": import_s}), encoding="utf-8")


def _timed(call):
    """Run call(); (result, start, end) in perf_counter time, which run.py shares."""
    t0 = time.perf_counter()
    result = call()
    return result, t0, time.perf_counter()


def _saturated_pass(ramcast, sim, inputs: dict) -> list[dict]:
    channel = ramcast.load_channel(inputs["channel"])
    out = []
    for policy, K, p in inputs["cells"]:
        config = sim.SimConfig(
            channel=channel,
            access=ramcast.AccessProbabilities(p, p),
            policy=policy,
            K=K,
            slots=inputs["slots"],
            seed=inputs["sim_seed"],
            mode="saturated",
        )
        res, t0, t1 = _timed(lambda: sim.run(config))
        out.append(
            {
                "name": f"{policy}.K{K}.p{p}",
                "t": [t0, t1],
                "slots": inputs["slots"],
                "rates": [[s.departure_rate, s.stderr] for s in res.sources],
            }
        )
    return out


def _arrivals_pass(ramcast, sim, inputs: dict, probes: list[dict]) -> list[dict]:
    channel = ramcast.load_channel(inputs["channel"])
    access = ramcast.AccessProbabilities(inputs["p"], inputs["p"])
    out = []
    for probe in probes:
        verdicts, t0, t1 = _timed(
            lambda: sim.stability_probe(
                channel,
                access,
                probe["policy"],
                [tuple(g) for g in probe["grid"]],
                slots=inputs["slots"],
                K=probe["K"],
                seed=inputs["sim_seed"],
            )
        )
        out.append(
            {
                "name": f"{probe['policy']}.K{probe['K']}",
                "t": [t0, t1],
                "slots": inputs["slots"] * len(probe["grid"]),
                "points": [
                    {"lambda": [v.lambda1, v.lambda2], "stable": v.stable} for v in verdicts
                ],
            }
        )
    return out


def _conservation(ramcast, sim, inputs: dict, probes: list[dict]) -> list[list]:
    """[arrivals, departures, final_queue] per source, per probe point.

    ``stability_probe`` returns verdicts only, so each probe point is run
    once more through ``sim.run`` in arrivals mode, with the probe's seed
    and slot count, outside the timed passes.
    """
    channel = ramcast.load_channel(inputs["channel"])
    access = ramcast.AccessProbabilities(inputs["p"], inputs["p"])
    out = []
    for probe in probes:
        per_point = []
        for lam1, lam2 in probe["grid"]:
            res = sim.run(
                sim.SimConfig(
                    channel=channel,
                    access=access,
                    arrivals=ramcast.ArrivalRates(lam1, lam2),
                    policy=probe["policy"],
                    K=probe["K"],
                    slots=inputs["slots"],
                    seed=inputs["sim_seed"],
                    mode="arrivals",
                )
            )
            per_point.append([[s.arrivals, s.departures, s.final_queue] for s in res.sources])
        out.append(per_point)
    return out


def cmd_sim(args) -> int:
    """Simulator passes for ``--seconds``; traced runs alternate plain and traced passes."""
    import_s = _import_ramcast()
    import ramcast
    from ramcast import sim

    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    saturated = inputs["workload"] == "sim-saturated"
    probes = None if saturated else _probe_lambdas(ramcast, inputs)

    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = None
        if traced:
            tracer = Tracer(args.trace_dir, len(passes))
            tracer.install()
        try:
            if saturated:
                cells = _saturated_pass(ramcast, sim, inputs)
            else:
                cells = _arrivals_pass(ramcast, sim, inputs, probes)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.flush()
        passes.append({"traced": traced, "cells": cells})
        need = 2 if args.trace else 1
        if len(passes) >= need and time.perf_counter() - start >= args.seconds:
            break

    # What the checks compare against, computed after the timed passes.
    conservation = None
    if saturated:
        channel = ramcast.load_channel(inputs["channel"])
        analytic = []
        for policy, K, p in inputs["cells"]:
            access = ramcast.AccessProbabilities(p, p)
            if policy == "retrans":
                rates = ramcast.retrans_service_rates(channel, access)
            else:
                rates = ramcast.rlc_service_rates(channel, access, K, variant="exact")
            analytic.append(list(rates.backlogged))
    else:
        analytic = None
        conservation = _conservation(ramcast, sim, inputs, probes)
    result = {
        "import_s": import_s,
        "passes": passes,
        "analytic": analytic,
        "probes": probes,
        "conservation": conservation,
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="job.py")
    parser.add_argument("--cpu", type=int)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--inputs", required=True)
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("cli")
    p.add_argument("--job", type=int, required=True)
    p.add_argument("--trace-dir")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_cli)
    p = sub.add_parser("sim")
    p.add_argument("--inputs", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-dir")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sim)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    if args.cmd == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
