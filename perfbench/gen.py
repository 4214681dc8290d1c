"""Workload definitions and the seeded input generator.

The seed draws everything the program sees: the asymmetric channel of
the sweep workloads (written as the JSON config file ``--channel``
accepts) and the ``SimConfig.seed`` of the simulator workloads.  The
same seed always gives the same inputs; ``random.Random`` is used so the
draw does not depend on the numpy version.
"""
from __future__ import annotations

import random

WORKLOADS = ("figure-k50", "fine-grid", "sim-saturated", "sim-arrivals")
SWEEPS = ("figure-k50", "fine-grid")

FIGURE_K_LIST = (1, 2, 5, 10, 50)
FIGURE_STEP = 0.05
FINE_STEP = 0.001
# Smoke mode only shrinks the sweep grids; metric names stay the same.
SMOKE_STEP = {"figure-k50": 0.1, "fine-grid": 0.01}

# (policy, K, p) cells of sim-saturated, all on strong_mpr at p1 = p2 = p.
SATURATED_CELLS = (
    ("retrans", 1, 0.5),
    ("retrans", 1, 1.0),
    ("rlc", 1, 0.5),
    ("rlc", 4, 0.5),
    ("rlc", 50, 0.5),
)
# (policy, K) probes of sim-arrivals on strong_mpr at p = (0.5, 0.5).
PROBES = (("retrans", 1), ("rlc", 4))
PROBE_P = 0.5
PROBE_FACTORS = (0.7, 1.3)  # lambda1 as a share of the analytic boundary
LAMBDA2_SHARE = 0.8  # lambda2 as a share of mu_2b
SIM_SLOTS = 200_000

# The channel is a seeded perturbation of one asymmetric base channel:
# each entry moves by up to CHANNEL_JITTER.  A wide range would make the
# sweeps' work depend on the seed (the Pareto sort and the CSV text change
# with the channel) and widen the run-to-run spread beyond the bounds.
BASE_SOLO = ((0.85, 0.70), (0.75, 0.80))
BASE_JOINT = ((0.50, 0.35), (0.40, 0.60))
CHANNEL_JITTER = 0.04
MIN_ASYMMETRY = 0.05


def draw_channel(seed: int) -> dict[str, float]:
    """An asymmetric channel in the flat ``q_solo.n.m`` / ``q_joint.n.m`` form.

    Asymmetric means source 1's links differ from source 2's mirrored
    links by at least MIN_ASYMMETRY somewhere, so an optimisation that
    assumes symmetric sources gives wrong frontiers.
    """
    rng = random.Random(seed)

    def jitter(base):
        return [
            [round(v + rng.uniform(-CHANNEL_JITTER, CHANNEL_JITTER), 6) for v in row]
            for row in base
        ]

    while True:
        solo, joint = jitter(BASE_SOLO), jitter(BASE_JOINT)
        asym = max(
            abs(q[0][m] - q[1][1 - m]) for q in (solo, joint) for m in (0, 1)
        )
        if asym >= MIN_ASYMMETRY:
            break
    out = {}
    for n in (1, 2):
        for m in (1, 2):
            out[f"q_solo.{n}.{m}"] = solo[n - 1][m - 1]
            out[f"q_joint.{n}.{m}"] = joint[n - 1][m - 1]
    return out


def make_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    """Everything a run of ``workload`` feeds the program, as plain JSON data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inputs: dict = {"workload": workload, "seed": seed, "smoke": smoke}
    if workload == "figure-k50":
        inputs["channel"] = draw_channel(seed)
        inputs["step"] = SMOKE_STEP[workload] if smoke else FIGURE_STEP
        inputs["K_list"] = list(FIGURE_K_LIST)
    elif workload == "fine-grid":
        inputs["channel"] = draw_channel(seed)
        inputs["step"] = SMOKE_STEP[workload] if smoke else FINE_STEP
    elif workload == "sim-saturated":
        inputs["channel"] = "strong_mpr"
        inputs["cells"] = [list(c) for c in SATURATED_CELLS]
        inputs["slots"] = SIM_SLOTS
        inputs["sim_seed"] = seed
    else:
        inputs["channel"] = "strong_mpr"
        inputs["probes"] = [list(p) for p in PROBES]
        inputs["p"] = PROBE_P
        inputs["factors"] = list(PROBE_FACTORS)
        inputs["lambda2_share"] = LAMBDA2_SHARE
        inputs["slots"] = SIM_SLOTS
        inputs["sim_seed"] = seed
    return inputs


def cli_jobs(inputs: dict, channel_file: str, out_dir: str) -> list[tuple[str, list[str]]]:
    """The CLI invocations of one pass of a sweep workload: (label, argv)."""
    step = repr(inputs["step"])
    if inputs["workload"] == "figure-k50":
        k_list = ",".join(str(k) for k in inputs["K_list"])
        return [
            (
                "figure",
                ["figure", "--channel", channel_file, "--K-list", k_list,
                 "--step", step, "--out", f"{out_dir}/figure"],
            )
        ]
    return [
        (
            "capacity",
            ["capacity", "--channel", channel_file, "--step", step,
             "--out", f"{out_dir}/capacity.csv"],
        ),
        (
            "region",
            ["region", "--kind", "retrans", "--channel", channel_file,
             "--step", step, "--out", f"{out_dir}/retrans.csv"],
        ),
    ]
