"""Output checks.  Each returns a list of failure messages; empty means pass.

These read the CSVs the CLI wrote and the simulator numbers the sim job
returned, using numpy only, so a change inside ramcast cannot change
what they accept.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")
REFERENCE_TOL = 1e-9  # absolute, on rates in packets/slot
SIM_MAX_Z = 4.0
SIM_MAX_REL = 0.02
SUMMARY_SAMPLES = 11


def read_frontier_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of a region CSV with header kind,K,p1,p2,x,y, in file order."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[0] != "kind,K,p1,p2,x,y":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    xs = np.array([float(r[4]) for r in rows])
    ys = np.array([float(r[5]) for r in rows])
    return xs, ys


def read_capacity_csv(path: Path) -> np.ndarray:
    """The full capacity grid as an (n, 5) array: p1, p2, r1, r2, on_frontier."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    if header != "p1,p2,r1,r2,on_frontier":
        raise ValueError(f"{path}: unexpected header {header!r}")
    grid = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if grid.shape[1] != 5:
        raise ValueError(f"{path}: {grid.shape[1]} columns, expected 5")
    return grid


def check_sorted(name: str, xs: np.ndarray, ys: np.ndarray) -> list[str]:
    """A frontier lists x strictly increasing and y strictly decreasing."""
    if xs.size == 0:
        return [f"{name}: empty frontier"]
    bad = []
    if np.any(np.diff(xs) <= 0):
        bad.append(f"{name}: x not strictly increasing")
    if np.any(np.diff(ys) >= 0):
        bad.append(f"{name}: y not strictly decreasing")
    return bad


def check_contains(outer_name, outer, inner_name, inner, tol: float) -> list[str]:
    """Every inner point lies under the outer polyline within tol."""
    (ox, oy), (ix, iy) = outer, inner
    if np.any(ix > ox[-1] + tol):
        return [f"{inner_name} reaches past {outer_name} in x by more than {tol:g}"]
    bound = np.interp(np.minimum(ix, ox[-1]), ox, oy)
    excess = float(np.max(iy - bound))
    if excess > tol:
        return [f"{inner_name} exceeds {outer_name} by {excess:.3g} > {tol:g}"]
    return []


def pareto_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows whose (x, y) no other row dominates; one row per duplicate pair."""
    order = np.lexsort((-y, -x))  # x descending, then y descending
    ys = y[order]
    best_before = np.concatenate(([-np.inf], np.maximum.accumulate(ys)[:-1]))
    mask = np.zeros(x.size, dtype=bool)
    mask[order] = ys > best_before
    return mask


def check_capacity_grid(grid: np.ndarray) -> list[str]:
    """The flagged rows of the capacity CSV are exactly its Pareto-maximal rates."""
    r1, r2, flag = grid[:, 2], grid[:, 3], grid[:, 4] == 1
    maximal = pareto_mask(r1, r2)
    got = np.unique(np.stack([r1[flag], r2[flag]], axis=1), axis=0)
    want = np.unique(np.stack([r1[maximal], r2[maximal]], axis=1), axis=0)
    if int(flag.sum()) != got.shape[0]:
        return ["capacity: a frontier rate pair is flagged at more than one grid point"]
    if got.shape != want.shape or not np.array_equal(got, want):
        return [
            f"capacity: {got.shape[0]} flagged rows but {want.shape[0]} "
            "Pareto-maximal rate pairs, or different ones"
        ]
    return []


def capacity_frontier(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flagged rows of a capacity grid, ordered by x."""
    rows = grid[grid[:, 4] == 1]
    rows = rows[np.argsort(rows[:, 2], kind="stable")]
    return rows[:, 2], rows[:, 3]


def summarize(xs: np.ndarray, ys: np.ndarray) -> dict:
    """What reference.json records of a frontier: size, sums and sampled points.

    Not a digest: each entry is compared within REFERENCE_TOL, so a
    refactor that moves the last bits of some values still passes.
    """
    idx = np.unique(np.linspace(0, xs.size - 1, SUMMARY_SAMPLES).round().astype(int))
    return {
        "n": int(xs.size),
        "sum_x": float(xs.sum()),
        "sum_y": float(ys.sum()),
        "x": [float(v) for v in xs[idx]],
        "y": [float(v) for v in ys[idx]],
    }


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return data.get(workload, {}).get(str(seed))


def check_reference(name: str, summary: dict, ref: dict | None) -> list[str]:
    """Frontier values match those recorded for this seed within REFERENCE_TOL."""
    if ref is None:
        return []
    if summary["n"] != ref["n"]:
        return [f"{name}: {summary['n']} frontier points, reference has {ref['n']}"]
    worst = 0.0
    for key in ("sum_x", "sum_y"):
        worst = max(worst, abs(summary[key] - ref[key]))
    for key in ("x", "y"):
        worst = max(worst, max(abs(a - b) for a, b in zip(summary[key], ref[key])))
    if worst > REFERENCE_TOL:
        return [f"{name}: differs from the recorded reference by {worst:.3g}"]
    return []


def check_figure(out_dir: Path, step: float, k_list, ref: dict | None) -> list[str]:
    """All checks on one ``ramcast figure`` output directory."""
    tol = 2 * step
    names = ["capacity", "retrans"] + [f"rlc_K{k}" for k in k_list]
    fronts = {n: read_frontier_csv(out_dir / f"{n}.csv") for n in names}
    bad = []
    for n in names:
        bad += check_sorted(n, *fronts[n])
    if bad:
        return bad
    for n in names[1:]:
        bad += check_contains("capacity", fronts["capacity"], n, fronts[n], tol)
    rlc = names[2:]
    for small, big in zip(rlc, rlc[1:]):
        bad += check_contains(big, fronts[big], small, fronts[small], tol)
    for n in names:
        bad += check_reference(n, summarize(*fronts[n]), ref and ref[n])
    return bad


def check_fine_grid(cap_csv: Path, retrans_csv: Path, step: float, ref: dict | None):
    """Checks on one capacity job and one retrans region job.

    Returns (capacity failures, region failures); containment of the
    retrans frontier in the capacity frontier is charged to the region job.
    """
    grid = read_capacity_csv(cap_csv)
    n = int(round(1 / step)) + 1
    cap_bad = check_capacity_grid(grid)
    if grid.shape[0] != n * n:
        cap_bad.append(f"capacity: {grid.shape[0]} rows, expected {n * n}")
    cap = capacity_frontier(grid)
    cap_bad += check_sorted("capacity", *cap)
    cap_bad += check_reference("capacity", summarize(*cap), ref and ref["capacity"])
    ret = read_frontier_csv(retrans_csv)
    reg_bad = check_sorted("retrans", *ret)
    if not reg_bad and not cap_bad:
        reg_bad += check_contains("capacity", cap, "retrans", ret, 2 * step)
    reg_bad += check_reference("retrans", summarize(*ret), ref and ref["retrans"])
    return cap_bad, reg_bad


def check_rate(name: str, simulated: float, stderr: float, analytic: float) -> list[str]:
    """Simulated departure rate within SIM_MAX_Z stderr and SIM_MAX_REL of analytic."""
    if not (math.isfinite(simulated) and math.isfinite(stderr) and stderr > 0 and analytic > 0):
        return [f"{name}: unusable estimate rate={simulated!r} stderr={stderr!r} mu={analytic!r}"]
    z = abs(simulated - analytic) / stderr
    rel = abs(simulated - analytic) / analytic
    if z > SIM_MAX_Z or rel > SIM_MAX_REL:
        return [
            f"{name}: sim {simulated:.6f} vs analytic {analytic:.6f} (z={z:.2f}, rel={rel:.2%})"
        ]
    return []


def check_conservation(name: str, sources) -> list[str]:
    """Per source, [arrivals, departures, final_queue]: arrivals = departures + queue."""
    bad = []
    for n, (arrivals, departures, final_queue) in enumerate(sources):
        if arrivals != departures + final_queue:
            bad.append(
                f"{name} source {n + 1}: arrivals {arrivals} != departures {departures}"
                f" + queue {final_queue}"
            )
    return bad


def check_verdict(name: str, stable: bool, factor: float) -> list[str]:
    """Stable below the analytic boundary (factor < 1), unstable above it."""
    if stable != (factor < 1):
        want = "stable" if factor < 1 else "unstable"
        return [f"{name}: probe says {'stable' if stable else 'unstable'}, expected {want}"]
    return []


def check_saturated_cell(name: str, cell: dict, analytic) -> list[str]:
    """One sim-saturated cell: both sources against the analytic rates."""
    bad = []
    for n in (0, 1):
        rate, se = cell["rates"][n]
        bad += check_rate(f"{name} source {n + 1}", rate, se, analytic[n])
    return bad


def check_repeat(name: str, rates, first_rates) -> list[str]:
    """A pass with the same seed as pass 0 gives the same simulator results."""
    if rates != first_rates:
        return [f"{name}: differs from pass 0, which had the same seed"]
    return []
