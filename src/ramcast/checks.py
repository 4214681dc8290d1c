"""Cross-validation suite: formula vs enumeration, analytic vs Monte
Carlo, containment and determinism properties.

Each check returns a :class:`CheckResult`; the ``check`` CLI command and
the acceptance test module both drive these functions (the tests at the
full sizes, ``--quick`` at reduced ones).
"""
from __future__ import annotations

import contextlib
import io
import itertools
import tempfile
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .channel import AccessProbabilities, collision_channel, strong_mpr, weak_mpr
from .gf2 import basis_insert, expected_decode_count, rank_cdf_fraction
from .regions import (
    StabilityRegion,
    frontier_excess,
    frontier_value,
    stability_region_at,
    sweep,
)
from .retrans import retrans_service_rates
from .rlc_markov import build_chain, service_rate
from .sim import SimConfig, run as sim_run, stability_probe

__all__ = ["CheckResult", "chain_vs_sim", "run_checks"]

_CHANNELS = (("strong_mpr", strong_mpr), ("weak_mpr", weak_mpr))
_SEED = 42  # every simulated check
_VARIANT = "paper"  # the published chain, for dominance and figure structure
_SAMPLES_PER_EDGE = 9  # stability-region boundary samples per edge
_SLACK = 1e-12  # rounding tolerance of a containment on the access axis


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    rows: list[dict] = field(default_factory=list)
    # Why the check is expected to fail, for a known defect of its claim.
    xfail_reason: str = ""


_GAP_XFAIL = (
    "the 5% threshold is unattainable at K=50: expected-max coupling keeps the "
    "gap near 8%, and the smallest K that meets it is 102 (exact chain, step 0.05)"
)


def _enumerate_full_rank(K: int, j: int) -> Fraction:
    """Fraction of all 2^(K*j) binary K x j matrices with rank K."""
    total = 1 << (K * j)
    full = 0
    ncols = 1 << K
    for cols in itertools.product(range(ncols), repeat=j):
        basis = [0] * (K + 1)
        r = 0
        for v in cols:
            r += basis_insert(basis, v)
            if r == K:
                break
        if r == K:
            full += 1
    return Fraction(full, total)


def check_rank_distribution(kmax: int = 3, jmax: int = 6) -> CheckResult:
    """Criterion 1: rank cdf formula equals exhaustive enumeration exactly."""
    for K in range(1, kmax + 1):
        for j in range(0, jmax + 1):
            expected = _enumerate_full_rank(K, j)
            got = rank_cdf_fraction(K, j)
            if got != expected:
                return CheckResult(
                    "rank-distribution",
                    False,
                    f"F_{K}({j}) = {got} but enumeration gives {expected}",
                )
    return CheckResult(
        "rank-distribution",
        True,
        f"exact rational match with enumeration up to K={kmax}, j={jmax}",
    )


def check_retrans_oracle(
    slots: int = 1_000_000, p_values: tuple[float, ...] = (0.3, 0.5, 1.0)
) -> CheckResult:
    """Criterion 2: closed-form backlogged rates vs saturated simulation."""
    worst_z = 0.0
    checked = 0
    for cname, cfun in _CHANNELS:
        channel = cfun()
        for p1 in p_values:
            for p2 in p_values:
                checked += 1
                access = AccessProbabilities(p1, p2)
                ana = retrans_service_rates(channel, access)
                res = sim_run(
                    SimConfig(
                        channel=channel,
                        access=access,
                        policy="retrans",
                        slots=slots,
                        seed=_SEED,
                        mode="saturated",
                    )
                )
                for n in (0, 1):
                    src = res.sources[n]
                    z = abs(ana.backlogged[n] - src.departure_rate) / src.stderr
                    worst_z = max(worst_z, z)
                    if z > 3.0:
                        return CheckResult(
                            "retrans-oracle",
                            False,
                            f"{cname} p=({p1},{p2}) source {n + 1}: "
                            f"analytic {ana.backlogged[n]:.6f} vs sim "
                            f"{src.departure_rate:.6f} (z={z:.2f})",
                        )
    return CheckResult(
        "retrans-oracle",
        True,
        f"{checked} channel/p combinations within 3 stderr (worst z={worst_z:.2f})",
    )


def chain_vs_sim(
    channel, access: AccessProbabilities, K: int, slots: int, seed: int
) -> list[dict]:
    """Both chain variants' mu_b against one saturated RLC simulation.

    Returns one record per (variant, source), variant-major: the chain
    rate ``mu`` (p_own * g_n(p_other), as ``rlc_service_rates`` gives
    it), the simulated departure rate ``sim`` and its ``stderr``, the
    signed relative error ``rel`` = (mu - sim) / sim (NaN where sim is
    0), the ``z`` score |mu - sim| / stderr (inf where stderr is 0), and
    ``resid``, the largest row-sum residual of the chain ``mu`` comes
    from.
    """
    res = sim_run(
        SimConfig(
            channel=channel,
            access=access,
            policy="rlc",
            K=K,
            slots=slots,
            seed=seed,
            mode="saturated",
        )
    )
    records = []
    for variant in ("paper", "exact"):
        for source in (1, 2):
            chain = build_chain(channel, access, source, True, K, variant)
            src = res.sources[source - 1]
            mu, sim = service_rate(chain), src.departure_rate
            records.append(
                {
                    "variant": variant,
                    "source": source,
                    "mu": mu,
                    "sim": sim,
                    "stderr": src.stderr,
                    "rel": (mu - sim) / sim if sim else float("nan"),
                    "z": abs(mu - sim) / src.stderr if src.stderr else float("inf"),
                    "resid": float(np.abs(chain.row_sums() - 1.0).max()),
                }
            )
    return records


def check_rlc_oracle(
    slots: int = 1_000_000,
    Ks: tuple[int, ...] = (1, 2, 4),
    p_values: tuple[float, ...] = (0.3, 0.5, 1.0),
) -> CheckResult:
    """Criterion 3: chain service rates vs saturated RLC simulation.

    The published transition table is checked first; rows where it
    misses the 3-stderr/1%-relative oracle are reported together with
    the corrected (exact-intersection) chain, which must restore the
    check.  The rows are ``chain_vs_sim``'s records, each with its
    ``channel``, ``K``, ``p1`` and ``p2`` and an ``ok`` flag; the row sums
    must be 1 within 1e-12.
    """
    rows: list[dict] = []
    for cname, cfun in _CHANNELS:
        channel = cfun()
        for K, p1, p2 in itertools.product(Ks, p_values, p_values):
            for r in chain_vs_sim(channel, AccessProbabilities(p1, p2), K, slots, _SEED):
                ok = r["z"] <= 3.0 and abs(r["rel"]) <= 0.01 and r["resid"] <= 1e-12
                rows.append({"channel": cname, "K": K, "p1": p1, "p2": p2, **r, "ok": ok})
    worst_resid = max(r["resid"] for r in rows)
    paper = [r for r in rows if r["variant"] == "paper"]
    n_fail = sum(1 for r in paper if not r["ok"])
    exact_ok = all(r["ok"] for r in rows if r["variant"] == "exact")
    if n_fail == 0:
        detail = (
            f"published chain matches simulation at all {len(paper)} points "
            f"(max row-sum residual {worst_resid:.2e})"
        )
        return CheckResult("rlc-chain-oracle", True, detail, rows)
    detail = (
        f"published chain misses the 3-stderr/1% oracle at {n_fail}/{len(paper)} "
        f"points (documented: its interior rows approximate the span overlap "
        f"by the shared-packet count); corrected exact-intersection chain "
        f"{'restores all points' if exact_ok else 'ALSO FAILS'} "
        f"(max row-sum residual {worst_resid:.2e})"
    )
    return CheckResult("rlc-chain-oracle", exact_ok, detail, rows)


def _axis(kind: str, channel, step: float, K: int | None = None, variant: str = _VARIANT):
    """(g, frontier) of a region kind: g[n - 1] is g_n(q) = mu_n(1, q) on the
    sweep's grid, which ends at 1.0, so g_1 is mu1's last row and g_2 mu2's
    last column (every rate is p_own * g_n(p_other), ``factored_rates``)."""
    _, mu1, mu2, frontier = sweep(kind, channel, step, K, variant)
    return np.stack((mu1[-1], mu2[:, -1])), frontier


def _axis_gaps(outer: np.ndarray, inner: np.ndarray) -> tuple[np.ndarray, bool]:
    """g_outer - g_inner, and whether the outer region contains the inner:
    exactly when g_inner <= g_outer for both sources (up to rounding), as
    the outer rates then dominate the inner ones at every (p1, p2)."""
    gaps = outer - inner
    return gaps, bool(gaps.min() >= -_SLACK)


def check_jensen_dominance(
    step: float = 0.05, Ks: tuple[int, ...] = (1, 4, 16)
) -> CheckResult:
    """Criterion 4: capacity bound dominates both policies on the grid,
    decided on the axis, where p_own = 1 attains each largest gap."""
    summary = []
    cells = [("retrans", "retrans", None)] + [(f"rlc(K={K})", "rlc", K) for K in Ks]
    for cname, cfun in _CHANNELS:
        channel = cfun()
        c = _axis("capacity", channel, step)[0]
        for label, kind, K in cells:
            gaps, inside = _axis_gaps(c, _axis(kind, channel, step, K)[0])
            if not inside:
                return CheckResult(
                    "jensen-dominance", False, f"{label} exceeds capacity bound on {cname}"
                )
            gap = float(gaps.max(axis=1).min())
            if gap <= 0:
                return CheckResult(
                    "jensen-dominance", False, f"{label} gap not strictly positive on {cname}"
                )
            summary.append(f"{cname} {label} max gap {gap:.4f}")
    return CheckResult(
        "jensen-dominance",
        True,
        "mu <= capacity bound with 1e-12 slack at every grid point; " + "; ".join(summary),
    )


def check_figure_structure(
    step: float = 0.05, K_list: tuple[int, ...] = (1, 2, 5, 10, 50)
) -> CheckResult:
    """Criterion 5: structural reproduction of the region figures.

    On both presets and the collision channel, the containment chain
    (capacity over retransmission and over each listed rlc K, rlc K inside
    the next K) is decided on the axis by ``_axis_gaps``; the detail gives
    each channel's smallest margin.  The clauses that are not pointwise
    compare the frontiers ``figure`` writes: the strict capacity gap at
    the largest K, and the small-K crossover where retransmissions beat
    rlc on the strong channel.
    """
    details = []
    for cname, cfun in _CHANNELS + (("collision", collision_channel),):
        channel = cfun()
        capacity, cap_front = _axis("capacity", channel, step)
        retrans, retrans_front = _axis("retrans", channel, step)
        rlc, rlc_front = {}, {}
        for k in K_list:
            rlc[k], rlc_front[k] = _axis("rlc", channel, step, k)
        ks = sorted(rlc)
        # The containment chain, each link as (outer, inner, name).
        chain = [(capacity, retrans, "capacity over retrans")]
        chain += [(capacity, rlc[k], f"capacity over rlc K={k}") for k in K_list]
        chain += [(rlc[b], rlc[a], f"rlc K={b} over K={a}") for a, b in zip(ks, ks[1:])]
        margins = []
        for outer, inner, link in chain:
            gaps, inside = _axis_gaps(outer, inner)
            if not inside:
                failure = f"{link} fails on {cname}: g exceeds by {-gaps.min():.3e} on the axis"
                return CheckResult("figure-structure", False, failure)
            margins.append((float(gaps.min()), link))
        details.append("{} smallest margin {:.2e} ({})".format(cname, *min(margins)))
        # Strict containment: the capacity region exceeds both policies.
        front = rlc_front[max(K_list)]
        strict_gap = float(np.max(frontier_value(cap_front, front.x) - front.y))
        if strict_gap <= 0:
            return CheckResult("figure-structure", False, f"no strict capacity gap on {cname}")
        if cname == "strong_mpr":
            # Small-K crossover: retransmissions beat rlc somewhere.
            k0 = min(K_list)
            cross = float(frontier_excess(rlc_front[k0], retrans_front.x, retrans_front.y).max())
            if cross <= 0:
                failure = f"no crossover: retrans never exceeds rlc K={k0} on strong_mpr"
                return CheckResult("figure-structure", False, failure)
            crossover = f"retrans exceeds rlc(K={k0}) by up to {cross:.4f}"
    return CheckResult(
        "figure-structure",
        True,
        "containment chain and K-monotonicity hold on the access axis within 1e-12 "
        f"on every channel; {'; '.join(details)}; {crossover}",
    )


def check_figure_gap(
    step: float = 0.05, K: int = 50, variant: str = "exact", threshold: float = 0.05
) -> CheckResult:
    """Criterion 5, large-K gap clause: capacity minus rlc(K=50) within 5%.

    Measured on the strong channel as the relative shortfall 1 - g/c of
    the rlc rate against the capacity bound on the axis (p_own cancels).
    The shortfall decomposes into the decode-count
    overhead E[N]/K - 1 (3.21% at K=50) plus the expected-max
    coupling penalty across the two destinations, which decays only like
    1/sqrt(K) and contributes about 5% at K=50 where the two
    destination rates coincide, so the true gap is near 8% and the 5%
    threshold is unattainable at K=50 (the smallest K that meets it is
    102, with the exact chain at step 0.05).
    The simulator confirms the chain value, leaving the threshold itself
    as the defect; the check reports the measured gap.
    """
    c = _axis("capacity", strong_mpr(), step)[0]
    g = _axis("rlc", strong_mpr(), step, K, variant)[0]
    live = c > 1e-9
    rel_gap = float(np.max((c[live] - g[live]) / c[live]))
    passed = rel_gap <= threshold
    return CheckResult(
        "figure-k50-gap",
        passed,
        f"max relative gap capacity vs rlc(K={K}, {variant}) is {rel_gap:.2%} "
        f"(threshold {threshold:.0%}; expected-max coupling makes ~8% the true "
        f"floor at K=50)",
    )


def check_overhead_limit() -> CheckResult:
    """Criterion 6: decode-count overhead E[N]/K bounds."""
    e1 = expected_decode_count(1)
    if abs(e1 - 2.0) > 1e-12:
        return CheckResult("overhead-limit", False, f"E[N] at K=1 is {e1!r}, expected 2")
    ratios = {K: expected_decode_count(K) / K for K in range(1, 65)}
    bad = [K for K, r in ratios.items() if not 1.0 <= r <= 2.0]
    if bad:
        return CheckResult("overhead-limit", False, f"E[N]/K outside [1, 2] at K={bad}")
    if ratios[64] > 1.05:
        return CheckResult(
            "overhead-limit", False, f"E[N]/K at K=64 is {ratios[64]:.4f} > 1.05"
        )
    return CheckResult(
        "overhead-limit",
        True,
        f"E[N]=2 at K=1; 1 <= E[N]/K <= 2 for K <= 64; ratio at 64 = {ratios[64]:.4f}",
    )


def check_stability_boundary(slots: int = 1_000_000) -> CheckResult:
    """Criterion 7: bisection on lambda1 localizes the stability boundary."""
    channel = strong_mpr()
    access = AccessProbabilities(0.5, 0.5)
    rates = retrans_service_rates(channel, access)
    lam2 = 0.8 * rates.backlogged[1]
    predicted = stability_region_at(rates).lambda1_bound(lam2)

    def stable_at(lam1: float) -> bool:
        verdicts = stability_probe(
            channel, access, "retrans", [(lam1, lam2)], slots=slots, seed=_SEED
        )
        return verdicts[0].stable

    lo, hi = 0.5 * predicted, 1.5 * predicted
    if not stable_at(lo):
        return CheckResult(
            "stability-boundary", False, f"lambda1={lo:.4f} flagged unstable"
        )
    if stable_at(hi):
        return CheckResult(
            "stability-boundary", False, f"lambda1={hi:.4f} flagged stable"
        )
    for _ in range(7):
        mid = 0.5 * (lo + hi)
        if stable_at(mid):
            lo = mid
        else:
            hi = mid
    estimate = 0.5 * (lo + hi)
    rel = abs(estimate - predicted) / predicted
    passed = rel <= 0.05
    return CheckResult(
        "stability-boundary",
        passed,
        f"bisection boundary {estimate:.4f} vs predicted {predicted:.4f} "
        f"({rel:.2%} off)",
    )


def _closure_overshoot(channel, policy: str, K: int | None, step: float) -> float:
    """Worst distance by which a per-point stability region leaves the frontier.

    One ``StabilityRegion`` holds every grid point's region; each of its
    ``edges`` is sampled where present and measured against the policy's
    swept frontier polyline by ``frontier_excess``.  The empty rates come
    from the same sweep: an empty competitor has access probability 0,
    which the grid starts with, so mu_1e(p1) is the sweep's first column
    and mu_2e(p2) its first row.
    """
    _, mu1b, mu2b, frontier = sweep(policy, channel, step, K, _VARIANT)
    region = StabilityRegion(mu_1b=mu1b, mu_2b=mu2b, mu_1e=mu1b[:, :1], mu_2e=mu2b[:1, :])
    t = np.linspace(0.0, 1.0, _SAMPLES_PER_EDGE)[:, None, None]
    xs, ys = [], []
    for (x0, y0), (x1, y1), present in region.edges():
        xs.append((x0 + t * (x1 - x0))[:, present].ravel())
        ys.append((y0 + t * (y1 - y0))[:, present].ravel())
    over = frontier_excess(frontier, np.concatenate(xs), np.concatenate(ys))
    return float(over.max(initial=0.0))


def check_stability_closure(step: float = 0.05) -> CheckResult:
    """How far the per-point stability regions reach past the swept
    saturated-throughput frontier of (mu_1b, mu_2b), against the grid
    tolerance 2 * step.

    At step 0.05 the worst overshoot is 1.58e-3 on strong_mpr and 5.19e-3
    on weak_mpr, both for retransmission, and about 3e-16 on the
    collision channel: on the MPR presets the union of those regions is
    larger than the frontier, and only the tolerance makes the check
    pass.  Covered: retransmission and rlc K = 1, 4, 10 (published
    chain) on both presets and the collision channel.

    The union lies inside capacity for every policy with g_n <= c_n
    (Jensen), as c_n = min(phi_n, sigma_n) is concave in q: set 1's edge
    point at s = lambda2 / mu_2b has lambda1 = p1 [(1 - s) g1(0) + s g1(p2)]
    <= p1 [(1 - s) c1(0) + s c1(p2)] <= p1 c1(s p2) and
    lambda2 = s p2 g2(p1) <= s p2 c2(p1), so the capacity rates at
    (p1, s p2) dominate it; set 2's edge mirrors this at (s p1, p2).
    """
    tol = 2.0 * step
    cells = [("retrans", None)] + [("rlc", K) for K in (1, 4, 10)]
    worst = []
    for cname, cfun in _CHANNELS + (("collision", collision_channel),):
        channel = cfun()
        over, label = max(
            (_closure_overshoot(channel, policy, K, step), f"rlc K={K}" if K else policy)
            for policy, K in cells
        )
        if over > tol:
            return CheckResult(
                "stability-closure",
                False,
                f"{label} stability region exceeds the frontier by {over:.3e} "
                f"(> {tol:g}) on {cname}",
            )
        worst.append(f"{cname} {over:.2e} ({label})")
    return CheckResult(
        "stability-closure",
        True,
        f"per-point stability regions within {tol:g} of the frontier for retrans "
        f"and rlc K=1,4,10; worst overshoot " + ", ".join(worst),
    )


def check_determinism() -> CheckResult:
    """Criterion 8: identical command lines and seeds give byte-identical CSVs.

    The commands run in a temporary directory, with their stdout captured
    so that only the verdict is printed.
    """
    from .cli import main as cli_main

    commands = [
        ["capacity", "--channel", "strong_mpr", "--step", "0.05", "--out", "{}"],
        ["rankdist", "--K", "4", "--max-j", "12", "--out", "{}"],
        [
            "sim",
            "--channel",
            "weak_mpr",
            "--policy",
            "rlc",
            "--K",
            "2",
            "--p1",
            "0.5",
            "--p2",
            "0.5",
            "--slots",
            "20000",
            "--seed",
            "7",
            "--out",
            "{}",
        ],
        [
            "region",
            "--channel",
            "strong_mpr",
            "--kind",
            "retrans",
            "--step",
            "0.05",
            "--out",
            "{}",
        ],
    ]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for i, template in enumerate(commands):
            outs = []
            for rep in ("a", "b"):
                out = Path(tmp) / f"det_{i}_{rep}.csv"
                argv = [s.format(out) for s in template]
                rc = cli_main(argv)
                if rc != 0:
                    return CheckResult(
                        "determinism", False, f"command {template[0]} failed"
                    )
                outs.append(out.read_bytes())
            if outs[0] != outs[1]:
                return CheckResult(
                    "determinism",
                    False,
                    f"command {template[0]} produced differing bytes across reruns",
                )
    return CheckResult(
        "determinism", True, f"{len(commands)} commands byte-identical across reruns"
    )


def run_checks(quick: bool = False) -> list[CheckResult]:
    """Run the suite; quick mode shrinks Monte Carlo sizes and grids.

    The K=50 gap is the one expected failure, and quick mode skips it.
    """
    if quick:
        results = [
            check_rank_distribution(kmax=2, jmax=4),
            check_retrans_oracle(slots=100_000, p_values=(0.5, 1.0)),
            check_rlc_oracle(slots=100_000, Ks=(1, 2), p_values=(0.5,)),
            check_jensen_dominance(step=0.1, Ks=(1, 4)),
            check_figure_structure(step=0.1, K_list=(1, 2, 5, 10, 50)),
            check_overhead_limit(),
            check_stability_closure(step=0.1),
            check_determinism(),
        ]
    else:
        results = [
            check_rank_distribution(),
            check_retrans_oracle(),
            check_rlc_oracle(),
            check_jensen_dominance(),
            check_figure_structure(),
            replace(check_figure_gap(), xfail_reason=_GAP_XFAIL),
            check_overhead_limit(),
            check_stability_boundary(),
            check_stability_closure(),
            check_determinism(),
        ]
    return results
