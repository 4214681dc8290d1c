"""Slot-level Monte Carlo simulator of the two-queue multicast system.

This is the independent oracle for every analytic service rate in the
package: it draws per-slot transmissions, receptions and coefficient
vectors, tracks the actual GF(2) rank state at each destination, and
measures departure rates, service times, decode counts and queue drift.

Determinism: one named stream per random decision, spawned from the
config seed via ``numpy.random.SeedSequence(seed).spawn(10)`` in the
fixed order (arrivals 1, arrivals 2, transmit 1, transmit 2, reception
1->1, 1->2, 2->1, 2->2, coefficients 1, coefficients 2).  Streams are
consumed by slot index, so identical configs give bit-identical results.

Retransmission is simulated as a K = 1 generation whose receptions are
always innovative, so both policies share one service path; only RLC
draws coefficients and keeps GF(2) bases and decode counts.

Throughput runs track coefficient vectors only; payload bits never
influence timing and are exercised in the encode/decode round-trip
tests instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import AccessProbabilities, ArrivalRates, ChannelModel, validate
from .gf2 import _check_generation_size, basis_insert, draw_coefficients

__all__ = [
    "SimConfig",
    "SourceResult",
    "SimResult",
    "ProbeVerdict",
    "run",
    "stability_probe",
]

_BLOCK = 1 << 15
_RATE_BATCHES = 32
_DRIFT_BATCHES = 30


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: channel, access, policy and horizon."""

    channel: ChannelModel
    access: AccessProbabilities
    arrivals: ArrivalRates = ArrivalRates(0.0, 0.0)
    policy: str = "retrans"  # "retrans" | "rlc"
    K: int = 1
    slots: int = 1_000_000
    seed: int = 42
    mode: str = "saturated"  # "saturated" | "arrivals"

    def __post_init__(self) -> None:
        if self.policy not in ("retrans", "rlc"):
            raise ValueError(f"policy must be 'retrans' or 'rlc', got {self.policy!r}")
        if self.mode not in ("saturated", "arrivals"):
            raise ValueError(f"mode must be 'saturated' or 'arrivals', got {self.mode!r}")
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots!r}")
        if self.policy == "rlc":
            _check_generation_size(self.K)
        validate(self.channel)


@dataclass
class SourceResult:
    """Per-source outcome of a run."""

    departures: int
    departure_rate: float
    stderr: float
    arrivals: int
    final_queue: int
    mean_queue: float
    max_queue: int
    services: int
    mean_service_time: float
    mean_decode_count: tuple[float, float] | None = None
    drift_batch_means: list[float] | None = None
    drift_batch_slots: int = 0


@dataclass
class SimResult:
    """Outcome of one run; deterministic given the config."""

    sources: tuple[SourceResult, SourceResult]


def run(config: SimConfig) -> SimResult:
    """Simulate the system slot by slot and collect per-source statistics."""
    ch = config.channel
    p = (config.access.p1, config.access.p2)
    lam = (config.arrivals.lambda1, config.arrivals.lambda2)
    rlc = config.policy == "rlc"
    K = config.K if rlc else 1
    slots = config.slots
    saturated = config.mode == "saturated"

    solo = ((ch.solo(1, 1), ch.solo(1, 2)), (ch.solo(2, 1), ch.solo(2, 2)))
    joint = ((ch.joint(1, 1), ch.joint(1, 2)), (ch.joint(2, 1), ch.joint(2, 2)))

    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(10)]

    # Per-source mutable state.
    queue = [0, 0]
    arr = [0, 0]
    qsum = [0, 0]
    qmax = [0, 0]
    svc_sum = [0, 0]
    svc_start = [0, 0]  # read only while active
    active = [saturated, saturated]
    basis1: list[dict[int, int]] = [{}, {}]
    basis2: list[dict[int, int]] = [{}, {}]
    rank1 = [0, 0]
    rank2 = [0, 0]
    nrecv = [[0, 0], [0, 0]]
    dsum = [[0.0, 0.0], [0.0, 0.0]]

    batch_len = max(1, slots // _RATE_BATCHES)
    # Departures per rate batch; the extra last entry takes the slots past
    # the whole batches, so a row sums to all of a source's departures.
    batch_dep = [[0] * (_RATE_BATCHES + 1) for _ in range(2)]

    drift_half = slots // 2
    drift_len = max(1, (slots - drift_half) // _DRIFT_BATCHES)
    drift_sums = [[0.0] * _DRIFT_BATCHES for _ in range(2)]

    for block_start in range(0, slots, _BLOCK):
        nblk = min(_BLOCK, slots - block_start)
        ua = (streams[0].random(nblk).tolist(), streams[1].random(nblk).tolist())
        ut = (streams[2].random(nblk).tolist(), streams[3].random(nblk).tolist())
        ur = (
            (streams[4].random(nblk).tolist(), streams[5].random(nblk).tolist()),
            (streams[6].random(nblk).tolist(), streams[7].random(nblk).tolist()),
        )
        coef = (
            draw_coefficients(streams[8], nblk, K) if rlc else None,
            draw_coefficients(streams[9], nblk, K) if rlc else None,
        )

        for s in range(nblk):
            t = block_start + s
            if not saturated:
                for n in (0, 1):
                    if ua[n][s] < lam[n]:
                        queue[n] += 1
                        arr[n] += 1
                        if not active[n] and queue[n] >= K:
                            active[n] = True
                            svc_start[n] = t

            tx0 = active[0] and ut[0][s] < p[0]
            tx1 = active[1] and ut[1][s] < p[1]
            both = tx0 and tx1

            for n, tx in ((0, tx0), (1, tx1)):
                if not tx:
                    continue
                thr = joint[n] if both else solo[n]
                got1 = rank1[n] < K and ur[n][0][s] < thr[0]
                got2 = rank2[n] < K and ur[n][1][s] < thr[1]
                if rlc:
                    v = coef[n][s]
                    if got1:
                        nrecv[n][0] += 1
                        rank1[n] += basis_insert(basis1[n], v)
                    if got2:
                        nrecv[n][1] += 1
                        rank2[n] += basis_insert(basis2[n], v)
                else:
                    if got1:
                        rank1[n] += 1
                    if got2:
                        rank2[n] += 1
                if rank1[n] == K and rank2[n] == K:
                    batch_dep[n][min(t // batch_len, _RATE_BATCHES)] += K
                    svc_sum[n] += t - svc_start[n] + 1
                    svc_start[n] = t + 1
                    rank1[n] = rank2[n] = 0
                    if rlc:
                        n1, n2 = nrecv[n]
                        dsum[n][0] += n1
                        dsum[n][1] += n2
                        basis1[n].clear()
                        basis2[n].clear()
                        nrecv[n][0] = nrecv[n][1] = 0
                    if not saturated:
                        queue[n] -= K
                        if queue[n] < K:
                            active[n] = False

            if not saturated:
                for n in (0, 1):
                    qn = queue[n]
                    qsum[n] += qn
                    if qn > qmax[n]:
                        qmax[n] = qn
                    if t >= drift_half:
                        b = (t - drift_half) // drift_len
                        if b < _DRIFT_BATCHES:
                            drift_sums[n][b] += qn

    sources = []
    for n in (0, 1):
        rates = [c / batch_len for c in batch_dep[n][:_RATE_BATCHES]]
        stderr = float("nan")
        if slots >= _RATE_BATCHES:
            mu = sum(rates) / len(rates)
            var = sum((r - mu) ** 2 for r in rates) / (len(rates) - 1)
            stderr = math.sqrt(var / len(rates))
        departures = sum(batch_dep[n])
        services = departures // K
        decode_mean = None
        if rlc and services > 0:
            decode_mean = (dsum[n][0] / services, dsum[n][1] / services)
        sources.append(
            SourceResult(
                departures=departures,
                departure_rate=departures / slots,
                stderr=stderr,
                arrivals=arr[n],
                final_queue=queue[n],
                mean_queue=qsum[n] / slots if not saturated else 0.0,
                max_queue=qmax[n],
                services=services,
                mean_service_time=svc_sum[n] / services if services else float("nan"),
                mean_decode_count=decode_mean,
                drift_batch_means=None if saturated else [x / drift_len for x in drift_sums[n]],
                drift_batch_slots=drift_len if not saturated else 0,
            )
        )
    return SimResult(sources=(sources[0], sources[1]))


@dataclass
class ProbeVerdict:
    """Stability verdict for one arrival-rate point."""

    lambda1: float
    lambda2: float
    stable: bool


def _drift_slope(batch_means: list[float], batch_slots: int) -> tuple[float, float]:
    """Queue-growth slope (packets/slot) and its stderr from batch means."""
    b = len(batch_means)
    xs = [(i + 0.5) * batch_slots for i in range(b)]
    xbar = sum(xs) / b
    ybar = sum(batch_means) / b
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, batch_means))
    slope = sxy / sxx
    resid = sum((y - ybar - slope * (x - xbar)) ** 2 for x, y in zip(xs, batch_means))
    se = math.sqrt(resid / (b - 2) / sxx) if b > 2 else float("inf")
    return slope, se


def stability_probe(
    channel: ChannelModel,
    access: AccessProbabilities,
    policy: str,
    lambda_grid: list[tuple[float, float]],
    slots: int,
    K: int = 1,
    seed: int = 42,
) -> list[ProbeVerdict]:
    """Empirical stable/unstable verdict per arrival-rate point.

    A source is flagged unstable when the queue-length regression slope
    over the second half of the run exceeds 3 of its standard errors;
    the point is stable only if both sources are stable.
    """
    verdicts = []
    for lam1, lam2 in lambda_grid:
        res = run(
            SimConfig(
                channel=channel,
                access=access,
                arrivals=ArrivalRates(lam1, lam2),
                policy=policy,
                K=K,
                slots=slots,
                seed=seed,
                mode="arrivals",
            )
        )
        stable = True
        for src in res.sources:
            slope, se = _drift_slope(src.drift_batch_means, src.drift_batch_slots)
            unstable = slope > 3 * se if se > 0 else slope > 0
            if unstable:
                stable = False
        verdicts.append(ProbeVerdict(lambda1=lam1, lambda2=lam2, stable=stable))
    return verdicts
