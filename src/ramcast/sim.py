"""Slot-level Monte Carlo simulator of the two-queue multicast system.

This is the independent oracle for every analytic service rate in the
package: it draws per-slot transmissions, receptions and coefficient
vectors, tracks the actual GF(2) rank state at each destination, and
measures departure rates, service times, decode counts and queue drift.

Determinism: one named stream per random decision, spawned from the
config seed via ``numpy.random.SeedSequence(seed).spawn(10)`` in the
fixed order (arrivals 1, arrivals 2, transmit 1, transmit 2, reception
1->1, 1->2, 2->1, 2->2, coefficients 1, coefficients 2).  Each stream is
drawn in blocks of ``_BLOCK`` slots, so identical configs give
bit-identical results.  ``_block_draws`` is the one place where streams
2-9 are drawn, for both modes.

Retransmission is simulated as a K = 1 generation whose receptions are
always innovative, so both policies share one service rule; only RLC
draws coefficients and keeps GF(2) bases and decode counts.

Saturated mode keeps both sources always active, so it never draws the
arrival streams.  Per block, the transmit, joint and candidate-reception
masks are numpy arrays, and given them each source evolves on its own:
a service ends where the later of its two destinations reaches rank K.
Python then loops only over services for K = 1, where next-index arrays
give each destination's next innovative reception, and only over
candidate receptions for K > 1, where the GF(2) inserts happen.  Each
destination keeps a ``gf2`` list basis of K + 1 slots, indexed by bit
length; a finished service clears it by slice assignment from a zero
list, and the rank is counted beside it.
Arrivals mode couples the sources through their queues, so per block it
runs one event loop over both: Python visits only the candidate slots of
active sources, in one copy of the event body per source that keeps the
source's state in local variables, reads each activation from a table of
the block's arrival slots, and the queue statistics come from per-block arrays.

Throughput runs track coefficient vectors only; payload bits never
influence timing and are exercised in the encode/decode round-trip
tests instead.
"""
from __future__ import annotations

import math
import numbers
from bisect import bisect_right
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
        if not (isinstance(self.slots, numbers.Integral) and self.slots >= 1):
            raise ValueError(f"slots must be an integer >= 1, got {self.slots!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
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
    """Simulate the system and collect per-source statistics."""
    ch = config.channel
    p = (config.access.p1, config.access.p2)
    rlc = config.policy == "rlc"
    K = config.K if rlc else 1
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(10)]
    batch_len = max(1, config.slots // _RATE_BATCHES)
    if config.mode == "saturated":
        return _run_saturated(config.slots, p, rlc, K, ch.q_solo, ch.q_joint, streams, batch_len)
    lam = (config.arrivals.lambda1, config.arrivals.lambda2)
    return _run_arrivals(config.slots, p, lam, rlc, K, ch.q_solo, ch.q_joint, streams, batch_len)


def _block_draws(slots, p, rlc, K, streams):
    """Per block: its start and length, and source n's transmit mask,
    reception uniforms at destination d and, for RLC, coefficient vectors
    (streams 2 + n, 4 + 2n + d and 8 + n)."""
    for start in range(0, slots, _BLOCK):
        nblk = min(_BLOCK, slots - start)
        tx = [streams[2 + n].random(nblk) < p[n] for n in (0, 1)]
        ur = [[streams[4 + 2 * n + d].random(nblk) for d in (0, 1)] for n in (0, 1)]
        coef = [draw_coefficients(streams[8 + n], nblk, K) if rlc else None for n in (0, 1)]
        yield start, nblk, tx, ur, coef


def _source_result(
    slots: int,
    K: int,
    batch_len: int,
    batch_dep: list[int],
    svc_sum: int,
    dsum: list | None,
    **queue,
) -> SourceResult:
    """Rates, service time and decode counts of one source from its tallies.

    ``batch_dep`` holds the departures per rate batch plus one last entry
    for the slots past the whole batches; ``dsum`` the summed decode
    counts per destination (None for retransmission); ``queue`` the
    queue fields of :class:`SourceResult`.
    """
    rates = [c / batch_len for c in batch_dep[:_RATE_BATCHES]]
    stderr = float("nan")
    if slots >= _RATE_BATCHES:
        mu = sum(rates) / len(rates)
        var = sum((r - mu) ** 2 for r in rates) / (len(rates) - 1)
        stderr = math.sqrt(var / len(rates))
    departures = sum(batch_dep)
    services = departures // K
    decode_mean = None
    if dsum is not None and services > 0:
        decode_mean = (dsum[0] / services, dsum[1] / services)
    return SourceResult(
        departures=departures,
        departure_rate=departures / slots,
        stderr=stderr,
        services=services,
        mean_service_time=svc_sum / services if services else float("nan"),
        mean_decode_count=decode_mean,
        **queue,
    )


def _per_batch(slots: np.ndarray, batch_len: int) -> np.ndarray:
    """How many of ``slots`` fall in each rate batch, the slots past the
    whole batches counted last."""
    return np.bincount(np.minimum(slots // batch_len, _RATE_BATCHES), minlength=_RATE_BATCHES + 1)


class _SaturatedSource:
    """One always-active source, fed its candidate receptions block by block.

    A candidate reception at destination d is a slot where the source
    transmits and d's channel draw succeeds; it counts only while d's
    rank is below K.  A service started at slot s ends at max(T1, T2),
    T_d being the slot where d reaches rank K, and the next one starts a
    slot later.  The service in progress at a block's end carries into
    the next block through the bases, ranks and reception counts.
    """

    def __init__(self, K: int, rlc: bool, batch_len: int) -> None:
        self.K = K
        self.rlc = rlc
        self.batch_len = batch_len
        self.zero = [0] * (K + 1)
        self.bases = (self.zero[:], self.zero[:])
        self.rank = [0, 0]
        self.count = [0, 0]  # receptions counted in the service in progress
        self.dsum = [0, 0]
        self.batch_dep = np.zeros(_RATE_BATCHES + 1, dtype=np.int64)
        self.last_end = -1

    def block(self, start: int, cand: list[np.ndarray], coef: np.ndarray | None) -> None:
        """Advance over the block starting at slot ``start``; ``cand`` holds
        each destination's candidate-reception mask."""
        walk = self._ends_k1 if self.K == 1 else self._ends_walk
        ends = np.asarray(walk(cand, coef), dtype=np.int64)
        if len(ends):
            slots = ends + start
            self.batch_dep += self.K * _per_batch(slots, self.batch_len)
            self.last_end = int(slots[-1])

    def _ends_k1(self, cand: list[np.ndarray], coef: np.ndarray | None) -> np.ndarray:
        """Completion slots of K = 1 services: T_d is d's next innovative
        candidate, read from a next-index array; Python loops over services.
        Decode counts are prefix-count differences of the candidate masks."""
        n = len(cand[0])
        innov = cand if coef is None else [c & (coef == 1) for c in cand]
        nxt = []
        for d in (0, 1):
            a = np.full(n + 1, n)
            hits = np.flatnonzero(innov[d])
            a[hits] = hits
            nxt.append(np.minimum.accumulate(a[::-1])[::-1])
        # T_d of the service carried in; -1 if d reached rank 1 before the block.
        first = [int(nxt[d][0]) if self.rank[d] == 0 else -1 for d in (0, 1)]
        e = max(first)
        ends: list[int] = []
        if e < n:
            m = np.maximum(nxt[0], nxt[1]).tolist()
            append = ends.append
            while e < n:
                append(e)
                e = m[e + 1]
        out = np.array(ends, dtype=np.int64)
        # Every service begun in the block, the carried one as starting at 0;
        # the last is unfinished.
        starts = np.concatenate(([0], out + 1))
        for d in (0, 1):
            T = nxt[d][starts]
            T[0] = first[d]
            self.rank[d] = int(T[-1] < n)
            if self.rlc:
                cc = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(cand[d], out=cc[1:])
                counts = cc[np.minimum(T + 1, n)] - cc[starts]
                counts[0] += self.count[d]
                self.dsum[d] += int(counts[:-1].sum())
                self.count[d] = int(counts[-1])
        return out

    def _ends_walk(self, cand: list[np.ndarray], coef: np.ndarray) -> list[int]:
        """Completion slots of K > 1 services: walk each destination's
        candidates through GF(2) inserts until rank K, then skip the ones
        up to the service's end.  Destination d's state is held in locals
        suffixed d; i0 and i1 point at the next candidate."""
        K, zero = self.K, self.zero
        w0, w1 = (np.flatnonzero(c) for c in cand)
        s0, s1, v0, v1 = w0.tolist(), w1.tolist(), coef[w0].tolist(), coef[w1].tolist()
        n0, n1 = len(s0), len(s1)
        b0, b1 = self.bases
        (r0, r1), (c0, c1), (t0, t1) = self.rank, self.count, self.dsum
        i0 = i1 = 0
        ends: list[int] = []
        while True:
            j0, j1 = i0, i1
            while r0 < K and i0 < n0:
                r0 += basis_insert(b0, v0[i0])
                i0 += 1
            while r1 < K and i1 < n1:
                r1 += basis_insert(b1, v1[i1])
                i1 += 1
            c0, c1 = c0 + i0 - j0, c1 + i1 - j1
            if r0 < K or r1 < K:
                self.rank[:], self.count[:], self.dsum[:] = (r0, r1), (c0, c1), (t0, t1)
                return ends
            # Rank K came with d's last insert, or before this block (i_d = 0).
            e = max(s0[i0 - 1] if i0 else -1, s1[i1 - 1] if i1 else -1)
            ends.append(e)
            i0, i1 = bisect_right(s0, e, i0), bisect_right(s1, e, i1)
            t0, t1 = t0 + c0, t1 + c1
            c0 = c1 = r0 = r1 = 0
            b0[:] = b1[:] = zero

    def result(self, slots: int) -> SourceResult:
        return _source_result(
            slots,
            self.K,
            self.batch_len,
            self.batch_dep.tolist(),
            self.last_end + 1,  # services tile slots 0 .. last end
            self.dsum if self.rlc else None,
            arrivals=0,
            final_queue=0,
            mean_queue=0.0,
            max_queue=0,
        )


def _run_saturated(slots, p, rlc, K, solo, joint, streams, batch_len) -> SimResult:
    """Both sources always active: per-block numpy masks, one kernel per source."""
    sources = (_SaturatedSource(K, rlc, batch_len), _SaturatedSource(K, rlc, batch_len))
    for block_start, _, tx, ur, coef in _block_draws(slots, p, rlc, K, streams):
        both = tx[0] & tx[1]
        for n in (0, 1):
            cand = [tx[n] & (ur[n][d] < np.where(both, joint[n][d], solo[n][d])) for d in (0, 1)]
            sources[n].block(block_start, cand, coef[n])
    return SimResult(sources=(sources[0].result(slots), sources[1].result(slots)))


def _run_arrivals(slots, p, lam, rlc, K, solo, joint, streams, batch_len) -> SimResult:
    """Queued sources, coupled through who transmits: an event loop per block.

    A source is active exactly while its queue holds at least K packets,
    so it becomes active at the arrival that lifts its queue to K, read
    from the block's list of arrival slots.  A candidate slot is one where
    a source transmits and some destination's solo draw succeeds (joint
    draws succeed less often).  Python visits the candidate slots of
    active sources in slot order, one copy of the event body per source,
    each on that source's state in locals suffixed with its index.  The
    other source interferes at slot s when it transmits and is active at
    s, after its arrivals at s and before its departure at s.  The queue
    trajectory of a block, q0 + cumsum(arrivals) - K cumsum(departures),
    gives the queue statistics and drift-batch sums.
    """
    queue = [0, 0]  # at the block start
    arr = [0, 0]
    qsum = [0, 0]
    qmax = [0, 0]
    batch_dep = [np.zeros(_RATE_BATCHES + 1, dtype=np.int64) for _ in range(2)]
    # Per source n: service start st_n (read only while active), summed service times sv_n;
    # per destination d: rank r_nd, receptions g_nd this service, decode sum u_nd, basis b_nd.
    st0 = st1 = sv0 = sv1 = 0
    r00 = r01 = r10 = r11 = g00 = g01 = g10 = g11 = u00 = u01 = u10 = u11 = 0
    zero = [0] * (K + 1)
    b00, b01, b10, b11 = (zero[:] for _ in range(4))

    drift_half = slots // 2
    drift_len = max(1, (slots - drift_half) // _DRIFT_BATCHES)
    drift_end = drift_half + _DRIFT_BATCHES * drift_len
    drift_sums = [np.zeros(_DRIFT_BATCHES) for _ in range(2)]

    for block_start, nblk, tx, ur, coef in _block_draws(slots, p, rlc, K, streams):
        got = [streams[n].random(nblk) < lam[n] for n in (0, 1)]
        # Per source: candidate slots (then nblk as a sentinel), a code per
        # candidate (bits 0-1 solo successes at destinations 1-2, bits 2-3
        # joint successes, bit 4 the other source transmits), vectors, and
        # per arrival (then K sentinels) its slot and the index of the first
        # candidate at or after it; then the slot the source is active from,
        # the (K - queue)-th arrival's, and the index of its next candidate.
        per = []
        for n in (0, 1):
            ok = [ur[n][d] < solo[n][d] for d in (0, 1)]
            where = np.flatnonzero(tx[n] & (ok[0] | ok[1]))
            u = [ur[n][d][where] for d in (0, 1)]
            bits = (
                ok[0][where]
                + 2 * ok[1][where]
                + 4 * (u[0] < joint[n][0])
                + 8 * (u[1] < joint[n][1])
                + 16 * tx[1 - n][where]
            )
            on = np.flatnonzero(got[n]).tolist() + [nblk] * K
            onptr = np.searchsorted(where, on).tolist()
            vecs = coef[n][where].tolist() if rlc else None
            k = K - queue[n] - 1
            act = (on[k], onptr[k]) if k >= 0 else (0, 0)
            per.append((where.tolist() + [nblk], bits.tolist(), vecs, on, onptr, *act))
        cand0, code0, vec0, on0, onptr0, act0, ptr0 = per[0]
        cand1, code1, vec1, on1, onptr1, act1, ptr1 = per[1]
        base0, base1 = queue
        st0 = block_start + act0 if base0 < K else st0
        st1 = block_start + act1 if base1 < K else st1
        h0, h1 = cand0[ptr0], cand1[ptr1]  # the next candidate slots
        dep0, dep1 = [], []
        last0 = last1 = -1  # slot of the latest departure in this block

        while h0 < nblk or h1 < nblk:
            if h0 <= h1:
                s = h0
                c = code0[ptr0]
                if c & 16 and (act1 <= s or last1 == s):
                    c >>= 2
                if not rlc:
                    r00 |= c & 1
                    r01 |= c >> 1 & 1
                else:
                    if c & 1 and r00 < K:
                        g00 += 1
                        r00 += basis_insert(b00, vec0[ptr0])
                    if c & 2 and r01 < K:
                        g01 += 1
                        r01 += basis_insert(b01, vec0[ptr0])
                ptr0 += 1
                if r00 == r01 == K:
                    dep0.append(s)
                    last0 = s
                    t = block_start + s
                    sv0 += t - st0 + 1
                    r00 = r01 = 0
                    if rlc:
                        u00, u01, g00, g01 = u00 + g00, u01 + g01, 0, 0
                        b00[:] = b01[:] = zero
                    base0 -= K
                    k = K - base0 - 1  # the arrival that lifts the queue to K
                    if k < 0 or on0[k] <= s:
                        st0 = t + 1
                    else:
                        act0, ptr0 = on0[k], onptr0[k]
                        st0 = block_start + act0
                h0 = cand0[ptr0]
            else:
                s = h1
                c = code1[ptr1]
                if c & 16 and (act0 <= s or last0 == s):
                    c >>= 2
                if not rlc:
                    r10 |= c & 1
                    r11 |= c >> 1 & 1
                else:
                    if c & 1 and r10 < K:
                        g10 += 1
                        r10 += basis_insert(b10, vec1[ptr1])
                    if c & 2 and r11 < K:
                        g11 += 1
                        r11 += basis_insert(b11, vec1[ptr1])
                ptr1 += 1
                if r10 == r11 == K:
                    dep1.append(s)
                    last1 = s
                    t = block_start + s
                    sv1 += t - st1 + 1
                    r10 = r11 = 0
                    if rlc:
                        u10, u11, g10, g11 = u10 + g10, u11 + g11, 0, 0
                        b10[:] = b11[:] = zero
                    base1 -= K
                    k = K - base1 - 1
                    if k < 0 or on1[k] <= s:
                        st1 = t + 1
                    else:
                        act1, ptr1 = on1[k], onptr1[k]
                        st1 = block_start + act1
                h1 = cand1[ptr1]
        # Release this block's lists before the next block is drawn.
        del per, cand0, cand1, code0, code1, vec0, vec1, on0, on1, onptr0, onptr1

        lo = max(block_start, drift_half) - block_start
        hi = min(block_start + nblk, drift_end) - block_start
        for n, dep in enumerate((dep0, dep1)):
            cum = np.cumsum(got[n])
            q = queue[n] + cum
            if dep:
                steps = np.zeros(nblk, dtype=np.int64)
                steps[dep] = K
                q -= np.cumsum(steps)
                batch_dep[n] += K * _per_batch(np.array(dep) + block_start, batch_len)
            arr[n] += int(cum[-1])
            queue[n] = int(q[-1])
            qsum[n] += int(q.sum())
            qmax[n] = max(qmax[n], int(q.max()))
            if lo < hi:
                b = (np.arange(lo, hi) + (block_start - drift_half)) // drift_len
                drift_sums[n] += np.bincount(b, weights=q[lo:hi], minlength=_DRIFT_BATCHES)

    return SimResult(
        sources=tuple(
            _source_result(
                slots,
                K,
                batch_len,
                batch_dep[n].tolist(),
                svc_sum,
                dsum if rlc else None,
                arrivals=arr[n],
                final_queue=queue[n],
                mean_queue=qsum[n] / slots,
                max_queue=qmax[n],
                drift_batch_means=[x / drift_len for x in drift_sums[n].tolist()],
                drift_batch_slots=drift_len,
            )
            for n, svc_sum, dsum in ((0, sv0, [u00, u01]), (1, sv1, [u10, u11]))
        )
    )


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
    the point is stable only if both sources are stable.  The drift
    batches tile the second half of the run, so ``slots`` must leave at
    least one slot per batch there.
    """
    min_slots = 2 * _DRIFT_BATCHES - 1
    if slots < min_slots:
        raise ValueError(f"stability_probe needs slots >= {min_slots}, got {slots}")
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
