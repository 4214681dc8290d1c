import math

import numpy as np
import pytest

from ramcast.channel import PRESETS, AccessProbabilities, ArrivalRates, ChannelModel
from ramcast.gf2 import expected_decode_count, rank_pmf
from ramcast.regions import service_rates, stability_region_at
from ramcast.retrans import retrans_service_rates
from ramcast.rlc_markov import build_chain, service_rate
from ramcast.sim import SimConfig, run, stability_probe

from conftest import ASYMMETRIC, random_channel, subspace_pair_visits

ACCESS = AccessProbabilities(0.5, 0.5)
PERFECT = ChannelModel(q_solo=((1.0, 1.0), (1.0, 1.0)), q_joint=((0.0, 0.0), (0.0, 0.0)))


def _cfg(strong, **kw):
    base = dict(channel=strong, access=ACCESS, slots=100_000, seed=31, mode="saturated")
    base.update(kw)
    return SimConfig(**base)


def test_determinism_bit_identical(strong):
    a = run(_cfg(strong, policy="rlc", K=2, slots=40_000))
    b = run(_cfg(strong, policy="rlc", K=2, slots=40_000))
    assert repr(a.sources) == repr(b.sources)


def test_conservation_arrivals_mode(strong):
    for policy, K in (("retrans", 1), ("rlc", 3)):
        res = run(
            _cfg(
                strong,
                policy=policy,
                K=K,
                mode="arrivals",
                arrivals=ArrivalRates(0.12, 0.2),
                slots=60_000,
            )
        )
        for src in res.sources:
            assert src.arrivals == src.departures + src.final_queue


def test_perfect_channel_single_source_rate_one():
    cfg = SimConfig(
        channel=PERFECT,
        access=AccessProbabilities(1.0, 0.0),
        policy="retrans",
        slots=20_000,
        seed=5,
        mode="saturated",
    )
    res = run(cfg)
    assert res.sources[0].departure_rate == 1.0


def test_retrans_rate_matches_formula(strong):
    res = run(_cfg(strong, policy="retrans", slots=200_000))
    ana = retrans_service_rates(strong, ACCESS)
    for n in (0, 1):
        src = res.sources[n]
        assert abs(src.departure_rate - ana.backlogged[n]) <= 3 * src.stderr
        # reciprocal rate up to the one service left in progress at the horizon
        assert src.mean_service_time == pytest.approx(1.0 / src.departure_rate, rel=1e-3)


def test_retrans_empty_rate_matches(strong):
    res = run(_cfg(strong, access=AccessProbabilities(0.5, 0.0), policy="retrans",
                   slots=200_000))
    ana = retrans_service_rates(strong, ACCESS)
    src = res.sources[0]
    assert abs(src.departure_rate - ana.empty[0]) <= 3 * src.stderr


def test_rlc_rate_matches_exact_chain(strong):
    res = run(_cfg(strong, policy="rlc", K=2, slots=200_000))
    mu = service_rate(build_chain(strong, ACCESS, K=2, variant="exact"))
    for n in (0, 1):
        src = res.sources[n]
        assert abs(src.departure_rate - mu) <= 3 * src.stderr


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("preset", ["strong_mpr", "weak_mpr"])
def test_rlc_rate_matches_subspace_pair_oracle(preset, K):
    # No chain involved: the oracle enumerates the destinations' actual
    # spans, so a simulator fault cannot hide behind a matching chain fault.
    channel = PRESETS[preset]()
    q = 0.4
    res = run(SimConfig(channel=channel, access=AccessProbabilities(1.0, q), policy="rlc",
                        K=K, slots=200_000, seed=42, mode="saturated"))
    src = res.sources[0]
    mu = K / sum(subspace_pair_visits(channel, 1, q, K).values())
    assert abs(src.departure_rate - mu) <= 3 * src.stderr


def test_ci_width_quarter_slots_scaling(strong):
    # sqrt(n) scaling: quadrupling the horizon halves the CI width.
    widths = []
    for slots in (40_000, 160_000):
        ses = []
        for rep in range(6):
            res = run(_cfg(strong, policy="retrans", slots=slots, seed=900 + rep))
            ses.append(res.sources[0].stderr)
        widths.append(sum(ses) / len(ses))
    ratio = widths[1] / widths[0]
    assert 0.375 <= ratio <= 0.625


@pytest.mark.parametrize("K", [2, 4])
def test_mean_decode_count_matches_rank_law(strong, K):
    # Each destination needs N received coded packets per generation, N
    # distributed as rank_pmf, so its simulated mean is E[N] within 3
    # stderr.  The distribution itself is checked in test_gf2.py.
    res = run(_cfg(strong, policy="rlc", K=K, slots=400_000))
    mean = expected_decode_count(K)
    sd = math.sqrt(sum((j - mean) ** 2 * rank_pmf(K, j) for j in range(K, K + 100)))
    for src in res.sources:
        for decode_mean in src.mean_decode_count:
            assert abs(decode_mean - mean) <= 3 * sd / math.sqrt(src.services)


def test_stability_probe_trivial_points(strong):
    ana = retrans_service_rates(strong, ACCESS)
    verdicts = stability_probe(
        strong,
        ACCESS,
        "retrans",
        [(0.0, 0.0), (1.5 * ana.backlogged[0], 0.0)],
        slots=120_000,
        seed=2,
    )
    assert verdicts[0].stable
    assert not verdicts[1].stable


@pytest.mark.parametrize("slots", [40, 58, 59])
def test_stability_probe_needs_a_drift_batch_per_slot_of_its_second_half(strong, slots):
    # 30 drift batches tile the second half of the run.  Below 59 slots they
    # would run past its end and read as an empty queue, and an overloaded
    # point (lambda = 1 for both sources) would come out stable.
    probe = [(1.0, 1.0)]
    if slots < 59:
        with pytest.raises(ValueError, match=f"slots >= 59, got {slots}"):
            stability_probe(strong, ACCESS, "retrans", probe, slots=slots)
    else:
        assert not stability_probe(strong, ACCESS, "retrans", probe, slots=slots)[0].stable


def test_saturated_rate_below_one(strong):
    res = run(_cfg(strong, policy="rlc", K=4, slots=50_000))
    for src in res.sources:
        assert 0.0 <= src.departure_rate <= 1.0


def test_config_validation(strong):
    with pytest.raises(ValueError):
        SimConfig(channel=strong, access=ACCESS, policy="arq")
    with pytest.raises(ValueError):
        SimConfig(channel=strong, access=ACCESS, policy="rlc", K=0)
    with pytest.raises(ValueError):
        SimConfig(channel=strong, access=ACCESS, slots=0)
    with pytest.raises(ValueError):
        SimConfig(channel=strong, access=ACCESS, mode="both")
    for slots in (1e4, 2.5):
        with pytest.raises(ValueError, match="slots must be an integer >= 1"):
            SimConfig(channel=strong, access=ACCESS, slots=slots)
    for seed in (2.5, -1):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            SimConfig(channel=strong, access=ACCESS, seed=seed)


@pytest.mark.parametrize(
    "policy, preset, p",
    [
        ("retrans", "strong_mpr", (0.6, 0.4)),
        ("retrans", "collision", (0.6, 0.4)),
        ("rlc", "weak_mpr", (0.05, 0.9)),
        ("rlc", "strong_mpr", (1.0, 1.0)),
        ("retrans", "asymmetric", (0.6, 0.4)),
        ("rlc", "asymmetric", (0.6, 0.4)),
    ],
)
def test_k1_saturated_matches_always_busy_arrivals(policy, preset, p):
    # With K = 1 and lambda = 1 every slot brings a packet, so in arrivals
    # mode both queues are busy from slot 0 on and never idle: arrivals
    # mode then serves exactly as saturated mode does, from the same
    # transmit, reception and coefficient streams.  70,001 slots cross two
    # block boundaries.  On the presets q_joint[n][1] = q_joint[n][2], so
    # only the asymmetric channel tells a source's two destinations apart.
    channel = ASYMMETRIC if preset == "asymmetric" else PRESETS[preset]()
    base = dict(channel=channel, access=AccessProbabilities(*p), policy=policy,
                K=1, slots=70_001, seed=13)
    sat = run(SimConfig(mode="saturated", **base))
    busy = run(SimConfig(mode="arrivals", arrivals=ArrivalRates(1.0, 1.0), **base))
    fields = ("departures", "departure_rate", "stderr", "services", "mean_service_time",
              "mean_decode_count")
    for a, b in zip(sat.sources, busy.sources):
        assert a.departures > 0
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


@pytest.mark.parametrize("policy, K", [("retrans", 1), ("rlc", 4)])
def test_silent_source_never_couples(strong, policy, K):
    # With p1 = 0 source 1 never transmits, so its queue only grows and
    # source 2 sees the same channel whether packets reach source 1 or not.
    base = dict(channel=strong, access=AccessProbabilities(0.0, 0.6), policy=policy, K=K,
                slots=40_000, seed=17, mode="arrivals")
    silent, src2 = run(SimConfig(arrivals=ArrivalRates(0.3, 0.1), **base)).sources
    alone = run(SimConfig(arrivals=ArrivalRates(0.0, 0.1), **base)).sources[1]
    assert silent.arrivals > 0
    assert silent.departures == silent.services == 0
    assert silent.final_queue == silent.max_queue == silent.arrivals
    assert src2.departures > 0
    assert repr(src2) == repr(alone)


def test_no_arrivals_no_activity(strong):
    res = run(SimConfig(channel=strong, access=ACCESS, policy="rlc", K=3, slots=40_000,
                        seed=3, mode="arrivals"))
    for src in res.sources:
        assert (src.departures, src.arrivals, src.final_queue, src.max_queue, src.services) == (
            0, 0, 0, 0, 0)
        assert src.mean_queue == 0.0
        assert math.isnan(src.mean_service_time)
        assert src.drift_batch_means == [0.0] * len(src.drift_batch_means)


# On every preset q_joint[n][1] = q_joint[n][2], so a simulator that reads
# one destination's probability for the other passes there; on these
# channels it does not.  The two tests below make m = 28 comparisons (24
# saturated, 4 at the boundary).  Each batch-means z follows Student's t
# with 31 degrees of freedom (32 rate batches), so at a family-wise
# false-alarm rate alpha = 0.01 each |z| may reach the t_31 quantile at
# 1 - alpha / (2m), which is 4.008.
_rng = np.random.default_rng(5)
RANDOM_CHANNELS = [random_channel(_rng, solo_low=0.3, joint_frac=1.0) for _ in range(4)]
RANDOM_ACCESS = AccessProbabilities(0.6, 0.7)
Z_GATE = 4.008


@pytest.mark.parametrize("policy, K", [("retrans", 1), ("rlc", 2), ("rlc", 4)])
@pytest.mark.parametrize("c", range(len(RANDOM_CHANNELS)))
def test_saturated_rates_match_analysis_on_random_channels(c, policy, K):
    channel = RANDOM_CHANNELS[c]
    mu = service_rates(policy, channel, RANDOM_ACCESS, K, "exact")
    res = run(SimConfig(channel=channel, access=RANDOM_ACCESS, policy=policy, K=K,
                        slots=200_000, seed=11, mode="saturated"))
    for src, rate in zip(res.sources, mu.backlogged):
        assert abs(src.departure_rate - rate) <= Z_GATE * src.stderr, (src, rate)


def _assert_boundary_departures(channel, policy, K, slots):
    # With lambda1 = 1 source 1 never empties, and lambda2 = 0.8 mu_2b keeps
    # source 2 stable; by the dominant-system argument source 1 then departs
    # at the stability boundary's lambda1 at that lambda2.
    mu = service_rates(policy, channel, RANDOM_ACCESS, K, "exact")
    lam2 = 0.8 * mu.backlogged[1]
    res = run(SimConfig(channel=channel, access=RANDOM_ACCESS, policy=policy, K=K,
                        slots=slots, seed=11, mode="arrivals",
                        arrivals=ArrivalRates(1.0, lam2)))
    src = res.sources[0]
    bound = stability_region_at(mu).lambda1_bound(lam2)
    assert abs(src.departure_rate - bound) <= Z_GATE * src.stderr, (src, bound)


@pytest.mark.parametrize("policy, K", [("retrans", 1), ("rlc", 2)])
@pytest.mark.parametrize("c", [0, 1])
def test_boundary_departures_match_analysis_on_random_channels(c, policy, K):
    # Arrivals mode reads the reception probabilities in code of its own.
    _assert_boundary_departures(RANDOM_CHANNELS[c], policy, K, 200_000)


@pytest.mark.xfail(strict=True, reason=(
    "source 1 departs about 3% above lambda1_bound here (z 6.8 at 400,000 slots); "
    "whether the bound or the measurement is at fault is the open question of "
    "ROADMAP item 13"))
def test_boundary_departures_where_joint_reception_towards_destination_2_is_near_zero():
    # Channel 3 of four drawn from default_rng(5) in whole blocks (every
    # q_solo, then every joint fraction): q_joint towards destination 2 is
    # 0.018 from source 1 and 0.0011 from source 2.  Not one of the 28
    # gated comparisons above.
    rng = np.random.default_rng(5)
    solo = rng.uniform(0.3, 1.0, (4, 2, 2))[3]
    joint = solo * rng.uniform(0.0, 1.0, (4, 2, 2))[3]
    channel = ChannelModel(q_solo=tuple(map(tuple, solo.tolist())),
                           q_joint=tuple(map(tuple, joint.tolist())))
    _assert_boundary_departures(channel, "retrans", 1, 400_000)
