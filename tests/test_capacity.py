"""Capacity caps, checked down an oracle chain: exhaustive enumeration of
the finite-u channel -> the closed-form mutual informations below -> their
u -> infinity limit, which must equal ``rate_bounds_grid``."""
import math
from dataclasses import dataclass

import numpy as np
import pytest

from ramcast.capacity import capacity_sweep, rate_bounds_grid
from ramcast.channel import AccessProbabilities, ChannelModel, collision_channel
from ramcast.regions import frontier_contains

from conftest import random_channel, rate_caps

ERASED = -1


def binary_entropy(p: float) -> float:
    """h_b(p) in bits, with the limit convention h_b(0) = h_b(1) = 0."""
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class MutualInfoReport:
    """Finite-packet-length mutual informations (bits/transmission) per destination.

    ``protocol_info[n-1]`` is the binary-entropy term carried by the
    idle/transmit decision of source n; it is reported separately and
    excluded from the packets/slot limit.
    """

    u: float
    i_x1_given_x2: tuple[float, float]
    i_x2_given_x1: tuple[float, float]
    i_joint: tuple[float, float]
    protocol_info: tuple[float, float]


def mutual_info(channel, access, u) -> MutualInfoReport:
    """Closed-form conditional and joint mutual informations at packet length u bits."""
    h1 = binary_entropy(access.p1)
    h2 = binary_entropy(access.p2)
    r1 = [access.p1 * r for r in channel.reception(1, access.p2)[:2]]
    r2 = [access.p2 * r for r in channel.reception(2, access.p1)[:2]]
    i1 = tuple(h1 + u * r for r in r1)
    i2 = tuple(h2 + u * r for r in r2)
    # Inputs are independent, so the joint term decomposes exactly into
    # the two conditional terms; computed from the four-term expansion.
    ij = tuple(h1 + h2 + u * (ra + rb) for ra, rb in zip(r1, r2))
    return MutualInfoReport(
        u=u,
        i_x1_given_x2=i1,
        i_x2_given_x1=i2,
        i_joint=ij,
        protocol_info=(h1, h2),
    )


def test_binary_entropy_conventions():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_rate_bounds_collision_corner():
    assert rate_caps(collision_channel(), 1.0, 0.0) == (1.0, 0.0)


def test_rate_bounds_strong_examples(strong):
    r1, r2 = rate_caps(strong, 1.0, 1.0)
    assert r1 == pytest.approx(0.6, abs=1e-12)
    assert r2 == pytest.approx(0.6, abs=1e-12)
    r1, r2 = rate_caps(strong, 0.5, 0.5)
    # min(0.25*0.8 + 0.25*0.6, 0.25*0.7 + 0.25*0.6)
    assert r1 == pytest.approx(0.325, abs=1e-12)
    assert r2 == pytest.approx(0.325, abs=1e-12)


def _mc_success_rate(channel, p1, p2, source, slots, seed):
    """Per-slot Monte Carlo frequency of reception, min over destinations."""
    rng = np.random.default_rng(seed)
    t1 = rng.random(slots) < p1
    t2 = rng.random(slots) < p2
    tx = t1 if source == 1 else t2
    both = t1 & t2
    freqs = []
    for m in (1, 2):
        u = rng.random(slots)
        thr = np.where(both, channel.joint(source, m), channel.solo(source, m))
        freqs.append(float(np.mean(tx & (u < thr))))
    return min(freqs)


@pytest.mark.parametrize("p1,p2", [(1.0, 1.0), (0.5, 0.5)])
def test_rate_bounds_monte_carlo_oracle(strong, p1, p2):
    slots = 400_000
    r1, _ = rate_caps(strong, p1, p2)
    est = _mc_success_rate(strong, p1, p2, 1, slots, seed=20240601)
    se = math.sqrt(r1 * (1 - r1) / slots)
    assert abs(est - r1) < 3 * se


def test_rate_bounds_capped_by_access_probability():
    rng = np.random.default_rng(3)
    for _ in range(200):
        ch = random_channel(rng)
        p1, p2 = rng.uniform(0, 1, 2)
        r1, r2 = rate_caps(ch, p1, p2)
        assert 0.0 <= r1 <= p1 + 1e-15
        assert 0.0 <= r2 <= p2 + 1e-15


def test_mutual_info_idle_source(strong):
    rep = mutual_info(strong, AccessProbabilities(0.0, 0.7), u=8)
    assert rep.i_x1_given_x2 == (0.0, 0.0)
    assert rep.protocol_info[0] == 0.0


def test_mutual_info_half_rate_example():
    ch = ChannelModel(q_solo=((1.0, 1.0), (1.0, 1.0)), q_joint=((0.0, 0.0), (0.0, 0.0)))
    rep = mutual_info(ch, AccessProbabilities(0.5, 0.0), u=1)
    assert rep.i_x1_given_x2[0] == pytest.approx(1.5, abs=1e-12)
    assert rep.i_x1_given_x2[1] == pytest.approx(1.5, abs=1e-12)


def test_mutual_info_joint_decomposes(strong, weak):
    for ch in (strong, weak):
        for p1, p2 in [(0.3, 0.7), (0.5, 0.5), (1.0, 0.2)]:
            rep = mutual_info(ch, AccessProbabilities(p1, p2), u=16)
            for m in (0, 1):
                assert rep.i_joint[m] == pytest.approx(
                    rep.i_x1_given_x2[m] + rep.i_x2_given_x1[m], abs=1e-9
                )
                assert rep.i_joint[m] >= 0.0


def test_mutual_info_limit_matches_rate_bounds(strong, weak):
    u = 1e6
    rng = np.random.default_rng(8)
    points = [(0.4, 0.8), (1.0, 1.0), (0.05, 0.95)] + [
        tuple(rng.uniform(0, 1, 2)) for _ in range(20)
    ]
    for ch in (strong, weak):
        for p1, p2 in points:
            access = AccessProbabilities(p1, p2)
            rep = mutual_info(ch, access, u)
            r1, r2 = rate_caps(ch, p1, p2)
            per_dest_1 = [v / u for v in rep.i_x1_given_x2]
            per_dest_2 = [v / u for v in rep.i_x2_given_x1]
            assert min(per_dest_1) == pytest.approx(r1, abs=1e-5)
            assert min(per_dest_2) == pytest.approx(r2, abs=1e-5)


def _component_dist(x, q, u):
    """Distribution of one received component given the input symbol."""
    if x == 0:
        return {0: 1.0}
    return {x: q, ERASED: 1.0 - q}


def _joint_pmf(channel, p1, p2, u, m):
    """Exhaustive joint pmf over (x1, x2, y1m, y2m) for packets of u bits."""
    nsym = 1 << u
    px = {}
    for n, p in ((1, p1), (2, p2)):
        d = {0: 1.0 - p}
        for x in range(1, nsym + 1):
            d[x] = p / nsym
        px[n] = d
    pmf = {}
    for x1, pr1 in px[1].items():
        if pr1 == 0.0:
            continue
        for x2, pr2 in px[2].items():
            if pr2 == 0.0:
                continue
            both = x1 != 0 and x2 != 0
            q1 = channel.joint(1, m) if both else channel.solo(1, m)
            q2 = channel.joint(2, m) if both else channel.solo(2, m)
            for y1, pq1 in _component_dist(x1, q1, u).items():
                for y2, pq2 in _component_dist(x2, q2, u).items():
                    pr = pr1 * pr2 * pq1 * pq2
                    if pr > 0.0:
                        key = (x1, x2, y1, y2)
                        pmf[key] = pmf.get(key, 0.0) + pr
    return pmf


def _cond_mi(pmf, a_of, b_of, c_of):
    """I(A;B|C) from a joint pmf and key projections."""
    pc, pac, pbc, pabc = {}, {}, {}, {}
    for key, pr in pmf.items():
        a, b, c = a_of(key), b_of(key), c_of(key)
        pc[c] = pc.get(c, 0.0) + pr
        pac[a, c] = pac.get((a, c), 0.0) + pr
        pbc[b, c] = pbc.get((b, c), 0.0) + pr
        pabc[a, b, c] = pabc.get((a, b, c), 0.0) + pr
    total = 0.0
    for (a, b, c), pr in pabc.items():
        total += pr * math.log2(pr * pc[c] / (pac[a, c] * pbc[b, c]))
    return total


@pytest.mark.parametrize("u", [1, 2, 3])
def test_mutual_info_enumeration_oracle(strong, u):
    p1, p2 = 0.3, 0.7
    rep = mutual_info(strong, AccessProbabilities(p1, p2), u)
    for m in (1, 2):
        pmf = _joint_pmf(strong, p1, p2, u, m)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
        y_of = lambda k: (k[2], k[3])
        i1 = _cond_mi(pmf, lambda k: k[0], y_of, lambda k: k[1])
        i2 = _cond_mi(pmf, lambda k: k[1], y_of, lambda k: k[0])
        ij = _cond_mi(pmf, lambda k: (k[0], k[1]), y_of, lambda k: 0)
        assert i1 == pytest.approx(rep.i_x1_given_x2[m - 1], abs=1e-9)
        assert i2 == pytest.approx(rep.i_x2_given_x1[m - 1], abs=1e-9)
        assert ij == pytest.approx(rep.i_joint[m - 1], abs=1e-9)


def test_capacity_frontier_collision_corners():
    frontier = capacity_sweep(collision_channel(), grid_step=0.01)[3]
    assert frontier.x.max() >= 0.99
    assert frontier.y.max() >= 0.99


def test_capacity_frontier_strong_symmetric_point(strong):
    frontier = capacity_sweep(strong, grid_step=0.01)[3]
    best = np.minimum(frontier.x, frontier.y).max()
    assert best == pytest.approx(0.6, abs=1e-12)


def test_capacity_frontier_is_pareto_sorted(strong):
    frontier = capacity_sweep(strong, grid_step=0.05)[3]
    assert np.all(np.diff(frontier.x) > 0)
    assert np.all(np.diff(frontier.y) < 0)


def test_capacity_frontier_grid_step_validation(strong):
    with pytest.raises(ValueError):
        capacity_sweep(strong, grid_step=0.2)
    with pytest.raises(ValueError):
        capacity_sweep(strong, grid_step=0.0)


def test_channel_monotonicity_grows_frontier():
    rng = np.random.default_rng(11)
    for _ in range(5):
        small = random_channel(rng)
        bump = rng.uniform(0.0, 1.0, size=8)
        big_solo = tuple(
            tuple(min(1.0, small.q_solo[n][m] + bump[2 * n + m] * (1 - small.q_solo[n][m]))
                  for m in (0, 1))
            for n in (0, 1)
        )
        big_joint = tuple(
            tuple(min(big_solo[n][m] * 0.999,
                      small.q_joint[n][m] + bump[4 + 2 * n + m] * 0.0)
                  for m in (0, 1))
            for n in (0, 1)
        )
        big = ChannelModel(q_solo=big_solo, q_joint=big_joint)
        grid = np.linspace(0, 1, 11)
        rs1, rs2 = rate_bounds_grid(small, grid, grid)
        rb1, rb2 = rate_bounds_grid(big, grid, grid)
        assert np.all(rb1 >= rs1 - 1e-15)
        assert np.all(rb2 >= rs2 - 1e-15)
        f_small = capacity_sweep(small, 0.1)[3]
        f_big = capacity_sweep(big, 0.1)[3]
        assert frontier_contains(f_big, f_small, tol=1e-12)


def test_capacity_sweep_marks_frontier(strong):
    grid, r1, r2, frontier = capacity_sweep(strong, 0.1)
    assert grid.shape == (11,) and r1.shape == r2.shape == (11, 11)
    p1s, p2s = np.repeat(grid, 11), np.tile(grid, 11)
    at = frontier.index
    assert np.array_equal(p1s[at], frontier.p1) and np.array_equal(p2s[at], frontier.p2)
    assert np.array_equal(r1.ravel()[at], frontier.x) and np.array_equal(r2.ravel()[at], frontier.y)
