from __future__ import annotations

from decimal import Context, Decimal, localcontext
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import strategies as st

from ramcast.channel import AccessProbabilities, ChannelModel, strong_mpr, weak_mpr
from ramcast.regions import region_rates


@pytest.fixture
def strong():
    return strong_mpr()


@pytest.fixture
def weak():
    return weak_mpr()


# Hand-written, with source 1's links unlike source 2's mirrored ones, so
# swapping p1 and p2 or rows and columns changes the rates, and with
# q_joint[n][1] != q_joint[n][2], so does swapping a source's destinations.
ASYMMETRIC = ChannelModel(q_solo=((0.9, 0.55), (0.7, 0.85)), q_joint=((0.45, 0.2), (0.3, 0.6)))


def random_channel(
    rng: np.random.Generator, solo_low: float = 0.05, joint_frac: float = 0.98
) -> ChannelModel:
    """A random valid channel: q_solo ~ U(solo_low, 1) and q_joint ~
    U(0, joint_frac) * q_solo on each link, so q_joint is strictly below
    q_solo."""
    solo = rng.uniform(solo_low, 1.0, size=4)
    joint = solo * rng.uniform(0.0, joint_frac, size=4)
    return ChannelModel(
        q_solo=((solo[0], solo[1]), (solo[2], solo[3])),
        q_joint=((joint[0], joint[1]), (joint[2], joint[3])),
    )


@st.composite
def channel_models(draw) -> ChannelModel:
    probs = st.floats(0.05, 1.0, allow_nan=False)
    fracs = st.floats(0.0, 0.98, allow_nan=False)
    solo = [draw(probs) for _ in range(4)]
    joint = [s * draw(fracs) for s in solo]
    return ChannelModel(
        q_solo=((solo[0], solo[1]), (solo[2], solo[3])),
        q_joint=((joint[0], joint[1]), (joint[2], joint[3])),
    )


@st.composite
def access_probs(draw) -> AccessProbabilities:
    p = st.floats(0.0, 1.0, allow_nan=False)
    return AccessProbabilities(draw(p), draw(p))


def rate_caps(channel: ChannelModel, p1: float, p2: float) -> tuple[float, float]:
    """The capacity caps (r1, r2) at one (p1, p2): p_own * c_n(p_other),
    with c_n from ``region_rates``."""
    c = region_rates("capacity", channel, [p2, p1])
    return float(p1 * c[0, 0]), float(p2 * c[1, 1])


def rate_tables(axis_rates, channel, p1, p2, *args) -> tuple[np.ndarray, np.ndarray]:
    """Rate tables ``mu1[i, j] = p1[i] * g_1(p2[j])`` and
    ``mu2[i, j] = g_2(p1[i]) * p2[j]`` over two access axes, from a region
    kind's axis function ``axis_rates(channel, q, *args)``, which gives
    g_n(q) as a (2, len(q)) array: the tables ``regions.sweep`` forms on
    its grid."""
    p1, p2 = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
    return (
        np.multiply.outer(p1, axis_rates(channel, p2, *args)[0]),
        np.multiply.outer(axis_rates(channel, p1, *args)[1], p2),
    )


def chain_states(chain) -> list[tuple[int, int, int]]:
    """Every state (i, j, k) of a built chain, in index order."""
    space = chain.space
    return list(zip(space.I.tolist(), space.J.tolist(), space.C.tolist()))


def dense_stationary(chain) -> np.ndarray:
    """Stationary distribution of the renewal-closed chain by a dense solve.

    Builds the full row-stochastic matrix (self-loops, the level-raising
    edges, and the renewal rows (K, K, k) -> (0, 0, 0)) and solves the
    balance equations directly; this is the oracle for the library's
    visit-count pass.
    """
    n = chain.self_p.size
    P = np.diag(chain.self_p)
    np.add.at(P, (chain.space.e_src, chain.space.e_dst), chain.e_prob)
    P[chain.space.absorbing, 0] = 1.0  # (0, 0, 0), the only level-0 state
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    resid = float(np.max(np.abs(pi @ P - pi)))
    assert resid <= 1e-9 and np.min(pi) >= -1e-9, (
        f"balance solution unreliable (residual {resid:.3e}, min {float(np.min(pi)):.3e})"
    )
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def flux_rate(chain, pi: np.ndarray) -> float:
    """Service rate from a stationary distribution of the closed chain.

    K times the per-slot flux into the completion states, normalized to
    the slots spent in service (the renewal closure parks one bookkeeping
    slot per cycle in a completion state).
    """
    is_abs = np.zeros(chain.self_p.size, dtype=bool)
    is_abs[chain.space.absorbing] = True
    into = is_abs[chain.space.e_dst]
    flux = float(np.sum(pi[chain.space.e_src[into]] * chain.e_prob[into]))
    return chain.K * flux / (1.0 - float(pi[chain.space.absorbing].sum()))


@lru_cache(maxsize=None)
def _span_with(span: int, v: int) -> int:
    """The span of ``span`` and the vector ``v``.

    A span is an integer bitmask over the 2^K vectors of GF(2)^K: bit u
    is set iff u lies in the subspace.  Adding v outside it adds the
    coset u ^ v of every member u.
    """
    if span >> v & 1:
        return span
    out, u, rest = span, 0, span
    while rest:
        if rest & 1:
            out |= 1 << (u ^ v)
        rest >>= 1
        u += 1
    return out


def _dim(span: int) -> int:
    """Dimension of a bitmask span (it holds 2^dim vectors)."""
    return span.bit_count().bit_length() - 1


@lru_cache(maxsize=None)
def subspace_pair_visits(
    channel: ChannelModel, source: int, p_other: float, K: int
) -> dict[tuple[int, int, int], float]:
    """Expected visits per generation to each (dim V1, dim V2, dim V1∩V2)
    class, from a chain on the actual pair of received spans.

    The source transmits in every slot (p_own = 1) and the other source
    with probability ``p_other``.  The state is the pair (V1, V2) of
    spans the two destinations hold.  Each slot's packet reaches each
    destination independently with the channel's solo or joint
    probability, and its coefficient vector is uniform over GF(2)^K, so
    every transition is enumerated explicitly.  Every transition keeps
    the pair or raises dim V1 + dim V2, so one forward pass by that sum
    gives the expected visits; the completion pair (GF(2)^K, GF(2)^K)
    is not counted.  The pass runs in 40-digit decimals, whose exponent
    range holds visit counts far below the smallest double without loss,
    so each count is rounded to a double once, at the end.  Results are
    cached: callers must not mutate them.
    """
    with localcontext(Context(prec=40)):
        return _subspace_pair_visits(channel, source, Decimal(p_other), K)


def _subspace_pair_visits(
    channel: ChannelModel, source: int, p_other: Decimal, K: int
) -> dict[tuple[int, int, int], float]:
    q1, q2 = Decimal(channel.solo(source, 1)), Decimal(channel.solo(source, 2))
    j1, j2 = Decimal(channel.joint(source, 1)), Decimal(channel.joint(source, 2))

    def hit(q, got):
        return q if got else 1 - q

    patterns = [
        (got1, got2, (1 - p_other) * hit(q1, got1) * hit(q2, got2)
         + p_other * hit(j1, got1) * hit(j2, got2))
        for got1 in (False, True)
        for got2 in (False, True)
    ]
    n_vec = 1 << K
    full = (1 << n_vec) - 1
    levels: list[dict[tuple[int, int], Decimal]] = [{} for _ in range(2 * K + 1)]
    levels[0][(1, 1)] = Decimal(1)  # a generation starts with both spans {0}
    out: dict[tuple[int, int, int], Decimal] = {}
    for level in levels[:-1]:
        for (v1, v2), inflow in level.items():
            new1 = [_span_with(v1, v) for v in range(n_vec)]
            new2 = [_span_with(v2, v) for v in range(n_vec)]
            moves: dict[tuple[int, int], Decimal] = {}
            for got1, got2, w in patterns:
                for v in range(n_vec):
                    t = (new1[v] if got1 else v1, new2[v] if got2 else v2)
                    moves[t] = moves.get(t, 0) + w / n_vec
            visits = inflow / (1 - moves.pop((v1, v2), 0))
            cls = (_dim(v1), _dim(v2), _dim(v1 & v2))
            out[cls] = out.get(cls, 0) + visits
            for (t1, t2), prob in moves.items():
                if (t1, t2) != (full, full):
                    nxt = levels[_dim(t1) + _dim(t2)]
                    nxt[(t1, t2)] = nxt.get((t1, t2), 0) + visits * prob
    return {cls: float(visits) for cls, visits in out.items()}
