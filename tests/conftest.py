from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from ramcast.capacity import rate_bounds_grid
from ramcast.channel import AccessProbabilities, ChannelModel, strong_mpr, weak_mpr


@pytest.fixture
def strong():
    return strong_mpr()


@pytest.fixture
def weak():
    return weak_mpr()


def random_channel(rng: np.random.Generator) -> ChannelModel:
    """A random valid channel: q_joint strictly below q_solo on every link."""
    solo = rng.uniform(0.05, 1.0, size=4)
    joint = solo * rng.uniform(0.0, 0.98, size=4)
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
    """The capacity caps (r1, r2) at one (p1, p2), from ``rate_bounds_grid``."""
    r1, r2 = rate_bounds_grid(channel, [p1], [p2])
    return float(r1[0]), float(r2[0])


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
