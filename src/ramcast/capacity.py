"""Shannon capacity region of the two-source random-access multicast system.

At fixed access probabilities the achievable rate of source 1 is capped,
at each destination m, by the per-slot probability that a packet from
source 1 lands there:

    r1(m) = p1 * ((1-p2)*q_solo[1][m] + p2*q_joint[1][m])

and symmetrically for source 2.  The capacity region is the closure of
these caps over all (p1, p2); the finite-packet-length mutual
informations behind that statement carry an extra binary-entropy term of
protocol (timing) information per source which vanishes in packets/slot
as the packet length u grows.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import AccessProbabilities, ChannelModel
from .regions import RegionFrontier, factored_rates, sweep

__all__ = [
    "RateBounds",
    "MutualInfoReport",
    "binary_entropy",
    "rate_bounds",
    "rate_bounds_grid",
    "mutual_info",
    "capacity_sweep",
]


def binary_entropy(p: float) -> float:
    """h_b(p) in bits, with the limit convention h_b(0) = h_b(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class RateBounds:
    """Min-over-destinations rate caps (packets/slot) at one (p1, p2)."""

    r1_max: float
    r2_max: float


def rate_bounds(channel: ChannelModel, access: AccessProbabilities) -> RateBounds:
    """Rate caps at fixed access probabilities (the capacity integrand).

    They also bound every policy's backlogged service rate (Jensen): the
    service time is the max of the per-destination delivery times, and
    E[max] >= the max of the expectations, so mu_nb never exceeds the
    min-over-destinations success rate, which is exactly this cap.
    """
    r1, r2 = rate_bounds_grid(channel, [access.p1], [access.p2])
    return RateBounds(r1_max=float(r1[0]), r2_max=float(r2[0]))


def rate_bounds_grid(
    channel: ChannelModel, p1: np.ndarray, p2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized rate caps over paired arrays of access probabilities."""
    return factored_rates(
        lambda source, q: np.minimum(*channel.reception(source, q)[:2]), p1, p2
    )


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


def mutual_info(
    channel: ChannelModel, access: AccessProbabilities, u: float
) -> MutualInfoReport:
    """Closed-form conditional and joint mutual informations at packet length u bits."""
    if u < 1:
        raise ValueError(f"packet length u must be >= 1 bit, got {u!r}")
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


def capacity_sweep(
    channel: ChannelModel, grid_step: float = 0.01
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, RegionFrontier]:
    """Evaluate the rate caps over the (p1, p2) grid and reduce to a frontier.

    Returns (p1, p2, r1, r2, frontier) with the first four as flat arrays
    covering the full grid.
    """
    return sweep(functools.partial(rate_bounds_grid, channel), grid_step, "capacity")
