"""Shannon capacity region of the two-source random-access multicast system.

At fixed access probabilities the achievable rate of source 1 is capped,
at each destination m, by the per-slot probability that a packet from
source 1 lands there:

    r1(m) = p1 * ((1-p2)*q_solo[1][m] + p2*q_joint[1][m])

and symmetrically for source 2.  The capacity region is the closure of
these caps over all (p1, p2).  At a finite packet length of u bits each
source's mutual information also carries a binary-entropy term of
protocol (timing) information, h_b(p_n) bits per slot; divided by u it
vanishes as u grows, so the caps are the packets/slot limit.  The tests
check that limit against the mutual information of the enumerated
finite-u channel.
"""
from __future__ import annotations

import numpy as np

from .channel import ChannelModel
from .regions import RegionFrontier, sweep

__all__ = [
    "rate_bounds_grid",
    "capacity_sweep",
]


def rate_bounds_grid(channel: ChannelModel, q: np.ndarray) -> np.ndarray:
    """Min-over-destinations success probabilities c_n(q) of one
    transmission of each source, at the other source's access values q,
    as a (2, len(q)) array: the rate caps are p_own * c_n(p_other) in
    packets/slot (the capacity integrand).

    They also bound every policy's backlogged service rate (Jensen): the
    service time is the max of the per-destination delivery times, and
    E[max] >= the max of the expectations, so mu_nb never exceeds the
    min-over-destinations success rate, which is exactly this cap.
    """
    return np.stack([np.minimum(*channel.reception(source, q)[:2]) for source in (1, 2)])


def capacity_sweep(
    channel: ChannelModel, grid_step: float = 0.01
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, RegionFrontier]:
    """Evaluate the rate caps over the (p1, p2) grid and reduce to a frontier.

    Returns (grid, c, r1, r2, frontier) as ``regions.sweep`` lays them
    out: ``c`` is c_n on the grid and ``r[i, j]`` the cap at
    (p1, p2) = (grid[i], grid[j]).
    """
    return sweep("capacity", channel, grid_step)
