"""Closed-form service rates for the retransmission policy.

The head-of-line packet is retransmitted (with access probability p_n)
until both destinations have acknowledged it, so the service time is the
maximum of two coupled geometric times.  With per-transmission success
probabilities a = p*phi (destination 1), b = p*sigma (destination 2) and
c = p*tau (both in the same slot), E[max] = 1/a + 1/b - 1/(a+b-c), which
gives the backlogged rate

    mu_b = p*phi*sigma*(phi+sigma-tau) / ((phi+sigma)*(phi+sigma-tau) - phi*sigma).

The empty-rate variant re-evaluates the same expression with the other
source's access probability set to 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import AccessProbabilities, ChannelModel
from .regions import factored_rates

__all__ = [
    "ServiceRates",
    "retrans_service_rates",
    "service_rates_grid",
]

_TOL = 1e-12


@dataclass(frozen=True)
class ServiceRates:
    """Backlogged/empty service rates (packets/slot), indexed by source - 1."""

    backlogged: tuple[float, float]
    empty: tuple[float, float]
    policy: str = "retrans"
    generation_size: int = 1

    def __post_init__(self) -> None:
        for n in (0, 1):
            mb, me = self.backlogged[n], self.empty[n]
            if not -_TOL <= mb <= me + _TOL or me > 1.0 + _TOL:
                raise ValueError(
                    f"service rates for source {n + 1} violate "
                    f"0 <= mu_b={mb!r} <= mu_e={me!r} <= 1"
                )


def _success_triplet(channel: ChannelModel, source: int, p_other) -> tuple:
    """phi, sigma, tau for one source given the other's access probability."""
    s1, s2 = channel.solo(source, 1), channel.solo(source, 2)
    j1, j2 = channel.joint(source, 1), channel.joint(source, 2)
    phi = (1 - p_other) * s1 + p_other * j1
    sigma = (1 - p_other) * s2 + p_other * j2
    tau = (1 - p_other) * s1 * s2 + p_other * j1 * j2
    return phi, sigma, tau


def _rate_formula(p, phi, sigma, tau):
    """Backlogged service rate; vectorized, with the dead-channel guard.

    Returns 0 where p*phi*sigma == 0 (the packet can never finish
    service), which is the limit of the closed form.
    """
    p = np.asarray(p, dtype=float)
    phi = np.asarray(phi, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    tau = np.asarray(tau, dtype=float)
    live = p * phi * sigma > 0
    denom = np.where(
        live, (phi + sigma) * (phi + sigma - tau) - phi * sigma, 1.0
    )
    rate = np.where(live, p * phi * sigma * (phi + sigma - tau) / denom, 0.0)
    if rate.ndim == 0:
        return float(rate)
    return rate


def retrans_service_rates(
    channel: ChannelModel, access: AccessProbabilities
) -> ServiceRates:
    """Backlogged and empty service rates for both sources."""
    mu_b = []
    mu_e = []
    for source, p_own, p_other in ((1, access.p1, access.p2), (2, access.p2, access.p1)):
        mu_b.append(_rate_formula(p_own, *_success_triplet(channel, source, p_other)))
        mu_e.append(_rate_formula(p_own, *_success_triplet(channel, source, 0.0)))
    return ServiceRates(backlogged=(mu_b[0], mu_b[1]), empty=(mu_e[0], mu_e[1]))


def service_rates_grid(
    channel: ChannelModel, p1: np.ndarray, p2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized backlogged rates (mu_1b, mu_2b) over access-probability arrays."""
    return factored_rates(
        lambda source, q: _rate_formula(1.0, *_success_triplet(channel, source, q)),
        p1,
        p2,
    )
