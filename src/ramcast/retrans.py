"""Closed-form service rates for the retransmission policy.

The head-of-line packet is retransmitted (with access probability p_n)
until both destinations have acknowledged it, so the service time is the
maximum of two coupled geometric times.  With per-slot success
probabilities a = p*phi (destination 1), b = p*sigma (destination 2) and
c = p*tau (both in the same slot), where (phi, sigma, tau) come from
``ChannelModel.reception``, E[max] = 1/a + 1/b - 1/(a+b-c), which gives
the backlogged rate mu_b = p * g with

    g = phi*sigma*(phi+sigma-tau) / ((phi+sigma)*(phi+sigma-tau) - phi*sigma).

The empty rate is the same expression with the other source's access
probability set to 0.
"""
from __future__ import annotations

import numpy as np

from .channel import AccessProbabilities, ChannelModel
from .regions import ServiceRates, service_rates

__all__ = [
    "retrans_service_rates",
    "service_rates_grid",
]


def _rate_formula(phi, sigma, tau):
    """g_n = mu_nb / p_own over arrays of (phi, sigma, tau), with the
    dead-channel guard: 0 where phi*sigma == 0 (the packet can never
    finish service), which is the limit of the closed form.
    """
    live = phi * sigma > 0
    denom = np.where(
        live, (phi + sigma) * (phi + sigma - tau) - phi * sigma, 1.0
    )
    return np.where(live, phi * sigma * (phi + sigma - tau) / denom, 0.0)


def retrans_service_rates(
    channel: ChannelModel, access: AccessProbabilities
) -> ServiceRates:
    """Backlogged and empty service rates for both sources."""
    return service_rates("retrans", channel, access)


def service_rates_grid(channel: ChannelModel, q: np.ndarray) -> np.ndarray:
    """g_n(q) = mu_nb / p_own of each source at the other source's access
    values q, as a (2, len(q)) array."""
    return np.stack([_rate_formula(*channel.reception(source, q)) for source in (1, 2)])
