import numpy as np
import pytest
from hypothesis import given, settings

from ramcast.capacity import rate_bounds_grid
from ramcast.channel import AccessProbabilities, ChannelModel, collision_channel
from ramcast.regions import ServiceRates
from ramcast.retrans import retrans_service_rates, service_rates_grid

from conftest import access_probs, channel_models, random_channel, rate_caps, rate_tables

PERFECT = ChannelModel(q_solo=((1.0, 1.0), (1.0, 1.0)), q_joint=((1.0, 1.0), (1.0, 1.0)))


def test_success_params_strong_example(strong):
    phi, _, tau = strong.reception(1, 0.5)
    # 0.5*0.8 + 0.5*0.6 and 0.5*(0.8*0.7) + 0.5*(0.6*0.6)
    assert phi == pytest.approx(0.7, abs=1e-12)
    assert tau == pytest.approx(0.46, abs=1e-12)


def test_success_params_collision_sole_transmitter():
    # Source 1 transmits alone because p2 = 0.
    assert collision_channel().reception(1, 0.0) == (1.0, 1.0, 1.0)


def test_success_params_invariants_random():
    rng = np.random.default_rng(5)
    for _ in range(300):
        ch = random_channel(rng)
        p1, p2 = rng.uniform(0, 1, 2)
        for source, p_other in ((1, p2), (2, p1)):
            phi, sigma, tau = ch.reception(source, p_other)
            assert tau <= min(phi, sigma) + 1e-12
            assert tau >= phi + sigma - 1.0 - 1e-12


def test_perfect_channel_rate_is_access_probability():
    rates = retrans_service_rates(PERFECT, AccessProbabilities(0.37, 0.83))
    assert rates.backlogged[0] == pytest.approx(0.37, abs=1e-12)
    assert rates.backlogged[1] == pytest.approx(0.83, abs=1e-12)


def test_strong_mpr_backlogged_rate(strong):
    rates = retrans_service_rates(strong, AccessProbabilities(0.5, 0.5))
    # E[max of the two coupled geometrics]: 1/a + 1/b - 1/(a+b-c) with
    # a = 0.5*0.7, b = 0.5*0.65, c = 0.5*0.46.
    a, b, c = 0.5 * 0.7, 0.5 * 0.65, 0.5 * 0.46
    expected = 1.0 / (1 / a + 1 / b - 1 / (a + b - c))
    assert rates.backlogged[0] == pytest.approx(expected, abs=1e-12)
    assert rates.backlogged[0] == pytest.approx(0.2712, abs=5e-5)


def test_empty_rate_is_backlogged_at_zero(strong):
    rates = retrans_service_rates(strong, AccessProbabilities(0.5, 0.5))
    solo_only = retrans_service_rates(strong, AccessProbabilities(0.5, 0.0))
    assert rates.empty[0] == solo_only.backlogged[0]
    # phi = 0.8, sigma = 0.7, tau = 0.56 at p2 = 0
    expected = 0.5 * 0.8 * 0.7 * (1.5 - 0.56) / (1.5 * (1.5 - 0.56) - 0.56)
    assert rates.empty[0] == pytest.approx(expected, abs=1e-12)


def test_dead_source_rate_zero(strong):
    rates = retrans_service_rates(strong, AccessProbabilities(0.0, 0.5))
    assert rates.backlogged[0] == 0.0
    assert rates.empty[0] == 0.0


def test_jensen_bound_equals_rate_bounds(strong):
    # The Jensen bound p_n * min(phi, sigma) is the capacity integrand.
    r1, r2 = rate_caps(strong, 0.3, 0.9)
    phi, sigma, _ = strong.reception(1, 0.9)
    assert r1 == pytest.approx(0.3 * min(phi, sigma), abs=1e-15)
    phi, sigma, _ = strong.reception(2, 0.3)
    assert r2 == pytest.approx(0.9 * min(phi, sigma), abs=1e-15)


def test_jensen_bound_examples(strong):
    access = AccessProbabilities(0.5, 0.5)
    assert rate_caps(strong, 0.5, 0.5)[0] == pytest.approx(0.325, abs=1e-12)
    assert retrans_service_rates(strong, access).backlogged[0] <= 0.325
    coll = collision_channel()
    assert rate_caps(coll, 0.5, 0.5)[0] == pytest.approx(0.25, abs=1e-12)
    assert retrans_service_rates(coll, access).backlogged[0] <= 0.25 + 1e-12


def test_jensen_dominance_bulk_random():
    # 100 random channels over two random 100-value axes: 10^6 cells, mu_nb <= bound.
    rng = np.random.default_rng(17)
    for _ in range(100):
        ch = random_channel(rng)
        p1 = rng.uniform(0, 1, 100)
        p2 = rng.uniform(0, 1, 100)
        b1, b2 = rate_tables(rate_bounds_grid, ch, p1, p2)
        m1, m2 = rate_tables(service_rates_grid, ch, p1, p2)
        assert np.all(m1 <= b1 + 1e-12)
        assert np.all(m2 <= b2 + 1e-12)


@settings(max_examples=200)
@given(channel_models(), access_probs())
def test_jensen_dominance_property(ch, access):
    rates = retrans_service_rates(ch, access)
    r1, r2 = rate_caps(ch, access.p1, access.p2)
    assert rates.backlogged[0] <= r1 + 1e-12
    assert rates.backlogged[1] <= r2 + 1e-12


@settings(max_examples=200)
@given(channel_models(), access_probs())
def test_backlogged_never_exceeds_empty(ch, access):
    rates = retrans_service_rates(ch, access)
    for n in (0, 1):
        assert 0.0 <= rates.backlogged[n] <= rates.empty[n] + 1e-12
        assert rates.empty[n] <= 1.0 + 1e-12


def test_degenerate_second_destination_reduces_to_single_link():
    # Destination 2 always receives; the service rate collapses to the
    # single-destination rate p1 * phi1.
    ch = ChannelModel(q_solo=((0.8, 1.0), (0.7, 0.8)), q_joint=((0.5, 1.0), (0.6, 0.6)))
    access = AccessProbabilities(0.6, 0.4)
    phi1 = 0.6 * 0.8 + 0.4 * 0.5
    rates = retrans_service_rates(ch, access)
    assert rates.backlogged[0] == pytest.approx(0.6 * phi1, abs=1e-12)


def test_service_rates_invariant_enforced():
    with pytest.raises(ValueError):
        ServiceRates(backlogged=(0.5, 0.5), empty=(0.4, 0.5))
