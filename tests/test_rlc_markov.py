import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcast.capacity import rate_bounds_grid
from ramcast.channel import PRESETS, AccessProbabilities, ChannelModel
from ramcast.gf2 import expected_decode_count
from ramcast.rlc_markov import (
    _EXACT_FAMS,
    _PAPER_FAMS,
    _chunk_rows,
    _state_space,
    _visit_counts,
    build_chain,
    rlc_service_rates,
    service_rate,
    service_rates_grid,
)

from conftest import (
    chain_states,
    channel_models,
    dense_stationary,
    flux_rate,
    random_channel,
    rate_caps,
    rate_tables,
    subspace_pair_visits,
)

PERFECT = ChannelModel(q_solo=((1.0, 1.0), (1.0, 1.0)), q_joint=((1.0, 1.0), (1.0, 1.0)))
ACCESS = AccessProbabilities(0.5, 0.5)


def absorbing_entry_sets(K):
    """The paper's A_0 .. A_K: states with a one-step transition into each
    completion state (K, K, k).

    Members with k - 1 < 0 or violating k <= min(i, j) are dropped.
    """

    def valid(s):
        i, j, k = s
        return 0 <= k <= min(i, j) and 0 <= i <= K and 0 <= j <= K

    out = []
    for k in range(K):
        cands = [
            (K - 1, K, k),
            (K - 1, K, k - 1),
            (K, K - 1, k),
            (K, K - 1, k - 1),
            (K - 1, K - 1, k - 1),
        ]
        out.append(frozenset(s for s in cands if valid(s)))
    cands = [(K - 1, K, K - 1), (K, K - 1, K - 1), (K - 1, K - 1, K - 1)]
    out.append(frozenset(s for s in cands if valid(s)))
    return out


def test_k1_state_space(strong):
    chain = build_chain(strong, ACCESS, K=1)
    assert set(chain_states(chain)) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)}


@pytest.mark.parametrize("K", [1, 2, 3, 6])
def test_absorbing_state_count(strong, K):
    chain = build_chain(strong, ACCESS, K=K)
    states = chain_states(chain)
    absorbing = [states[n] for n in chain.space.absorbing]
    assert len(absorbing) == K + 1
    assert all(i == K and j == K for i, j, _ in absorbing)


def test_absorbing_entry_sets_examples():
    sets4 = absorbing_entry_sets(4)
    assert len(sets4) == 5
    assert len(sets4[4]) == 3
    assert sets4[4] == {(3, 4, 3), (4, 3, 3), (3, 3, 3)}
    assert sets4[0] == {(3, 4, 0), (4, 3, 0)}
    sets1 = absorbing_entry_sets(1)
    assert sets1[0] == {(0, 1, 0), (1, 0, 0)}
    assert sets1[1] == {(0, 1, 0), (1, 0, 0), (0, 0, 0)}


def test_absorbing_entry_sets_match_chain_edges(strong):
    K = 3
    chain = build_chain(strong, ACCESS, K=K)
    sets = absorbing_entry_sets(K)
    states = chain_states(chain)
    idx = {s: n for n, s in enumerate(states)}
    for k in range(K + 1):
        target = idx[(K, K, k)]
        preds = {
            states[s]
            for s, d in zip(chain.space.e_src.tolist(), chain.space.e_dst.tolist())
            if d == target
        }
        assert preds <= sets[k]


@pytest.mark.parametrize("variant", ["paper", "exact"])
@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6, 7, 8])
def test_row_sums_are_stochastic(K, variant):
    rng = np.random.default_rng(100 + K)
    for _ in range(4):
        ch = random_channel(rng)
        access = AccessProbabilities(*rng.uniform(0, 1, 2))
        source = int(rng.integers(1, 3))
        chain = build_chain(ch, access, source=source, K=K, variant=variant)
        assert float(np.abs(chain.row_sums() - 1.0).max()) <= 1e-12


@pytest.mark.parametrize("variant", ["paper", "exact"])
def test_transitions_only_upward(strong, variant):
    chain = build_chain(strong, ACCESS, K=4, variant=variant)
    states = chain_states(chain)
    for s, d in zip(chain.space.e_src.tolist(), chain.space.e_dst.tolist()):
        assert sum(states[d]) > sum(states[s])


def test_perfect_channel_k1_hand_solve():
    # Single source on a perfect channel: the only randomness is the fair
    # coefficient bit, so the service time is geometric(1/2) and the rate
    # is 1/2 packet/slot; the closed chain splits 2/3 : 1/3 between the
    # start state and the completion state.
    chain = build_chain(PERFECT, AccessProbabilities(1.0, 0.0), source=1,
                        other_backlogged=False, K=1)
    assert _visit_counts(chain).sum() == pytest.approx(2.0, abs=1e-12)
    assert service_rate(chain) == pytest.approx(0.5, abs=1e-12)
    pi = dense_stationary(chain)
    lookup = {s: p for s, p in zip(chain_states(chain), pi)}
    assert lookup[(0, 0, 0)] == pytest.approx(2 / 3, abs=1e-12)
    assert lookup[(1, 1, 1)] == pytest.approx(1 / 3, abs=1e-12)
    assert flux_rate(chain, pi) == pytest.approx(0.5, abs=1e-12)


def test_steady_state_sums_to_one(strong, weak):
    for ch in (strong, weak):
        for K in (1, 2, 5):
            chain = build_chain(ch, ACCESS, K=K)
            pi = dense_stationary(chain)
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pi >= 0)


def test_steady_state_methods_agree_at_k16(strong):
    # Per-cycle visit counts, with the completion states weighted by their
    # entry probabilities, are the stationary distribution up to scale.
    chain = build_chain(strong, ACCESS, K=16)
    visits = _visit_counts(chain)
    # A completion state is entered once per cycle it completes in: its
    # weight is the flux into it along the edges.
    flux = np.zeros_like(visits)
    np.add.at(flux, chain.space.e_dst, visits[chain.space.e_src] * chain.e_prob)
    dp = visits.copy()
    dp[chain.space.absorbing] = flux[chain.space.absorbing]
    dp /= dp.sum()
    assert float(np.abs(dense_stationary(chain) - dp).max()) < 1e-10


@pytest.mark.parametrize("variant", ["paper", "exact"])
@pytest.mark.parametrize("K", [1, 2, 4, 8])
def test_flux_formula_equals_renewal_rate(strong, K, variant):
    # The chain is that of g_n (p_own = 1); its rate scales by p_own.
    chain = build_chain(strong, ACCESS, K=K, variant=variant)
    pi = dense_stationary(chain)
    assert chain.p_own * flux_rate(chain, pi) == pytest.approx(
        service_rate(chain), abs=1e-10
    )


def test_rlc_service_rates_structure(strong):
    rates = rlc_service_rates(strong, ACCESS, K=2)
    assert rates.generation_size == 2
    for n in (0, 1):
        assert 0.0 <= rates.backlogged[n] <= rates.empty[n] <= 1.0


def test_rate_dominated_by_capacity_bound(strong, weak):
    for ch in (strong, weak):
        grid = np.linspace(0, 1, 6)
        r1, r2 = rate_tables(rate_bounds_grid, ch, grid, grid)
        for K in (1, 3):
            m1, m2 = rate_tables(service_rates_grid, ch, grid, grid, K)
            assert np.all(m1 <= r1 + 1e-12)
            assert np.all(m2 <= r2 + 1e-12)


def test_rate_grows_with_k_toward_bound(strong):
    bound = rate_caps(strong, ACCESS.p1, ACCESS.p2)[0]
    rates = [
        service_rate(build_chain(strong, ACCESS, K=K)) for K in (1, 2, 4, 8, 16, 32)
    ]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert all(r < bound for r in rates)
    assert bound - rates[-1] < 0.1 * bound


def test_degenerate_destination_wald_identity():
    # Destination 2 always receives, so the service time is the dest-1
    # decode time: E[T] = E[N] / (p1 * phi1) and mu = K * p1 * phi1 / E[N].
    ch = ChannelModel(q_solo=((0.8, 1.0), (0.7, 0.8)), q_joint=((0.5, 1.0), (0.6, 0.6)))
    access = AccessProbabilities(0.6, 0.4)
    q_eff = 0.6 * (0.8 * 0.6 + 0.5 * 0.4)
    for K in (1, 2, 4, 8):
        wald = K * q_eff / expected_decode_count(K)
        exact = service_rate(build_chain(ch, access, source=1, K=K, variant="exact"))
        assert exact == pytest.approx(wald, abs=1e-9)
        # The published table's count-based correlation coordinate only
        # approximates this identity.
        paper = service_rate(build_chain(ch, access, source=1, K=K, variant="paper"))
        assert paper == pytest.approx(wald, rel=0.02)


def test_paper_variant_k1_matches_exact(strong):
    for p in (0.3, 0.7, 1.0):
        access = AccessProbabilities(p, 0.4)
        a = service_rate(build_chain(strong, access, K=1, variant="paper"))
        b = service_rate(build_chain(strong, access, K=1, variant="exact"))
        assert a == pytest.approx(b, abs=1e-12)


ORACLE_CASES = list(itertools.product((1, 2), (0.0, 0.4, 0.7, 1.0)))


def _full_access(source, p_other):
    return AccessProbabilities(*((1.0, p_other) if source == 1 else (p_other, 1.0)))


# Below the smallest normal double a visit count is a multiple of 2^-1074
# with fewer than 53 significant bits, so a relative bound cannot hold
# there: the chain multiplies tiny reception weights (p_other, q_joint or
# their product near 2^-1074) into subnormal intermediates, each rounded
# to a whole step, and the visit counts after them scale that rounding.
# Checked against exact rational arithmetic, the chain was 0.6-121 steps
# off on the counts that broke rtol 1e-12 over 1,000 random seeds (the
# oracle within half a step), and 121 steps was also the largest gap over
# 80,000 examples.  Subnormal counts must agree within 1,024 steps.
SUBNORMAL_STEPS = 1024


def _assert_visits_match_oracle(channel, source, p_other, K):
    # (i, j, k) is lossless: the chain's expected visits per state equal
    # those of the chain on the actual pair of spans, summed per class.
    chain = build_chain(channel, _full_access(source, p_other), source, K=K, variant="exact")
    transient = np.setdiff1d(np.arange(chain.self_p.size), chain.space.absorbing)
    states = [chain_states(chain)[n] for n in transient]
    oracle = subspace_pair_visits(channel, source, p_other, K)
    assert set(oracle) <= set(states)
    expected = np.array([oracle.get(s, 0.0) for s in states])
    visits = _visit_counts(chain)[transient]
    normal = expected >= np.finfo(float).smallest_normal
    np.testing.assert_allclose(visits[normal], expected[normal], rtol=1e-12, atol=0)
    np.testing.assert_allclose(visits[~normal], expected[~normal], rtol=0,
                               atol=SUBNORMAL_STEPS * 2.0**-1074)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("preset", ["strong_mpr", "weak_mpr"])
def test_exact_chain_visits_match_subspace_pair_oracle(preset, K):
    for source, p_other in ORACLE_CASES:
        _assert_visits_match_oracle(PRESETS[preset](), source, p_other, K)


# p_other stays below 1: a random channel may have no joint reception at all.
@settings(max_examples=20, deadline=None)
@given(channel_models(), st.sampled_from([1, 2]), st.floats(0.0, 0.9), st.integers(1, 3))
def test_exact_chain_visits_match_oracle_on_random_channels(ch, source, p_other, K):
    _assert_visits_match_oracle(ch, source, p_other, K)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("preset", ["strong_mpr", "weak_mpr"])
def test_paper_chain_bias_against_subspace_pair_oracle(preset, K):
    # The published table approximates the overlap of the two spans by
    # 2^k; that is exact at K = 1 and reads 0.25%-1.53% low at K = 2-4.
    channel = PRESETS[preset]()
    for source, p_other in ORACLE_CASES:
        exact = K / sum(subspace_pair_visits(channel, source, p_other, K).values())
        chain = build_chain(channel, _full_access(source, p_other), source, K=K, variant="paper")
        bias = (exact - service_rate(chain)) / exact
        if K == 1:
            assert abs(bias) <= 1e-12
        else:
            assert 0.002 <= bias <= 0.016, (source, p_other)


def test_dead_parameters_give_zero_rate(strong):
    assert service_rate(build_chain(strong, AccessProbabilities(0.0, 0.5), K=2)) == 0.0
    dead = ChannelModel(q_solo=((0.0, 0.0), (0.0, 0.0)), q_joint=((0.0, 0.0), (0.0, 0.0)))
    assert service_rate(build_chain(dead, ACCESS, K=1)) == 0.0


def test_build_chain_validates_parameters(strong):
    with pytest.raises(ValueError, match="K must be in \\[1"):
        build_chain(strong, ACCESS, K=0)
    with pytest.raises(ValueError, match="K must be in \\[1"):
        build_chain(strong, ACCESS, K=65)
    with pytest.raises(ValueError):
        build_chain(strong, ACCESS, K=2, variant="approx")
    with pytest.raises(ValueError):
        build_chain(strong, ACCESS, source=3, K=2)


@settings(max_examples=25, deadline=None)
@given(channel_models(), st.floats(0.05, 1.0, allow_nan=False))
def test_rate_factors_out_own_access(ch, p_own):
    # mu_nb(p_own, p_other) = p_own * mu_nb(1, p_other), and a destination
    # that never receives makes the rate 0 at every p_own.
    for variant in ("paper", "exact"):
        for K in (1, 4, 10):
            for p_other in (0.0, 0.3, 0.7, 1.0):
                for source in (1, 2):
                    def rate(p):
                        pair = (p, p_other) if source == 1 else (p_other, p)
                        access = AccessProbabilities(*pair)
                        return service_rate(build_chain(ch, access, source, True, K, variant))

                    q_min = min(
                        (1 - p_other) * ch.solo(source, m) + p_other * ch.joint(source, m)
                        for m in (1, 2)
                    )
                    if q_min == 0.0:
                        assert rate(p_own) == rate(1.0) == 0.0
                    elif p_own * q_min >= 1e-3:
                        assert rate(p_own) == pytest.approx(
                            p_own * rate(1.0), rel=1e-12, abs=0
                        )


@pytest.mark.parametrize("p_own", [1e-300, 1e-16, 1e-14, 0.3, 1.0])
@pytest.mark.parametrize("K", [1, 2, 4])
@pytest.mark.parametrize("variant", ["paper", "exact"])
@pytest.mark.parametrize("preset", ["strong_mpr", "weak_mpr"])
def test_point_chain_rate_is_the_sweep_rate(preset, variant, K, p_own):
    # The public point solve gives the very bits of the point rates, which
    # are p_own * g_n, down to the smallest p_own.
    channel = PRESETS[preset]()
    for source in (1, 2):
        access = AccessProbabilities(*((p_own, 0.5) if source == 1 else (0.5, p_own)))
        chain = build_chain(channel, access, source, True, K, variant)
        want = rlc_service_rates(channel, access, K, variant).backlogged[source - 1]
        assert service_rate(chain) == want, source


@pytest.mark.parametrize("variant", ["paper", "exact"])
def test_grid_matches_pointwise_chain(strong, weak, variant):
    grid = np.linspace(0, 1, 6)
    for ch in (strong, weak):
        for K in (1, 3):
            m1, m2 = rate_tables(service_rates_grid, ch, grid, grid, K, variant)
            for i, j in np.ndindex(m1.shape):
                access = AccessProbabilities(grid[i].item(), grid[j].item())
                want1 = service_rate(build_chain(ch, access, 1, True, K, variant))
                want2 = service_rate(build_chain(ch, access, 2, True, K, variant))
                assert m1[i, j] == pytest.approx(want1, rel=1e-12, abs=0)
                assert m2[i, j] == pytest.approx(want2, rel=1e-12, abs=0)


ASYMMETRIC = ChannelModel(q_solo=((0.9, 0.6), (0.7, 0.85)), q_joint=((0.4, 0.2), (0.3, 0.5)))


@pytest.mark.parametrize("variant", ["paper", "exact"])
@pytest.mark.parametrize("K", [1, 4, 50])
def test_grid_is_the_pointwise_chain_bit_for_bit(K, variant):
    # One chain with a row per axis value gives the very bits of one chain
    # per value.  101 values make the K = 50 pass run in several row chunks;
    # there every tenth value is solved point by point, which reaches each
    # chunk.  Collision's joint receptions all fail, so its points at
    # p_other = 1 are dead: they read 0, with no warning.
    grid = np.linspace(0.0, 1.0, 101)
    points = range(0, grid.size, 10 if K == 50 else 1)
    for channel in [*(make() for make in PRESETS.values()), ASYMMETRIC]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g1, g2 = service_rates_grid(channel, grid, K, variant)
            for source, g in ((1, g1), (2, g2)):
                for n in points:
                    q = grid[n].item()
                    chain = build_chain(channel, _full_access(source, q), source, True, K, variant)
                    assert g[n].item() == service_rate(chain), (source, q)
        if channel == PRESETS["collision"]():
            assert g1[-1] == g2[-1] == 0.0


@pytest.mark.parametrize("variant", ["paper", "exact"])
@pytest.mark.parametrize("preset", ["collision", "strong_mpr"])
def test_rows_do_not_depend_on_the_rows_beside_them(preset, variant):
    # A row's arithmetic is that of its one-row chain, whichever chunk of
    # the level pass holds it and however many rows share that chunk: a
    # level summed column by column for many rows but pairwise for one
    # moves most strong_mpr rows by an ulp.  The grid spans two chunks at
    # K = 50, and collision's last row (p_other = 1) is dead, so its chunk
    # takes the pass's masked division; only that row reads 0.
    channel = PRESETS[preset]()
    q = np.linspace(0.0, 1.0, 31)
    assert q.size > _chunk_rows(_state_space(50, variant))
    rows = service_rate(build_chain(channel, _full_access(1, q), 1, True, 50, variant))
    for n, value in enumerate(q.tolist()):
        chain = build_chain(channel, _full_access(1, value), 1, True, 50, variant)
        assert rows[n] == service_rate(chain), value
    dead = (q == 1.0) & (preset == "collision")
    np.testing.assert_array_equal(rows == 0.0, dead)


def test_chain_grid_memory_does_not_grow_with_the_axis(strong):
    # Before the chain was solved in batches, one K = 50 point solve peaked
    # at 5.5 MB under tracemalloc (a 7 x states family table).  The pass
    # takes the 101 values in row chunks, so the whole grid stays within
    # 2 MB of that.
    _state_space(50, "paper")  # the cached state space is not the pass's memory
    grid = np.linspace(0.0, 1.0, 101)
    tracemalloc.start()
    try:
        service_rates_grid(strong, grid, 50, "paper")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5e6


def _published_rows(ch, source, po, K, states):
    """The published table at p_own = 1, written out per state as solo and
    joint terms: {state: (self-loop, {target: probability})} for every
    state that is not a completion state."""
    s1, s2 = ch.solo(source, 1), ch.solo(source, 2)
    j1, j2 = ch.joint(source, 1), ch.joint(source, 2)

    def mix(f_solo, f_joint):
        return (1 - po) * f_solo + po * f_joint

    rows = {}
    for i, j, k in states:
        gi, gj, gk = 2.0 ** (i - K), 2.0 ** (j - K), 2.0 ** (k - K)
        fresh = (K - k) * 2.0 ** -K
        if i < K and j < K:
            def stay(a, b):
                return (1 - a) * (1 - b) + (1 - a) * b * gj + a * (1 - b) * gi + a * b * gk

            loop = mix(stay(s1, s2), stay(j1, j2))
            out = {
                (i + 1, j, k): (1 - po) * (s1 * (1 - s2) * (1 - gi) + s1 * s2 * (gj - gk))
                + po * (j1 * (1 - j2) * (1 - gi) + j1 * j2 * (gj - gk)),
                (i, j + 1, k): (1 - po) * ((1 - s1) * s2 * (1 - gj) + s1 * s2 * (gi - gk))
                + po * ((1 - j1) * j2 * (1 - gj) + j1 * j2 * (gi - gk)),
                (i + 1, j + 1, k + 1): mix(s1 * s2, j1 * j2) * (1 - (gi + gj - gk)),
            }
        elif i < K:
            loop = mix(1 - s1 + s1 * gi, 1 - j1 + j1 * gi)
            out = {
                (i + 1, j, k): mix(s1, j1) * (1 - (gi + fresh)),
                (i + 1, j, k + 1): mix(s1, j1) * fresh,
            }
        elif j < K:
            loop = mix(1 - s2 + s2 * gj, 1 - j2 + j2 * gj)
            out = {
                (i, j + 1, k): mix(s2, j2) * (1 - (gj + fresh)),
                (i, j + 1, k + 1): mix(s2, j2) * fresh,
            }
        else:
            continue
        rows[(i, j, k)] = (loop, out)
    return rows


@pytest.mark.parametrize("K", [1, 3, 10])
def test_paper_chain_matches_published_table(strong, weak, K):
    # Every edge and self-loop of the paper chain equals the published
    # table's solo/joint expansion, whatever grouping computes it.
    for ch in (strong, weak):
        for po in (0.0, 0.3, 1.0):
            for source in (1, 2):
                access = AccessProbabilities(*((1.0, po) if source == 1 else (po, 1.0)))
                chain = build_chain(ch, access, source, True, K, "paper")
                states = chain_states(chain)
                got = {}
                for s, d, p in zip(chain.space.e_src.tolist(), chain.space.e_dst.tolist(),
                                   chain.e_prob.tolist()):
                    got.setdefault(states[s], {})[states[d]] = p
                rows = _published_rows(ch, source, po, K, states)
                assert set(got) == set(rows)
                for state, (loop, out) in rows.items():
                    assert chain.self_p[states.index(state)] == pytest.approx(
                        loop, rel=1e-13, abs=0
                    )
                    assert got[state] == pytest.approx(out, rel=1e-13, abs=0)


def _oracle_space(K, variant):
    """Loop-built state order, family edges and level slices of the chain."""
    states = []
    for total in range(0, 3 * K + 1):
        for i in range(K + 1):
            for j in range(K + 1):
                k = total - i - j
                if k < 0 or k > min(i, j):
                    continue
                if variant == "exact" and k < i + j - K:
                    continue
                states.append((i, j, k))
    index = {s: n for n, s in enumerate(states)}
    fams = _PAPER_FAMS if variant == "paper" else _EXACT_FAMS
    edges = {}
    for name, di, dj, dk, *_ in fams:
        pairs = []
        for n, (i, j, k) in enumerate(states):
            if variant == "paper":
                if name.startswith("move"):
                    inside = i < K and j < K
                elif name in ("bnd_i", "bnd_ik"):
                    inside = i < K and j == K
                else:
                    inside = i == K and j < K
            else:
                inside = i < K or j < K
            t = index.get((i + di, j + dj, k + dk))
            if inside and t is not None:
                pairs.append((n, t))
        edges[name] = pairs
    level = [sum(s) for s in states]
    e_level = sorted(level[n] for name, *_ in fams for n, _ in edges[name])
    state_slices, edge_slices = [], []
    for lv in range(3 * K + 1):
        lo = sum(1 for v in level if v < lv)
        state_slices.append((lo, lo + level.count(lv)))
        lo = sum(1 for v in e_level if v < lv)
        edge_slices.append((lo, lo + e_level.count(lv)))
    return states, edges, state_slices, edge_slices


@pytest.mark.parametrize("variant", ["paper", "exact"])
@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6, 7, 8, 50])
def test_state_space_matches_loop_oracle(K, variant):
    states, edges, state_slices, edge_slices = _oracle_space(K, variant)
    space = _state_space(K, variant)
    got = list(zip(space.I.tolist(), space.J.tolist(), space.C.tolist()))
    assert got == states
    # Each family's (src, dst) pairs, in state order, are its rows of the edge table.
    for fam, pairs in enumerate(edges.values()):
        mine = space.e_fam == fam
        assert list(zip(space.e_src[mine].tolist(), space.e_dst[mine].tolist())) == pairs
    assert sum(map(len, edges.values())) == space.e_src.size == space.e_fam.size
    assert list(space.level_state_slices) == state_slices
    assert list(space.level_edge_slices) == edge_slices
    src_level = (space.I + space.J + space.C)[space.e_src]
    for lv, (e0, e1) in enumerate(space.level_edge_slices):
        assert np.all(src_level[e0:e1] == lv)


@settings(max_examples=60, deadline=None)
@given(
    channel_models(),
    st.integers(1, 12),
    st.sampled_from(["paper", "exact"]),
    st.sampled_from([1, 2]),
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=5),
)
def test_self_loops_are_the_closed_form(ch, K, variant, source, p_other):
    # The pass reads each self-loop off per-exponent tables; the closed form
    # wn + w1 2^(i-K) + w2 2^(j-K) + wb * overlap, summed in that order,
    # must come out bit for bit, with 0 at the completion states.
    chain = build_chain(ch, _full_access(source, np.array(p_other)), source, True, K, variant)
    space = chain.space
    w1, w2, wb, wn = (chain.weights[:, n, None] for n in range(4))

    def frac(d):
        return np.ldexp(1.0, d - K)

    I, J, C = space.I, space.J, space.C
    overlap = np.where(J == K, frac(I), np.where(I == K, frac(J), frac(C)))
    closed = wn + w1 * frac(I) + w2 * frac(J) + wb * overlap
    closed[:, space.completes] = 0.0
    assert chain.self_p.shape == closed.shape
    assert np.array_equal(chain.self_p, closed)


@pytest.mark.parametrize("variant", ["paper", "exact"])
@pytest.mark.parametrize("K", [1, 2, 3, 7, 12, 50])
def test_cached_runs_are_the_runs_of_each_level(K, variant):
    # The pass scatters each level's flow run by run; the runs are cached
    # per state space and must be those read off the level's targets.
    space = _state_space(K, variant)
    assert len(space.level_cuts) == len(space.level_edge_slices)
    for (e0, e1), cuts in zip(space.level_edge_slices, space.level_cuts):
        dst = space.e_dst[e0:e1]
        assert list(cuts) == [0, *(np.flatnonzero(dst[1:] <= dst[:-1]) + 1).tolist(), dst.size]
        for a, b in zip(cuts[:-1], cuts[1:]):
            assert np.all(np.diff(dst[a:b]) > 0)
