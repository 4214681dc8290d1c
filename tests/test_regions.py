import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramcast import regions
from ramcast.capacity import capacity_sweep, rate_bounds_grid
from ramcast.channel import AccessProbabilities, ChannelModel, collision_channel, load_channel
from ramcast.checks import _closure_overshoot, check_figure_structure, check_stability_closure
from ramcast.cli import main
from ramcast.gf2 import expected_decode_count
from ramcast.regions import (
    RegionFrontier,
    ServiceRates,
    StabilityRegion,
    frontier_excess,
    frontier_value,
    p_grid,
    pareto_frontier,
    region_rates,
    service_rates,
    stability_region_at,
    stable_equals_throughput_frontier,
    sweep,
)
from ramcast.retrans import retrans_service_rates
from ramcast.retrans import service_rates_grid as retrans_grid
from ramcast.rlc_markov import rlc_service_rates
from ramcast.rlc_markov import service_rates_grid as rlc_grid

from conftest import ASYMMETRIC, access_probs, channel_models, rate_caps, rate_tables


def test_p_grid_endpoints():
    g = p_grid(0.05)
    assert g[0] == 0.0 and g[-1] == 1.0 and len(g) == 21
    with pytest.raises(ValueError):
        p_grid(0.11)


def test_pareto_frontier_hand_example():
    pts = [(0.2, 0.5, 0.1, 0.1), (0.4, 0.4, 0.2, 0.2), (0.3, 0.3, 0.3, 0.3),
           (0.4, 0.1, 0.4, 0.4), (0.1, 0.6, 0.5, 0.5)]
    assert pareto_frontier(pts).tolist() == [4, 0, 1]


def test_pareto_frontier_tie_keeps_smallest_witness():
    pts = [(0.5, 0.5, 0.9, 0.9), (0.5, 0.5, 0.2, 0.3), (0.5, 0.5, 0.2, 0.1)]
    assert pareto_frontier(pts).tolist() == [2]


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 1, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_pareto_frontier_properties(raw):
    at = pareto_frontier([(x, y, 0.0, 0.0) for x, y in raw]).tolist()
    xs = [raw[n][0] for n in at]
    ys = [raw[n][1] for n in at]
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert all(a > b for a, b in zip(ys, ys[1:]))
    # no frontier point dominates another, every input point is dominated
    for x, y in raw:
        assert any(fx >= x and fy >= y for fx, fy in zip(xs, ys))


def _brute_force_frontier(pts):
    """O(n^2) oracle: undominated (x, y) pairs, each with its smallest witness."""
    out = {}
    for x, y, p1, p2 in pts:
        if any(a >= x and b >= y and (a, b) != (x, y) for a, b, *_ in pts):
            continue
        out[(x, y)] = min(out.get((x, y), (p1, p2)), (p1, p2))
    return sorted((x, y, *w) for (x, y), w in out.items())


def _full_lexsort_frontier(pts):
    """Reference rows: the 4-key lexsort over every record, no prefilter."""
    x, y, p1, p2 = np.asarray(pts, dtype=float).reshape(-1, 4).T
    order = np.lexsort((p2, p1, -y, -x))
    ys = y[order]
    return order[ys > np.concatenate(([-np.inf], np.maximum.accumulate(ys)))[:-1]][::-1]


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(*(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(4))),
        max_size=30,
    )
)
def test_pareto_frontier_matches_brute_force(pts):
    # A coarse value set forces exact (x, y) ties with different witnesses
    # and fully duplicated records.
    rows = pareto_frontier(pts).tolist()
    assert [pts[n] for n in rows] == _brute_force_frontier(pts)
    # Rows, not only records: of fully duplicated records the first row
    # wins, and on_frontier and RegionFrontier.index show which one.
    assert rows == _full_lexsort_frontier(pts).tolist()


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(*(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(4))),
        max_size=30,
    ),
)
def test_pareto_frontier_of_pairs_in_witness_order(pts):
    # Rows in witness order need no witness columns: the first row of a
    # tie is its smallest witness.
    pts = sorted(pts, key=lambda r: (r[2], r[3]))
    ref = _full_lexsort_frontier(pts).tolist()
    assert pareto_frontier(pts).tolist() == ref
    assert pareto_frontier([(x, y) for x, y, *_ in pts]).tolist() == ref


_EIGHTHS = st.integers(0, 8).map(lambda v: v / 8)


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(_EIGHTHS, _EIGHTHS, *(st.sampled_from([0.0, 0.5, 1.0]) for _ in range(2))),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 12),
    st.integers(1, 16),
    st.integers(1, 8),
    st.sampled_from([1.0, 0.0, 5e-324]),
)
def test_sampled_prefilter_keeps_the_frontier_rows(pts, sample_above, buckets, chunk, x_scale):
    # With the thresholds small, the sampled prefilter runs on a few dozen
    # records: coarse values give tied and fully duplicated records.  With
    # x constant, or spread over less than a finite bucket scale allows,
    # the prefilter stands aside.
    pts = [(x * x_scale, y, p1, p2) for x, y, p1, p2 in pts]
    ref = _full_lexsort_frontier(pts).tolist()
    in_order = sorted(pts, key=lambda r: (r[2], r[3]))
    ref_in_order = _full_lexsort_frontier(in_order).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "_SAMPLE_ABOVE", sample_above)
        mp.setattr(regions, "_BUCKETS", buckets)
        mp.setattr(regions, "_PARETO_ROWS", chunk)
        assert pareto_frontier(pts).tolist() == ref
        assert pareto_frontier([(x, y) for x, y, *_ in in_order]).tolist() == ref_in_order


def test_sweep_memory_is_the_rate_tables_and_the_pareto_input():
    # At step 0.001 the (2, n, n) rate tables take 16 MB; transposed, they
    # are pareto_frontier's input, and its sampled prefilter leaves the
    # exact reduction at most 70,167 records, sorted in one pass: the
    # peak is 17.7 MB on strong_mpr and at most about 20 MB on the others.
    # Separate tables copied into (n * n, 2) pairs took it to 34.3 MB, and
    # flat witness columns with a 4-column copy to 89 MB.
    peaks = {}
    tracemalloc.start()
    try:
        for channel in ("strong_mpr", "weak_mpr", "collision"):
            for kind in ("capacity", "retrans"):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                sweep(kind, load_channel(channel), 0.001)
                peaks[channel, kind] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 24e6, peaks


@pytest.mark.parametrize("kind", ["capacity", "retrans"])
@pytest.mark.parametrize("channel", ["strong_mpr", "weak_mpr", "collision"])
def test_pareto_frontier_rows_match_full_lexsort_on_presets(kind, channel):
    # Step 0.002 has 251,001 cells, enough for the sampled prefilter; the
    # collision channel has the most tied rate pairs.
    for step in (0.01, 0.002):
        grid, _, mu1, mu2, frontier = sweep(kind, load_channel(channel), step)
        p1s, p2s = np.repeat(grid, grid.size), np.tile(grid, grid.size)
        ref = _full_lexsort_frontier(np.column_stack((mu1.ravel(), mu2.ravel(), p1s, p2s)))
        assert frontier.index.tolist() == ref.tolist()


@pytest.mark.parametrize("kind, K", [("capacity", None), ("retrans", None), ("rlc", 2)])
def test_sweep_tables_are_indexed_by_the_grid(kind, K):
    grid, g, mu1, mu2, frontier = sweep(kind, ASYMMETRIC, 0.1, K)
    n = grid.size
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert mu1.shape == mu2.shape == (n, n) and g.shape == (2, n)
    assert np.array_equal(mu1, np.multiply.outer(grid, g[0]))
    assert np.array_equal(mu2, np.multiply.outer(g[1], grid))
    assert np.array_equal(frontier.p1, grid[frontier.index // n])
    assert np.array_equal(frontier.p2, grid[frontier.index % n])
    assert np.array_equal(frontier.x, mu1.ravel()[frontier.index])
    assert np.array_equal(frontier.y, mu2.ravel()[frontier.index])
    # Row 0 and column 0 are the rates against an empty competitor.
    for i, j in [(0, 0), (0, 3), (7, 0), (0, n - 1), (n - 1, 0), (2, 9), (8, 5), (n - 1, n - 1)]:
        rates = service_rates(kind, ASYMMETRIC, AccessProbabilities(grid[i], grid[j]), K)
        assert (mu1[i, j], mu2[i, j]) == rates.backlogged, (i, j)
    # The kind's axis function takes any axis, of any length.
    p1, p2 = [0.0, 0.35, 1.0], [0.0, 0.2, 0.45, 0.9, 1.0]
    g = region_rates(kind, ASYMMETRIC, p1 + p2, K)
    assert g.shape == (2, 8)
    for i, j in np.ndindex(3, 5):
        rates = service_rates(kind, ASYMMETRIC, AccessProbabilities(p1[i], p2[j]), K)
        assert (p1[i] * g[0, 3 + j], g[1, i] * p2[j]) == rates.backlogged, (i, j)


@pytest.mark.parametrize(
    "kind, K, variant",
    [("capacity", None, "paper"), ("retrans", None, "paper")]
    + [("rlc", K, variant) for K in (1, 4, 10, 50) for variant in ("paper", "exact")],
)
def test_collision_frontier_is_the_aloha_curve(kind, K, variant):
    # On the collision channel both destinations hear the same slots, and
    # every rate is c * p_own * (1 - p_other): c = 1 for capacity and
    # retransmission, K / E[N_K] for rlc.  The closure is the scaled
    # two-user ALOHA region sqrt(x) + sqrt(y) <= sqrt(c), and the grid
    # points with p1 + p2 = 1 lie on its boundary.
    c = K / expected_decode_count(K) if kind == "rlc" else 1.0
    frontier = sweep(kind, collision_channel(), 0.05, K, variant)[-1]
    radius = np.sqrt(frontier.x) + np.sqrt(frontier.y)
    assert radius.max() == pytest.approx(math.sqrt(c), abs=1e-12)
    assert np.all(radius <= math.sqrt(c) + 1e-12)


def test_pareto_frontier_single_and_empty():
    assert pareto_frontier([]).tolist() == []
    assert pareto_frontier(np.empty((0, 4))).tolist() == []
    assert pareto_frontier([(0.3, 0.2, 0.5, 0.6)]).tolist() == [0]


@pytest.mark.parametrize("K", [1, 4])
def test_dead_points_rate_exactly_zero(strong, K):
    # p_own = 0 kills a source on any channel; on the collision channel
    # (q_joint = 0) so does p_other = 1.
    grid = p_grid(0.1)
    p1s, p2s = np.meshgrid(grid, grid, indexing="ij")
    for ch in (strong, collision_channel()):
        for rates_grid in (
            rate_bounds_grid,
            retrans_grid,
            lambda c, q: rlc_grid(c, q, K),
            lambda c, q: rlc_grid(c, q, K, variant="exact"),
        ):
            mu1, mu2 = rate_tables(rates_grid, ch, grid, grid)
            dead1 = p1s == 0.0
            dead2 = p2s == 0.0
            if ch.joint(1, 1) == 0.0:
                dead1 |= p2s == 1.0
                dead2 |= p1s == 1.0
            assert np.all(mu1[dead1] == 0.0) and np.all(mu2[dead2] == 0.0)
    coll = collision_channel()
    for p in grid.tolist():
        for access in (AccessProbabilities(p, 1.0), AccessProbabilities(1.0, p),
                       AccessProbabilities(0.0, p), AccessProbabilities(p, 0.0)):
            for variant in ("paper", "exact"):
                rates = rlc_service_rates(coll, access, K, variant=variant)
                for n in (0, 1):
                    assert rates.backlogged[n] <= rates.empty[n]


def test_frontier_contains_reflexive(strong):
    f = capacity_sweep(strong, 0.05)[-1]
    # The frontier's own points lie on it; a point right of its end lies
    # its horizontal distance outside.
    assert frontier_excess(f, f.x, f.y).max() <= 0.0
    assert float(frontier_excess(f, f.x[-1] + 0.25, 0.0)) == pytest.approx(0.25, abs=1e-15)


def test_capacity_contains_retrans_but_not_conversely(strong, weak):
    for ch in (strong, weak):
        cap = capacity_sweep(ch, 0.05)[-1]
        ret = stable_equals_throughput_frontier("retrans", ch, 0.05)
        tol = 2 * 0.05 * 1.0
        assert frontier_excess(cap, ret.x, ret.y).max() <= tol
        assert frontier_excess(ret, cap.x, cap.y).max() > 1e-6


def test_rlc_frontier_grows_with_k(strong):
    f1 = stable_equals_throughput_frontier("rlc", strong, 0.1, K=1)
    f8 = stable_equals_throughput_frontier("rlc", strong, 0.1, K=8)
    assert frontier_excess(f8, f1.x, f1.y).max() <= 2 * 0.1
    # pointwise at matched abscissae, within grid tolerance
    bound = frontier_value(f8, np.minimum(f1.x, f8.x[-1]))
    assert np.all(f1.y <= bound + 1e-9)


def test_retrans_frontier_corner_is_empty_rate(strong):
    frontier = stable_equals_throughput_frontier("retrans", strong, 0.05)
    mu_1e = retrans_service_rates(strong, AccessProbabilities(1.0, 0.0)).backlogged[0]
    assert frontier.x[-1] == pytest.approx(mu_1e, abs=1e-12)
    assert frontier.y[-1] == 0.0
    assert (frontier.p1[-1], frontier.p2[-1]) == (1.0, 0.0)


def test_swap_symmetry_on_symmetric_channels(strong, weak):
    for ch in (strong, weak):
        frontier = stable_equals_throughput_frontier("retrans", ch, 0.1)
        pts = {(round(x, 12), round(y, 12)) for x, y in zip(frontier.x, frontier.y)}
        mirrored = {(y, x) for x, y in pts}
        assert pts == mirrored


def test_stability_region_membership(strong):
    mu = retrans_service_rates(strong, AccessProbabilities(0.5, 0.5))
    region = stability_region_at(mu)
    # (lambda1, lambda2) is stable iff 0 <= lambda1 < lambda1_bound(lambda2).
    assert 0.0 < region.lambda1_bound(0.0)
    assert not 1.0 < region.lambda1_bound(1.0)
    # lambda1 bound interpolates between empty and backlogged rates
    eps = 1e-9
    near = region.lambda1_bound(mu.backlogged[1] - eps)
    assert near == pytest.approx(mu.backlogged[0], abs=1e-6)
    at_zero = region.lambda1_bound(0.0)
    assert at_zero == pytest.approx(mu.empty[0], abs=1e-12)
    mid = 0.5 * mu.backlogged[1]
    b = region.lambda1_bound(mid)
    assert b == pytest.approx(0.5 * (mu.backlogged[0] + mu.empty[0]), abs=1e-12)


def test_stability_region_boundary_vertices(strong):
    mu = retrans_service_rates(strong, AccessProbabilities(0.4, 0.7))
    region = stability_region_at(mu)
    # the two constraint lines meet exactly at the backlogged rate pair
    l1_at_mu2b = region.lambda1_bound(mu.backlogged[1] - 1e-12)
    assert l1_at_mu2b == pytest.approx(mu.backlogged[0], abs=1e-9)


def test_contains_when_backlogged_rate_rounds_above_empty():
    # Rounding can leave mu_2b an ulp above mu_2e.  The set-2 line then
    # rises in lambda1, and at lambda2 = mu_2b neither set holds.
    mu_2e = 0.3
    region = StabilityRegion(mu_1b=0.2, mu_2b=math.nextafter(mu_2e, 1.0), mu_1e=0.4, mu_2e=mu_2e)
    assert not 0.1 < region.lambda1_bound(region.mu_2b)
    assert region.lambda1_bound(region.mu_2b) == 0.0
    assert 0.1999 < region.lambda1_bound(mu_2e)


def _in_constraint_sets(r: StabilityRegion, lam1: float, lam2: float) -> bool:
    """The paper's two constraint sets, written out as inequalities."""
    set1 = lam2 < r.mu_2b and lam1 < (1 - lam2 / r.mu_2b) * r.mu_1e + lam2 / r.mu_2b * r.mu_1b
    set2 = lam1 < r.mu_1b and lam2 < r.mu_2e + (r.mu_2b - r.mu_2e) * lam1 / r.mu_1b
    return set1 or set2


@st.composite
def _stability_regions(draw) -> StabilityRegion:
    """mu_b <= mu_e per source, or mu_b rounded one ulp above mu_e."""
    mu = {}
    for n in ("1", "2"):
        mu_e = draw(st.floats(0.0, 1.0))
        if draw(st.booleans()):
            mu_b = math.nextafter(mu_e, 1.0)
        else:
            mu_b = mu_e * draw(st.floats(0.0, 1.0))
        mu[f"mu_{n}b"], mu[f"mu_{n}e"] = mu_b, mu_e
    return StabilityRegion(**mu)


@settings(max_examples=500)
@given(_stability_regions(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_lambda1_bound_is_the_union_of_the_constraint_sets(region, lam1, lam2):
    # (lambda1, lambda2) is stable iff 0 <= lambda1 < lambda1_bound(lambda2),
    # away from the boundary.
    bound = region.lambda1_bound(lam2)
    assume(abs(lam1 - bound) > 1e-12)
    assert _in_constraint_sets(region, lam1, lam2) == (lam1 < bound)


def test_zero_service_rates_empty_region():
    mu = ServiceRates(backlogged=(0.0, 0.0), empty=(0.0, 0.0))
    region = stability_region_at(mu)
    assert not 1e-6 < region.lambda1_bound(0.0)
    assert not 0.0 < region.lambda1_bound(1e-6)


def test_theorem2_union_within_throughput_frontier():
    # The per-point stability regions never exceed the swept frontier by
    # more than the grid discretization, for every policy and channel.
    result = check_stability_closure(step=0.1)
    assert result.passed, result.detail
    assert "strong_mpr" in result.detail and "collision" in result.detail


def _edge_overshoots(channel, policy, K, step):
    """Each per-point stability edge's worst excess over the frontier,
    sampled at 9 points per edge apart from the other edge: set 2's edge
    from (0, mu_2e) to the corner (mu_1b, mu_2b) where mu_1b > 0, then
    set 1's from (mu_1e, 0) where mu_2b > 0."""
    _, _, mu1b, mu2b, frontier = sweep(policy, channel, step, K, "paper")
    mu1e, mu2e = mu1b[:, :1], mu2b[:1, :]
    t = np.linspace(0.0, 1.0, 9)[:, None, None]
    edges = (
        (t * mu1b, mu2e + t * (mu2b - mu2e), mu1b > 0),
        (mu1e + t * (mu1b - mu1e), t * mu2b, mu2b > 0),
    )
    return [
        float(frontier_excess(frontier, x[:, on].ravel(), y[:, on].ravel()).max(initial=0.0))
        for x, y, on in edges
    ]


@pytest.mark.parametrize("cell", [("retrans", None), ("rlc", 1), ("rlc", 4), ("rlc", 10)])
@pytest.mark.parametrize("channel", ["strong_mpr", "weak_mpr", "collision"])
def test_closure_overshoot_is_the_larger_edge(channel, cell):
    # The check's overshoot is exactly the worse of its two edges, each
    # sampled on its own; the check-quick golden covers step 0.1 only.
    policy, K = cell
    ch = load_channel(channel)
    assert _closure_overshoot(ch, policy, K, 0.05) == max(_edge_overshoots(ch, policy, K, 0.05))


def test_stability_closure_measures_both_edges():
    # On this channel the worst overshoot of retransmission lies on set 2's
    # edge (0, mu_2e) -> (mu_1b, mu_2b), and set 1's edge reaches nearly as far.
    asym = ChannelModel(q_solo=((0.9, 0.5), (0.6, 0.7)), q_joint=((0.5, 0.2), (0.3, 0.4)))
    set2, set1 = _edge_overshoots(asym, "retrans", None, 0.05)
    assert set2 == pytest.approx(5.0147e-3, rel=1e-4)
    assert set1 == pytest.approx(4.6532e-3, rel=1e-4)
    assert _closure_overshoot(asym, "retrans", None, 0.05) == set2


@settings(max_examples=60, deadline=None)
@given(
    channel_models(),
    access_probs(),
    st.sampled_from([("retrans", None), ("rlc", 1), ("rlc", 2), ("rlc", 4)]),
)
def test_stability_union_lies_inside_capacity(channel, access, cell):
    # The proof is in check_stability_closure's docstring: a point of set 1's
    # edge at lambda2 = s * mu_2b is dominated by the capacity rates at
    # (p1, s * p2), and a point of set 2's edge at lambda1 = s * mu_1b by
    # those at (s * p1, p2).
    kind, K = cell
    region = stability_region_at(service_rates(kind, channel, access, K))
    for s in np.linspace(0.0, 1.0, 9):
        r1, r2 = rate_caps(channel, access.p1, s * access.p2)
        assert (1 - s) * region.mu_1e + s * region.mu_1b <= r1 + 1e-12
        assert s * region.mu_2b <= r2 + 1e-12
        r1, r2 = rate_caps(channel, s * access.p1, access.p2)
        assert s * region.mu_1b <= r1 + 1e-12
        assert (1 - s) * region.mu_2e + s * region.mu_2b <= r2 + 1e-12


@pytest.mark.parametrize("step", [0.05, 0.1])
@pytest.mark.parametrize("fault_K, factor", [(50, 1.05), (10, 0.85)])
def test_figure_structure_fails_on_scaled_rlc_rates(monkeypatch, fault_K, factor, step):
    # K = 50 rates 5% high leave capacity by 7.9e-3 on the axis, and K = 10
    # rates 15% low fall 2.0e-3 below K = 5: both far inside the 2 * step that
    # a comparison of sampled frontiers forgives.
    def scaled(channel, q, K, variant="paper"):
        g = rlc_grid(channel, q, K, variant)
        return g * factor if K == fault_K else g

    monkeypatch.setattr("ramcast.rlc_markov.service_rates_grid", scaled)
    result = check_figure_structure(step=step)
    assert not result.passed, result.detail


def test_theorem2_vertices_exactly_dominated(strong):
    # The corner (mu_1b, mu_2b) of every per-point region is itself a swept
    # rate pair, so frontier domination is exact there.
    frontier = stable_equals_throughput_frontier("retrans", strong, 0.1)
    for p1 in p_grid(0.1):
        for p2 in p_grid(0.1):
            mu = retrans_service_rates(strong, AccessProbabilities(float(p1), float(p2)))
            x, y = mu.backlogged
            if x > frontier.x[-1]:
                continue
            assert y <= float(frontier_value(frontier, x)) + 1e-9


@pytest.mark.parametrize("K", [None, 0, 65])
def test_rlc_sweep_rejects_bad_generation_size(strong, K):
    with pytest.raises(ValueError, match=r"K must be in \[1, 64\]"):
        stable_equals_throughput_frontier("rlc", strong, 0.1, K=K)


def test_sweep_rejects_unknown_kind(strong):
    with pytest.raises(ValueError, match="unknown region kind 'rlnc'"):
        stable_equals_throughput_frontier("rlnc", strong, 0.1)


def test_collision_capacity_frontier_contains_corners():
    frontier = capacity_sweep(collision_channel(), 0.05)[-1]
    assert frontier.x[-1] == pytest.approx(1.0, abs=1e-12)
    assert frontier.y[0] == pytest.approx(1.0, abs=1e-12)


def test_frontier_value_requires_nonempty():
    # frontier_excess raises the same error, not an IndexError from the
    # missing last point.
    none = np.empty(0)
    empty = RegionFrontier("capacity", none, none, none, none, none.astype(int))
    with pytest.raises(ValueError, match="empty frontier"):
        frontier_value(empty, 0.5)
    with pytest.raises(ValueError, match="empty frontier"):
        frontier_excess(empty, 0.5, 0.5)


def test_frontier_value_extends_flat_left():
    zeros = np.zeros(2)
    f = RegionFrontier("capacity", np.array([0.5, 0.9]), np.array([0.8, 0.1]), zeros, zeros,
                       np.arange(2))
    assert float(frontier_value(f, 0.0)) == 0.8
    assert float(frontier_value(f, 0.7)) == pytest.approx(0.45)
    assert np.all(frontier_excess(f, f.x, f.y) <= 0.0)
    assert frontier_excess(f, np.array([0.0, 0.7, 1.2]), np.array([0.9, 0.45, 0.1])) == (
        pytest.approx([0.1, 0.0, 0.3])
    )


POINT_KINDS = ["capacity", "retrans"] + [
    f"rlc-{variant}-{K}" for variant in ("paper", "exact") for K in (1, 4, 64)
]


def _point(kind, ch, p1, p2):
    """(backlogged, empty) rate pairs of one point function at (p1, p2)."""
    if kind == "capacity":
        # An empty competitor has access probability 0.
        return rate_caps(ch, p1, p2), (rate_caps(ch, p1, 0.0)[0], rate_caps(ch, 0.0, p2)[1])
    access = AccessProbabilities(p1, p2)
    if kind == "retrans":
        rates = retrans_service_rates(ch, access)
    else:
        _, variant, K = kind.split("-")
        rates = rlc_service_rates(ch, access, int(K), variant)
    return rates.backlogged, rates.empty


@pytest.mark.parametrize("p_own", [1e-300, 1e-12, 0.3, 1.0])
@pytest.mark.parametrize("kind", POINT_KINDS)
def test_point_rates_are_p_own_times_g(strong, kind, p_own):
    # g_n(q) = mu_n(1, q); every point rate must be p_own * g_n exactly,
    # the same product a sweep takes, down to the smallest p_own.
    q = 0.5
    g1b, g1e = (pair[0] for pair in _point(kind, strong, 1.0, q))
    g2b, g2e = (pair[1] for pair in _point(kind, strong, q, 1.0))
    (m1b, _), (m1e, _) = _point(kind, strong, p_own, q)
    (_, m2b), (_, m2e) = _point(kind, strong, q, p_own)
    assert (m1b, m1e) == (p_own * g1b, p_own * g1e)
    assert (m2b, m2e) == (p_own * g2b, p_own * g2e)
    assert 0.0 < m1b <= m1e
    # An empty competitor is one that never transmits.
    b1, _ = _point(kind, strong, p_own, 0.0)[0]
    _, b2 = _point(kind, strong, 0.0, p_own)[0]
    assert (b1, b2) == (m1e, m2e)


@pytest.mark.parametrize("policy, K", [("retrans", 1), ("rlc", 64)])
def test_rates_cli_at_tiny_access(strong, capsys, policy, K):
    argv = ["rates", "--channel", "strong_mpr", "--policy", policy, "--K", str(K),
            "--p1", "1e-300", "--p2", "0.5"]
    assert main(argv) == 0
    header, row = (line.split(",") for line in capsys.readouterr().out.splitlines())
    mu_1b, mu_1e = (float(row[header.index(col)]) for col in ("mu_1b", "mu_1e"))
    kind = "retrans" if policy == "retrans" else f"rlc-paper-{K}"
    (g1b, _), (g1e, _) = _point(kind, strong, 1.0, 0.5)
    assert mu_1b != 0.0
    assert (mu_1b, mu_1e) == (1e-300 * g1b, 1e-300 * g1e)
