"""Region geometry: Pareto frontiers, closures over (p1, p2), stability.

The achievable-rate regions produced elsewhere in the package are all
"closures over the access-probability square": sweep (p1, p2) over a
grid, evaluate a rate pair at each point, and keep the Pareto-maximal
pairs.  Each rate factors as p_own * g_n(p_other), so a region kind
("capacity", "retrans" or "rlc") provides only g_n on one access axis,
and ``region_rates`` chooses it.  This module lays out the grid and g on
it (``grid_rates``), forms the rate pairs p_own * g_n(p_other) from g
once per sweep, as the two planes of one array that are both the rate
tables and the Pareto reduction's input (``sweep``), and owns a single
point's backlogged and empty rates from g on the axis (p1, p2, 0)
(``service_rates``), the Pareto reduction (which, on a large input,
first drops the records that a strided sample's frontier beats), the
per-point stability region (union of the two dominant-system constraint
sets) and how far points lie outside a frontier (``frontier_excess``),
which the stability closure measures.  Containment of one region in
another needs no frontier: it holds when g_inner <= g_outer on the
access axis for both sources, which ``grid_rates`` gives without
forming the tables.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegionFrontier",
    "ServiceRates",
    "StabilityRegion",
    "p_grid",
    "pareto_frontier",
    "region_rates",
    "grid_rates",
    "sweep",
    "service_rates",
    "frontier_value",
    "frontier_excess",
    "stability_region_at",
    "stable_equals_throughput_frontier",
]

_TOL = 1e-12

# Rows per chunk of the sampled prefilter's scan, bounding its scratch
# memory (``_sample_survivors``).
_PARETO_ROWS = 1 << 16
# pareto_frontier samples inputs of more records than this, and reads the
# sample's frontier off this many buckets of x (``_sample_survivors``).
_SAMPLE_ABOVE = 1 << 14
_BUCKETS = 1 << 12


@dataclass
class RegionFrontier:
    """Pareto frontier of a swept region, as columns.

    ``x`` and ``y`` are the rate pairs, sorted by x strictly increasing
    with y strictly decreasing, so no point dominates another; ``p1``
    and ``p2`` are their witnesses and ``index`` their cells in the
    sweep's (n, n) tables, counted row by row.  ``kind`` is one of
    "capacity", "retrans" or "rlc" (with ``K`` set for rlc).
    """

    kind: str
    x: np.ndarray
    y: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    index: np.ndarray
    K: int | None = None


@dataclass(frozen=True)
class ServiceRates:
    """Backlogged/empty service rates (packets/slot), indexed by source - 1."""

    backlogged: tuple[float, float]
    empty: tuple[float, float]
    generation_size: int = 1

    def __post_init__(self) -> None:
        for n in (0, 1):
            mb, me = self.backlogged[n], self.empty[n]
            if not -_TOL <= mb <= me + _TOL or me > 1.0 + _TOL:
                raise ValueError(
                    f"service rates for source {n + 1} violate "
                    f"0 <= mu_b={mb!r} <= mu_e={me!r} <= 1"
                )


def _grid_size(step: float) -> int:
    if not 0.0 < step <= 0.1:
        raise ValueError(f"grid step must be in (0, 0.1], got {step!r}")
    return int(round(1.0 / step)) + 1


def p_grid(step: float) -> np.ndarray:
    """Uniform grid over [0, 1] whose spacing is as close to ``step`` as divides 1."""
    return np.linspace(0.0, 1.0, _grid_size(step))


def pareto_frontier(points) -> np.ndarray:
    """Row indices of the Pareto-maximal records, x increasing.

    ``points`` is anything ``np.asarray`` turns into an (n, 2 + w) array:
    the rate pair (x, y) of each record, then w >= 0 witness columns.
    Dominance ties (identical x and y) keep the record whose witness is
    lexicographically smallest, and then the first row, so that repeated
    sweeps are reproducible.  A sweep's rows are in witness order, so it
    passes the rate pairs alone.

    Above ``_SAMPLE_ABOVE`` records, a strided sample's frontier first
    drops records that one of its records strictly dominates
    (``_sample_survivors``), so the exact reduction sorts only the few
    left and keeps the same rows.
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return np.empty(0, dtype=np.intp)
    columns = np.atleast_2d(points).T
    rows = _sample_survivors(*columns[:2]) if columns.shape[1] > _SAMPLE_ABOVE else None
    if rows is None:
        return _exact_frontier(columns)
    return rows[_exact_frontier(columns[:, rows])]


def _sample_survivors(x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Rows, ascending, of the records that no record of a strided
    sample's frontier beats from a bucket strictly right of theirs.

    A record's bucket is (x - min x) * scale, truncated, with
    ``_BUCKETS`` buckets across the range of x; it never falls as x
    grows.  So a sample-frontier record in a bucket right of a record's
    own, with a y at least as large, strictly dominates it.  None when x
    is not finite or spans too little for a finite scale (constant x
    included).
    """
    lo, hi = x.min(), x.max()
    if not _BUCKETS / np.finfo(float).max < hi - lo < np.inf:
        return None
    scale = _BUCKETS / (hi - lo)  # x = hi lands in bucket _BUCKETS
    stride = x.size // _SAMPLE_ABOVE
    xs, ys = x[::stride], y[::stride]
    at = _exact_frontier(np.stack((xs, ys)))
    best = np.full(_BUCKETS + 1, -np.inf)
    np.maximum.at(best, ((xs[at] - lo) * scale).astype(np.intp), ys[at])
    # The best sample y in any bucket strictly right of each bucket.
    right = np.append(np.maximum.accumulate(best[::-1])[::-1][1:], -np.inf)
    # Every chunk of rows reuses the same two buffers, so a large input
    # costs no fresh memory per chunk.
    t = np.empty(min(x.size, _PARETO_ROWS))
    bucket = np.empty(t.size, dtype=np.intp)
    rows = []
    for r in range(0, x.size, t.size):
        m = min(t.size, x.size - r)
        np.subtract(x[r : r + m], lo, out=t[:m])
        t[:m] *= scale
        bucket[:m] = t[:m]
        rows.append(r + np.flatnonzero(y[r : r + m] > right.take(bucket[:m], out=t[:m])))
    return np.concatenate(rows)


def _exact_frontier(columns: np.ndarray) -> np.ndarray:
    """``pareto_frontier`` of the records whose (x, y, *witness) are the
    rows of ``columns``, without the sample."""
    x, y, *witness = columns
    # A record with a smaller y than one at equal or larger x is dominated:
    # one argsort of x and a running max of y drop those.  The few left
    # stay in row order, so the stable sort below still puts the first of
    # identical records first.
    by_x = np.argsort(-x)
    y_by_x = y[by_x]
    rows = np.sort(by_x[y_by_x >= np.maximum.accumulate(y_by_x)])
    x, y = x[rows], y[rows]
    # x descending, then y descending, then the smallest witness first:
    # a record survives iff its y beats every record sorted before it.
    order = np.lexsort((*(c[rows] for c in reversed(witness)), -y, -x))
    ys = y[order]
    best_before = np.concatenate(([-np.inf], np.maximum.accumulate(ys)))[:-1]
    return rows[order[ys > best_before]][::-1]


def region_rates(
    kind: str, channel, q, K: int | None = None, variant: str = "paper"
) -> np.ndarray:
    """g_n(q) = mu_n(p_own=1, p_other=q) of one region kind for both
    sources on the access axis q, as a (2, len(q)) array.

    Every rate of the kind is p_own * g_n(p_other).  "capacity" gives the
    rate caps, "retrans" the closed-form backlogged rates and "rlc" the
    chain's backlogged rates at generation size K (``K`` and ``variant``
    are read only there; the chain checks K).
    """
    # Imported here: these modules import this one.
    from . import capacity, retrans, rlc_markov

    q = np.asarray(q, dtype=float)
    if kind == "capacity":
        return capacity.rate_bounds_grid(channel, q)
    if kind == "retrans":
        return retrans.service_rates_grid(channel, q)
    if kind == "rlc":
        return rlc_markov.service_rates_grid(channel, q, K, variant)
    raise ValueError(f"unknown region kind {kind!r}")


def grid_rates(
    kind: str, channel, grid_step: float, K: int | None = None, variant: str = "paper"
):
    """The 1-D grid of a sweep and g_n on it: (grid, g), g as
    ``region_rates`` gives it.  Containment of regions needs only this."""
    grid = p_grid(grid_step)
    return grid, region_rates(kind, channel, grid, K, variant)


def sweep(kind: str, channel, grid_step: float, K: int | None = None, variant: str = "paper"):
    """Evaluate a region kind over the (p1, p2) grid and reduce it to a frontier.

    Returns (grid, g, mu1, mu2, frontier): ``grid_rates``'s grid and g,
    and two (n, n) rate tables, ``mu[i, j]`` being the rate at
    (p1, p2) = (grid[i], grid[j]):
    ``mu1[i, j] = grid[i] * g[0, j]`` and ``mu2[i, j] = g[1, i] * grid[j]``.
    So ``mu1[:, 0]`` and ``mu2[0, :]`` are the rates against an empty
    competitor, and ``frontier.index`` counts the cells row by row.  The
    tables are the two planes of one (2, n, n) array; transposed, it is
    ``pareto_frontier``'s (n * n, 2) input of rate pairs, with no copy.
    """
    n = _grid_size(grid_step)
    # Asking for the rate tables before the 1-D grid is written makes a
    # grid too large for memory fail at once: MemoryError, or ValueError
    # past what an array can address.
    planes = np.empty((2, n, n))
    grid, g = grid_rates(kind, channel, grid_step, K, variant)
    mu1, mu2 = planes
    np.multiply.outer(grid, g[0], out=mu1)
    np.multiply.outer(g[1], grid, out=mu2)
    # Row by row, the cells come in (p1, p2) order, so the rate pairs alone
    # keep the smallest-witness tie rule.
    x, y = flat = planes.reshape(2, -1)
    at = pareto_frontier(flat.T)
    frontier = RegionFrontier(
        kind=kind,
        x=x[at],
        y=y[at],
        p1=grid[at // n],
        p2=grid[at % n],
        index=at,
        K=K if kind == "rlc" else None,
    )
    return grid, g, mu1, mu2, frontier


def service_rates(
    kind: str, channel, access, K: int | None = None, variant: str = "paper"
) -> ServiceRates:
    """Backlogged and empty rates of a region kind at one (p1, p2).

    They are p_own * g_n(p_other), as in a sweep, with g_n read on the
    axis (p1, p2, 0): an empty competitor has access probability 0.
    """
    g = region_rates(kind, channel, [access.p1, access.p2, 0.0], K, variant)
    return ServiceRates(
        backlogged=(float(access.p1 * g[0, 1]), float(access.p2 * g[1, 0])),
        empty=(float(access.p1 * g[0, 2]), float(access.p2 * g[1, 2])),
        generation_size=K if kind == "rlc" else 1,
    )


def frontier_value(frontier: RegionFrontier, x: float | np.ndarray) -> np.ndarray:
    """Piecewise-linear frontier height at x (flat extension left of the first point)."""
    if frontier.x.size == 0:
        raise ValueError("empty frontier")
    return np.interp(x, frontier.x, frontier.y)


def frontier_excess(frontier: RegionFrontier, x, y) -> np.ndarray:
    """How far each (x, y) lies outside the frontier polyline: above it, or
    right of its last point; 0 or less inside."""
    if frontier.x.size == 0:
        raise ValueError("empty frontier")
    top = frontier.x[-1]
    return np.maximum(x - top, y - frontier_value(frontier, np.minimum(x, top)))


@dataclass
class StabilityRegion:
    """Stable arrival-rate set at fixed (p1, p2): union of the two
    constraint sets from the dominant-system analysis.

    Set 1 caps lambda2 by the backlogged rate of source 2 and lets
    lambda1 interpolate between the empty and backlogged rates of
    source 1; set 2 is the mirror image.
    """

    mu_1b: float
    mu_2b: float
    mu_1e: float
    mu_2e: float

    def lambda1_bound(self, lambda2: float) -> float:
        """Supremum of stable lambda1 at the given lambda2 >= 0 (0 if none):
        the stable lambda1 are [0, bound)."""
        if lambda2 < self.mu_2b:
            # Set 1's line, or set 2's cap mu_1b where that reaches further.
            s = lambda2 / self.mu_2b
            return max(s * self.mu_1b + (1 - s) * self.mu_1e, self.mu_1b)
        if lambda2 < self.mu_2e:
            # Only set 2, whose line falls from (0, mu_2e) to the corner.
            return (lambda2 - self.mu_2e) / (self.mu_2b - self.mu_2e) * self.mu_1b
        return 0.0


def stability_region_at(mu) -> StabilityRegion:
    """Stability region for one (p1, p2) point, from a ServiceRates record."""
    return StabilityRegion(
        mu_1b=mu.backlogged[0],
        mu_2b=mu.backlogged[1],
        mu_1e=mu.empty[0],
        mu_2e=mu.empty[1],
    )


def stable_equals_throughput_frontier(
    policy: str,
    channel,
    grid_step: float = 0.01,
    K: int | None = None,
    variant: str = "paper",
) -> RegionFrontier:
    """Saturated-throughput frontier for a policy: Pareto closure of the
    backlogged service-rate pairs (mu_1b, mu_2b) over the (p1, p2) grid.

    This is the region ``figure`` and ``region`` write for a policy.  It
    is not the union of the per-point stability regions:
    ``checks.check_stability_closure`` measures how far those reach past
    it, 1.58e-3 on strong_mpr and 5.19e-3 on weak_mpr for retransmission
    at step 0.05, and about 3e-16 on the collision channel.
    """
    return sweep(policy, channel, grid_step, K, variant)[-1]

