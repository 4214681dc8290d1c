"""Region geometry: Pareto frontiers, closures over (p1, p2), containment.

The achievable-rate regions produced elsewhere in the package are all
"closures over the access-probability square": sweep (p1, p2) over a
grid, evaluate a rate pair at each point, and keep the Pareto-maximal
pairs.  Each rate factors as p_own * g(p_other), so a rate is a table
over two access axes with g evaluated once per axis value and source
(``factored_rates``), not once per point.  This module maps a region
kind ("capacity", "retrans" or "rlc") to its rates (``region_rates``)
and owns the sweep over them (``sweep``), a single point's backlogged
and empty rates through the same path (``service_rates``), the Pareto
reduction, the per-point stability region (union of the two
dominant-system constraint sets) and how far points lie outside a
frontier (``frontier_excess``), which the containment test and the
stability closure both measure.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegionFrontier",
    "ServiceRates",
    "StabilityRegion",
    "p_grid",
    "pareto_frontier",
    "factored_rates",
    "region_rates",
    "sweep",
    "service_rates",
    "frontier_value",
    "frontier_excess",
    "frontier_contains",
    "stability_region_at",
    "stable_equals_throughput_frontier",
]

_TOL = 1e-12


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
    """Row indices of the Pareto-maximal (x, y, p1, p2) records, x increasing.

    ``points`` is anything ``np.asarray`` turns into an (n, 4) array.
    Dominance ties (identical x and y) keep the lexicographically
    smallest (p1, p2) witness, and identical records their first row, so
    that repeated sweeps are reproducible.
    """
    x, y, p1, p2 = np.asarray(points, dtype=float).reshape(-1, 4).T
    # A record with a smaller y than one at equal or larger x is dominated:
    # one argsort of x and a running max of y drop all of those.  The few
    # left go back to row order, so the stable sort below still puts the
    # first of identical records first.
    by_x = np.argsort(-x)
    y_by_x = y[by_x]
    rows = np.sort(by_x[y_by_x >= np.maximum.accumulate(y_by_x)])
    x, y, p1, p2 = x[rows], y[rows], p1[rows], p2[rows]
    # x descending, then y descending, then the smallest witness first:
    # a record survives iff its y beats every record sorted before it.
    order = np.lexsort((p2, p1, -y, -x))
    ys = y[order]
    best_before = np.concatenate(([-np.inf], np.maximum.accumulate(ys)))[:-1]
    return rows[order[ys > best_before]][::-1]


def factored_rates(g, p1, p2) -> tuple[np.ndarray, np.ndarray]:
    """Rate tables ``mu1[i, j] = p1[i] * g(1, p2[j])`` and
    ``mu2[i, j] = p2[j] * g(2, p1[i])`` over the access axes p1 and p2.

    Every rate here carries the own access probability as a factor:
    mu_n(p_own, p_other) = p_own * g_n(p_other) with g_n(q) = mu_n(1, q).
    ``g(source, q)`` maps an array of p_other values to g_n, and is
    called once per source on the other source's axis, so each axis
    value costs one evaluation however many points share it.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    return np.multiply.outer(p1, g(1, p2)), np.multiply.outer(g(2, p1), p2)


def region_rates(kind: str, channel, K: int | None = None, variant: str = "paper"):
    """The ``rates_grid(p1, p2)`` of one region kind over two access axes.

    It returns the (len(p1), len(p2)) tables of ``factored_rates``:
    "capacity" gives the rate caps, "retrans" the closed-form backlogged
    rates and "rlc" the chain's backlogged rates at generation size K
    (``K`` and ``variant`` are read only there; the chain checks K).
    """
    # Imported here: these modules import this one.
    from . import capacity, retrans, rlc_markov

    if kind == "capacity":
        return functools.partial(capacity.rate_bounds_grid, channel)
    if kind == "retrans":
        return functools.partial(retrans.service_rates_grid, channel)
    if kind == "rlc":
        return functools.partial(rlc_markov.service_rates_grid, channel, K=K, variant=variant)
    raise ValueError(f"unknown region kind {kind!r}")


def sweep(kind: str, channel, grid_step: float, K: int | None = None, variant: str = "paper"):
    """Evaluate a region kind over the (p1, p2) grid and reduce it to a frontier.

    Returns (grid, mu1, mu2, frontier): the 1-D grid and two (n, n) rate
    tables, ``mu[i, j]`` being the rate at (p1, p2) = (grid[i], grid[j]).
    So ``mu1[:, 0]`` and ``mu2[0, :]`` are the rates against an empty
    competitor, and ``frontier.index`` counts the cells row by row.
    """
    n = _grid_size(grid_step)
    # The flat columns are allocated before the 1-D grid is written, so a
    # grid too large for memory fails at once with MemoryError.
    p1s, p2s = np.empty(n * n), np.empty(n * n)
    grid = p_grid(grid_step)
    p1s.reshape(n, n)[:] = grid[:, None]
    p2s.reshape(n, n)[:] = grid
    mu1, mu2 = region_rates(kind, channel, K, variant)(grid, grid)
    x, y = mu1.ravel(), mu2.ravel()
    at = pareto_frontier(np.column_stack((x, y, p1s, p2s)))
    frontier = RegionFrontier(
        kind=kind,
        x=x[at],
        y=y[at],
        p1=p1s[at],
        p2=p2s[at],
        index=at,
        K=K if kind == "rlc" else None,
    )
    return grid, mu1, mu2, frontier


def service_rates(
    kind: str, channel, access, K: int | None = None, variant: str = "paper"
) -> ServiceRates:
    """Backlogged and empty rates of a region kind at one (p1, p2).

    An empty competitor has access probability 0, so the empty rates are
    the kind's rates at (p1, 0) and (0, p2): cells of its tables over the
    axes (p1, 0) and (p2, 0), the same p_own * g_n(p_other) as a sweep.
    """
    mu1, mu2 = region_rates(kind, channel, K, variant)([access.p1, 0.0], [access.p2, 0.0])
    return ServiceRates(
        backlogged=(float(mu1[0, 0]), float(mu2[0, 0])),
        empty=(float(mu1[0, 1]), float(mu2[1, 0])),
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
    top = frontier.x[-1]
    return np.maximum(x - top, y - frontier_value(frontier, np.minimum(x, top)))


def frontier_contains(
    outer: RegionFrontier, inner: RegionFrontier, tol: float
) -> bool:
    """True iff every inner point is dominated by the outer polyline within tol."""
    if outer.x.size == 0 or inner.x.size == 0:
        raise ValueError("frontiers must be nonempty")
    return bool(np.all(frontier_excess(outer, inner.x, inner.y) <= tol))


@dataclass
class StabilityRegion:
    """Stable arrival-rate set at fixed (p1, p2): union of the two
    constraint sets from the dominant-system analysis.

    Set 1 caps lambda2 by the backlogged rate of source 2 and lets
    lambda1 interpolate between the empty and backlogged rates of
    source 1; set 2 is the mirror image.  The fields may also be arrays,
    one region per grid point, for ``edges``.
    """

    mu_1b: float
    mu_2b: float
    mu_1e: float
    mu_2e: float

    def edges(self):
        """The boundary as (start, end, present) per edge.

        Both edges end at the corner (mu_1b, mu_2b): set 2's starts at
        (0, mu_2e) and holds stable pairs only where mu_1b > 0, set 1's
        starts at (mu_1e, 0) and holds them only where mu_2b > 0.
        """
        corner = (self.mu_1b, self.mu_2b)
        return (
            ((0.0, self.mu_2e), corner, self.mu_1b > 0),
            ((self.mu_1e, 0.0), corner, self.mu_2b > 0),
        )

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
    return sweep(policy, channel, grid_step, K, variant)[3]

