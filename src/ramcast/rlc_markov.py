"""Rank-evolution Markov chain for the random-linear-coding policy.

For one source, the per-slot state (i, j, k) tracks how many linearly
independent coded packets each destination holds (i at destination 1,
j at destination 2) and a correlation coordinate k <= min(i, j).
States (K, K, k) complete the service of a generation; a renewal
transition (K, K, k) -> (0, 0, 0) with probability 1 models immediate
start of the next generation and closes the chain.

In a slot where the source transmits, its coded packet reaches
destination 1 only, destination 2 only, both or neither, with the
reception weights w1, w2, wb and wn.  A uniform coefficient vector lies
in a subspace of dimension d with probability 2^(d - K), so every
transition probability is a reception weight times such fractions.
Each variant is one table of transition families, one row per family:
its name, its step (di, dj, dk), the states it leaves from and its
probability.  Both tables use the same weights and the same self-loop,
wn + w1 * 2^(i-K) + w2 * 2^(j-K) + wb * (fraction of the overlap).

* ``variant="paper"`` -- the published transition table, where k counts
  packets that advanced both destinations simultaneously and the
  overlap between the two received spans is approximated as 2^k.  Its
  boundary rows (one destination at full rank) split an advance of the
  other destination between keeping and incrementing k with a
  (K - k) * 2^-K weight.
* ``variant="exact"`` -- k is the dimension of the intersection of the
  two received spans, which makes (i, j, k) a lossless state: the
  membership probabilities of a uniform coefficient vector depend only
  on the subspace dimensions, so this chain reproduces the simulated
  system exactly.  The extra state constraint k >= i + j - K applies,
  intersections can grow by 2 in a slot, and (K, K, K) is the single
  completion state.

The service rate is K packets per expected service time.  Every
transition raises i + j + k, so the expected visits to each state in one
renewal cycle follow from a single level-ordered forward pass
(``_visit_counts``); their sum is the expected service time.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .channel import AccessProbabilities, ChannelModel
from .gf2 import _check_generation_size
from .regions import ServiceRates, factored_rates, service_rates

__all__ = [
    "ChainModel",
    "build_chain",
    "service_rate",
    "rlc_service_rates",
    "service_rates_grid",
]


@dataclass(frozen=True)
class _StateSpace:
    """Static state enumeration and edge topology for one (K, variant).

    States are ordered by level i + j + k, then i, then j; every edge
    raises the level, so the edge table ``e_src``/``e_dst``/``e_fam``
    (all families, grouped by the source state's level) admits a single
    forward pass.  ``e_fam`` is each edge's row in the variant's family
    table; inside a family, edges keep the order of their source states.
    """

    K: int
    variant: str
    I: np.ndarray
    J: np.ndarray
    C: np.ndarray
    absorbing: np.ndarray            # state indices with i == j == K
    e_src: np.ndarray                # edges, level-ordered: source state,
    e_dst: np.ndarray                # target state
    e_fam: np.ndarray                # and family row
    level_state_slices: tuple[tuple[int, int], ...]
    level_edge_slices: tuple[tuple[int, int], ...]


# The states a family leaves from, by which destinations still collect.
def _both_collect(I, J, K):
    return (I < K) & (J < K)


def _only_1_collects(I, J, K):
    return (I < K) & (J == K)


def _only_2_collects(I, J, K):
    return (I == K) & (J < K)


def _any_collects(I, J, K):
    return (I < K) | (J < K)


# name, di, dj, dk, source rows, probability at p_own = 1 from the
# weights w and the fractions f of the source state.
_PAPER_FAMS = (
    ("move_i", 1, 0, 0, _both_collect, lambda w, f: w.w1 * (1 - f.i) + w.wb * (f.j - f.k)),
    ("move_j", 0, 1, 0, _both_collect, lambda w, f: w.w2 * (1 - f.j) + w.wb * (f.i - f.k)),
    ("move_ij", 1, 1, 1, _both_collect, lambda w, f: w.wb * (1 - (f.i + f.j - f.k))),
    ("bnd_i", 1, 0, 0, _only_1_collects, lambda w, f: w.phi * (1 - (f.i + f.fresh))),
    ("bnd_ik", 1, 0, 1, _only_1_collects, lambda w, f: w.phi * f.fresh),
    ("bnd_j", 0, 1, 0, _only_2_collects, lambda w, f: w.sigma * (1 - (f.j + f.fresh))),
    ("bnd_jk", 0, 1, 1, _only_2_collects, lambda w, f: w.sigma * f.fresh),
)

_EXACT_FAMS = (
    ("x1", 1, 0, 0, _any_collects, lambda w, f: w.w1 * (1 - f.s)),
    ("x1k", 1, 0, 1, _any_collects, lambda w, f: w.w1 * (f.s - f.i) + w.wb * (f.j - f.k)),
    ("x2", 0, 1, 0, _any_collects, lambda w, f: w.w2 * (1 - f.s)),
    ("x2k", 0, 1, 1, _any_collects, lambda w, f: w.w2 * (f.s - f.j) + w.wb * (f.i - f.k)),
    ("xb1", 1, 1, 1, _any_collects, lambda w, f: w.wb * (1 - f.s)),
    ("xb2", 1, 1, 2, _any_collects, lambda w, f: w.wb * (f.s - f.i - f.j + f.k)),
)

_FAMILIES = {"paper": _PAPER_FAMS, "exact": _EXACT_FAMS}


def _slices(bounds: np.ndarray) -> tuple[tuple[int, int], ...]:
    return tuple(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


@lru_cache(maxsize=None)
def _state_space(K: int, variant: str) -> _StateSpace:
    # int32 indices halve the memory of the cached spaces (94k states for
    # K = 64 "paper"), which a region sweep keeps in its one process.
    r = np.arange(K + 1, dtype=np.int32)
    I, J, C = (a.ravel() for a in np.meshgrid(r, r, r, indexing="ij"))
    valid = C <= np.minimum(I, J)
    if variant == "exact":
        valid &= C >= I + J - K
    I, J, C = I[valid], J[valid], C[valid]
    order = np.lexsort((J, I, I + J + C))
    I, J, C = I[order], J[order], C[order]
    # One slack slot per axis so that every family target i + 1, j + 1,
    # k + 2 indexes the array and reads -1 outside the state space.
    lookup = np.full((K + 2, K + 2, K + 3), -1, dtype=np.int32)
    lookup[I, J, C] = np.arange(I.size, dtype=np.int32)
    absorbing = np.flatnonzero((I == K) & (J == K))

    edges = []
    for fam, (_, di, dj, dk, rows, _) in enumerate(_FAMILIES[variant]):
        src = np.flatnonzero(rows(I, J, K)).astype(np.int32)
        dst = lookup[I[src] + di, J[src] + dj, C[src] + dk]
        hit = dst >= 0
        edges.append((src[hit], dst[hit], np.full(np.count_nonzero(hit), fam, dtype=np.int8)))
    e_src, e_dst, e_fam = (np.concatenate(col) for col in zip(*edges))
    del edges  # the sort below is this build's memory peak

    # Topological grouping: every edge strictly increases i + j + k, so
    # processing states level-by-level makes the visit-count recursion a
    # single forward pass.  The sort is stable, so each family's edges
    # stay in state order.
    level = I + J + C
    bounds = np.arange(int(level[-1]) + 2)
    order = np.argsort(level[e_src], kind="stable")
    e_src, e_dst, e_fam = e_src[order], e_dst[order], e_fam[order]

    return _StateSpace(
        K=K,
        variant=variant,
        I=I,
        J=J,
        C=C,
        absorbing=absorbing,
        e_src=e_src,
        e_dst=e_dst,
        e_fam=e_fam,
        level_state_slices=_slices(np.searchsorted(level, bounds)),
        level_edge_slices=_slices(np.searchsorted(level[e_src], bounds)),
    )


def _family_probs(
    space: _StateSpace, channel: ChannelModel, source: int, p_other: float
) -> tuple[np.ndarray, np.ndarray]:
    """Edge probabilities (aligned with ``space.e_src``) and per-state
    self-loop probabilities of the chain at p_own = 1 (the source
    transmits in every slot).

    The self-loops of the completion states are left for ``build_chain``.
    """
    K, I, J, C = space.K, space.I, space.J, space.C
    s1, s2 = channel.solo(source, 1), channel.solo(source, 2)
    j1, j2 = channel.joint(source, 1), channel.joint(source, 2)

    def mix(f_solo, f_joint):
        return (1.0 - p_other) * f_solo + p_other * f_joint

    # Reception weights: the packet reaches destination 1 only (w1), 2
    # only (w2), both (wb) or neither (wn); it reaches 1 with probability
    # phi = w1 + wb and 2 with sigma = w2 + wb.
    phi, sigma, _ = channel.reception(source, p_other)
    w = SimpleNamespace(
        w1=mix(s1 * (1 - s2), j1 * (1 - j2)),
        w2=mix((1 - s1) * s2, (1 - j1) * j2),
        wb=mix(s1 * s2, j1 * j2),
        wn=mix((1 - s1) * (1 - s2), (1 - j1) * (1 - j2)),
        phi=phi,
        sigma=sigma,
    )
    # Per state, the chance 2^(d - K) that a uniform coefficient vector
    # lies in a span of dimension d: i, j and k for those coordinates, s
    # for the sum of the two spans (i + j - k in the exact variant); and
    # the published boundary rows' (K - k) 2^-K.
    f = SimpleNamespace(
        i=np.ldexp(1.0, I - K),
        j=np.ldexp(1.0, J - K),
        k=np.ldexp(1.0, C - K),
        s=np.ldexp(1.0, I + J - C - K),
        fresh=(K - C) * float(np.ldexp(1.0, -K)),
    )
    # A packet that reaches both destinations changes no rank iff it lies
    # in the overlap of their spans: once one destination is full, the
    # other's span; otherwise the span of dimension k.  In the exact
    # variant J == K forces k = i and I == K forces k = j, so there the
    # overlap is always the span of dimension k.
    overlap = np.where(J == K, f.i, np.where(I == K, f.j, f.k))
    self_p = w.wn + w.w1 * f.i + w.w2 * f.j + w.wb * overlap
    del overlap
    # One row per family, one column per state; an edge reads its family's
    # row at its source state.  This call is the memory peak of a large-K
    # sweep, so the rows are filled one at a time and every temporary is
    # dropped once spent.
    fams = _FAMILIES[space.variant]
    table = np.empty((len(fams), I.size))
    for row, (*_, prob) in zip(table, fams):
        row[:] = prob(w, f)
    del f
    return table[space.e_fam, space.e_src], self_p


@dataclass
class ChainModel:
    """A built chain: its state space plus the self-loop and edge
    probabilities at one parameter point."""

    space: _StateSpace = field(repr=False)
    self_p: np.ndarray = field(repr=False)
    e_prob: np.ndarray = field(repr=False)  # aligned with space.e_src/e_dst

    @property
    def K(self) -> int:
        return self.space.K

    def row_sums(self) -> np.ndarray:
        """Per-state outgoing probability mass (renewal rows count as 1)."""
        sums = self.self_p.copy()
        np.add.at(sums, self.space.e_src, self.e_prob)
        sums[self.space.absorbing] = 1.0
        return sums


def build_chain(
    channel: ChannelModel,
    access: AccessProbabilities,
    source: int = 1,
    other_backlogged: bool = True,
    K: int = 1,
    variant: str = "paper",
) -> ChainModel:
    """Assemble the per-source chain at one parameter point.

    ``other_backlogged=False`` models the empty competing source by
    setting its access probability to 0.
    """
    _check_generation_size(K)
    if variant not in _FAMILIES:
        raise ValueError(f"variant must be 'paper' or 'exact', got {variant!r}")
    if source not in (1, 2):
        raise ValueError(f"source must be 1 or 2, got {source!r}")
    space = _state_space(K, variant)
    p_own = access.of(source)
    p_other = access.other(source) if other_backlogged else 0.0
    e_prob, self_p = _family_probs(space, channel, source, p_other)
    # A slot moves the p_own = 1 chain with probability p_own and
    # otherwise leaves the state as it is.
    self_p = (1 - p_own) + p_own * self_p
    self_p[space.absorbing] = 0.0  # renewal transition replaces the row
    return ChainModel(space=space, self_p=self_p, e_prob=p_own * e_prob)


def _visit_counts(chain: ChainModel) -> np.ndarray | None:
    """Expected visits per renewal cycle for transient states (0 for the
    completion states).

    Returns None when the service never completes (dead parameter point).
    """
    space = chain.space
    inflow = np.zeros(chain.self_p.size)
    inflow[0] = 1.0  # a generation starts in (0, 0, 0), the only level-0 state
    visits = np.zeros_like(inflow)
    e_src, e_dst, e_prob = space.e_src, space.e_dst, chain.e_prob
    # A completion state has no out-edges and a zero self-loop, so the pass
    # solves it like any other state (denominator 1, never dead) and only
    # zeroes its visits at the end.
    for (s0, s1), (e0, e1) in zip(space.level_state_slices, space.level_edge_slices):
        denom = 1.0 - chain.self_p[s0:s1]
        if np.any((denom <= 1e-15) & (inflow[s0:s1] > 0)):
            return None
        with np.errstate(invalid="ignore", divide="ignore"):
            visits[s0:s1] = np.where(denom > 0, inflow[s0:s1] / denom, 0.0)
        np.add.at(inflow, e_dst[e0:e1], visits[e_src[e0:e1]] * e_prob[e0:e1])
    visits[space.absorbing] = 0.0
    return visits


def service_rate(chain: ChainModel) -> float:
    """K / E[slots to complete one generation] in packets/slot; 0 if the
    service never completes."""
    visits = _visit_counts(chain)
    return 0.0 if visits is None else chain.K / float(visits.sum())


def rlc_service_rates(
    channel: ChannelModel,
    access: AccessProbabilities,
    K: int,
    variant: str = "paper",
) -> ServiceRates:
    """Backlogged and empty service rates for both sources at one (p1, p2)."""
    return service_rates("rlc", channel, access, K, variant)


def _rates_at_full_access(
    channel: ChannelModel, source: int, q: np.ndarray, K: int, variant: str
) -> np.ndarray:
    """g_n(q) = mu_nb(p_own=1, p_other=q), one chain solve per value of q.

    A smaller p_own only holds each state for 1 / p_own times as many
    slots on average, so the expected service time is T(1, q) / p_own
    and mu_nb(p_own, q) = p_own * g_n(q).
    """
    out = np.empty(len(q))
    for n, p_other in enumerate(q.tolist()):
        access = AccessProbabilities(
            *((1.0, p_other) if source == 1 else (p_other, 1.0))
        )
        out[n] = service_rate(build_chain(channel, access, source, True, K, variant))
    return out


def service_rates_grid(
    channel: ChannelModel,
    p1: np.ndarray,
    p2: np.ndarray,
    K: int,
    variant: str = "paper",
) -> tuple[np.ndarray, np.ndarray]:
    """Backlogged rates (mu_1b, mu_2b) as tables over two access axes.

    Costs one chain solve per axis value of p2 (for source 1) and of p1
    (for source 2), not two per point.
    """
    return factored_rates(
        lambda source, q: _rates_at_full_access(channel, source, q, K, variant), p1, p2
    )
