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
transition probability is a sum of at most two terms, each a reception
weight times such fractions.  Each variant is one table of transition
families, one row per family: its name, its step (di, dj, dk), the
states it leaves from and its (weight, fraction) terms.  Both tables use
the same weights and the same self-loop,
wn + w1 * 2^(i-K) + w2 * 2^(j-K) + wb * (fraction of the overlap).
The fractions depend only on (K, variant), so they are computed once per
edge and state, with the cached state space; a chain holds only its
reception weights, one row per value of the other source's access
probability.

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

The chain is that of a source transmitting in every slot (p_own = 1),
whose service rate g_n(p_other) is K packets per expected service time.
Every transition raises i + j + k, so the expected visits to each state
in one renewal cycle follow from a single level-ordered forward pass
(``_visit_counts``), which solves every row of a chain at once; their
sum is the expected service time.  The own access probability enters
once, as the factor of the rate: mu_n = p_own * g_n (``service_rate``).
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

# A chain row's reception weights, in this order on its last axis: the
# packet reaches destination 1 only (w1), 2 only (w2), both (wb) or
# neither (wn); it reaches 1 with probability phi = w1 + wb and 2 with
# sigma = w2 + wb.
_WEIGHTS = ("w1", "w2", "wb", "wn", "phi", "sigma")

# At most this many visit counts (rows x states) in one level pass:
# ``service_rate`` takes a chain's rows in chunks of this size, so its
# memory does not grow with the number of access values.
_PASS_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class _StateSpace:
    """Static state enumeration, edge topology and transition fractions
    for one (K, variant).

    States are ordered by level i + j + k, then i, then j; every edge
    raises the level, so the edge table ``e_src``/``e_dst``/``e_fam``
    (all families, grouped by the source state's level) admits a single
    forward pass.  ``e_fam`` is each edge's row in the variant's family
    table; inside a family, edges keep the order of their source states.
    At p_own = 1, for a row w of reception weights, an edge's
    probability is ``w[e_w[0]] * e_f[0] + w[e_w[1]] * e_f[1]`` (a one-term
    family's second fraction is 0) and a state's self-loop is
    ``wn + w1 * loop_f[0] + w2 * loop_f[1] + wb * loop_f[2]``.
    """

    K: int
    I: np.ndarray
    J: np.ndarray
    C: np.ndarray
    absorbing: np.ndarray            # state indices with i == j == K
    completes: np.ndarray            # the same states, as a mask
    loop_f: np.ndarray               # (3, states) self-loop fractions
    e_src: np.ndarray                # edges, level-ordered: source state,
    e_dst: np.ndarray                # target state,
    e_fam: np.ndarray                # family row,
    e_w: np.ndarray                  # (2, edges) weight column per term
    e_f: np.ndarray                  # and (2, edges) fraction per term
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


# name, di, dj, dk, source rows, and the probability at p_own = 1 as
# (weight, fraction) terms, summed in this order; a fraction is a
# function of the fractions f of the source state (see ``_state_space``).
_PAPER_FAMS = (
    ("move_i", 1, 0, 0, _both_collect, (("w1", lambda f: 1 - f.i), ("wb", lambda f: f.j - f.k))),
    ("move_j", 0, 1, 0, _both_collect, (("w2", lambda f: 1 - f.j), ("wb", lambda f: f.i - f.k))),
    ("move_ij", 1, 1, 1, _both_collect, (("wb", lambda f: 1 - (f.i + f.j - f.k)),)),
    ("bnd_i", 1, 0, 0, _only_1_collects, (("phi", lambda f: 1 - (f.i + f.fresh)),)),
    ("bnd_ik", 1, 0, 1, _only_1_collects, (("phi", lambda f: f.fresh),)),
    ("bnd_j", 0, 1, 0, _only_2_collects, (("sigma", lambda f: 1 - (f.j + f.fresh)),)),
    ("bnd_jk", 0, 1, 1, _only_2_collects, (("sigma", lambda f: f.fresh),)),
)

_EXACT_FAMS = (
    ("x1", 1, 0, 0, _any_collects, (("w1", lambda f: 1 - f.s),)),
    ("x1k", 1, 0, 1, _any_collects, (("w1", lambda f: f.s - f.i), ("wb", lambda f: f.j - f.k))),
    ("x2", 0, 1, 0, _any_collects, (("w2", lambda f: 1 - f.s),)),
    ("x2k", 0, 1, 1, _any_collects, (("w2", lambda f: f.s - f.j), ("wb", lambda f: f.i - f.k))),
    ("xb1", 1, 1, 1, _any_collects, (("wb", lambda f: 1 - f.s),)),
    ("xb2", 1, 1, 2, _any_collects, (("wb", lambda f: f.s - f.i - f.j + f.k),)),
)

_FAMILIES = {"paper": _PAPER_FAMS, "exact": _EXACT_FAMS}

# The second term of a one-term family: w1 * 0 adds nothing.
_NO_TERM = ("w1", lambda f: 0.0)


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
    completes = (I == K) & (J == K)
    fams = _FAMILIES[variant]

    edges = []
    for fam, (_, di, dj, dk, rows, _) in enumerate(fams):
        src = np.flatnonzero(rows(I, J, K)).astype(np.int32)
        dst = lookup[I[src] + di, J[src] + dj, C[src] + dk]
        hit = dst >= 0
        edges.append((src[hit], dst[hit], np.full(np.count_nonzero(hit), fam, dtype=np.int8)))
    e_src, e_dst, e_fam = (np.concatenate(col) for col in zip(*edges))
    del edges, lookup  # the sort and the fractions below are this build's memory peak

    # Topological grouping: every edge strictly increases i + j + k, so
    # processing states level-by-level makes the visit-count recursion a
    # single forward pass.  The sort is stable, so each family's edges
    # stay in state order.
    level = I + J + C
    bounds = np.arange(int(level[-1]) + 2)
    order = np.argsort(level[e_src], kind="stable")
    e_src, e_dst, e_fam = e_src[order], e_dst[order], e_fam[order]
    level_state_slices = _slices(np.searchsorted(level, bounds))
    level_edge_slices = _slices(np.searchsorted(level[e_src], bounds))
    del order, level

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

    # Each edge's (weight, fraction) terms, in its family's order; a
    # one-term family's second term is ``_NO_TERM``.
    e_w = np.empty((2, e_src.size), dtype=np.int8)
    e_f = np.empty((2, e_src.size))
    for fam, (*_, terms) in enumerate(fams):
        at = np.flatnonzero(e_fam == fam)
        src = e_src[at]
        for t, (weight, frac) in enumerate((terms + (_NO_TERM,))[:2]):
            e_w[t, at] = _WEIGHTS.index(weight)
            e_f[t, at] = np.broadcast_to(frac(f), I.shape)[src]

    return _StateSpace(
        K=K,
        I=I,
        J=J,
        C=C,
        absorbing=np.flatnonzero(completes),
        completes=completes,
        loop_f=np.stack((f.i, f.j, overlap)),
        e_src=e_src,
        e_dst=e_dst,
        e_fam=e_fam,
        e_w=e_w,
        e_f=e_f,
        level_state_slices=level_state_slices,
        level_edge_slices=level_edge_slices,
    )


def _reception_weights(channel: ChannelModel, source: int, p_other) -> np.ndarray:
    """The ``_WEIGHTS`` of one transmission of ``source`` per value of
    ``p_other``, on a new last axis."""
    s1, s2 = channel.solo(source, 1), channel.solo(source, 2)
    j1, j2 = channel.joint(source, 1), channel.joint(source, 2)

    def mix(f_solo, f_joint):
        return (1.0 - p_other) * f_solo + p_other * f_joint

    phi, sigma, _ = channel.reception(source, p_other)
    return np.stack(
        (
            mix(s1 * (1 - s2), j1 * (1 - j2)),
            mix((1 - s1) * s2, (1 - j1) * j2),
            mix(s1 * s2, j1 * j2),
            mix((1 - s1) * (1 - s2), (1 - j1) * (1 - j2)),
            phi,
            sigma,
        ),
        axis=-1,
    )


def _self_loops(space: _StateSpace, w, s0: int, s1: int) -> np.ndarray:
    """Self-loop probabilities of the states s0:s1 at p_own = 1, per chain
    row of reception weights ``w`` (last axis ``_WEIGHTS``); a completion
    state's renewal transition replaces its row."""
    f = space.loop_f[:, s0:s1]
    w1, w2, wb, wn = (w[..., n, None] for n in range(4))
    loop = wn + w1 * f[0] + w2 * f[1] + wb * f[2]
    return np.where(space.completes[s0:s1], 0.0, loop)


def _edge_probs(space: _StateSpace, w, e0: int, e1: int) -> np.ndarray:
    """Probabilities of the edges e0:e1 at p_own = 1, per chain row (``w``
    as in ``_self_loops``)."""
    terms = np.take(w, space.e_w[:, e0:e1], axis=-1) * space.e_f[:, e0:e1]
    return terms[..., 0, :] + terms[..., 1, :]


@dataclass
class ChainModel:
    """A built chain: its state space plus, per value of the access
    probabilities, the own access probability and the reception weights.

    ``p_own`` has the shape of the access values (``()`` at one point) and
    ``weights`` that shape plus an axis of ``_WEIGHTS``.  The transitions
    are those of the source transmitting in every slot, the chain of g_n:
    ``self_p``, ``e_prob`` and ``row_sums`` spell it out with that shape
    plus an axis of states or edges, and only ``service_rate`` reads
    ``p_own``.
    """

    space: _StateSpace = field(repr=False)
    p_own: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def K(self) -> int:
        return self.space.K

    @property
    def self_p(self) -> np.ndarray:
        """Per-state self-loop probabilities (0 at the completion states)."""
        return _self_loops(self.space, self.weights, 0, self.space.I.size)

    @property
    def e_prob(self) -> np.ndarray:
        """Edge probabilities, aligned with ``space.e_src``/``e_dst``."""
        return _edge_probs(self.space, self.weights, 0, self.space.e_src.size)

    def row_sums(self) -> np.ndarray:
        """Per-state outgoing probability mass (renewal rows count as 1)."""
        sums = self.self_p
        # Transposed, states and edges lead, whatever the chain's shape.
        np.add.at(sums.T, self.space.e_src, self.e_prob.T)
        sums[..., self.space.absorbing] = 1.0
        return sums


def build_chain(
    channel: ChannelModel,
    access: AccessProbabilities,
    source: int = 1,
    other_backlogged: bool = True,
    K: int = 1,
    variant: str = "paper",
) -> ChainModel:
    """Assemble the per-source chain at one parameter point, or at one per
    value where the access fields are arrays (they broadcast together).

    ``other_backlogged=False`` models the empty competing source by
    setting its access probability to 0.
    """
    _check_generation_size(K)
    if variant not in _FAMILIES:
        raise ValueError(f"variant must be 'paper' or 'exact', got {variant!r}")
    if source not in (1, 2):
        raise ValueError(f"source must be 1 or 2, got {source!r}")
    p_own, p_other = np.broadcast_arrays(
        np.asarray(access.of(source), dtype=float),
        np.asarray(access.other(source) if other_backlogged else 0.0, dtype=float),
    )
    return ChainModel(
        space=_state_space(K, variant),
        p_own=p_own,
        weights=_reception_weights(channel, source, p_other),
    )


def _visit_counts(chain: ChainModel) -> np.ndarray:
    """Expected visits per renewal cycle of the chain of g_n for transient
    states (0 for the completion states), per chain row: the shape of
    ``chain.weights`` with its last axis replaced by one of states.

    A row whose service never completes (a dead parameter point) has an
    infinite expected cycle: all its visit counts are inf.
    """
    space = chain.space
    n = space.I.size
    w = chain.weights.reshape(-1, len(_WEIGHTS))
    # Each state's inflow becomes its visit count in place, once every
    # level below it has been passed.
    visits = np.zeros((w.shape[0], n))
    visits[:, 0] = 1.0  # a generation starts in (0, 0, 0), the only level-0 state
    flat = visits.reshape(-1)
    row_start = np.arange(0, visits.size, n)[:, None]
    dead = np.zeros(w.shape[0], dtype=bool)
    # A completion state has no out-edges and a zero self-loop, so the pass
    # solves it like any other state (denominator 1, never dead) and only
    # zeroes its visits at the end.
    for (s0, s1), (e0, e1) in zip(space.level_state_slices, space.level_edge_slices):
        denom = 1.0 - _self_loops(space, w, s0, s1)
        level = visits[:, s0:s1]
        tiny = denom <= 1e-15
        if tiny.any():
            # Such a state is never left: its row is dead if it has inflow,
            # and otherwise it gets no visits.
            stuck = np.any(tiny & (level > 0), axis=1)
            dead |= stuck
            visits[stuck] = 0.0  # so nothing flows on from a dead row
            np.divide(level, denom, out=level, where=~tiny)
        else:
            level /= denom
        # One flat add.at over all rows: each destination still sums its
        # inflow in edge order.
        np.add.at(
            flat,
            (row_start + space.e_dst[e0:e1]).ravel(),
            (visits[:, space.e_src[e0:e1]] * _edge_probs(space, w, e0, e1)).ravel(),
        )
    visits[:, space.absorbing] = 0.0
    visits[dead] = np.inf
    return visits.reshape(chain.weights.shape[:-1] + (n,))


def service_rate(chain: ChainModel):
    """K / E[slots to complete one generation] in packets/slot, per chain
    row (a float for a chain at one point); 0 where the service never
    completes.

    The chain is solved at p_own = 1, where its rate is g_n(p_other).  A
    smaller p_own only holds each state for 1 / p_own times as many slots
    on average, so the expected service time is T(1, q) / p_own and the
    rate is p_own * g_n(q), the same product ``factored_rates`` takes.
    """
    w = chain.weights.reshape(-1, len(_WEIGHTS))
    rows = max(1, _PASS_ELEMENTS // chain.space.I.size)
    slots = np.empty(w.shape[0])
    for r in range(0, w.shape[0], rows):
        part = ChainModel(space=chain.space, p_own=chain.p_own, weights=w[r : r + rows])
        slots[r : r + rows] = _visit_counts(part).sum(axis=-1)
    rate = chain.p_own * (chain.K / slots).reshape(chain.p_own.shape)
    return float(rate) if rate.ndim == 0 else rate


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
    """g_n(q) = mu_nb(p_own=1, p_other=q) for every value of q, from one
    chain with a row per value."""
    access = AccessProbabilities(*((1.0, q) if source == 1 else (q, 1.0)))
    return service_rate(build_chain(channel, access, source, True, K, variant))


def service_rates_grid(
    channel: ChannelModel,
    p1: np.ndarray,
    p2: np.ndarray,
    K: int,
    variant: str = "paper",
) -> tuple[np.ndarray, np.ndarray]:
    """Backlogged rates (mu_1b, mu_2b) as tables over two access axes.

    Solves one chain per source, with a row per axis value of p2 (for
    source 1) and of p1 (for source 2), not one per point.
    """
    return factored_rates(
        lambda source, q: _rates_at_full_access(channel, source, q, K, variant), p1, p2
    )
