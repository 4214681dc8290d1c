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
The edge fractions depend only on (K, variant), so they are computed
once per edge, with the cached state space; a chain holds only its
reception weights, one row per value of the other source's access
probability.  A self-loop's fractions are 2^(t-K) for three small
integers t per state, so its three terms are tabled per t and row, once
per pass, and each state reads them at its exponents.

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
Every transition raises the level i + j + k, so the expected visits to
each state in one renewal cycle follow from a single level-ordered
forward pass (``_level_pass``), which solves the rows of a chain
together.  A transition raises the level by at most 3 (paper) or 4
(exact), so the pass holds only the levels that can still receive
inflow: a window of about 2,650 of the 45,526 states at K = 50 (paper),
a row per state and a column per chain row, shifted forward as the
levels finish; each level's edges add their flow in a few runs of
rising targets, cached with the state space.  The expected service time
is the sum of the per-level sums of the visits.  The own access
probability enters once, as the factor of the rate: mu_n = p_own * g_n
(``service_rate``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .channel import AccessProbabilities, ChannelModel
from .gf2 import _check_generation_size
from .regions import ServiceRates, service_rates

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

# At most this many floats in one level pass: its window of levels, its
# self-loop tables and one level's edge temporaries, per row.  The pass
# takes a chain's rows in chunks of this size, so its memory does not
# grow with the number of access values.
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
    ``wn + w1 * 2^(a - K) + w2 * 2^(b - K) + wb * 2^(c - K)`` with
    (a, b, c) its column of ``loop_at`` (see ``_self_loops``).
    ``level_cuts`` splits each level's edges into runs of rising targets,
    by offsets from the level's first edge.
    """

    K: int
    I: np.ndarray
    J: np.ndarray
    C: np.ndarray
    absorbing: np.ndarray            # state indices with i == j == K
    completes: np.ndarray            # the same states, as a mask
    loop_at: np.ndarray              # (3, states) self-loop exponents
    e_src: np.ndarray                # edges, level-ordered: source state,
    e_dst: np.ndarray                # target state,
    e_fam: np.ndarray                # family row,
    e_w: np.ndarray                  # (2, edges) weight column per term
    e_f: np.ndarray                  # and (2, edges) fraction per term
    level_state_slices: tuple[tuple[int, int], ...]
    level_edge_slices: tuple[tuple[int, int], ...]
    level_cuts: tuple[tuple[int, ...], ...]
    window: int                      # most states that hold inflow at once
    level_edges: int                 # most edges that leave one level


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
    state_bounds = np.searchsorted(level, bounds)
    edge_bounds = np.searchsorted(level[e_src], bounds)
    # While a level is passed, inflow can sit in it and in the levels its
    # edges reach, at most ``step`` above it.
    step = int((level[e_dst] - level[e_src]).max())
    reach = np.minimum(bounds[:-1] + step + 1, bounds[-1])
    window = int((state_bounds[reach] - state_bounds[:-1]).max())
    del order, level
    # Edges of one family reach distinct states in rising order, so each
    # level's edges fall into a few runs of rising targets.
    level_cuts = tuple(
        (0, *(np.flatnonzero(np.diff(e_dst[e0:e1]) <= 0) + 1).tolist(), e1 - e0)
        for e0, e1 in _slices(edge_bounds)
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
    # The self-loop's exponents: i, j and the dimension of the overlap of
    # the two spans, where a packet that reaches both destinations changes
    # no rank.  Once one destination is full, that is the other's span;
    # otherwise the span of dimension k.  In the exact variant J == K
    # forces k = i and I == K forces k = j, so there it is always k.
    loop_at = np.stack((I, J, np.where(J == K, I, np.where(I == K, J, C))))

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
        loop_at=loop_at.astype(np.min_scalar_type(K)),
        e_src=e_src,
        e_dst=e_dst,
        e_fam=e_fam,
        e_w=e_w,
        e_f=e_f,
        level_state_slices=_slices(state_bounds),
        level_edge_slices=_slices(edge_bounds),
        level_cuts=level_cuts,
        window=window,
        level_edges=int(np.diff(edge_bounds).max()),
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


def _loop_tables(K: int, w: np.ndarray) -> np.ndarray:
    """The self-loop's three terms at each exponent t = 0..K, as (3, K + 1,
    rows): wn + w1 * 2^(t-K), w2 * 2^(t-K) and wb * 2^(t-K).  ``w``
    holds the reception weights, ``_WEIGHTS`` on its first axis and a
    column per chain row."""
    w1, w2, wb, wn = w[:4]
    f = np.ldexp(1.0, np.arange(-K, 1))[:, None]
    return np.stack((wn + w1 * f, w2 * f, wb * f))


def _self_loops(space: _StateSpace, tables: np.ndarray, s0: int, s1: int) -> np.ndarray:
    """Self-loop probabilities of the states s0:s1 at p_own = 1, a row per
    state and a column per chain row, from the ``_loop_tables`` of the
    rows: wn + w1 * 2^(i-K) + w2 * 2^(j-K) + wb * (fraction of the
    overlap), summed in this order.  A completion state's renewal
    transition replaces its self-loop."""
    at = space.loop_at[:, s0:s1]
    loop = tables[0][at[0]]
    loop += tables[1][at[1]]
    loop += tables[2][at[2]]
    if s1 > space.absorbing[0]:
        loop[space.completes[s0:s1]] = 0.0
    return loop


def _edge_probs(space: _StateSpace, w: np.ndarray, e0: int, e1: int) -> np.ndarray:
    """Probabilities of the edges e0:e1 at p_own = 1, a row per edge and a
    column per chain row (``w`` as in ``_loop_tables``)."""
    terms = np.take(w, space.e_w[:, e0:e1], axis=0)
    terms *= space.e_f[:, e0:e1, None]
    terms[0] += terms[1]
    return terms[0]


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

    def _rows(self) -> np.ndarray:
        """The reception weights with ``_WEIGHTS`` first, one column per row."""
        return self.weights.reshape(-1, len(_WEIGHTS)).T

    def _shaped(self, per_row: np.ndarray) -> np.ndarray:
        """A state- or edge-major array (one column per row) in the chain's
        shape plus an axis of states or edges."""
        return per_row.T.reshape(self.weights.shape[:-1] + per_row.shape[:1])

    @property
    def self_p(self) -> np.ndarray:
        """Per-state self-loop probabilities (0 at the completion states)."""
        tables = _loop_tables(self.K, self._rows())
        return self._shaped(_self_loops(self.space, tables, 0, self.space.I.size))

    @property
    def e_prob(self) -> np.ndarray:
        """Edge probabilities, aligned with ``space.e_src``/``e_dst``."""
        return self._shaped(_edge_probs(self.space, self._rows(), 0, self.space.e_src.size))

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


def _chunk_rows(space: _StateSpace) -> int:
    """Rows per chunk of ``_level_pass``: per row, its buffer of twice the
    window, its self-loop tables and one level's edge temporaries
    (probabilities, their second terms and the gathered visits)."""
    per_row = 2 * space.window + 3 * (space.K + 1) + 3 * space.level_edges
    return max(1, _PASS_ELEMENTS // per_row)


def _level_pass(space: _StateSpace, w: np.ndarray, visits: np.ndarray | None = None) -> np.ndarray:
    """Expected slots per renewal cycle of the chain of g_n, per chain row
    (``w`` as in ``_loop_tables``): the sum of the expected visits to its
    transient states.  A row whose service never completes (a dead
    parameter point) has an infinite cycle.  With ``visits`` (states,
    rows), each state's visit count is also stored there (0 for the
    completion states).

    The pass walks the levels once per chunk of rows.  Every edge raises
    the level by at most a few, so only ``space.window`` states can hold
    inflow at once; the pass keeps them state-major, one column per row,
    in a buffer of twice that many states, which it shifts forward as the
    levels finish.  Each level's inflow becomes its visit counts in place,
    and its edges then add their share of those visits to the states they
    reach, in edge order: edges of one family reach distinct states, and
    a run of rising targets is added in one step.
    """
    cap = 2 * space.window
    chunk = _chunk_rows(space)
    slots = np.zeros(w.shape[1])
    for r0 in range(0, slots.size, chunk):
        rows = slice(r0, r0 + chunk)
        wt = w[:, rows]
        tables = _loop_tables(space.K, wt)
        total = slots[rows]
        win = np.zeros((cap, total.size))
        win[0] = 1.0  # a generation starts in (0, 0, 0), the only level-0 state
        base = 0  # the state in the buffer's first row
        # A completion state has no out-edges and a zero self-loop, so the
        # pass solves it like any other state (denominator 1, never dead)
        # and then zeroes its visits.
        levels = zip(space.level_state_slices, space.level_edge_slices, space.level_cuts)
        for (s0, s1), (e0, e1), cuts in levels:
            if s0 - base + space.window > cap:
                live = cap - (s0 - base)
                win[:live] = win[s0 - base :]
                win[live:] = 0.0
                base = s0
            level = win[s0 - base : s1 - base]
            denom = 1.0 - _self_loops(space, tables, s0, s1)
            tiny = denom <= 1e-15
            if tiny.any():
                # Such a state is never left: its row is dead if it has
                # inflow, and otherwise it gets no visits.
                stuck = np.any(tiny & (level > 0), axis=0)
                total[stuck] = np.inf
                win[:, stuck] = 0.0  # so nothing flows on from a dead row
                np.divide(level, denom, out=level, where=~tiny)
            else:
                level /= denom
            if s1 > space.absorbing[0]:
                level[space.completes[s0:s1]] = 0.0
            # Each row sums its level as one contiguous run, however many
            # rows share the pass (numpy sums a wide state-major level
            # column by column, but a one-row level pairwise).
            total += np.ascontiguousarray(level.T).sum(axis=1)
            if visits is not None:
                visits[s0:s1, rows] = level
            flow = _edge_probs(space, wt, e0, e1)
            flow *= np.take(win, space.e_src[e0:e1] - base, axis=0)
            dst = space.e_dst[e0:e1] - base
            for a, b in zip(cuts[:-1], cuts[1:]):
                win[dst[a:b]] += flow[a:b]
            del flow  # before the next level's temporaries
    return slots


def _visit_counts(chain: ChainModel) -> np.ndarray:
    """Expected visits per renewal cycle of the chain of g_n for transient
    states (0 for the completion states), per chain row: the shape of
    ``chain.weights`` with its last axis replaced by one of states.

    A row whose service never completes (a dead parameter point) has an
    infinite expected cycle: all its visit counts are inf.
    """
    w = chain._rows()
    visits = np.empty((chain.space.I.size, w.shape[1]))
    visits[:, np.isinf(_level_pass(chain.space, w, visits))] = np.inf
    return chain._shaped(visits)


def service_rate(chain: ChainModel):
    """K / E[slots to complete one generation] in packets/slot, per chain
    row (a float for a chain at one point); 0 where the service never
    completes.

    The chain is solved at p_own = 1, where its rate is g_n(p_other).  A
    smaller p_own only holds each state for 1 / p_own times as many slots
    on average, so the expected service time is T(1, q) / p_own and the
    rate is p_own * g_n(q), the same product a region sweep forms.
    """
    slots = _level_pass(chain.space, chain._rows())
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


def service_rates_grid(
    channel: ChannelModel, q: np.ndarray, K: int, variant: str = "paper"
) -> np.ndarray:
    """g_n(q) = mu_nb(p_own=1, p_other=q) of each source at the other
    source's access values q, as a (2, len(q)) array.

    Solves one chain per source, with a row per value of q, not one per
    point.
    """
    rates = []
    for source, access in ((1, AccessProbabilities(1.0, q)), (2, AccessProbabilities(q, 1.0))):
        rates.append(service_rate(build_chain(channel, access, source, True, K, variant)))
    return np.stack(rates)
