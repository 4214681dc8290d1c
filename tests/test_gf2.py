import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramcast.gf2 import (
    MAX_K,
    _survival,
    basis_insert,
    decode,
    draw_coefficients,
    encode,
    expected_decode_count,
    rank_cdf,
    rank_cdf_fraction,
    rank_pmf,
)


def _rank(columns) -> int:
    basis = [0] * (MAX_K + 1)
    return sum(basis_insert(basis, col) for col in columns)


def _filled(basis: list[int]) -> int:
    """Rank of a list basis: its count of nonzero slots."""
    return len(basis) - basis.count(0)


def test_rank_identity_and_zero():
    assert _rank([1 << r for r in range(5)]) == 5
    basis = [0] * 6
    assert [basis_insert(basis, 0) for _ in range(5)] == [0] * 5
    assert basis == [0] * 6


def test_rank_hand_example():
    # Bit r of a column is row r.
    assert _rank([0b11, 0b11, 0b10]) == 2


def test_is_innovative_basics():
    # basis_insert reports whether the column was innovative.
    empty = [0] * 5
    assert not basis_insert(empty, 0)
    assert basis_insert(empty, 0b1010)
    basis = [0, 0b001, 0, 0]
    assert not basis_insert(basis, 0b001)
    assert basis_insert(basis, 0b010)
    assert _filled(basis) == 2


def _span_innovations(vectors) -> list[int]:
    """1 for each vector outside the span of those before it, the span
    enumerated member by member."""
    span = {0}
    flags = []
    for v in vectors:
        flags.append(int(v not in span))
        if flags[-1]:
            span |= {u ^ v for u in span}
    return flags


def _low_pivot_innovations(vectors) -> list[int]:
    """1 for each vector that an elimination pivoting on the lowest set
    bit, instead of the leading one, finds innovative."""
    pivots: dict[int, int] = {}
    flags = []
    for v in vectors:
        while v and v & -v in pivots:
            v ^= pivots[v & -v]
        if v:
            pivots[v & -v] = v
        flags.append(int(v != 0))
    return flags


def _assert_triangular(basis: list[int]) -> None:
    assert basis[0] == 0
    assert all(b.bit_length() == t for t, b in enumerate(basis) if b)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda K: st.tuples(st.just(K), st.lists(st.integers(0, (1 << K) - 1), max_size=3 * K + 4))
    )
)
def test_basis_insert_flags_match_span_enumeration(case):
    K, vectors = case
    basis = [0] * (K + 1)
    assert [basis_insert(basis, v) for v in vectors] == _span_innovations(vectors)
    _assert_triangular(basis)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([63, 64]), st.integers(1, 72), st.integers(0, 2**32 - 1))
@example(64, 72, 0)
@example(63, 5, 1)
def test_basis_insert_flags_match_low_pivot_elimination(K, r, seed):
    # r generators, the first with bit K - 1 set (bit 63 fills slot 64 at
    # K = 64), then random combinations of them: the stream has rank at
    # most min(r, K), so its late vectors are mostly dependent.
    rng = np.random.default_rng(seed)
    gens = [int(g) for g in draw_coefficients(rng, r, K)]
    gens[0] |= 1 << (K - 1)
    vectors = list(gens)
    for mask in rng.integers(0, 2, size=(2 * r + 8, r)).tolist():
        v = 0
        for g, bit in zip(gens, mask):
            if bit:
                v ^= g
        vectors.append(v)
    basis = [0] * (K + 1)
    flags = [basis_insert(basis, v) for v in vectors]
    assert flags == _low_pivot_innovations(vectors)
    assert _filled(basis) == sum(flags) <= min(r, K)
    assert basis[K] >> (K - 1) == 1
    _assert_triangular(basis)


def test_is_innovative_rejects_wide_columns():
    with pytest.raises(ValueError, match=r"column 0x4 has bits beyond row 1"):
        decode(2, [0b01, 0b100, 0b10], [bytes([1])] * 3)


def test_rank_cdf_values():
    assert rank_cdf(1, 1) == pytest.approx(0.5, abs=1e-15)
    assert rank_cdf(2, 2) == pytest.approx(0.375, abs=1e-15)
    for K in (1, 2, 5, 20, 64):
        assert rank_cdf(K, K - 1) == 0.0


def test_rank_cdf_matches_enumeration_2x2():
    full = 0
    for cols in itertools.product(range(4), repeat=2):
        if _rank(cols) == 2:
            full += 1
    assert full == 6
    assert rank_cdf_fraction(2, 2) == Fraction(6, 16)


@pytest.mark.parametrize("K,jmax", [(1, 5), (2, 5)])
def test_rank_cdf_matches_enumeration_small(K, jmax):
    for j in range(jmax + 1):
        full = 0
        for cols in itertools.product(range(1 << K), repeat=j):
            if _rank(cols) == K:
                full += 1
        assert rank_cdf_fraction(K, j) == Fraction(full, (1 << K) ** j)


def test_rank_cdf_monotone_to_one():
    for K in (1, 3, 8):
        prev = 0.0
        for j in range(K + 60):
            c = rank_cdf(K, j)
            assert c >= prev - 1e-15
            assert rank_pmf(K, j) >= -1e-15
            prev = c
        assert prev == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("j", [54, 60])
def test_rank_pmf_keeps_its_tail(j):
    # At K = 1 the decode count is geometric(1/2): f_1(j) = 2^-j, which the
    # difference of two cdf values near 1 loses (1.11e-16 at j = 54, 0 at 60).
    assert rank_pmf(1, j) == pytest.approx(2.0**-j, rel=1e-15)


def test_expected_decode_count_geometric_base():
    assert expected_decode_count(1) == pytest.approx(2.0, abs=1e-12)


def test_expected_decode_count_k2():
    # First innovative column is geometric(3/4), the second geometric(1/2),
    # so E[N] = 4/3 + 2 = 10/3.
    assert expected_decode_count(2) == pytest.approx(10.0 / 3.0, abs=1e-9)


def test_expected_decode_count_monte_carlo():
    rng = np.random.default_rng(42)
    K = 2
    trials = 100_000
    total = 0
    for _ in range(trials):
        basis = [0] * (K + 1)
        n = 0
        while _filled(basis) < K:
            n += 1
            basis_insert(basis, int(rng.integers(0, 1 << K)))
        total += n
    mean = total / trials
    # std of N is about 1.4 for K=2
    assert abs(mean - expected_decode_count(K)) < 3 * 1.5 / math.sqrt(trials)


def test_overhead_ratio_bounds():
    ratios = [expected_decode_count(K) / K for K in range(1, 65)]
    assert all(1.0 <= r <= 2.0 for r in ratios)
    assert ratios[0] == pytest.approx(2.0, abs=1e-12)
    assert max(ratios) == ratios[0]
    assert ratios[63] <= 1.05


def test_decode_overhead_tends_to_erdos_borwein_constant():
    # E[N] - K = sum_{i=1}^{K} 1/(2^i - 1), whose tail beyond K is about
    # 2^-K; the limit is the Erdős–Borwein constant.
    limit = float(sum(Fraction(1, 2**i - 1) for i in range(1, 80)))
    assert limit == 1.6066951524152917
    assert abs(expected_decode_count(20) - 20 - limit) <= 1e-6
    for K in range(40, 65):
        assert abs(expected_decode_count(K) - K - limit) <= 1e-12, K


def test_rank_distribution_summary():
    K = 4
    assert rank_cdf(K, 3) == 0.0
    assert rank_pmf(K, 4) == pytest.approx(rank_cdf(K, 4), abs=1e-15)
    assert expected_decode_count(K) / K >= 1.0
    # Tail cut where 1 - F_K(j) < 1e-12; the pmf's mean up to it is E[N].
    cutoff = K
    while _survival(K, cutoff) >= 1e-12:
        cutoff += 1
    assert rank_cdf(K, cutoff) > 1 - 1e-11
    mean = math.fsum(j * rank_pmf(K, j) for j in range(K, cutoff + 1))
    assert mean == pytest.approx(expected_decode_count(K), abs=1e-9)


@pytest.mark.parametrize("K", [1, 2, 4])
def test_decode_count_histogram_matches_pmf(K):
    rng = np.random.default_rng(7)
    trials = 60_000
    counts: dict[int, int] = {}
    for _ in range(trials):
        basis = [0] * (K + 1)
        n = 0
        while _filled(basis) < K:
            n += 1
            basis_insert(basis, int(rng.integers(0, 1 << K)))
        counts[n] = counts.get(n, 0) + 1
    jmax = max(counts)
    for j in range(K, jmax + 1):
        p = rank_pmf(K, j)
        expected = trials * p
        if expected < 10:
            continue
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(counts.get(j, 0) - expected) <= 3 * sigma + 1


def test_encode_xors_selected_packets():
    rng = np.random.default_rng(12)
    generation = [bytes([17, 34]), bytes([255, 0]), bytes([3, 12])]
    for _ in range(40):
        payload, coeffs = encode(generation, rng)
        acc = 0
        for i in range(3):
            if (coeffs >> i) & 1:
                acc ^= int.from_bytes(generation[i], "big")
        assert payload == acc.to_bytes(2, "big")
    # the all-zero coefficient vector is allowed and yields a zero payload
    seen_zero = False
    for _ in range(200):
        payload, coeffs = encode([bytes([9])], rng)
        if coeffs == 0:
            seen_zero = True
            assert payload == bytes([0])
    assert seen_zero


def test_encode_coefficient_stream_is_pinned():
    # One Generator across generation sizes; K = 64 takes two 32-bit draws.
    rng = np.random.default_rng(3)
    coeffs = [encode([bytes([0])] * K, rng)[1] for K in (1, 5, 63, 64)]
    assert coeffs == [1, 2, 2184191404571879930, 3345589818319983303]


def test_encode_rejects_unequal_lengths():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        encode([bytes([1]), bytes([1, 2])], rng)


def test_decode_identity_and_hand_example():
    payloads = [bytes([5]), bytes([9])]
    assert decode(2, [0b01, 0b10], payloads) == payloads
    # columns 0b01 and 0b11 carry s1 and s1 xor s2
    s1, s2 = bytes([0b1100]), bytes([0b1010])
    got = decode(2, [0b01, 0b11], [s1, bytes([0b0110])])
    assert got == [s1, s2]


def test_decode_requires_full_rank():
    with pytest.raises(ValueError, match="rank"):
        decode(2, [0b11, 0b11], [bytes([1]), bytes([1])])


@pytest.mark.parametrize(
    "K, columns, payloads, match",
    [
        (2, [0b01, 0b10], [b"a"], r"2 coefficient columns but 1 payloads"),
        (2, [0b01, 0b10], [b"a", b"bc"], r"payloads must have equal length"),
        (2, [], [], r"rank 0 < K=2"),
        # Extra columns that add nothing: four columns, rank 1.
        (2, [0b11, 0b11, 0, 0b11], [b"a", b"a", b"\0", b"a"], r"rank 1 < K=2"),
        # Inconsistent payloads on one coefficient vector leave its rank at 1.
        (2, [0b01, 0b01], [b"a", b"b"], r"rank 1 < K=2"),
        (3, [0b001, 0b010, 0b011, 0b011], [b"a"] * 4, r"rank 2 < K=3"),
    ],
)
def test_decode_rejects(K, columns, payloads, match):
    with pytest.raises(ValueError, match=match):
        decode(K, columns, payloads)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, 8), st.sampled_from([63, 64])), st.integers(0, 2**31 - 1))
@example(63, 0)
@example(64, 1)
def test_encode_decode_roundtrip_exactly_at_rank_k(K, seed):
    rng = np.random.default_rng(seed)
    generation = [bytes(rng.integers(0, 256, size=6, dtype=np.uint8)) for _ in range(K)]
    basis = [0] * (K + 1)
    columns = []
    payloads = []
    for _ in range(1000):
        payload, coeffs = encode(generation, rng)
        basis_insert(basis, coeffs)
        columns.append(coeffs)
        payloads.append(payload)
        if _filled(basis) < K:
            with pytest.raises(ValueError):
                decode(K, columns, payloads)
        else:
            break
    assert _filled(basis) == K
    assert decode(K, columns, payloads) == generation
