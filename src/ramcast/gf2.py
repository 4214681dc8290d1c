"""Binary linear algebra and the decode-count distribution for random
linear coding.

Coefficient vectors are bit-packed integers (bit i = packet i of the
generation); this module draws them (``draw_coefficients``), eliminates
them (``basis_insert``) and gives their rank law.  A basis is a list
indexed by bit length: slot t holds the basis vector whose leading bit
is t - 1, or 0, and slot 0 is unused, so a basis for vectors of up to
w bits is ``[0] * (w + 1)`` and its rank is its count of nonzero slots.
A destination decodes once its collected coefficient matrix reaches
rank K; the number N of received coded packets needed has cdf

    F_K(j) = prod_{i=0..K-1} (1 - 2^(i-j))   for j >= K, else 0.
"""
from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "MAX_K",
    "basis_insert",
    "draw_coefficients",
    "rank_cdf",
    "rank_cdf_fraction",
    "rank_pmf",
    "expected_decode_count",
    "encode",
    "decode",
]

MAX_K = 64  # largest generation size anywhere in the package


def _check_generation_size(K: int) -> None:
    """The one check of a generation size, for the chain, the simulator,
    the CLI and the rank laws; NumPy integers pass, K = 2.0 does not."""
    if not (isinstance(K, numbers.Integral) and 1 <= K <= MAX_K):
        raise ValueError(f"K must be in [1, {MAX_K}], got {K!r}")


def basis_insert(basis: list[int], v: int) -> int:
    """Insert a vector into a triangular GF(2) basis; 1 if rank grew.

    ``basis[t]`` is the basis vector of bit length t, or 0; the list needs
    a slot for every bit length ``v`` can reach.
    """
    while v:
        t = v.bit_length()
        b = basis[t]
        if b:
            v ^= b
        else:
            basis[t] = v
            return 1
    return 0


def draw_coefficients(rng: np.random.Generator, n: int, K: int) -> np.ndarray:
    """``n`` uniform K-bit coefficient vectors as uint64; K = 64 draws all
    high 32-bit halves first."""
    if K < 64:
        return rng.integers(0, 1 << K, size=n, dtype=np.uint64)
    hi = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
    lo = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
    return (hi << np.uint64(32)) | lo


def _log_cdf(K: int, j: int) -> float:
    """log F_K(j) for j >= K."""
    return math.fsum(math.log1p(-(2.0 ** (i - j))) for i in range(K))


def rank_cdf(K: int, j: int) -> float:
    """P(a random K x j binary matrix has rank K); 0 for j < K."""
    _check_generation_size(K)
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j!r}")
    if j < K:
        return 0.0
    return math.exp(_log_cdf(K, j))


def rank_cdf_fraction(K: int, j: int) -> Fraction:
    """Exact rational version of :func:`rank_cdf`."""
    _check_generation_size(K)
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j!r}")
    if j < K:
        return Fraction(0)
    out = Fraction(1)
    for i in range(K):
        out *= 1 - Fraction(1, 2 ** (j - i))
    return out


def rank_pmf(K: int, j: int) -> float:
    """P(decoding first becomes possible with exactly j received columns).

    Taken as a difference of survival probabilities, which keeps its
    relative precision far into the tail, where F_K rounds to 1.
    """
    _check_generation_size(K)
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j!r}")
    return _survival(K, j - 1) - _survival(K, j)


def _survival(K: int, j: int) -> float:
    """1 - F_K(j), computed without cancellation (1 for j < K)."""
    if j < K:
        return 1.0
    return -math.expm1(_log_cdf(K, j))


def expected_decode_count(K: int) -> float:
    """E[N]: mean number of received coded packets until rank K.

    Evaluated through the survival-sum identity E[N] = K + sum_{j>=K}
    (1 - F_K(j)), summed until the survival probability, which roughly
    halves per step, falls to 1e-18 (by j = 124 for every K <= 64).
    """
    _check_generation_size(K)
    total = float(K)
    j = K
    s = _survival(K, j)
    while s > 1e-18:
        total += s
        j += 1
        s = _survival(K, j)
    return total


def encode(
    generation: Sequence[bytes], rng
) -> tuple[bytes, int]:
    """Form one coded packet: XOR of a fair-coin subset of the generation.

    Each coefficient is an independent fair bit (the all-zero vector is
    allowed; excluding it would change the decode-count distribution).
    Returns (payload, coefficient bitmask).  ``rng`` is a
    numpy.random.Generator.
    """
    K = len(generation)
    _check_generation_size(K)
    length = len(generation[0])
    if any(len(p) != length for p in generation):
        raise ValueError("generation packets must have equal length")
    coeffs = int(draw_coefficients(rng, 1, K)[0])
    acc = 0
    for i in range(K):
        if (coeffs >> i) & 1:
            acc ^= int.from_bytes(generation[i], "big")
    return acc.to_bytes(length, "big"), coeffs


def decode(K: int, columns: Sequence[int], payloads: Sequence[bytes]) -> list[bytes]:
    """Recover the K original packets by elimination through :func:`basis_insert`.

    Column c is the coefficient vector of ``payloads[c]``; together the
    columns must have rank K.
    """
    _check_generation_size(K)
    for col in columns:
        if col >> K:
            raise ValueError(f"column {col:#x} has bits beyond row {K - 1}")
    if len(columns) != len(payloads):
        raise ValueError(f"{len(columns)} coefficient columns but {len(payloads)} payloads")
    length = len(payloads[0]) if payloads else 0
    if any(len(p) != length for p in payloads):
        raise ValueError("payloads must have equal length")

    # Each equation coeff . s = payload is one vector, coefficients above
    # the payload bits, so the pivots in the K slots above ``shift`` are
    # those of the coefficients alone and count their rank.  The K
    # coefficient pivots are back-substituted in increasing order until
    # pivot i holds packet i alone.
    shift = 8 * length
    basis = [0] * (shift + K + 1)
    for coeff, payload in zip(columns, payloads):
        basis_insert(basis, coeff << shift | int.from_bytes(payload, "big"))
    rank = K - basis[shift + 1 :].count(0)
    if rank < K:
        raise ValueError(f"rank {rank} < K={K}: cannot decode")
    rows: list[int] = []
    for i in range(K):
        v = basis[shift + i + 1]
        for j in range(i):
            if v >> (shift + j) & 1:
                v ^= rows[j]
        rows.append(v)
    return [(v & ((1 << shift) - 1)).to_bytes(length, "big") for v in rows]
