"""Binary linear algebra and the decode-count distribution for random
linear coding.

Coefficient vectors are bit-packed integers (bit i = packet i of the
generation, generation size K <= 64 fits one machine word).  A
destination decodes once its collected coefficient matrix reaches rank
K; the number N of received coded packets needed has cdf

    F_K(j) = prod_{i=0..K-1} (1 - 2^(i-j))   for j >= K, else 0.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "MAX_K",
    "BinaryMatrix",
    "basis_insert",
    "rank_cdf",
    "rank_cdf_fraction",
    "rank_pmf",
    "expected_decode_count",
    "encode",
    "decode",
]

MAX_K = 64  # largest generation size anywhere in the package


def _check_generation_size(K: int) -> None:
    if not 1 <= K <= MAX_K:
        raise ValueError(f"generation size K must be in [1, {MAX_K}], got {K!r}")


def basis_insert(basis: dict[int, int], v: int) -> int:
    """Insert a vector into a triangular GF(2) basis; 1 if rank grew.

    ``basis`` maps the leading bit of each basis vector to the vector.
    """
    while v:
        top = v.bit_length() - 1
        b = basis.get(top)
        if b is None:
            basis[top] = v
            return 1
        v ^= b
    return 0


class BinaryMatrix:
    """A K-row binary matrix stored as bit-packed columns.

    Columns are appended as they are received; an internal echelon basis
    (see :func:`basis_insert`) is kept incrementally, so each append
    reports whether the column was innovative and the rank is O(1).
    """

    __slots__ = ("rows", "_columns", "_basis")

    def __init__(self, rows: int, columns: Iterable[int] = ()) -> None:
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows!r}")
        self.rows = rows
        self._columns: list[int] = []
        self._basis: dict[int, int] = {}
        for col in columns:
            self.append_column(col)

    @property
    def cols(self) -> int:
        return len(self._columns)

    @property
    def columns(self) -> tuple[int, ...]:
        return tuple(self._columns)

    @property
    def rank(self) -> int:
        return len(self._basis)

    def append_column(self, col: int) -> bool:
        """Append a column; returns True when it increased the rank."""
        if col >> self.rows:
            raise ValueError(f"column {col:#x} has bits beyond row {self.rows - 1}")
        self._columns.append(col)
        return bool(basis_insert(self._basis, col))


def rank_cdf(K: int, j: int) -> float:
    """P(a random K x j binary matrix has rank K); 0 for j < K."""
    _check_generation_size(K)
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j!r}")
    if j < K:
        return 0.0
    return math.exp(math.fsum(math.log1p(-(2.0 ** (i - j))) for i in range(K)))


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
    """P(decoding first becomes possible with exactly j received columns)."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j!r}")
    if j == 0:
        return 0.0
    return rank_cdf(K, j) - rank_cdf(K, j - 1)


def _survival(K: int, j: int) -> float:
    """1 - F_K(j) computed without cancellation."""
    if j < K:
        return 1.0
    return -math.expm1(math.fsum(math.log1p(-(2.0 ** (i - j))) for i in range(K)))


def expected_decode_count(K: int, tol: float = 1e-12) -> float:
    """E[N]: mean number of received coded packets until rank K.

    Evaluated through the survival-sum identity E[N] = K + sum_{j>=K}
    (1 - F_K(j)), truncated once the survival probability falls below
    ``tol`` with the geometric tail folded in (the survival ratio
    approaches 1/2, so the remainder is summed until it underflows).
    """
    _check_generation_size(K)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol!r}")
    total = float(K)
    j = K
    while True:
        s = _survival(K, j)
        if s < tol:
            # Remaining tail: survival halves per step from here on.
            tail = s
            while tail > 1e-18 and j < K + 1100:
                total += tail
                j += 1
                tail = _survival(K, j)
            break
        total += s
        j += 1
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
    coeffs = int(rng.integers(0, 1 << K)) if K < 64 else (
        int(rng.integers(0, 1 << 32)) << 32
    ) | int(rng.integers(0, 1 << 32))
    acc = 0
    for i in range(K):
        if (coeffs >> i) & 1:
            acc ^= int.from_bytes(generation[i], "big")
    return acc.to_bytes(length, "big"), coeffs


def decode(matrix: BinaryMatrix, payloads: Sequence[bytes]) -> list[bytes]:
    """Recover the K original packets by elimination through :func:`basis_insert`.

    ``matrix`` holds the received coefficient columns (column c is the
    coefficient vector of ``payloads[c]``); it must have full rank K.
    """
    K = matrix.rows
    if matrix.cols != len(payloads):
        raise ValueError(
            f"{matrix.cols} coefficient columns but {len(payloads)} payloads"
        )
    if matrix.rank < K:
        raise ValueError(f"rank {matrix.rank} < K={K}: cannot decode")
    length = len(payloads[0])
    if any(len(p) != length for p in payloads):
        raise ValueError("payloads must have equal length")

    # Each equation coeff . s = payload is one vector, coefficients above
    # the payload bits; the K coefficient pivots are back-substituted in
    # increasing order until pivot i holds packet i alone.
    shift = 8 * length
    basis: dict[int, int] = {}
    for coeff, payload in zip(matrix.columns, payloads):
        basis_insert(basis, coeff << shift | int.from_bytes(payload, "big"))
    rows: list[int] = []
    for i in range(K):
        v = basis[shift + i]
        for j in range(i):
            if v >> (shift + j) & 1:
                v ^= rows[j]
        rows.append(v)
    return [(v & ((1 << shift) - 1)).to_bytes(length, "big") for v in rows]
