"""The bytes of ``repr`` for float64 arrays, computed in numpy ``uint64``.

``render`` lays out, for each value, the text Python's ``repr`` gives
it: the shortest decimal that reads back as the same double, the one
nearest the double when several are that short, and the even one of a
tie.  Positional form covers 1e-4 <= |x| < 1e16, the ``d.ddde+XX`` form
the rest, and ``0.0``, ``-0.0``, ``nan``, ``inf`` and ``-inf`` keep their
spellings.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020; the algorithm of Java's ``Double.toString``),
which needs only fixed-width integer arithmetic:

- ``10**-k``, scaled by a power of two, is a 126-bit integer
  ``g = g1 * 2**63 + g0``, tabulated once with Python ints;
- the scaled value is the high bits of a 64 x 126-bit product, each
  64 x 64-bit high product taken from four 32-bit partial products,
  and the ends of its rounding interval add g times a power of two;
- the chosen 17-digit integer is spelled through a 10,000-entry table of
  4-digit strings, one ``uint64`` word each.

A value's text sits in 48 byte slots: ``WORDS`` ``uint64`` words, read
in little-endian byte order, which is assumed to be the host's.  The
slots it does not use hold NUL, so the text is the slots' bytes with the
NULs dropped.  Slot 0 holds the sign, slots 1-5 the ``0.000`` of
positional values below 1, and from slot 6 on each of the 17 digits is
followed by a slot for the decimal point; slots 40-44 hold the exponent
as ``e``, its sign and three digits.  Slot 47 is always NUL, free for a
separator.  The words of a value are a column of ``render``'s output,
so every step works on whole rows of values.
"""
from __future__ import annotations

import functools

import numpy as np

__all__ = ["CHUNK", "WORDS", "render"]

WORDS = 6
# Values per pass.  Per value, numpy's per-call cost falls until about
# 8,192 values and the time is flat from there to 32,768 (CHANGES.md has
# the measurement); 8,192 keeps each temporary at 64 KiB.
CHUNK = 8192

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M63 = _U(0x7FFF_FFFF_FFFF_FFFF)
_INF = _U(0x7FF << 52)
_K_MIN = -324  # the least k of a decimal exponent 10**k in the search
# Layout codes: positional ones by (decimal point, digit count), then
# exponent ones by (digit count, three exponent digits).
_POSITIONAL = 20 * 17
_CODES = _POSITIONAL + 17 * 2
# Word 0 with "0" in slot 6, the lead digit's, and 0xFF in every other byte.
_LEAD = _U(0xFF30_FFFF_FFFF_FFFF)
_POW10 = np.array([10**i for i in range(1, 17)], dtype=_U)
_SCALE = np.array([0] + [10 ** (17 - n) for n in range(1, 18)], dtype=_U)


def _flog10pow2(e):
    """floor(log10(2**e)) of an int64 array, |e| < 5e6."""
    return (e * 661_971_961_083) >> 41


def _flog2pow10(e):
    """floor(log2(10**e)) of an int64 array, |e| < 1e4."""
    return (e * 913_124_641_741) >> 38


def _words(text: bytes) -> np.ndarray:
    """``text`` NUL-padded to the ``WORDS`` words of one value."""
    return np.frombuffer(text.ljust(8 * WORDS, b"\0"), dtype="<u8")


@functools.cache
def _tables():
    """The lookup tables, built on first use.

    ``g`` holds, for each k from _K_MIN up, g = floor(10**-k / 2**r) + 1
    with r putting g in [2**125, 2**126), split as g1 * 2**63 + g0: its
    rows are g1, then the 32-bit words of g1 and of g0, high word first.
    ``quad`` spells 0..9999 as four ASCII digits, each before a 0xFF byte
    that keeps the decimal-point slot after it as the layout has it, and
    ``zeros`` counts their trailing zeros, 4 for 0.  ``exponent`` is word
    5 for each exponent from -324 up.  ``layout`` is the slot template of
    each code: the constant byte of a slot the code uses, 0xFF for a
    digit or exponent slot it uses and NUL for every other slot.
    ``special`` holds the words of 0.0, 5e-324, 1e-323, inf and nan,
    each then negated: values Schubfach leaves out, or would spell with
    one digit too many.
    """
    whole = []
    for k in range(_K_MIN, 293):
        r = (-k * 913_124_641_741 >> 38) - 125
        if k > 0:
            whole.append((1 << -r) // 10**k + 1)
        else:
            whole.append((10**-k << -r if r < 0 else 10**-k >> r) + 1)
    g1 = np.array([g >> 63 for g in whole], dtype=_U)
    g0 = np.array([g & (1 << 63) - 1 for g in whole], dtype=_U)
    g = np.stack([g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32])

    n = np.arange(10_000)
    spelled = np.full((10_000, 8), 0xFF, dtype=np.uint8)
    spelled[:, ::2] = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    spelled[:, ::2] |= ord("0")
    quad = spelled.view("<u8").ravel()
    zeros = np.zeros(10_000, dtype=np.uint8)
    for p in (10, 100, 1000, 10_000):
        zeros += n % p == 0
    e = np.arange(_K_MIN, 309)
    spelled = np.full((e.size, 8), 0xFF, dtype=np.uint8)
    spelled[:, 0] = ord("e")
    spelled[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    spelled[:, 2:5] = quad.view(np.uint8).reshape(-1, 8)[np.abs(e), 2::2]  # 3 digits
    exponent = spelled.view("<u8").ravel()

    layout = bytearray()
    for code in range(_CODES):
        row = bytearray(8 * WORDS)
        if code < _POSITIONAL:
            point, count = divmod(code, 17)
            point -= 3
            count += 1
            if point <= 0:  # 0.000ddd
                row[1 : 3 - point] = b"0." + b"0" * -point
            else:  # ddd.ddd, at least one digit after the point
                count = max(count, point + 1)
                row[2 * point + 5] = ord(".")
        else:  # d.ddde+XX
            count, big = divmod(code - _POSITIONAL, 2)
            count += 1
            if count > 1:
                row[7] = ord(".")
            row[40:45] = b"\xff\xff\xff\xff\xff" if big else b"\xff\xff\0\xff\xff"
        row[6 : 6 + 2 * count : 2] = b"\xff" * count
        layout += row
    layout = np.frombuffer(layout, dtype="<u8").reshape(_CODES, WORDS).T.copy()

    values = (0.0, 5e-324, 1e-323, float("inf"), float("nan"))
    special = np.stack([_words(repr(sign * v).encode()) for v in values for sign in (1, -1)])
    tables = g, quad, zeros, exponent, layout, special.T.copy()
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of (a1 * 2**32 + a0) * (b1 * 2**32 + b0) from the
    four 32-bit partial products, for a1 < 2**28 and b1 < 2**31: the
    middle ones then sum to less than 2**64 with no carry lost."""
    return a1 * b1 + (((a0 * b0) >> 32) + a0 * b1 + a1 * b0 >> 32)


def _round_to_odd(x1, y1, y0):
    """Schubfach's rop: cp * g / 2**127 rounded to odd, from the high
    word x1 of cp * g0 and both words (y1, y0) of cp * g1."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | ((z << 1) != 0)


def _shortest(bits):
    """(f, k): the shortest decimal f * 10**k that reads back as the
    double of each of ``bits`` (finite, and 3 or more ulps from 0), the
    nearest of those, the even one of two as near; 10**15 < f <= 10**17
    unless the double is subnormal."""
    biased = (bits >> 52) & _U(0x7FF)
    normal = biased != 0
    c = (bits & _U((1 << 52) - 1)) | (normal.astype(_U) << 52)
    q = np.maximum(biased.astype(np.int64), 1) - 1075
    k = _flog10pow2(q)
    # At a power of two the spacing below is half the spacing above, so
    # the rounding interval reaches only a quarter spacing down.
    uneven = (c == _U(1 << 52)) & (biased > 1)
    if uneven.any():  # and 10**k <= 3/4 * 2**q < 10**(k + 1)
        k[uneven] = (q[uneven] * 661_971_961_083 - 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U)  # 2 to 5, so cp < 2**60
    g1, g1h, g1l, g0h, g0l = (words.take(k - _K_MIN) for words in _tables()[0])
    g0 = (g0h << 32) | g0l
    cp = c << (h + _U(2))
    a1, a0 = cp >> 32, cp & _M32
    x1, x0 = _mulhi(a1, a0, g0h, g0l), g0 * cp
    y1, y0 = _mulhi(a1, a0, g1h, g1l), g1 * cp
    vb = _round_to_odd(x1, y1, y0)
    # The interval's ends are cp + 2**j and cp - 2**jl: add the products
    # of g with 2**j, carrying out of the low words.
    j = h + _U(1)
    xr = x0 + (g0 << j)
    yr = y0 + (g1 << j)
    vbr = _round_to_odd(
        x1 + (g0 >> (64 - j)) + (xr < x0), y1 + (g1 >> (64 - j)) + (yr < y0), yr
    )
    j -= uneven
    xl = x0 - (g0 << j)
    yl = y0 - (g1 << j)
    vbl = _round_to_odd(
        x1 - (g0 >> (64 - j)) - (xl > x0), y1 - (g1 >> (64 - j)) - (yl > y0), yl
    )

    # The interval holds its ends only where c is even (ties to even).
    odd = c & _U(1)
    lo, hi = vbl + odd, vbr - odd
    s = vb >> 2
    s4 = vb & ~_U(3)
    # The one multiple of 10 * 10**k the interval can hold, if it holds one.
    tens = s // _U(10)
    upin = lo <= tens * _U(40)
    wpin = tens * _U(40) + _U(40) <= hi
    # Else s or s + 1, which bracket the double: the one inside, or the
    # nearer, or the even one of two as near.
    uin = lo <= s4
    win = s4 + _U(4) <= hi
    up = np.where(uin == win, vb + (s & _U(1)) > s4 + _U(2), win)
    return np.where(upin != wpin, (tens + wpin) * _U(10), s + up), k


def render(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Lay out ``repr`` of each value of the float64 array ``x``.

    Fills and returns ``out``, ``(WORDS, len(x))`` ``uint64`` words with
    each row contiguous: the bytes of column i, NULs dropped, are
    ``repr(float(x[i]))``.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    for start in range(0, x.size, CHUNK):
        _render_chunk(x[start : start + CHUNK], out[:, start : start + CHUNK])
    return out


def _render_chunk(x: np.ndarray, out: np.ndarray) -> None:
    _, quad, zeros_of, exponent_word, layout, special = _tables()
    bits = x.view(_U)
    f, k = _shortest(bits)
    top = f == _U(10**17)  # the one 18-digit f
    f[top] = _U(10**16)
    k += top
    length = (f >= _U(10**16)) + 16
    short = f < _U(10**15)
    if short.any():
        length[short] = np.searchsorted(_POW10, f[short], side="right") + 1
    f *= _SCALE.take(length)  # 17 digits, the first nonzero
    point = k + length  # the value is 0.ddd * 10**point

    lead = f // _U(10**16)
    rest = f - lead * _U(10**16)
    high = rest // _U(10**8)
    low = rest - high * _U(10**8)
    groups = np.empty((4, x.size), dtype=_U)
    groups[0] = high // _U(10**4)
    groups[1] = high - groups[0] * _U(10**4)
    groups[2] = low // _U(10**4)
    groups[3] = low - groups[2] * _U(10**4)
    z = zeros_of.take(groups)
    zeros = z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    count = 17 - zeros.astype(np.intp)  # significant digits

    code = (point + 3) * 17 + count - 1
    wide = (point < -3) | (point > 16)  # the exponent form
    exponent = point - 1
    if wide.any():
        code[wide] = _POSITIONAL + (count[wide] - 1) * 2 + (np.abs(exponent[wide]) >= 100)
    for word, template in zip(out, layout):
        template.take(code, out=word, mode="clip")
    out[0] &= (lead << 48) | _LEAD
    out[0] |= (bits >> 63) * _U(ord("-"))
    out[1:5] &= quad.take(groups)
    if wide.any():
        out[5] &= exponent_word.take(exponent - _K_MIN, mode="clip")

    magnitude = bits & _M63
    tabled = (magnitude < _U(3)) | (magnitude >= _INF)
    if tabled.any():
        kind = np.minimum(magnitude[tabled], _U(3))
        kind[magnitude[tabled] > _INF] = 4
        out[:, tabled] = special[:, (kind * _U(2) + (bits[tabled] >> 63)).astype(np.intp)]
