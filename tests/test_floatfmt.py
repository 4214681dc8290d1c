"""floatfmt.render against Python's ``repr``, value by value."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcast import floatfmt


def texts(values) -> list[str]:
    """Each value's rendered slots, NULs dropped, as text."""
    words = np.empty((floatfmt.WORDS, len(values)), dtype=np.uint64)
    floatfmt.render(np.asarray(values, dtype=np.float64), out=words)
    rows = np.ascontiguousarray(words.T).astype("<u8").view(np.uint8)
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def reprs(values) -> list[str]:
    return [repr(float(v)) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40))
def test_render_is_repr(values):
    assert texts(values) == reprs(values)


@pytest.mark.parametrize(
    "value", [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
)
def test_render_edge_values(value):
    assert texts([value]) == [repr(value)]


def test_render_nan_and_infinities():
    # A negative or signalling nan is still "nan", as repr spells it.
    quiet, payload = np.float64("nan"), np.array(0x7FF0_0000_0000_0001, dtype="<u8").view("<f8")
    values = [quiet, -quiet, payload, math.inf, -math.inf]
    assert texts(values) == ["nan", "nan", "nan", "inf", "-inf"]


def test_render_every_power_of_two():
    # At mantissa 2**52 the spacing below a double is half the spacing
    # above: Schubfach's uneven branch, hit by every normal power of two.
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([powers, -powers])
    assert texts(values) == reprs(values)


def test_render_powers_of_ten_and_their_neighbours():
    # repr turns to the exponent form below 1e-4 and from 1e16.
    powers = np.array([float(f"1e{e}") for e in range(-30, 31)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    assert texts(values) == reprs(values)


@pytest.mark.parametrize(
    "size", [0, 1, floatfmt.CHUNK - 1, floatfmt.CHUNK, floatfmt.CHUNK + 1]
)
def test_render_across_chunk_boundaries(size):
    # Random bit patterns: every exponent, subnormals, nans and infinities.
    # render makes one pass at any size; CHUNK is the most the CSV writer
    # passes in one call.
    bits = np.random.default_rng(size).integers(0, 2**64, size, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert texts(values) == reprs(values)


def test_render_fills_the_given_rows():
    # The CSV writer passes rows of a wider word table, one row per word.
    values = np.array([0.1, -2.5e-7, 1e300])
    table = np.zeros((floatfmt.WORDS + 2, 5), dtype=np.uint64)
    floatfmt.render(values, out=table[1:-1, 1:4])
    assert not table[[0, -1]].any() and not table[:, [0, 4]].any()
    alone = floatfmt.render(values, np.empty((floatfmt.WORDS, 3), dtype=np.uint64))
    assert (table[1:-1, 1:4] == alone).all()
    assert texts(values) == reprs(values)
