"""The trace CSV's numbers are ``b"%.17g" % v`` byte for byte.

``csvtext.format_rows`` makes the digits with numpy and leaves to Python
only the cells that its error bound cannot decide.  Each set below runs
through it in one call and must equal Python's own ``%`` on every value and
its negation: zeros, subnormals and the extremes; every power of ten with
both neighbours (the decade edges); every power of two; the halfway values
m·2^-n, among them exact ties at 17 digits; integers; random bit patterns
(signed already); and hypothesis's ``st.floats()``, inf and nan included.
No input raises a numpy warning.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from driftopt.csvtext import format_rows

MAX = 1.7976931348623157e308


def expect_python(values, signs=(1.0, -1.0)) -> None:
    # 8 columns, as many rows as it takes: the last row is padded with zeros
    values = np.concatenate([sign * np.ravel(values) for sign in signs])
    block = np.zeros((8, -(-len(values) // 8)))
    block.T.flat[:len(values)] = values
    seps = [b","] * 7 + [b"\n"]
    with np.errstate(all="raise"):
        text = format_rows(block, seps)
    assert text == b"".join(b"%.17g%s" % (v, sep) for v, sep in
                            zip(block.T.ravel().tolist(), seps * block.shape[1]))


def test_zeros_subnormals_and_extremes():
    rng = np.random.default_rng(1)
    subnormals = rng.integers(1, 2 ** 52, 10_000, dtype=np.uint64).view(float)
    expect_python([0.0, -0.0, 5e-324, 1e-323, 2.225073858507201e-308,
                   2.2250738585072014e-308, MAX, *subnormals])


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    expect_python([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


def test_powers_of_two():
    expect_python(np.ldexp(1.0, np.arange(-1074, 1024)))


def test_halfway_values():
    # m·2^-n with m odd: 2^-25 = 2.98023223876953125e-08 is a tie at 17
    # digits, which %.17g breaks to even
    m = np.arange(1, 26, 2)[:, None]
    expect_python(m * np.ldexp(1.0, -np.arange(0, 1075))[None, :])


def test_integers():
    expect_python([*range(1, 100_001), *(10.0 ** k - 1 for k in range(1, 23)), 2.0 ** 53])


def test_random_bit_patterns():
    bits = np.random.default_rng(2).integers(0, 2 ** 64, 1_000_000, dtype=np.uint64)
    values = bits.view(float)
    expect_python(values[np.isfinite(values)], signs=(1.0,))


def test_non_finite_values_and_the_undecided_cases():
    expect_python([np.inf, np.nan, 2.0 ** -25, 1e-16, 1e40, 1e-40, 1e41, 1e-41])
    assert format_rows(np.array([[2.0 ** -25], [1e-16]]), [b",", b"\r\n"]) == (
        b"2.9802322387695312e-08,9.9999999999999998e-17\r\n")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(values=st.lists(st.floats(), min_size=1, max_size=600))
def test_any_float(values):
    expect_python(values)
