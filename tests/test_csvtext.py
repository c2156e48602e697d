"""The trace CSV's numbers are ``b"%.17g" % v`` byte for byte.

``csvtext.format_rows`` makes the digits with numpy and leaves to Python
only the cells that its error bound cannot decide.  Each set below runs
through it in one call and must equal Python's own ``%`` on every value and
its negation: zeros, subnormals and the extremes; every power of ten with
both neighbours (the decade edges); every power of two; the halfway values
m·2^-n, among them exact ties at 17 digits; integers; random bit patterns
(signed already); and hypothesis's ``st.floats()``, inf and nan included.
No input raises a numpy warning.

A cell bitwise equal to the one above it copies that cell's text.  The
columns below repeat in every way that could copy the wrong text: zeros
of both signs, NaNs of two payloads, runs across the formatter's 512-row
slices, a constant column, no repeat at all, and one row.  The
formatter's working memory has a bound on a dense trace and on a slice in
which every cell is formatted.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from driftopt import builtin, run
from driftopt.csvtext import format_rows

MAX = 1.7976931348623157e308


def expect_columns(block) -> bytes:
    # block has one row per column, formatted in one call as the trace
    # writer formats it
    seps = [b","] * (len(block) - 1) + [b"\r\n"]
    with np.errstate(all="raise"):
        text = b"".join(format_rows(block, seps))
    assert text == b"".join(b"%.17g%s" % (v, sep) for v, sep in
                            zip(block.T.ravel().tolist(), seps * block.shape[1]))
    return text


def expect_python(values, signs=(1.0, -1.0)) -> None:
    # 8 columns, as many rows as it takes: the last row is padded with zeros
    values = np.concatenate([sign * np.ravel(values) for sign in signs])
    block = np.zeros((8, -(-len(values) // 8)))
    block.T.flat[:len(values)] = values
    expect_columns(block)


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
    assert expect_columns(np.array([[2.0 ** -25], [1e-16], [-0.0], [0.1], [np.nan]])) == (
        b"2.9802322387695312e-08,9.9999999999999998e-17,-0,0.10000000000000001,nan\r\n")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(values=st.lists(st.floats(), min_size=1, max_size=600))
def test_any_float(values):
    expect_python(values)


def test_zeros_of_both_signs_are_not_one_run():
    # 0.0 == -0.0, but the two print differently
    assert expect_columns(np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]])) == (
        b"0,-0\r\n-0,-0\r\n0,0\r\n")


def test_runs_across_slice_and_chunk_edges():
    # runs that start before and end after rows 256, 512, 768, 1024 and
    # 2048, runs that end or start right at an edge, and short random runs;
    # the last column equals its neighbour, which is not a run
    rng = np.random.default_rng(3)
    starts = [[0, 250, 262, 511, 513, 700, 768, 1000, 1030, 2040, 2060],
              [0, 255, 256, 1023, 1024, 1025, 1700, 2047, 2049],
              np.cumsum([0, *rng.integers(1, 40, 120)])]
    columns = []
    for first in starts:
        values = rng.standard_normal(len(first)) * 10.0 ** rng.integers(-20, 20, len(first))
        columns.append(values[np.searchsorted(first, np.arange(2500), side="right") - 1])
    expect_columns(np.array(columns + columns[-1:]))


def test_a_constant_column():
    # decided, zero and undecided cells: the first row of every slice is
    # formatted, the rest copied
    values = [np.pi, -0.0, 1e-300, 2.0 ** -25, np.nan, 123.0]
    expect_columns(np.repeat(np.array(values)[:, None], 2500, axis=1))


def test_alternating_values():
    rows = np.arange(600) % 2
    expect_columns(np.array([np.where(rows, 0.1, 0.2), np.where(rows, 0.0, -0.0),
                             np.where(rows, np.inf, 1e300)]))


def test_nans_of_two_payloads_and_infinities():
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000],
                    np.uint64).view(float)
    column = [nans[0], nans[1], nans[1], nans[0], nans[2], np.inf, np.inf, -np.inf, -np.inf,
              nans[0], 1.0]
    assert expect_columns(np.array([column, column[::-1]])).count(b"nan") == 12


def test_working_memory_on_a_dense_trace():
    # the dense dpp-shifted num_6_1 trace (9 x 10,001 cells), formatted in
    # one call as the writer formats it, which keeps the text of each
    # 512-row slice (1.67 MiB in all): 2.05 MiB at peak.  When every
    # stage's arrays lived until the text was made and one index gathered
    # it, the peak was 2.07 MiB with 256-row slices, 2.36 with 512 and
    # 3.53 with 1,024
    bundle = builtin("num_6_1")
    trace = run(bundle.program, bundle.oracle, V=422.0, q0=np.zeros(bundle.program.m),
                iters=10_000, variant="dpp_shifted", sample="linear",
                reference=bundle.reference)
    f_err = np.abs(trace.f_xbar - bundle.reference.f_star)
    block = np.array([trace.t, trace.f_xbar, f_err, *trace.g_xbar.T, trace.qnorm,
                      trace.lambda_dist, trace.dual_gap], dtype=float)
    seps = [b","] * (len(block) - 1) + [b"\r\n"]
    format_rows(block[:, :1], seps)  # the tables, built once per process
    tracemalloc.start()
    try:
        chunks = format_rows(block, seps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, chunks)) > 1.7e6
    assert peak <= 2.2 * 2 ** 20


def test_working_memory_when_every_cell_is_a_head():
    # one slice, 14 columns x 360 rows, as a log-sampled trace of a random
    # NUM file with m = 8 has them: no cell repeats the one above it, so
    # every cell is formatted.  0.83 MiB at peak, 106 KB of it the text;
    # 1.56 MiB when every stage's arrays lived until the text was made
    rng = np.random.default_rng(8)
    t = np.cumsum(rng.integers(1, 60, 360)).astype(float)
    values = rng.standard_normal((13, 360)) * 10.0 ** rng.integers(-12, 4, (13, 360))
    block = np.vstack([t, values])
    assert (block[:, 1:] != block[:, :-1]).all()
    seps = [b","] * 13 + [b"\r\n"]
    format_rows(block[:, :1], seps)  # the tables, built once per process
    tracemalloc.start()
    try:
        chunks = format_rows(block, seps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chunks) == 1
    assert chunks[0] == b"".join(b"%.17g%s" % (v, sep) for v, sep in
                                 zip(block.T.ravel().tolist(), seps * 360))
    assert peak <= 1.2 * 2 ** 20
