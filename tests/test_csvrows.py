"""simulate's sample lines from numpy, pinned byte for byte to the %.17g template they replace."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swansim._csvrows import CELLS, ROW, _digits, _pass, sample_lines


@pytest.fixture(autouse=True)
def warnings_are_errors():
    # a numpy RuntimeWarning of sample_lines would add a line to simulate's stderr, which
    # holds at most the one divergence line: here it fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def template_lines(rows: np.ndarray) -> str:
    return "".join(ROW % tuple(row) for row in rows.tolist())


def numpy_lines(rows: np.ndarray) -> str:
    return "".join(sample_lines(rows))


def as_rows(cells) -> np.ndarray:
    """cells, 1.0 after them up to a whole row, as (n, 11) rows."""
    cells = np.asarray(cells, dtype=float)
    return np.concatenate([cells, np.ones(-len(cells) % CELLS)]).reshape(-1, CELLS)


def alone(cells) -> np.ndarray:
    """One row per cell, the cell in column 3 among 0.5s, so that each row takes its own route."""
    rows = np.full((len(cells), CELLS), 0.5)
    rows[:, 3] = cells
    return rows


def assert_template_bytes(cells):
    cells = np.asarray(cells, dtype=float)
    for rows in (as_rows(np.concatenate([cells, -cells])), alone(cells)):
        assert numpy_lines(rows) == template_lines(rows)


def proved(cells) -> np.ndarray:
    return _digits(np.asarray(cells, dtype=float))[2]


def test_ties_round_half_to_even():
    # odd multiples of 1/4 in [1e15, 2^51) end on a 5 just past their 17th digit
    rng = np.random.default_rng(14)
    quarters = np.concatenate([[4e15 + 1, 4e15 + 3, 2.0**53 - 1], rng.integers(4 * 10**15, 2**53, 4000) | 1])
    cells = quarters / 4.0
    assert (cells >= 1e15).all() and (cells < 2.0**51).all()
    assert ROW % ((1000000000000000.25,) * 11) == ",".join(["1000000000000000.2"] * 11) + ",0\n"
    assert proved(cells).all()
    assert_template_bytes(cells)


def test_powers_of_ten_and_their_neighbours():
    cells = []
    for k in range(-5, 18):
        power = float(f"1e{k}")
        cells += [np.nextafter(power, 0.0), power, np.nextafter(power, math.inf)]
    # powers and upper neighbours in [1e-4, 1e17) take the fast path; a lower neighbour whose
    # log10 rounds up to the power's falls back to the template
    fixed = [c for c in cells[1::3] + cells[2::3] if 1e-4 <= c < 1e17]
    assert len(fixed) == 42 and proved(fixed).all()
    assert_template_bytes(cells)


@pytest.mark.parametrize("toward", [-math.inf, math.inf])
def test_a_log10_one_ulp_off_changes_no_byte(monkeypatch, toward):
    # numpy may run log10 through a vector routine that is not correctly rounded: a k placed one
    # too low or too high must leave the cell unproved, never give it wrong digits
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
    powers = [float(f"1e{k}") for k in range(-4, 17)]
    cells = powers + [np.nextafter(p, math.inf) for p in powers] + [np.nextafter(p, 0.0) for p in powers]
    if toward < 0:
        # log10(1) = 0 becomes -5e-324, so k = -1 and D = 10^17
        assert not proved([1.0, 10.0, 1e16]).any()
    assert_template_bytes(cells)


def test_ends_of_the_fixed_range():
    cells = [1e-4, np.nextafter(1e-4, 1.0), 1e17, np.nextafter(1e17, 0.0), 99999999999999999.0, 0.00099999999999999]
    assert proved(cells).tolist() == [True, True, False, True, False, True]
    assert_template_bytes(cells)


def test_rounding_across_a_power_of_ten():
    # doubles below 10^j whose 17 significant digits round to 10^j: %.17g prints a power of ten
    cells = []
    for j in range(-80, 100):
        below = np.nextafter(float(f"1e{j}"), 0.0)
        for x in (below, np.nextafter(below, math.inf)):
            if Fraction(x) < Fraction(10) ** j and float("%.17g" % x) == 10.0**j:
                cells.append(x)
    assert len(cells) >= 3
    # and 17-digit roundings that carry through nines
    cells += [0.29999999999999999, 1.9999999999999998, 9.9999999999999982, 0.099999999999999992, 1234567.8999999999]
    assert_template_bytes(cells)


def test_cells_outside_the_fast_path():
    cells = [0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, 1e43, 1e-5, 2.5e-300, 1.7976931348623157e308]
    assert not proved(cells).any()
    assert_template_bytes(cells)
    # a row with one such cell is written by the template, its neighbours by numpy
    rows = as_rows(np.linspace(0.25, 7.5, 33))
    rows[1, 4] = -0.0
    assert numpy_lines(rows) == template_lines(rows)


def test_many_passes_and_an_empty_table():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(1300, CELLS)) * 10.0 ** rng.integers(-3, 16, size=(1300, CELLS))
    rows[[0, 511, 512, 1299], 2] = [0.0, math.nan, 1e20, -1e-7]
    assert numpy_lines(rows) == template_lines(rows)
    # one string per pass of at most 512 rows
    assert [len(lines.splitlines()) for lines in sample_lines(rows)] == [512, 512, 276]
    assert list(sample_lines(np.empty((0, CELLS)))) == []


def test_a_pass_holds_one_copy_of_its_cells():
    # a full pass: 45 KiB of float64 cells, 143 KiB of cell bytes, a zero time taking the template.
    # Its traced peak is about 375 KiB when each array is dropped once used; copies left alive
    # until the text is made (the digits, the sorted cell bytes, the bytes with NULs) bring it to
    # about 890 KiB
    rng = np.random.default_rng(33)
    shape = (512, CELLS)
    rows = rng.choice([-1.0, 1.0], size=shape) * rng.uniform(1.0, 10.0, size=shape) * 10.0 ** rng.integers(-4, 16, size=shape)
    rows[0, 0] = 0.0
    _pass(rows)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        lines = _pass(rows)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert lines == template_lines(rows)
    assert peak <= 700 * 1024


finite = st.floats(allow_nan=False, allow_infinity=False)
# the fixed-notation range, where the digits come from numpy
fixed = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]), st.floats(1e-4, 1e17, exclude_max=True))


@given(st.lists(st.one_of(finite, fixed, fixed), min_size=1, max_size=4 * CELLS))
@settings(max_examples=300, deadline=None)
def test_matches_the_template_on_finite_doubles(cells):
    rows = as_rows(cells)
    assert numpy_lines(rows) == template_lines(rows)
    assert numpy_lines(alone(cells)) == template_lines(alone(cells))
