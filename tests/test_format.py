"""Tables as text: the array conversion of `_csv_text` and `dumps_report`
against one %-format per row (`helpers.csv_text_reference` and
`helpers.json_table_reference`), byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsuper import _g17, cli

from helpers import csv_text_reference, json_table_reference, rng

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _assert_as_reference(table):
    header = [f"c{i}" for i in range(table.shape[1])]
    assert cli._csv_text(header, table) == csv_text_reference(header, table)
    for indent in (0, 2):
        assert cli.dumps_report(table, indent) == json_table_reference(table, indent)


def _from_bits(sign, exponent, mantissa):
    return np.array([(s << 63) | (e << 52) | m for s, e, m in zip(sign, exponent, mantissa)],
                    dtype=np.uint64).view(np.float64)


#: raw 64-bit patterns by sign, biased exponent and mantissa, so that the
#: draws reach every exponent, subnormals and +-0 (exponent 0), and +-inf
#: and nan payloads of either sign (exponent 2047)
_BITS = st.tuples(st.integers(0, 1), st.integers(0, 2047), st.integers(0, 2**52 - 1))


@SETTINGS
@given(st.integers(1, 9), st.lists(_BITS, min_size=1, max_size=90))
def test_raw_bit_patterns_are_written_as_by_one_format_per_row(n_cols, cells):
    values = _from_bits(*zip(*cells))
    n_rows = max(1, len(values) // n_cols)
    _assert_as_reference(np.resize(values, (n_rows, n_cols)))


def test_every_exponent_with_both_signs():
    gen = rng(2303)
    exponent = np.repeat(np.arange(2048), 4)
    mantissa = gen.integers(0, 2**52, exponent.size)
    sign = np.tile([0, 1], exponent.size // 2)
    _assert_as_reference(_from_bits(sign, exponent, mantissa).reshape(-1, 8))


def test_powers_of_ten_and_their_neighbours():
    values = []
    for k in range(-323, 309):
        p = float(f"1e{k}")
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    values = np.array(values)
    _assert_as_reference(np.concatenate([values, -values]).reshape(-1, 6))


def test_rounding_ties_and_their_neighbours():
    # n + odd/2^j with 18 significant digits, the last a 5, is an exact tie
    # of the 17-digit rounding, which goes to the even digit
    odd = np.arange(1, 64, 2)
    ties = [1e12 + 12345 + odd / 32, 1e13 + 678 + odd / 16, 1e14 + 9 + odd / 8,
            1e15 + 3 + odd / 4]
    values = np.concatenate(ties)
    assert "%.17g" % values[0] == "1000000012345.0312"  # ...0312|5 rounds to even
    near = [base * (1.0 + np.arange(-40, 41) * 2.0**-52)
            for base in (1e13, 1e16, 1e17, 1e-4, 1e-5)]
    values = np.concatenate([values, *near, [x + 0.5 for x in (1e13, 1e15)]])
    _assert_as_reference(np.concatenate([values, -values]).reshape(-1, 2))


def test_fixed_and_exponent_forms_at_their_edges():
    # %g takes the fixed form for exponents -4 to 16, and the exponent form
    # with two or three digits outside, after rounding to 17 digits
    values = [9.9999999999999995e-5, 1e-4, 0.00012, 9.99999999999999999e16, 1e17, 12345.0,
              1e16, 123456789012345680.0, 0.1, 0.5, 1.0, 2.0, 100.0, 1e100, 1e-100, 5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308, 1e-290, 1e290, 0.0, -0.0]
    table = np.array(values).reshape(-1, 1)
    _assert_as_reference(table)
    _assert_as_reference(table.T.copy())


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (0, 3), (3, 0), (7000, 7),
                                   (1, 20000), (2, 16385)])
def test_table_shapes(shape):
    # 0-row and 0-column tables, one row or column, and tables of several
    # blocks of the conversion, rows that cross a block and a row wider than one
    gen = rng(2304)
    table = gen.normal(size=shape) * 10.0 ** gen.integers(-20, 20, size=shape)
    _assert_as_reference(table)


def _layout_of(text):
    """(decimal exponent, trailing zeros of the 17 digits) of "%.17g" text."""
    mantissa, exponent = ("%.16e" % float(text)).split("e")
    digits = mantissa.lstrip("-").replace(".", "")
    return int(exponent), len(digits) - len(digits.rstrip("0"))


def _value_with_layout(gen, exponents, zeros):
    """A positive double whose "%.17g" has one of `exponents` as its decimal
    exponent and exactly `zeros` trailing zeros among its 17 digits, and
    which the array conversion writes itself (not a rounding tie): the
    first hit among short decimals, tried in order (the double nearest a
    decimal of few digits may show other digits at 17)."""
    shown = 17 - zeros
    if shown <= 2:
        heads = [h for h in range(10 ** (shown - 1), 10**shown) if h % 10]
    else:
        heads = [h for h in gen.integers(10 ** (shown - 1), 10**shown, 400).tolist() if h % 10]
    for exponent in exponents:
        for head in heads:
            v = float(f"{head}e{exponent - shown + 1}")
            if (_layout_of("%.17g" % v) == (exponent, zeros)
                    and not _g17._layouts(np.array([v]), _g17._tables())[3].size):
                return v
    raise AssertionError(f"no value with {zeros} trailing zeros at exponents {exponents}")


def test_every_layout_of_the_kernel_is_reached_and_written_as_by_python():
    # the fixed form at each exponent -4..16, and the exponent form with two
    # and with three exponent digits (at the first exponent of each list
    # that a double reaches with that many trailing zeros), each with 0 to
    # 16 trailing zeros and both signs, and the two zeros
    gen = rng(2305)
    forms = [[x] for x in range(-4, 17)] + [[20, -20, 17, -5], [100, -100, 200, -290]]
    values = [_value_with_layout(gen, exponents, zeros)
              for exponents in forms for zeros in range(17)]
    values = np.array(values + [-v for v in values] + [0.0, -0.0])
    assert len(values) == 2 * 23 * 17 + 2
    text = _g17.g17_table(values.reshape(-1, 1), lambda v: "%.17g" % v)
    assert text.split("\n")[:-1] == ["%.17g" % v for v in values]
    # every layout that the kernel has, and no cell left to the callback
    tables = _g17._tables()
    _, _, keys, odd = _g17._layouts(values, tables)
    assert odd.size == 0
    assert sorted(set(keys.tolist())) == list(range(tables.masks.shape[1]))
