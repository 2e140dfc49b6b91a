"""The text of a float64 table with every cell written as "%.17g" would
write it, converted on whole arrays instead of one float at a time.

A cell x is scaled to y = |x| 10^(16-X), where X is its decimal exponent,
by Dekker's exact two-product of |x| with the double nearest the power of
ten, plus |x| times that double's rounding error. The error of y is below
2^-47, so round(y), the 17 significant digits of "%.17g", is certain
unless y lies within 2^-40 of a half-integer. Such cells, nan, +-inf and
nonzero |x| outside [1e-290, 1e290] are the only ones written by `cell`,
one at a time.

The digits come four at a time from a table of ASCII words. Each cell
becomes a fixed row of bytes that holds every character that a layout of
%g can use: a sign, the "0.000" of small numbers, the 17 digits with a
candidate point after each, an exponent and a separator. One mask per
layout (decimal exponent, count of trailing zeros) picks the characters of
the cell, and compacting the rows by their masks gives the text.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: cells converted per block, which bounds the temporaries
_BLOCK = 1 << 12
#: the range of |x| converted on arrays
_LO, _HI = 1e-290, 1e290
#: an exact rounding tie (y = 12345678901234562.5), put in place of the
#: cells outside [_LO, _HI], so that they take the path of the ties: the
#: zeros among them have a layout, the others are written by `cell`
_TIE = 12345678901234.5625
#: per-exponent tables have one row per X + _OFF, for |X| <= _OFF; the
#: powers of ten are filled in for the |X| <= 291 of |x| in [_LO, _HI]
_OFF, _X_MAX = 300, 291
#: columns of a cell's row: '-', "0.000", digit j at 6 + 2j with a
#: candidate point after it, 'e', the exponent's sign and three digits
#: as one aligned word, the separator and padding
_ZEROS, _DIGITS, _E, _SEP = 1, 6, 39, 44
_WIDTH = 48
#: layouts: the fixed form for X in [-4, 16], then the exponent form with
#: two and with three exponent digits, each for 0 to 16 trailing zeros;
#: the last layout writes a zero
_N_FORM = 23
_ZERO_KEY = 17 * _N_FORM
#: Veltkamp's constant 2^27 + 1, which splits a double into 26-bit halves
_SPLIT = 134217729.0


def _split(v):
    t = v * _SPLIT
    hi = t - (t - v)
    return hi, v - hi


def _power_row(x: int) -> tuple:
    """(P, P_hi, P_lo, R): P the double nearest 10^(16-x), P_hi + P_lo
    its split, and R the double nearest 10^(16-x) - P."""
    k = 16 - x
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    p = num / den  # correctly rounded
    n, d = p.as_integer_ratio()
    mantissa, e = math.frexp(p)  # split within range
    hi, lo = _split(mantissa)
    return p, math.ldexp(hi, e), math.ldexp(lo, e), (num * d - n * den) / (den * d)


class _Tables:
    """What the conversion looks up, built at its first use."""

    def __init__(self):
        xs = np.arange(-_OFF, _OFF + 1)
        #: the power-of-ten rows (P, P_hi, P_lo, R) of each X
        self.powers = np.zeros((4, xs.size))
        for x in range(-_X_MAX, _X_MAX + 1):
            self.powers[:, x + _OFF] = _power_row(x)
        #: the layout of each X
        self.form = np.where((xs >= -4) & (xs <= 16), xs + 4, 21 + (np.abs(xs) >= 100))
        n = np.arange(10000)
        digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
        #: the ASCII digits of 0000 to 9999, a word each
        self.words = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
        #: "+ddd" or "-ddd" of each X, a word each
        self.exponent = self.words[np.abs(xs)]
        self.exponent.view(np.uint8).reshape(-1, 4)[:, 0] = np.where(xs < 0, ord("-"),
                                                                     ord("+"))
        #: the columns that each layout keeps
        self.masks = masks = np.zeros((_ZERO_KEY + 1, _WIDTH), bool)
        masks[:, _SEP] = True
        masks[_ZERO_KEY, _ZEROS] = True
        for tz in range(17):
            for f in range(_N_FORM):
                row, nd = masks[f + _N_FORM * tz], 17 - tz
                if f >= 21:  # d.ddde+XX
                    whole, shown = 1, nd
                    row[_E:_SEP] = True
                    row[_E + 2] = f == 22
                elif f >= 4:  # X = f - 4 >= 0: the X + 1 digits before the point
                    whole = f - 3
                    shown = max(nd, whole)
                else:  # X < 0: "0.", -X - 1 zeros, then the digits
                    row[_ZEROS:_ZEROS + 5 - f] = True
                    whole = shown = nd
                row[_DIGITS:_DIGITS + 2 * shown:2] = True
                row[_DIGITS + 2 * whole - 1] = shown > whole
        #: the constant bytes of a row
        self.row = np.zeros((1, _WIDTH), np.uint8)
        self.row[0, 0] = ord("-")
        self.row[0, _ZEROS:_DIGITS] = np.frombuffer(b"0.000", np.uint8)
        self.row[0, _DIGITS + 1:_E:2] = ord(".")
        self.row[0, _E] = ord("e")
        self.row[0, _SEP] = ord(",")


_tables = functools.cache(_Tables)


def _digits(ax, i, powers):
    """round(|x| 10^(16-X)) for X = i - _OFF, as int64, and the distance
    of the scaled value from that integer."""
    big, big_hi, big_lo, rest = powers.take(i, axis=1)
    hi = ax * big
    ax_hi, ax_lo = _split(ax)
    err = ax_lo * big_lo - (((hi - ax_hi * big_hi) - ax_lo * big_hi) - ax_hi * big_lo)
    tail = err + ax * rest
    whole = np.rint(tail)
    return np.add(hi, whole, dtype=np.int64, casting="unsafe"), np.abs(tail - whole)


def _cells(x, first, n_cols, cell, t):
    """The text of the cells x, which start at cell `first` of a table of
    n_cols columns."""
    n = x.size
    ax = np.abs(x)
    ax = np.where((ax >= _LO) & (ax <= _HI), ax, _TIE)
    # log10 is within 1e-12 of the exact value, so X is never above the
    # exponent of |x|; where it is one below, the 18 digits >= 10^17 send
    # the cell through a second scaling
    i = (np.log10(ax) + (_OFF - 1e-12)).astype(np.intp)
    d, dist = _digits(ax, i, t.powers)
    odd = ((d >= 10**17) | (dist >= 0.5 - 2.0**-40)).nonzero()[0]
    zero = odd[:0]
    if odd.size:
        up = odd[d[odd] >= 10**17]
        i[up] += 1
        d[up], dist[up] = _digits(ax[up], i[up], t.powers)
        odd = odd[dist[odd] >= 0.5 - 2.0**-40]
        zero, odd = odd[x[odd] == 0], odd[x[odd] != 0]

    quads = np.empty((n, 5), np.int64)
    high, low = np.divmod(d, 10**8)
    np.divmod(low, 10**4, out=(quads[:, 3], quads[:, 4]))
    np.divmod(high, 10**4, out=(high, quads[:, 2]))
    np.divmod(high, 10**4, out=(quads[:, 0], quads[:, 1]))
    text = t.words[quads].view(np.uint8)  # the 17 digits in columns 3 to 19
    trailing = (text[:, :2:-1] != ord("0")).argmax(axis=1)
    key = t.form[i] + _N_FORM * trailing
    key[zero] = _ZERO_KEY

    rows = t.row.repeat(n, axis=0)
    rows[:, _DIGITS:_E:2] = text[:, 3:]
    rows.view(np.uint32)[:, (_E + 1) // 4] = t.exponent[i]
    rows[(n_cols - 1 - first) % n_cols::n_cols, _SEP] = ord("\n")
    keep = t.masks.take(key, axis=0)
    keep[:, 0] = np.signbit(x)
    for j in odd:
        own = cell(float(x[j])).encode("ascii")
        rows[j, :len(own)] = np.frombuffer(own, np.uint8)
        keep[j, :_SEP] = np.arange(_SEP) < len(own)
    return rows.ravel().compress(keep.ravel()).tobytes().decode("ascii")


def g17_table(table: np.ndarray, cell) -> str:
    """Text of the (n, k) float `table`: each cell as "%.17g" writes it,
    cells separated by "," and each row ended by "\\n". `cell(v)` writes
    the cells that the array conversion leaves (nan, +-inf, nonzero |v|
    outside [1e-290, 1e290] and values within 2^-40 of a rounding tie);
    for a finite v its text must be "%.17g" % v."""
    if not table.shape[1]:
        return "\n" * table.shape[0]
    flat = np.ascontiguousarray(table, dtype=float).ravel()
    t = _tables()
    return "".join(_cells(flat[i:i + _BLOCK], i, table.shape[1], cell, t)
                   for i in range(0, flat.size, _BLOCK))
