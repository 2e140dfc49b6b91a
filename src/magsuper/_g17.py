"""The text of a float64 table with every cell written as "%.17g" would
write it, converted on whole arrays instead of one float at a time.

A cell x is scaled to y = |x| 10^(16-X), where X is its decimal exponent,
by Dekker's exact two-product of |x| with the double nearest the power of
ten, plus |x| times that double's rounding error. The error of y is below
2^-47, so round(y), the 17 significant digits of "%.17g", is certain
unless y lies within 2^-40 of a half-integer. Such cells, nan, +-inf and
nonzero |x| outside [1e-290, 1e290] are the only ones written by `cell`,
one at a time.

The digits come four at a time from a table of ASCII words, as three
64-bit words with the first digit in the lowest byte. A cell's layout
(its form of %g, its count of trailing zeros and its sign) gives the
length of its prefix ("-", "0.000" or none) and three masks: the digits
shifted by the prefix give the part before the point, shifted by one
byte more the part after it, and the prefix and the point are or-ed in.
So each cell's text up to its exponent starts a row of 24 bytes. The
rows are written at the running sum of the cells' lengths, each over the
unused tail of the one before it; then the exponents ("e-05") and the
separators are written in their exact places.
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
#: bytes of a row: "-0.000" and 17 digits, or the longest "%.17g" text
_ROW = 24
#: the words of a row, little-endian whatever the host: byte j of a row
#: is bits 8j to 8j + 7 of its words, which the shifts count on
_WORD = np.dtype("<u8")
#: layouts: the fixed form for X in [-4, 16], then the exponent form, each
#: for 0 to 16 trailing zeros and either sign; the last two write a zero
_N_FORM = 22
_ZERO_KEY = 2 * 17 * _N_FORM
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


def _layout(key: int) -> tuple:
    """The three masks of a layout's row, three words each: the bytes of
    the digits shifted by the prefix, of the digits shifted one byte more,
    and the prefix and point themselves; then the prefix's shift in bits,
    64 less that shift, and the length of the text before the exponent."""
    form, neg = divmod(key, 2)
    form, zeros = divmod(form, 17)
    prefix, nd = "-" * neg, 17 - zeros
    if form == _N_FORM:  # a zero
        prefix, whole, shown = prefix + "0", 0, 0
    elif form < 4:  # X = form - 4 < 0: "0.", -X - 1 zeros, then the digits
        prefix, whole, shown = prefix + "0." + "0" * (3 - form), nd, nd
    else:  # the X + 1 digits before the point, or one in the exponent form
        whole = 1 if form == _N_FORM - 1 else form - 3
        shown = max(nd, whole)
    o, point = len(prefix), shown > whole
    masks = [bytes(o) + b"\xff" * whole, bytes(o + whole + 1) + b"\xff" * (shown - whole) * point,
             prefix.encode("ascii") + bytes(whole) + b"." * point]
    masks = np.frombuffer(b"".join(m.ljust(_ROW, b"\0") for m in masks), _WORD)
    return masks, (8 * o, 64 - 8 * o, o + shown + point)


class _Tables:
    """What the conversion looks up, built at its first use."""

    def __init__(self):
        xs = np.arange(-_OFF, _OFF + 1)
        #: the power-of-ten rows (P, P_hi, P_lo, R) of each X
        self.powers = np.zeros((4, xs.size))
        for x in range(-_X_MAX, _X_MAX + 1):
            self.powers[:, x + _OFF] = _power_row(x)
        fixed = (xs >= -4) & (xs <= 16)
        #: the first layout of each X
        self.form = 34 * np.where(fixed, xs + 4, _N_FORM - 1)
        #: the length of each X's exponent ("e-05", "e+100"), 0 in the fixed
        #: form, and its five bytes
        self.exp_len = np.where(fixed, 0, 4 + (abs(xs) >= 100))
        self.exponent = np.frombuffer(b"".join((b"e%+03d" % x).ljust(5) for x in xs), "V5")
        n = np.arange(10000)
        #: the ASCII digits of 0000 to 9999, in the low half of a 64-bit word
        self.words = sum((n // 10**k % 10 + ord("0")) << (8 * (3 - k))
                         for k in range(4)).astype(np.uint64)
        #: the trailing zeros of 0000 to 9999, 4 for 0000
        self.zeros = sum((n % 10**k == 0).astype(np.uint8) for k in range(1, 5))
        masks, shifts = zip(*map(_layout, range(_ZERO_KEY + 2)))
        #: the masks of each layout, and its shifts and length, a column each
        self.masks = np.stack(masks, axis=1)
        self.shifts = np.array(shifts).T.copy()


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


def _trailing_zeros(d, zeros):
    """The count of trailing zeros of each d, four digits at a time, for
    the fewer d that end in 0000 each time."""
    high = d // 10**4
    count = zeros.take(d - high * 10**4)
    more = rest = (count == 4).nonzero()[0]
    while more.size:
        d, high = high[more], high[more] // 10**4
        more = zeros.take(d - high * 10**4)
        count[rest] += more
        more = (more == 4).nonzero()[0]
        rest = rest[more]
    return count


def _layouts(x, t):
    """For the cells x: the row i = X + _OFF of each cell's exponent, its
    17 digits d, its layout and the cells left to `cell`."""
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
    key = t.form.take(i)
    key += 2 * _trailing_zeros(d, t.zeros)
    key += np.signbit(x)
    key[zero] = _ZERO_KEY + np.signbit(x[zero])
    return i, d, key, odd


def _cells(x, first, n_cols, cell, t):
    """The text of the cells x, which start at cell `first` of a table of
    n_cols columns."""
    n = x.size
    i, d, key, odd = _layouts(x, t)
    # d = 10^9 a + 10 b + c: a and b of eight digits, two words of four each
    ab = np.empty((2, n), np.int64)
    np.floor_divide(d, 10**9, out=ab[0])
    d -= ab[0] * 10**9
    np.floor_divide(d, 10, out=ab[1])
    d -= ab[1] * 10
    high = ab // 10**4
    ab -= high * 10**4
    digits = np.empty((3, n), np.uint64)
    np.take(t.words, ab, out=digits[:2])
    digits[:2] <<= np.uint64(32)
    digits[:2] |= t.words.take(high)
    np.add(d, ord("0"), out=digits[2], casting="unsafe")

    # the digits shifted by the prefix, and by one byte more, in their masks
    masks = t.masks.take(key, axis=1)
    left, right, size = t.shifts.take(key, axis=1)
    before = digits << left.astype(np.uint64)
    before[1:] |= digits[:2] >> right.astype(np.uint64)
    after = before << np.uint64(8)
    after[1:] |= before[:2] >> np.uint64(56)
    before &= masks[:3]
    after &= masks[3:6]
    rows = np.empty((n, 3), _WORD)
    np.bitwise_or(before | after, masks[6:], out=rows.T)
    exp_len = t.exp_len.take(i)
    exp_len[odd] = 0
    size += exp_len + 1
    for j in odd:
        own = cell(float(x[j])).encode("ascii")
        rows[j] = 0
        rows[j].view(np.uint8)[:len(own)] = list(own)
        size[j] = len(own) + 1

    # numpy assigns through an integer index in the index's order, so each
    # row's unused tail is overwritten by the rows after it; the exponents
    # and separators then go in their exact places
    ends = np.cumsum(size)
    out = np.empty(ends[-1] + _ROW, np.uint8)
    np.ndarray((ends[-1] + 1,), f"V{_ROW}", out, 0, (1,))[ends - size] = rows.view(f"V{_ROW}")[:, 0]
    # five bytes each: the fifth of "e+XX" is the separator's, written after
    e = (exp_len != 0).nonzero()[0]
    np.ndarray((out.size - 4,), "V5", out, 0, (1,))[ends[e] - 1 - exp_len[e]] = \
        t.exponent.take(i[e])
    out[ends - 1] = ord(",")
    out[ends[(n_cols - 1 - first) % n_cols::n_cols] - 1] = ord("\n")
    return out[:ends[-1]].tobytes().decode("ascii")


def g17_table(table: np.ndarray, cell) -> str:
    """Text of the (n, k) float `table`: each cell as "%.17g" writes it,
    cells separated by "," and each row ended by "\\n". `cell(v)` writes
    the cells that the array conversion leaves (nan, +-inf, nonzero |v|
    outside [1e-290, 1e290] and values within 2^-40 of a rounding tie);
    for a finite v its text must be "%.17g" % v, and no text may be
    longer than 24 characters."""
    if not table.shape[1]:
        return "\n" * table.shape[0]
    flat = np.ascontiguousarray(table, dtype=float).ravel()
    t = _tables()
    return "".join(_cells(flat[i:i + _BLOCK], i, table.shape[1], cell, t)
                   for i in range(0, flat.size, _BLOCK))
