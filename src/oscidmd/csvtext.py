"""Exact CSV text for blocks of numbers: ``'%.16e' % x`` for every float, in numpy.

``floats`` gives the bytes that Python's ``'%.16e' % x`` gives, for a whole
array at once. |x| is scaled by 10^(16 - e) as a double-double: Dekker's
TwoProduct (Numer. Math. 18, 1971) with the power of ten taken from exact
integers. The 17-digit integer is then rounded half-even from the low
word, the correctly rounded digit rule of Ryu (Adams, PLDI 2018), and its
digits come from lookup tables. Values this cannot decide go through ``%``
itself: non-finite values, |x| outside [1e-280, 1e280], values whose low
word lies within 2^-30 of a rounding tie when the power of ten is inexact,
and values whose unrounded product is below 10^16 or rounds to 10^17 or
more (log10 put e one off, or the rounding carries into an 18th digit:
values within a few ulps below a power of ten).

A cell is a run of 4-byte words padded with NUL bytes, so a block of rows
is one uint32 matrix; ``rows`` joins the cells with commas and newlines
and drops the padding in one pass.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_RANGE = (1e-280, 1e280)
_TIE = 2.0**-30
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_E15, _E17 = 10**15, 10**17
_EXP0 = 300  # row of e = 0 in _EXPONENT, and column of 10^0 in _POWERS


def _words(*columns: np.ndarray) -> np.ndarray:
    """One uint32 word per row from four byte columns (0 is padding)."""
    return np.stack(columns, axis=1).astype(np.uint8).view(np.uint32).ravel()


def _digit(k: np.ndarray, place: int) -> np.ndarray:
    return k // place % 10 + 48


_k = np.arange(10_000)
_DIGITS4 = _words(*(_digit(_k, p) for p in (1000, 100, 10, 1)))  # "0042" for 42
_k = np.arange(1000)
_DIGITS3E = _words(*(_digit(_k, p) for p in (100, 10, 1)), np.full(1000, ord("e")))  # "042e"
_k = np.arange(200)
# [sign] d "." d: the first two digits, with a minus sign from row 100 on
_HEAD = _words(np.where(_k >= 100, ord("-"), 0), _digit(_k, 10), np.full(200, ord(".")), _digit(_k, 1))
_k = np.abs(np.arange(2 * _EXP0) - _EXP0)
# sign and at least two digits of the exponent e, in row e + _EXP0: "+05", "-123"
_EXPONENT = _words(np.where(np.arange(2 * _EXP0) < _EXP0, ord("-"), ord("+")),
                   np.where(_k < 100, 0, _digit(_k, 100)), _digit(_k, 10), _digit(_k, 1))
del _k
_COMMA, _NEWLINE = _words(np.array([44, 10]), *np.zeros((3, 2), int))

# 10^k in column k + _EXP0: hi, lo (the correctly rounded remainder) and hi's
# Veltkamp halves; a column is filled the first time a block needs it
_POWERS = np.zeros((4, 2 * _EXP0))
_BUILT = np.zeros(2 * _EXP0, bool)


def _build_power(col: int) -> None:
    k = col - _EXP0
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den  # int true division rounds correctly
    n, d = hi.as_integer_ratio()
    head = _SPLIT * hi - (_SPLIT * hi - hi)
    _POWERS[:, col] = hi, (num * d - n * den) / (den * d), head, hi - head
    _BUILT[col] = True


def _scaled(v: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hi, lo, exact): hi + lo is v * 10^(16 - e) to about 2^-100 relative, exactly where ``exact``."""
    col = (16 + _EXP0) - e
    for c in set(col[~_BUILT[col]].tolist()):
        _build_power(c)
    hi_row, lo_row, head_row, tail_row = _POWERS
    # each power row is gathered where it is used, so no two are held at once
    hi = v * hi_row[col]
    v_head = _SPLIT * v
    v_head -= v_head - v
    v_tail = v - v_head
    # Dekker's TwoProduct: hi + err == v * p_hi exactly
    err = v_head * head_row[col] - hi
    err += v_head * tail_row[col]
    err += v_tail * head_row[col]
    err += v_tail * tail_row[col]
    del v_head, v_tail
    p_lo = lo_row[col]
    err += v * p_lo
    return hi, err, p_lo == 0


def _decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, e, sure) with v ~ d * 10^(e - 16), for v in _RANGE.

    d is the product v * 10^(16 - e) = hi + lo rounded half-even to an int64.
    ``sure`` is False where d may be wrong or not 17 digits long: within
    2^-30 of a tie under an inexact power, or a product outside
    [10^16, 10^17), where log10 put e one off or the rounding carried into
    an 18th digit (hi - 1e16 is exact near 10^16, so its sign is right).
    """
    e = np.floor(np.log10(v)).astype(np.int64)
    hi, lo, exact = _scaled(v, e)
    near = np.rint(lo)
    sure = exact | (np.abs(lo - near) < 0.5 - _TIE)
    # hi >= 1e16 > 2^53 is an even integer, so rounding lo alone rounds hi + lo half-even
    d = hi.astype(np.int64)
    d += near.astype(np.int64)
    sure &= ((hi - 1e16) + lo >= 0) & (d < _E17)
    return d, e, sure


def floats(values) -> np.ndarray:
    """``'%.16e' % x`` for each x of ``values``: uint32 cells of 6 words, shape ``values.shape + (6,)``.

    Cells the numpy kernel cannot prove exact are written by ``%``, one at a time.
    """
    x = np.asarray(values, dtype=float)
    flat = x.ravel()
    out = np.empty(x.shape + (6,), np.uint32)
    cells = out.reshape(flat.size, 6)
    if not flat.size:
        return out
    v = np.abs(flat)
    fast = (v >= _RANGE[0]) & (v <= _RANGE[1])  # False for inf and nan
    np.putmask(v, ~fast, 2.0)  # a placeholder far from a power of ten
    d, e, sure = _decimal(v)
    del v
    fast &= sure
    slow = ~fast
    np.putmask(d, slow, 0)  # zero, and placeholders for the cells written by % below
    np.putmask(e, slow, 0)
    # the 17 digits d0 "." d1 ... d16 as words (d0 "." d1) (d2-d5) (d6-d9) (d10-d13) (d14-d16 "e"),
    # split off in place: d keeps the digits not yet written
    group = np.empty_like(d)
    np.divmod(d, _E15, out=(group, d))
    group += 100 * np.signbit(flat)
    cells[:, 0] = _HEAD[group]
    for col, place in ((1, 10**11), (2, 10**7), (3, 1000)):
        np.divmod(d, place, out=(group, d))
        cells[:, col] = _DIGITS4[group]
    cells[:, 4] = _DIGITS3E[d]
    cells[:, 5] = _EXPONENT[e + _EXP0]
    slow &= flat != 0
    if slow.any():
        by_byte = cells.view(np.uint8)
        for i in np.flatnonzero(slow):
            cell = ("%.16e" % flat[i]).encode()
            by_byte[i] = 0
            by_byte[i, : len(cell)] = np.frombuffer(cell, np.uint8)
    return out


def text(strings: Sequence[str]) -> np.ndarray:
    """ASCII ``strings`` as (n, w) uint32 cells: integer, class and blank cells."""
    words = max(1, -(-max(map(len, strings), default=0) // 4))
    return np.array(strings, dtype=f"S{4 * words}").view(np.uint32).reshape(len(strings), words)


def rows(groups: Sequence[np.ndarray]) -> bytes:
    """CSV rows from cells: commas between, a newline after each row, no NULs.

    Each group is one column of (n, w) cells or k columns of (n, k, w).
    """
    groups = [g if g.ndim == 3 else g[:, None] for g in groups]
    block = np.empty((groups[0].shape[0], sum(g.shape[1] * (g.shape[2] + 1) for g in groups)), np.uint32)
    at = 0
    for g in groups:
        _, k, w = g.shape
        columns = block[:, at : at + k * (w + 1)].reshape(-1, k, w + 1)
        columns[..., :w] = g
        columns[..., w] = _COMMA
        at += k * (w + 1)
    block[:, -1] = _NEWLINE
    data = block.tobytes()
    del block, columns  # not held beside its bytes and their translation
    return data.translate(None, b"\0")
