"""The ``format(x, ".12g")`` text of float64 arrays, for the CSV writer.

A value's text lives in a *slot*: 24 bytes, held as three little-endian
64-bit words, that read ``,`` and the text once every NUL byte is dropped.
Byte offsets in a slot:

    0        ','
    1        '-' for a negative value, else NUL
    2-6      "0.000" cut to "0." and -E-1 zeros when -4 <= E <= -1, else NUL
    6-17     X: the 12 digits placed from byte 6, kept up to the point
    6+k      '.' after the k-th digit, if a digit follows it
    7-18     Y: the same 12 digits placed from byte 7, kept after the point
    19-23    the exponent suffix "e+XX" or "e-XXX" when E < -4 or E >= 12

where E is the decimal exponent of the value rounded to 12 digits.  Which
bytes of X and Y are kept, where the point goes and which constant bytes
are set depend only on the layout *key*: E for -4 <= E <= 11 or else the
exponent form, the number of significant digits left once trailing zeros
are stripped, and the sign.  One table entry per key holds the masks and
the constant bytes, a table per exponent holds the suffix, and a table of
the 10,000 4-digit groups gives the digits, so a slot is three words of
shifts, masks and ORs.

`write_slots` *certifies* a value when plain float arithmetic proves its
12-digit rounding.  With e = floor(log10 |x|), m = |x| 10^(11-e) is one
multiplication by the correctly rounded power of ten: two roundings, so m
is within 2.2e-4 of the exact product at 1e12.  The value is certified
when m >= 1e11, rint(m) <= 1e12 and m is more than 1e-3 from a tie; then
rint(m) holds the 12 digits that correct rounding gives, and E = e, or
E = e + 1 with the digits of 1e11 when rint(m) is 1e12.  The margin also
covers a value one ulp away from x (4.4e-4 in all): the CSV writer
certifies an intensity from numpy's square and writes the text of Python's
``pow(h, 2)``, which is at most an ulp from it.  Everything else is left
to ``format``: zeros, NaNs, infinities, subnormals, |x| below 1e-297,
near-ties (0.2% of values) and the rare value whose log10 lands on the
wrong side of a power of ten.
"""

from __future__ import annotations

import math

import numpy as np

#: little-endian 64-bit words, the byte order the layout shifts assume
WORD = np.dtype("<u8")

#: bytes per slot
SLOT = 24

#: certified decimal exponents: 10^(11 - e) and |x| stay normal floats
_E_MIN, _E_MAX = -297, 308

#: layout classes: exponents -4 ... 11 of the fixed form, then the exponent form
_N_CLASS = 17


def _words(raw: bytes) -> np.ndarray:
    return np.frombuffer(raw, dtype=WORD).astype(np.uint64)


def _exponent_tables():
    """Per exponent index e - _E_MIN + 1: the scale 10^(11 - e), the key of
    12 positive digits of its layout class, and the exponent suffix word.
    The first and last entries stand for every exponent below and above the
    certified range."""
    exps = range(_E_MIN - 1, _E_MAX + 2)
    # out of range: m is NaN, never certified; float() rounds correctly
    scale = np.array([float(f"1e{11 - e}") if _E_MIN <= e <= _E_MAX else math.nan for e in exps])
    fixed = [-4 <= e <= 11 for e in exps]
    key = np.array([((e + 4 if f else _N_CLASS - 1) * 12 + 11) * 2 for e, f in zip(exps, fixed)])
    suffix = _words(b"".join(bytes(8) if f else (b"\0" * 3 + b"e%+03d" % e).ljust(8, b"\0")
                             for e, f in zip(exps, fixed)))
    return scale, key, suffix


def _layout(cls: int, s: int, negative: bool) -> bytes:
    """Constant bytes, X mask and Y mask of one key, one slot each."""
    const, x_mask, y_mask = bytearray(SLOT), bytearray(SLOT), bytearray(SLOT)
    const[0] = ord(",")
    if negative:
        const[1] = ord("-")
    e = cls - 4
    if e < 0:
        prefix = b"0." + b"0" * (-e - 1)
        const[2:2 + len(prefix)] = prefix
        y_mask[7:7 + s] = b"\xff" * s
    else:
        k = e + 1 if cls < _N_CLASS - 1 else 1  # digits before the point
        x_mask[6:6 + k] = b"\xff" * k
        if s > k:
            const[6 + k] = ord(".")
            y_mask[7 + k:7 + s] = b"\xff" * (s - k)
    return bytes(const + x_mask + y_mask)


_SCALE, _KEY_BASE, _SUFFIX = _exponent_tables()
#: nine word tables indexed by key = (class * 12 + s - 1) * 2 + sign
_CONST, _X_MASK, _Y_MASK = np.split(_words(b"".join(
    _layout(cls, s, negative) for cls in range(_N_CLASS) for s in range(1, 13)
    for negative in (False, True))).reshape(-1, 9).T.copy(), 3)
_DIGIT = np.arange(48, 58, dtype=np.uint64)
#: ASCII of the 4-digit groups, the first digit in the lowest byte; the
#: second group of a significand sits in the upper half of a word
_GROUP = (_DIGIT[:, None, None, None] | _DIGIT[:, None, None] << 8 | _DIGIT[:, None] << 16
          | _DIGIT << 24).reshape(-1)
_GROUP_HI = _GROUP << np.uint64(32)
_ZERO = (np.arange(10) == 0).astype(np.intp)
#: twice the trailing zeros of each 4-digit group (key units), 8 for 0000
_TRAILING = 2 * (_ZERO * (1 + _ZERO[:, None] * (1 + _ZERO[:, None, None]
                                                * (1 + _ZERO[:, None, None, None])))).reshape(-1)


def write_slots(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the slots of a flat float64 array into the rows of ``out``, an
    (n, 3) view of 64-bit words, and return the indices of the values the
    kernel did not certify; their rows are left undefined."""
    with np.errstate(all="ignore"):
        a = np.abs(x)
        # NaN goes to the bottom entry, +-inf to the top one
        i = np.fmin(np.fmax(np.floor(np.log10(a)), _E_MIN - 1), _E_MAX + 1).astype(np.intp)
        i -= _E_MIN - 1
        m = a * _SCALE[i]
        n = np.rint(m)
        certified = (np.abs(m - n) < 0.499) & (m >= 1e11) & (n <= 1e12)
    # a value that rounds up to 10^(e+1) is written with exponent e + 1
    carry = n == 1e12
    i += carry
    n = np.where(certified & ~carry, n, 1e11).astype(np.int64)
    g0 = n // 100_000_000
    n -= g0 * 100_000_000
    g1 = n // 10_000
    g2 = n - g1 * 10_000
    trailing = _TRAILING[g2]
    zero = np.flatnonzero(g2 == 0)
    if zero.size:
        h1 = g1[zero]
        trailing[zero] += _TRAILING[h1] + (h1 == 0) * _TRAILING[g0[zero]]
    key = _KEY_BASE[i] - trailing + np.signbit(x)
    lo = _GROUP[g0] | _GROUP_HI[g1]
    hi = _GROUP[g2]
    w = (lo << np.uint64(48)) & _X_MASK[0][key]
    w |= (lo << np.uint64(56)) & _Y_MASK[0][key]
    np.bitwise_or(w, _CONST[0][key], out=out[:, 0])
    w = ((lo >> np.uint64(16)) | (hi << np.uint64(48))) & _X_MASK[1][key]
    w |= ((lo >> np.uint64(8)) | (hi << np.uint64(56))) & _Y_MASK[1][key]
    np.bitwise_or(w, _CONST[1][key], out=out[:, 1])
    w = (hi >> np.uint64(16)) & _X_MASK[2][key]
    w |= (hi >> np.uint64(8)) & _Y_MASK[2][key]
    w |= _CONST[2][key]
    np.bitwise_or(w, _SUFFIX[i], out=out[:, 2])
    return np.flatnonzero(~certified)


def text_slots(texts) -> np.ndarray:
    """(len(texts), 3) slot words of texts of at most 23 characters."""
    return np.array([("," + t).encode() for t in texts], dtype=f"S{SLOT}").view(WORD).reshape(-1, 3)
