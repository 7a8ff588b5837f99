"""CSV rows of float64 columns, each value written exactly as ``repr``.

CPython's ``repr(float)`` writes the shortest decimal digits that read
back as the same double, the one nearest the double among them.  This
module finds those digits for a whole array at once, with numpy
``uint64`` arithmetic only, by Ryū (U. Adams, "Ryū: fast float-to-string
conversion", PLDI 2018):

- A double ``v`` is ``m2 * 2**(e2 + 2)``, so ``4*m2`` is ``v`` in units
  of ``2**e2``.  In those units its round-trip interval has the bounds
  ``4*m2 - 1 - mm_shift`` and ``4*m2 + 2``, where ``mm_shift`` is 0 only
  at an exact power of two (whose lower neighbour is half as far), and it
  contains its bounds when ``m2`` is even, since a tie then rounds to
  ``v``.
- One multiplier per binary exponent, Ryū's 125-bit power of five, maps
  ``4*m2`` and both bounds to decimal units ``10**e10``: the exact floors
  ``vr``, ``vp`` and ``vm``.  With each multiplier scaled to one shift of
  140 bits, the products are summed in 28-bit limbs.
- The output drops the most digits ``r`` for which a multiple of ``10**r``
  lies inside the interval, and rounds ``vr`` to that many digits.  Where
  ``vr`` or the lower bound is an exact integer, Ryū's trailing-zero rules
  decide a tie and whether the lower bound itself may be the output.

The text follows CPython's layout for ``repr``: with ``decpt`` the position
of the decimal point relative to the first digit, it is positional for
``-4 < decpt <= 16`` and ``d[.ddd]e±XX`` otherwise, with at least two
exponent digits; a positional integral value ends in ``.0``; ``-0.0`` keeps
its sign.

Rows are written about ``CHUNK_VALUES`` values at a time.  A chunk is one
``uint8`` matrix, a row per CSV row and a fixed field per value, that a
boolean mask compresses to the rows' text.  A value's mask row depends
only on its sign, its digit count and its ``decpt`` class, so it comes
from a small table.  The tables are built on first use, not at import.
"""
from __future__ import annotations

import functools
from typing import IO, Sequence

import numpy as np

_U = np.uint64
# The uint64 scalars each chunk uses are made once: making one costs a
# third as much as an operation on a whole chunk.
_ONE, _TWO, _THREE, _FOUR, _SIX, _TEN = (_U(v) for v in (1, 2, 3, 4, 6, 10))

# A chunk holds CHUNK_VALUES // (number of columns) rows: 512 rows of a
# prediction CSV, 1536 of a series CSV.  Every per-value array is then
# 12 KB and the chunk's text and mask about 75 KB each.  Chunks twice as
# large write about a fifth faster but raise a run's peak memory by about
# 0.5 MB more.
CHUNK_VALUES = 1536

_SIGN = _U(63)
_MANTISSA_BITS = _U(52)
_MANTISSA_MASK = _U((1 << 52) - 1)
_EXPONENT_MASK = _U(0x7FF)
_LIMB = _U(28)
_LIMB_MASK = _U((1 << 28) - 1)
_SHIFT = 5 * 28  # each multiplier is scaled so that every product shifts by 140 bits

_E4, _E8, _E16 = _U(10**4), _U(10**8), _U(10**16)
_SWAR_STEPS = (
    (_U(10486), _U(20), _U(0x0000007F0000007F), _U(100), _U(16)),  # // 100 per 32-bit lane
    (_U(103), _U(10), _U(0x000F000F000F000F), _TEN, _U(8)),  # // 10 per 16-bit lane
)
_ASCII_ZEROS = _U(0x3030303030303030)

_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)

# One value's field.  Digit slots hold the value's first 17 significant
# digits, zero-padded: the integer part takes a prefix of the first copy,
# the fraction a range of the second.
_FIELD = b",-" + b"0" * 17 + b"0." + b"000" + b"0" * 17 + b"0" + b"e+000"
_INT_DIGITS = 2
_FRAC_DIGITS = 24
_EXPONENT_TEXT = 43
_N_CLASSES = 22  # decpt -3..16 positional, then exponent form with 2 or 3 digits
_EXPONENT_FORM = 20
_DECPT_OFFSET = 330  # decpt spans -323 (5e-324) to 309 (1.7976931348623157e308)


def _read_only(*tables):
    """The cached tables, shared by every call, made read-only."""
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.cache
def _ryu_tables():
    """Per biased exponent 0..2046: the multiplier M, scaled to a shift of
    140 bits, as limbs m0..m4 and the words t0 = M >> 140 and t1 = M >> 112
    (mod 2**64); the decimal exponent e10; and a test (inv, lim) for whether
    an integer x times ``2**e2 / 10**e10`` is an integer: ``x * inv <= lim``
    in wrapping uint64 arithmetic."""
    e2 = np.maximum(np.arange(2047), 1) - 1077
    up = e2 >= 0
    # Ryū's q: floor(log10(2**e2)) for e2 >= 0, or floor(log10(5**-e2)),
    # less one past the first few exponents, by fixed-point logarithms.
    # Then x * 2**e2 / 10**e10 is x * 2**(e2-q) / 5**power for e2 >= 0
    # and x * 5**power / 2**q for e2 < 0.
    q = np.where(up, ((e2 * 78913) >> 18) - (e2 > 3), ((-e2 * 732923) >> 20) - (-e2 > 1))
    e10 = np.where(up, q, q + e2)
    power = np.where(up, q, -e2 - q)
    bits = ((power * 1217359) >> 19) + 1  # bit length of 5**power
    # Ryū's 125-bit tables: 2**(bits+124) // 5**power + 1 for e2 >= 0, or
    # 5**power scaled by a power of two to 125 bits, rounded down; each
    # with its shift.
    shift = np.where(up, q - e2 + 124 + bits, q + 125 - bits)

    pow5, inverse, direct = 1, [], []
    for _ in range(power.max() + 1):
        length = pow5.bit_length()
        inverse.append((1 << (length + 124)) // pow5 + 1)
        direct.append(pow5 >> (length - 125) if length > 125 else pow5 << (125 - length))
        pow5 *= 5
    words = b"".join(m.to_bytes(16, "little") for m in inverse + direct)
    table = np.frombuffer(words, dtype="<u8").reshape(-1, 2).astype(np.uint64)
    lo, hi = table[np.where(up, power, len(inverse) + power)].T
    left = (_SHIFT - shift).astype(np.uint64)  # 15..22 bits
    right = _U(64) - left
    mid = (hi << left) | (lo >> right)
    lo, hi = lo << left, hi >> right
    multipliers = np.empty((7, e2.size), dtype=np.uint64)
    multipliers[0] = lo
    multipliers[1] = lo >> _U(28)
    multipliers[2] = (lo >> _U(56)) | (mid << _U(8))
    multipliers[3] = mid >> _U(20)
    multipliers[4] = (mid >> _U(48)) | (hi << _U(16))
    multipliers[:5] &= _LIMB_MASK
    multipliers[5] = hi >> _U(12)  # t0 = M >> 140
    multipliers[6] = (mid >> _U(48)) | (hi << _U(16))  # t1 = M >> 112, mod 2**64

    # e2 >= 0: x * 2**e2 / 10**q is an integer iff 5**q divides x, which
    # for odd 5**q is a multiply by its inverse mod 2**64 and a compare.
    # e2 < 0: it is x * 5**power / 2**q, an integer iff x << (64 - q) wraps
    # to zero.  x < 2**55, so no x passes 5**q > 2**64 or q >= 64.
    full = (1 << 64) - 1
    fives = [5**k for k in range(28)]
    inv5 = np.array([pow(f, -1, 1 << 64) for f in fives], dtype=np.uint64)
    lim5 = np.array([full // f for f in fives], dtype=np.uint64)
    inv2 = np.array([(1 << (64 - k)) & full for k in range(65)], dtype=np.uint64)
    small = up & (q < len(fives))
    k5 = np.minimum(q, len(fives) - 1)
    inv = np.where(up, np.where(small, inv5[k5], _U(1)), inv2[np.minimum(q, 64)])
    lim = np.where(small, lim5[k5], _U(0))
    return _read_only(multipliers, e10, np.stack([inv, lim]))


def _scaled(mv, mm_shift, m):
    """``(vm, vr, vp)``: floor(x * M / 2**140) for x = mv - 1 - mm_shift,
    mv and mv + 2, with M's limbs and high words ``m`` per element.

    Each x is ``low + high * 2**28`` around ``mv - 4``, so the three share
    ``high`` and its products; a ``low`` may pass 2**28 by a few units,
    which the 28-bit column sums absorb.  Below bit 140 the columns only
    carry; above it the sum is exact mod 2**64, as each result is below
    2**64."""
    low = mv - _FOUR
    high = low >> _LIMB
    low &= _LIMB_MASK
    lows = (low + _THREE - mm_shift, low + _FOUR, low + _SIX)
    sums = [x * m[0] for x in lows]
    term = np.empty_like(mv)
    for k, k_high in zip(range(1, 6), (0, 1, 2, 3, 6)):
        shared = high * m[k_high]
        for x, total in zip(lows, sums):
            total >>= _LIMB
            total += shared
            total += np.multiply(x, m[k], out=term)
    return sums


def _shortest(bits):
    """Ryū's shortest digits of finite doubles given as their bits: the
    digit integer, the decimal exponent of its last digit and its digit
    count (a zero is the digit 0, exponent 0, one digit)."""
    multipliers, e10_table, test_table = _ryu_tables()
    biased = ((bits >> _MANTISSA_BITS) & _EXPONENT_MASK).astype(np.intp)
    mv = bits & _MANTISSA_MASK
    mm_shift = (mv != 0) | (biased <= 1)  # 0 at a power of two, whose lower gap is half
    mv |= (biased != 0).astype(np.uint64) << _MANTISSA_BITS
    zero = mv == 0
    mv |= zero  # computed as the smallest subnormal, then set apart at the end
    mv <<= _TWO
    accept = (mv & _FOUR) == 0  # an even mantissa owns both interval bounds
    m = multipliers.take(biased, axis=1)
    vm, vr, vp = _scaled(mv, mm_shift, m)
    del m  # freed early: a chunk's peak memory is what is alive at once
    inv, lim = test_table.take(biased, axis=1)
    vr_exact = mv * inv <= lim
    vm_exact = accept & ((mv - _ONE - mm_shift) * inv <= lim)
    # An exact upper bound the interval excludes is not an output.
    vp -= ~accept & ((mv + _TWO) * inv <= lim)
    del mv, inv, lim

    # Digits to drop: the k for which some multiple of 10**k lies in
    # (vm, vp].  Those k form a prefix 1..removed.
    removed = np.zeros(bits.size, dtype=np.intp)
    hi = vp // _TEN
    lo = vm // _TEN
    more = hi > lo
    while more.any():
        removed += more
        hi //= _TEN
        lo //= _TEN
        np.greater(hi, lo, out=more)
    # A lower bound the interval owns whose dropped digits are all zero is
    # itself a candidate: drop its further trailing zeros too.  vm_kept is
    # positive wherever vm_exact holds, so the loop ends.
    scale = _POW10.take(removed)
    vm_kept = vm // scale
    if vm_exact.any():
        vm_exact &= vm_kept * scale == vm
        while True:
            strip = vm_exact & (vm_kept % _TEN == 0)
            if not strip.any():
                break
            vm_kept[strip] //= _TEN
            removed += strip
        scale = _POW10.take(removed)
    # Round vr to the kept digits: half up, but an exact tie to even.  A
    # result at the lower bound steps up unless the interval owns it.
    out = vr // scale
    twice = (vr - out * scale) << _ONE
    tie_down = vr_exact & (twice == scale) & (out & _ONE == 0)
    at_lower = (out == vm_kept) & (~accept | ~vm_exact)
    out += at_lower | ((twice >= scale) & ~tie_down)
    olen = np.searchsorted(_POW10, out, side="right")
    exp10 = e10_table.take(biased) + removed
    if zero.any():
        out[zero] = 0
        exp10[zero] = 0
        olen[zero] = 1
    return out, exp10, olen


def _swar_digits(x):
    """The eight decimal digits of each ``x < 10**8`` as ASCII bytes,
    most significant first, packed in one little-endian uint64: split by
    10**4 into two 32-bit lanes, then by 100 and by 10 within the lanes,
    each by a multiply and a shift."""
    high = x // _E4
    v = high | ((x - high * _E4) << _U(32))
    for multiplier, shift, lanes, base, width in _SWAR_STEPS:
        high = ((v * multiplier) >> shift) & lanes
        v = high | ((v - high * base) << width)
    return (v + _ASCII_ZEROS).astype("<u8", copy=False)


def _digit_bytes(x, count: int):
    """The last ``count`` (at most 16) decimal digits of each ``x < 10**16``
    as a (len(x), count) ASCII array."""
    if count > 8:
        high = x // _E8
        x = np.stack([high, x - high * _E8], axis=1)
    return _swar_digits(x).view(np.uint8).reshape(len(x), -1)[:, -count:]


@functools.cache
def _layout_tables():
    """Mask rows over ``_FIELD`` by key ``(negative*22 + class)*18 + digits``;
    by ``decpt + _DECPT_OFFSET``, the class of each ``decpt`` and its
    exponent's text ``±ddd``."""
    neg, cls, ndigits = (a.reshape(-1, 1) for a in np.indices((2, _N_CLASSES, 18)).reshape(3, -1))
    decpt = cls - 3
    positional = cls < _EXPONENT_FORM
    k = np.arange(17)
    first_frac = np.where(positional, np.maximum(decpt, 0), 1)
    masks = np.hstack([
        np.ones_like(positional),  # ','
        neg == 1,  # '-'
        np.where(positional, k < decpt, k == 0),  # integer digits
        positional & (decpt <= 0),  # '0' before the point
        positional | (ndigits > 1),  # '.'
        positional & (np.arange(3) < -decpt),  # zeros after the point
        (first_frac <= k) & (k < ndigits),  # fraction digits
        positional & (ndigits <= decpt),  # '0' of an integral value
        ~positional,  # 'e'
        ~positional,  # exponent sign
        cls == _EXPONENT_FORM + 1,  # hundreds of the exponent
        ~positional,
        ~positional,
    ])
    assert masks.shape[1] == len(_FIELD)
    decpt = np.arange(-_DECPT_OFFSET, _DECPT_OFFSET + 1)
    exponent = decpt - 1
    classes = np.where((decpt >= -3) & (decpt <= 16), decpt + 3,
                       _EXPONENT_FORM + (np.abs(exponent) >= 100))
    text = np.array([b"%+04d" % e for e in exponent.tolist()], dtype="S4")
    return _read_only(masks, classes, text.view(np.uint8).reshape(-1, 4))


def write_csv_rows(dest: IO[str], columns: Sequence[np.ndarray], index: bool) -> None:
    """Write one line per row of the equal-length finite float64
    ``columns``: the row number and a comma when ``index``, then each
    value's ``repr`` text, comma-separated."""
    n, ncols = len(columns[0]), len(columns)
    if n == 0:
        return
    _ryu_tables()  # built before the workspace, so its temporaries add nothing to the peak
    masks, classes, exponent_text = _layout_tables()
    index_width = len(str(n - 1)) if index else 0
    width = index_width + ncols * len(_FIELD) + 1
    chunk = max(CHUNK_VALUES // ncols, 1)
    rows = min(n, chunk)
    # One workspace for every chunk: row text, its keep mask and the values.
    text = np.empty((rows, width), dtype=np.uint8)
    keep = np.empty((rows, width), dtype=bool)
    values = np.empty((rows, ncols), dtype=np.float64)
    text[:, index_width:-1] = np.frombuffer(_FIELD * ncols, dtype=np.uint8)
    text[:, -1] = ord("\n")
    keep[:, -1] = True
    # Index digit p shows once the row number reaches 10**(index_width-1-p).
    index_floor = _POW10[:index_width][::-1].copy()
    index_floor[-1:] = 0
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        for c, column in enumerate(columns):
            values[:m, c] = column[start : start + m]
        bits = values[:m].reshape(-1).view(np.uint64)
        digits, exp10, olen = _shortest(bits)
        digits *= _POW10.take(17 - olen)  # now exactly 17 digits
        lead = digits // _E16
        tail = _digit_bytes(digits - lead * _E16, 16).reshape(m, ncols, 16)
        lead = (lead.astype(np.uint8) + ord("0")).reshape(m, ncols)
        decpt_row = exp10 + olen + _DECPT_OFFSET
        cls = classes.take(decpt_row)
        key = ((bits >> _SIGN).astype(np.intp) * _N_CLASSES + cls) * 18 + olen

        fields = text[:m, index_width:-1].reshape(m, ncols, len(_FIELD))
        fields[:, :, _INT_DIGITS] = lead
        fields[:, :, _INT_DIGITS + 1 : _INT_DIGITS + 17] = tail
        fields[:, :, _FRAC_DIGITS] = lead
        fields[:, :, _FRAC_DIGITS + 1 : _FRAC_DIGITS + 17] = tail
        if cls.max() >= _EXPONENT_FORM:
            exponents = exponent_text.take(decpt_row, axis=0)
            fields[:, :, _EXPONENT_TEXT:] = exponents.reshape(m, ncols, 4)
        # Keys are in range by construction; "clip" writes straight to out.
        np.take(masks, key.reshape(m, ncols), axis=0, mode="clip",
                out=keep[:m, index_width:-1].reshape(m, ncols, len(_FIELD)))
        if index:
            numbers = np.arange(start, start + m, dtype=np.uint64)
            text[:m, :index_width] = _digit_bytes(numbers, index_width)
            np.greater_equal(numbers[:, None], index_floor, out=keep[:m, :index_width])
        else:
            keep[:m, 0] = False  # no comma before the first value
        dest.write(text[:m][keep[:m]].tobytes().decode("ascii"))
