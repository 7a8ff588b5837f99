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

Rows are written a chunk at a time.  A chunk is one ``uint8`` matrix, a
row per CSV row and a fixed field per value, that a boolean mask
compresses to the rows' text, which ``write_csv_rows`` yields as it is.
A value's mask row depends only on its sign, its digit count and its
``decpt`` class, so it comes from a small table.  The tables are built
on first use, not at import.

The chunk is sized from the write (``chunk_rows``): of N values, it
takes N // 32 at a time, but at least ``CHUNK_VALUES`` and at most
``MAX_CHUNK_VALUES``.  Each numpy call has a fixed cost: on 2 shared
x86-64 vCPUs with numpy 2.4, a uint64 multiply, add, shift or divide by a
scalar costs 1.1-2.1 ns per value over 1536 values, against 0.5-0.8 ns
over 12288.  So 200000 rows of 3 values are written in 0.21 s, against
0.30 s in chunks of 1536 values; chunks of 24576 values are no faster.
A CSV of a few thousand rows keeps the smallest chunk, and so its small
peak memory.

Each write allocates one workspace, which every chunk reuses: the text,
its mask, the values, and ``_WORK_ROWS`` uint64 and ``_FLAG_ROWS`` bool
rows that the arithmetic writes into with ``out=``.  Its peak is about
240 bytes per chunk value (``tracemalloc``, 200000 rows of 3 normal
values); a new array per operation would take about 340.  Below 256
bytes, a chunk of N // 32 values keeps the workspace under the N * 8
bytes of the float64 columns being written.

A write to a file of at least ``ingest._PARALLEL_VALUES`` values (2**17)
is split between two processes where the system allows it: Linux, for
its unnamed files and ``sendfile``, and two CPUs for the process.  A
forked child writes the second half of the rows, numbered from where
they start, and the parent the first; the file is the same bytes.  An
index digit shows only from its row on, so an index field as wide as a
half's last row number writes each row as the whole write does.  On 2
shared x86-64 vCPUs, 200000 rows of 3 values took 0.098 s split, against
0.151 s in one process (medians of 15); at 2**15 values the fork cost
what it saved.
"""
from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

_U = np.uint64
# The uint64 scalars each chunk uses are made once: making one costs a
# third as much as an operation on a whole chunk.
_ZERO, _ONE, _TWO, _THREE, _FOUR, _SIX, _TEN = (_U(v) for v in (0, 1, 2, 3, 4, 6, 10))

# The chunk rule of the module docstring: values per chunk, and the share
# of a write's values that one chunk takes.
CHUNK_VALUES = 1536
MAX_CHUNK_VALUES = 8 * CHUNK_VALUES
_CHUNK_SHARE = 32
# A workspace's uint64 and bool rows, each a chunk's values long.
_WORK_ROWS = 10
_FLAG_ROWS = 6

_MANTISSA_BITS = _U(52)
_MANTISSA_MASK = _U((1 << 52) - 1)
_EXPONENT_MASK = _U(0x7FF)
_LIMB = _U(28)
_LIMB_MASK = _U((1 << 28) - 1)
_SHIFT = 5 * 28  # each multiplier is scaled so that every product shifts by 140 bits

_E4, _E8, _E16 = _U(10**4), _U(10**8), _U(10**16)
_SWAR_STEPS = (
    (_U(3518437209), _U(45), _U(0xFFFFFFFF), _E4, _U(32)),  # // 10**4, exact below 10**8
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


def _scaled(mv, mm_shift, biased, work):
    """floor(x * M / 2**140) for x = mv - 1 - mm_shift, mv and mv + 2, with
    M the multiplier of each element's biased exponent: ``(vm, vr, vp)``,
    written to rows 0-2 of ``work``, whose rows 3-8 are scratch.

    Each x is ``low + high * 2**28`` around ``mv - 4``, so the three share
    ``high`` and its products; a ``low`` may pass 2**28 by a few units,
    which the 28-bit column sums absorb.  Below bit 140 the columns only
    carry; above it the sum is exact mod 2**64, as each result is below
    2**64.  M is gathered one limb at a time, into the row that held the
    limb before last, and ``mv`` holds ``high`` until it is restored at
    the end."""
    multipliers = _ryu_tables()[0]
    sums, lows = work[0:3], work[3:6]
    limb, next_limb, term = work[6:9]
    low = lows[1]
    np.subtract(mv, _FOUR, out=low)
    high = np.right_shift(low, _LIMB, out=mv)
    low &= _LIMB_MASK
    np.add(low, _THREE, out=lows[0])
    lows[0] -= mm_shift
    np.add(low, _SIX, out=lows[2])
    low += _FOUR
    multipliers[0].take(biased, out=limb, mode="clip")
    np.multiply(lows, limb, out=sums)
    for k in range(1, 6):
        # Column k adds high times limb k-1, shared by the three sums, and
        # each low times limb k; at the top, high takes t1 and a low t0.
        if k == 5:
            multipliers[6].take(biased, out=limb, mode="clip")
        limb *= high
        multipliers[k].take(biased, out=next_limb, mode="clip")
        sums >>= _LIMB
        sums += limb
        for x, total in zip(lows, sums):
            total += np.multiply(x, next_limb, out=term)
        limb, next_limb = next_limb, limb
    mv <<= _LIMB
    mv += lows[1]
    return sums


def _shortest(bits, work, flags):
    """Ryū's shortest digits of finite doubles given as their bits: the
    digit integer, the decimal exponent of its last digit and its digit
    count (a zero is the digit 0, exponent 0, one digit), as rows 8, 7
    and 9 of ``work``.  ``work`` holds ``_WORK_ROWS`` uint64 rows and
    ``flags`` ``_FLAG_ROWS`` bool rows of the size of ``bits``, which is
    overwritten."""
    _, e10_table, test_table = _ryu_tables()
    mm_shift, zero, accept, vr_exact, vm_exact, flag = flags
    biased = work[9].view(np.intp)
    np.right_shift(bits, _MANTISSA_BITS, out=work[9])
    work[9] &= _EXPONENT_MASK
    mv = bits
    mv &= _MANTISSA_MASK
    np.not_equal(mv, _ZERO, out=mm_shift)
    mm_shift |= np.less_equal(biased, 1, out=flag)  # 0 at a power of two, whose lower gap is half
    implicit = np.minimum(work[9], _ONE, out=work[0])  # 1 unless subnormal
    implicit <<= _MANTISSA_BITS
    mv |= implicit
    np.equal(mv, _ZERO, out=zero)
    mv |= zero  # computed as the smallest subnormal, then set apart at the end
    mv <<= _TWO
    # An even mantissa owns both interval bounds.
    np.equal(np.bitwise_and(mv, _FOUR, out=work[0]), _ZERO, out=accept)
    vm, vr, vp = _scaled(mv, mm_shift, biased, work)

    inv, lim, product = work[3:6]
    for row, out in zip(test_table, (inv, lim)):
        row.take(biased, out=out, mode="clip")
    np.less_equal(np.multiply(mv, inv, out=product), lim, out=vr_exact)
    np.subtract(mv, _ONE, out=product)
    product -= mm_shift
    product *= inv
    np.less_equal(product, lim, out=vm_exact)
    vm_exact &= accept
    # An exact upper bound the interval excludes is not an output.
    np.add(mv, _TWO, out=product)
    product *= inv
    np.less_equal(product, lim, out=flag)
    vp -= np.greater(flag, accept, out=flag)

    # Digits to drop: the k for which some multiple of 10**k lies in
    # (vm, vp].  Those k form a prefix 1..removed.
    removed = work[7].view(np.intp)
    removed.fill(0)
    hi, lo = work[5:7]
    np.floor_divide(vp, _TEN, out=hi)
    np.floor_divide(vm, _TEN, out=lo)
    more = np.greater(hi, lo, out=flag)
    while more.any():
        removed += more
        hi //= _TEN
        lo //= _TEN
        np.greater(hi, lo, out=more)
    # A lower bound the interval owns whose dropped digits are all zero is
    # itself a candidate: drop its further trailing zeros too.  vm_kept is
    # positive wherever vm_exact holds, so the loop ends.
    scale, vm_kept = work[3:5]
    _POW10.take(removed, out=scale, mode="clip")
    np.floor_divide(vm, scale, out=vm_kept)
    if vm_exact.any():
        vm_exact &= np.equal(np.multiply(vm_kept, scale, out=lo), vm, out=flag)
        while True:
            strip = vm_exact & (vm_kept % _TEN == 0)
            if not strip.any():
                break
            vm_kept[strip] //= _TEN
            removed += strip
        _POW10.take(removed, out=scale, mode="clip")
    # Round vr to the kept digits: half up, but an exact tie to even.  A
    # result at the lower bound steps up unless the interval owns it
    # (vm_exact holds only where accept does).
    out, rest = work[8], work[5]
    np.floor_divide(vr, scale, out=out)
    twice = np.subtract(vr, np.multiply(out, scale, out=rest), out=vr)
    twice <<= _ONE
    tie_down = vr_exact & (twice == scale) & (np.bitwise_and(out, _ONE, out=rest) == _ZERO)
    at_lower = (out == vm_kept) & ~vm_exact
    out += at_lower | ((twice >= scale) & ~tie_down)
    exp10 = removed
    exp10 += e10_table.take(biased, out=work[6].view(np.intp), mode="clip")
    olen = work[9].view(np.intp)  # biased is no longer needed
    olen[:] = np.searchsorted(_POW10, out, side="right")
    if zero.any():
        out[zero] = 0
        exp10[zero] = 0
        olen[zero] = 1
    return out, exp10, olen


def _swar_digits(v, high, spare):
    """Replace each ``v < 10**8`` by its eight decimal digits as ASCII
    bytes, most significant first, packed in one little-endian uint64:
    split by 10**4 into two 32-bit lanes, then by 100 and by 10 within the
    lanes, each by a multiply and a shift.  ``high`` and ``spare`` are
    scratch of v's shape."""
    for multiplier, shift, lanes, base, width in _SWAR_STEPS:
        np.multiply(v, multiplier, out=high)
        high >>= shift
        high &= lanes
        # v = high | ((v - high * base) << width)
        v -= np.multiply(high, base, out=spare)
        v <<= width
        v |= high
    v += _ASCII_ZEROS


def _digit_bytes(x, count: int, work):
    """The last ``count`` (at most 16) decimal digits of each ``x < 10**16``
    as a (len(x), count) ASCII view into ``work``, uint64 rows holding at
    least six values per element of x."""
    lanes = 2 if count > 8 else 1
    v, high, spare = work.reshape(-1)[: 3 * lanes * len(x)].reshape(3, len(x), lanes)
    if lanes == 2:
        np.floor_divide(x, _E8, out=v[:, 0])
        np.subtract(x, np.multiply(v[:, 0], _E8, out=v[:, 1]), out=v[:, 1])
    else:
        v[:, 0] = x
    _swar_digits(v, high, spare)
    return v.astype("<u8", copy=False).view(np.uint8).reshape(len(x), -1)[:, -count:]


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


def chunk_rows(n: int, ncols: int) -> int:
    """Rows per chunk of a write of ``n`` rows of ``ncols`` values."""
    values = min(max(n * ncols // _CHUNK_SHARE, CHUNK_VALUES), MAX_CHUNK_VALUES)
    return min(n, max(values // ncols, 1))


def write_csv_rows(columns: Sequence[np.ndarray], index: bool,
                   first_row: int = 0) -> Iterator[np.ndarray]:
    """The lines of the rows of the equal-length finite float64
    ``columns`` as ASCII text, one ``uint8`` array per chunk of rows,
    which a binary file writes as it is.  Each line is the row number and
    a comma when ``index``, then each value's ``repr`` text,
    comma-separated.  Rows are numbered from ``first_row``, so the rows of
    a write's later part read as they do in the whole write.  The call
    builds the tables, so a process forked after it shares them; the
    iteration makes the workspace and the text."""
    if len(columns[0]) == 0:
        return iter(())
    _ryu_tables()  # built before the workspace, so its temporaries add nothing to the peak
    _layout_tables()
    return _chunks(columns, index, first_row)


def _chunks(columns: Sequence[np.ndarray], index: bool, first_row: int) -> Iterator[np.ndarray]:
    n, ncols = len(columns[0]), len(columns)
    masks, classes, exponent_text = _layout_tables()
    # Each index digit shows only from its row on, so a field as wide as
    # the last row's number writes every row's text.
    index_width = len(str(first_row + n - 1)) if index else 0
    width = index_width + ncols * len(_FIELD) + 1
    rows = chunk_rows(n, ncols)
    size = rows * ncols
    # One workspace for every chunk: row text, its keep mask, the values
    # and the rows of the arithmetic.
    text = np.empty((rows, width), dtype=np.uint8)
    keep = np.empty((rows, width), dtype=bool)
    values = np.empty((rows, ncols), dtype=np.float64)
    work = np.empty((_WORK_ROWS, size), dtype=np.uint64)
    flags = np.empty((_FLAG_ROWS, size), dtype=bool)
    negative = np.empty(size, dtype=bool)
    text[:, index_width:-1] = np.frombuffer(_FIELD * ncols, dtype=np.uint8)
    text[:, -1] = ord("\n")
    keep[:, -1] = True
    fields = text[:, index_width:-1].reshape(rows, ncols, len(_FIELD))
    field_keep = keep[:, index_width:-1].reshape(rows, ncols, len(_FIELD))
    # Index digit p shows once the row number reaches 10**(index_width-1-p).
    index_floor = _POW10[:index_width][::-1].copy()
    index_floor[-1:] = 0
    block_rows = max(CHUNK_VALUES // ncols, 1)
    for start in range(0, n, rows):
        first = min(start, n - rows)  # the last chunk ends at row n, overlapping the one before
        for c, column in enumerate(columns):
            values[:, c] = column[first : first + rows]
        np.signbit(values.reshape(-1), out=negative)
        digits, exp10, olen = _shortest(values.reshape(-1).view(np.uint64), work, flags)
        scratch = work[:7]
        padding = np.subtract(17, olen, out=scratch[0].view(np.intp))
        digits *= _POW10.take(padding, out=scratch[1], mode="clip")  # now exactly 17 digits
        lead = np.floor_divide(digits, _E16, out=scratch[6])
        digits -= np.multiply(lead, _E16, out=scratch[0])
        lead += _U(ord("0"))
        fields[:, :, _INT_DIGITS] = fields[:, :, _FRAC_DIGITS] = lead.reshape(rows, ncols)
        decpt_row = exp10
        decpt_row += olen
        decpt_row += _DECPT_OFFSET
        tail = _digit_bytes(digits, 16, scratch[:6]).reshape(rows, ncols, 16)
        fields[:, :, _FRAC_DIGITS + 1 : _FRAC_DIGITS + 17] = tail
        # Only a value with two or more integer digits shows the integer
        # slots after the first; elsewhere the masks drop their stale bytes.
        if decpt_row.max() >= _DECPT_OFFSET + 2:
            fields[:, :, _INT_DIGITS + 1 : _INT_DIGITS + 17] = tail
        cls = classes.take(decpt_row, out=scratch[6].view(np.intp), mode="clip")
        if cls.max() >= _EXPONENT_FORM:
            exponents = exponent_text.take(decpt_row, axis=0)
            fields[:, :, _EXPONENT_TEXT:] = exponents.reshape(rows, ncols, 4)
        key = np.multiply(negative, _N_CLASSES, out=scratch[5].view(np.intp))
        key += cls
        key *= 18
        key += olen
        # Keys are in range by construction.  np.take copies a strided out
        # through a temporary, so it takes the mask rows of CHUNK_VALUES
        # values at a time.
        key = key.reshape(rows, ncols)
        for block in range(0, rows, block_rows):
            np.take(masks, key[block : block + block_rows], axis=0, mode="clip",
                    out=field_keep[block : block + block_rows])
        if index:
            numbers = scratch[0, :rows]
            numbers[:] = np.arange(first_row + first, first_row + first + rows)
            text[:, :index_width] = _digit_bytes(numbers, index_width, scratch[1:7])
            np.greater_equal(numbers[:, None], index_floor, out=keep[:, :index_width])
        else:
            keep[:, 0] = False  # no comma before the first value
        skip = start - first
        yield text[skip:][keep[skip:]]
