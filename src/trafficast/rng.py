"""Deterministic random streams.

Every random draw in the toolkit comes from a Philox 4x64-10 counter-based
generator keyed directly with the seed; Gaussian variates are produced by
the Box-Muller transform applied to its uniform doubles.  Both pieces are
fully specified algorithms, so a given seed yields a bitwise-identical
stream on every platform.

The generator is computed here in numpy ``uint64`` arithmetic and gives
the bits of numpy's ``Generator(Philox(key=seed % 2**64)).random(n)``, and
the seed hash is CPython's ``_blake2.blake2b``, the object ``hashlib``
exports.
Neither ``numpy.random`` nor ``hashlib`` is imported: each loads OpenSSL's
libcrypto (``numpy.random`` through ``secrets``), about 3.5 MB of memory,
and ``numpy.random`` 2.5 MB more, for one hash and one stream of doubles.
"""
from __future__ import annotations

from _blake2 import blake2b

import numpy as np

from .series import integer

_U64 = 2**64
_U = np.uint64

# Philox 4x64 (Salmon et al., SC 2011): the round multipliers, each split
# into its low and high 32 bits for the high word of the 128-bit product,
# and the Weyl increments of the key between rounds.
_MULTIPLIERS = tuple(
    (_U(m), _U(m & 0xFFFFFFFF), _U(m >> 32)) for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)
)
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
_LOW32, _32 = _U(0xFFFFFFFF), _U(32)
_DOUBLE_SHIFT, _DOUBLE_SCALE = _U(11), 2.0**-53  # a word's top 53 bits as [0, 1)

# Counters per block of work, sized from the stream as a share of its
# counters (4 doubles each), between a least and a most.  Each numpy call
# has a fixed cost: on 2 shared x86-64 vCPUs with numpy 2.4, 200000
# doubles take 25 ms in blocks of 1024 counters, 9.5 ms in blocks of 6250
# and 7.7 ms in one of 8192; larger blocks are no faster.  A block works in
# ``_WORK_ROWS`` uint64 rows and a counter ramp, 80 bytes per counter, so
# past the least block its work stays below a third of the 32 bytes per
# counter of the stream itself.
_BLOCK_SHARE = 8
_MIN_BLOCK = 2048
_MAX_BLOCK = 8192
_WORK_ROWS = 9


def derive_seed(seed: int, label: str) -> int:
    """Stable per-stage seed derived from a master seed and a stage label."""
    digest = blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _multiply_high(x, multiplier, out, low, high, middle) -> None:
    """``out`` = the high 64 bits of the 128-bit product ``x * m``, from
    the 32-bit halves of both (``multiplier`` holds m, m's low half and
    its high half); ``low``, ``high`` and ``middle`` are scratch."""
    _, m_low, m_high = multiplier
    np.bitwise_and(x, _LOW32, out=low)
    np.right_shift(x, _32, out=high)
    np.multiply(low, m_low, out=out)
    out >>= _32
    np.multiply(high, m_low, out=middle)
    middle += out  # below 2**64: (2**32 - 1)**2 + 2**32 - 1
    np.multiply(low, m_high, out=out)
    np.bitwise_and(middle, _LOW32, out=low)
    low += out
    low >>= _32  # the carry out of the middle 64 bits
    np.multiply(high, m_high, out=out)
    middle >>= _32
    out += middle
    out += low


def uniform_stream(seed: int, n: int) -> np.ndarray:
    """``n`` doubles uniform on [0, 1) from a Philox 4x64-10 generator
    keyed by ``seed`` mod 2**64: the bits of numpy's
    ``Generator(Philox(key=seed % 2**64)).random(n)``.

    Counter i (from 0) is (i + 1, 0, 0, 0) under the key (seed, 0); its
    four output words follow in order, and each gives the double
    ``(word >> 11) * 2**-53``.
    """
    n = integer("stream length", n, minimum=0)
    key = integer("seed", seed) % _U64
    counters = -(-n // 4)
    out = np.empty(4 * counters)
    size = max(min(max(counters // _BLOCK_SHARE, _MIN_BLOCK), _MAX_BLOCK, counters), 1)
    keys = [
        (_U((key + r * _WEYL[0]) % _U64), _U(r * _WEYL[1] % _U64)) for r in range(_ROUNDS)
    ]
    work = np.empty((_WORK_ROWS, size), dtype=np.uint64)
    ramp = np.arange(1, size + 1, dtype=np.uint64)
    for start in range(0, counters, size):
        count = min(size, counters - start)
        c0, c1, c2, c3, h0, h1, low, high, middle = (row[:count] for row in work)
        np.add(ramp[:count], _U(start), out=c0)
        c1.fill(0)
        c2.fill(0)
        c3.fill(0)
        for k0, k1 in keys:
            _multiply_high(c0, _MULTIPLIERS[0], h0, low, high, middle)
            _multiply_high(c2, _MULTIPLIERS[1], h1, low, high, middle)
            # The round in place: (c0, c1, c2, c3) becomes
            # (h1 ^ c1 ^ k0, c2 * m1, h0 ^ c3 ^ k1, c0 * m0).
            c1 ^= h1
            c1 ^= k0
            c3 ^= h0
            c3 ^= k1
            c0 *= _MULTIPLIERS[0][0]
            c2 *= _MULTIPLIERS[1][0]
            c0, c1, c2, c3 = c1, c2, c3, c0
        words = out[4 * start : 4 * (start + count)].reshape(count, 4)
        for column, word in enumerate((c0, c1, c2, c3)):
            word >>= _DOUBLE_SHIFT
            np.multiply(word, _DOUBLE_SCALE, out=words[:, column])
    return out[:n]


def normal_stream(seed: int, n: int) -> np.ndarray:
    """``n`` standard-normal draws via Box-Muller on the uniform stream.

    Even draws are ``r cos(2 pi u2)`` and odd ones ``r sin(2 pi u2)``, with
    ``r = sqrt(-2 ln(1 - u1))`` and (u1, u2) the stream's consecutive
    pairs.  The work runs in the uniform array and the output array, each
    transcendental on contiguous halves of them, so no other series-sized
    array is made.
    """
    n = integer("stream length", n, minimum=0)
    pairs = (n + 1) // 2
    u = uniform_stream(seed, 2 * pairs)
    z = np.empty(2 * pairs)
    head, tail = z[:pairs], z[pairs:]
    np.subtract(1.0, u[0::2], out=head)  # shift to (0, 1] so the log stays finite
    np.multiply(2.0 * np.pi, u[1::2], out=tail)
    # The uniforms are used up: u now holds the radius and the sines.
    radius, sine = u[pairs:], u[:pairs]
    np.log(head, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    np.cos(tail, out=head)
    np.sin(tail, out=sine)
    head *= radius
    sine *= radius
    u[pairs:] = head  # the cosine products, moved out of z to interleave
    z[0::2] = u[pairs:]
    z[1::2] = sine
    return z[:n]
