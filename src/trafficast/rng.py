"""Deterministic random streams.

Every random draw in the toolkit comes from a Philox 4x64 counter-based
generator keyed directly with the seed; Gaussian variates are produced by
the Box-Muller transform applied to its uniform doubles.  Both pieces are
fully specified algorithms, so a given seed yields a bitwise-identical
stream on every platform.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .series import integer

_U64 = 2**64


def derive_seed(seed: int, label: str) -> int:
    """Stable per-stage seed derived from a master seed and a stage label."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def uniform_stream(seed: int, n: int) -> np.ndarray:
    """``n`` doubles uniform on [0, 1) from a Philox generator keyed by seed."""
    n = integer("stream length", n, minimum=0)
    gen = np.random.Generator(np.random.Philox(key=integer("seed", seed) % _U64))
    return gen.random(n)


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
