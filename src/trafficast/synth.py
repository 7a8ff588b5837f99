"""Seeded synthetic datasets: seasonal traffic and state-space traces.

Used both as demo inputs and as test oracles, so everything here is
deterministic per seed (see :mod:`trafficast.rng`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kalman import StateSpaceModel
from .rng import normal_stream
from .series import TimeSeries, first_order_scan, integer, real


@dataclass(frozen=True)
class SeasonalSpec:
    """Sinusoidal daily-pattern stand-in: base rate plus one harmonic plus
    Gaussian noise, clipped at zero (rates cannot go negative)."""

    n: int = 5000
    period: int = 60
    amplitude: float = 20.0
    base_rate: float = 50.0
    noise_std: float = 5.0
    seed: int = 42

    def __post_init__(self):
        for name, minimum in (("period", 2), ("n", None), ("seed", None)):
            object.__setattr__(self, name, integer(name, getattr(self, name), minimum=minimum))
        if self.n < self.period:
            raise ValidationError(
                f"need at least one full cycle (n >= period), got n={self.n},"
                f" period={self.period}"
            )
        for name in ("amplitude", "base_rate", "noise_std"):
            value = real(name, getattr(self, name), nonnegative=name != "amplitude")
            object.__setattr__(self, name, value)


def gen_seasonal_traffic(spec: SeasonalSpec) -> TimeSeries:
    """values[i] = max(0, base + amplitude * sin(2*pi*i/period) + noise_i).

    Built in the noise array and one wave array, with the operations of
    that formula in its order, so the series costs two arrays of its size
    besides its own copy.
    """
    values = normal_stream(spec.seed, spec.n)
    values *= spec.noise_std
    wave = np.arange(spec.n, dtype=float)
    wave *= 2.0 * np.pi
    wave /= spec.period
    np.sin(wave, out=wave)
    wave *= spec.amplitude
    wave += spec.base_rate
    values += wave
    del wave
    np.maximum(values, 0.0, out=values)
    return TimeSeries(values=values, dt=1.0)


def gen_linear_gaussian(
    model: StateSpaceModel, init: float, n: int, seed: int
) -> tuple[TimeSeries, TimeSeries]:
    """Simulate x_k = a x_{k-1} + w_k, z_k = h x_k + v_k.

    ``init`` is the state value before the first step.  The first n draws
    of the seeded stream drive the process noise, the next n the
    measurement noise.  Returns (states, measurements).
    """
    n = integer("n", n, minimum=1)
    draws = normal_stream(seed, 2 * n)
    w = math.sqrt(model.q) * draws[:n]
    v = math.sqrt(model.r) * draws[n:]
    fold = model.a * float(init)  # what ``init`` adds to the first state
    if fold:  # adding a zero would turn a first draw of -0.0 into 0.0
        w[0] += fold
    states = first_order_scan(w, model.a)
    measurements = model.h * states + v
    return TimeSeries(values=states), TimeSeries(values=measurements)
