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
from .series import TimeSeries, linear_recurrence, real


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
        if self.period < 2:
            raise ValidationError(f"period must be >= 2, got {self.period}")
        if self.n < self.period:
            raise ValidationError(
                f"need at least one full cycle (n >= period), got n={self.n},"
                f" period={self.period}"
            )
        for name in ("amplitude", "base_rate", "noise_std"):
            value = real(name, getattr(self, name), nonnegative=name != "amplitude")
            object.__setattr__(self, name, value)


def gen_seasonal_traffic(spec: SeasonalSpec) -> TimeSeries:
    """values[i] = max(0, base + amplitude * sin(2*pi*i/period) + noise_i)."""
    i = np.arange(spec.n)
    noise = spec.noise_std * normal_stream(spec.seed, spec.n)
    values = spec.base_rate + spec.amplitude * np.sin(2.0 * np.pi * i / spec.period) + noise
    return TimeSeries(values=np.maximum(values, 0.0), dt=1.0)


def gen_linear_gaussian(
    model: StateSpaceModel, init: float, n: int, seed: int
) -> tuple[TimeSeries, TimeSeries]:
    """Simulate x_k = a x_{k-1} + w_k, z_k = h x_k + v_k.

    ``init`` is the state value before the first step.  The first n draws
    of the seeded stream drive the process noise, the next n the
    measurement noise.  Returns (states, measurements).
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    draws = normal_stream(seed, 2 * n)
    w = math.sqrt(model.q) * draws[:n]
    v = math.sqrt(model.r) * draws[n:]
    states = linear_recurrence(w, [-model.a], init=[float(init)])
    measurements = model.h * states + v
    return TimeSeries(values=states), TimeSeries(values=measurements)
