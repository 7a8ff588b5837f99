#!/usr/bin/env python3
"""Kalman one-step prediction on a noisy random walk.

Generates a random-walk-plus-noise trace, filters it with the matching
local-level model, and checks two textbook facts: the gain settles at the
Riccati fixed point, and the one-step MSE approaches the steady-state
innovation variance.
"""
import math

import numpy as np

from trafficast import kalman
from trafficast.evaluate import mse
from trafficast.synth import gen_linear_gaussian

Q = R = 0.01

model, _ = kalman.default_local_level(Q, R)
states, measurements = gen_linear_gaussian(model, init=0.0, n=20_000, seed=5)
z = measurements.values

_, init = kalman.default_local_level(Q, R, x0=z[0])
trace = kalman.predict_series(model, measurements, init)

# Steady state: positive root of p^2 - Q p - Q R = 0, gain p/(p+R).
p_star = (Q + math.sqrt(Q * Q + 4 * Q * R)) / 2
k_star = p_star / (p_star + R)
print(f"gain after 10 steps:  {trace.gain_series[9]:.6f}")
print(f"gain after 200 steps: {trace.gain_series[199]:.6f}")
print(f"riccati fixed point:  {k_star:.6f}  (= (sqrt(5)-1)/2 for Q=R)")

kf = mse(trace.predictions, z, skip=1)
print(f"\none-step MSE:               {kf:.6f}")
print(f"steady innovation variance: {p_star + R:.6f}")
print(f"naive z[k-1] predictor:     {mse(z[:-1], z[1:]):.6f}")
print(f"constant-mean predictor:    {mse(np.full(z.size - 1, z.mean()), z[1:]):.3f}")

# The filter also tracks the hidden state better than the raw measurements do.
posterior = z - (1.0 - trace.gain_series) * (z - trace.predictions)
print(f"\nstate tracking error, measurements:   {mse(z, states.values):.6f}")
print(f"state tracking error, filtered means: {mse(posterior, states.values):.6f}")
