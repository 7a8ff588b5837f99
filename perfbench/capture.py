"""Seeded packet-capture generator for the benchmark (numpy only).

A capture is a ``time,protocol`` CSV: Poisson arrivals at a seasonal rate
averaging ``MEAN_RATE`` packets per second, about ``OTHER_SHARE`` of them
tagged neither TCP nor UDP.  Times are whole microseconds written with six
decimals, so the value the program parses is exactly ``t_us / 1e6`` and the
reference binning can work on the integers.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

MEAN_RATE = 200.0  # packets per second
PERIOD_S = 600.0  # one rate cycle
SWING = 0.5  # rate varies by +-50 % over a cycle
PROTOCOLS = ("TCP", "UDP", "ICMP")
PROTOCOL_SHARES = (0.60, 0.35, 0.05)
OTHER_SHARE = PROTOCOL_SHARES[2]
US = 1_000_000


def generate(seed: int, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``n_rows`` sorted microsecond timestamps and protocol codes
    (indices into ``PROTOCOLS``); the same seed gives the same capture."""
    gen = np.random.Generator(np.random.Philox(key=seed % 2**64))
    # 25 % more seconds than the mean rate needs, so the Poisson total
    # covers n_rows; the tail beyond n_rows is dropped.
    seconds = np.arange(int(n_rows / MEAN_RATE * 1.25) + 10)
    rate = MEAN_RATE * (1.0 + SWING * np.sin(2.0 * np.pi * seconds / PERIOD_S))
    counts = gen.poisson(rate)
    if counts.sum() < n_rows:
        raise RuntimeError(f"seed {seed}: Poisson draw fell short of {n_rows} rows")
    t_us = np.repeat(seconds, counts) * US + gen.integers(0, US, size=int(counts.sum()))
    t_us.sort()
    t_us = t_us[:n_rows]
    codes = gen.choice(len(PROTOCOLS), size=n_rows, p=PROTOCOL_SHARES)
    return t_us, codes


def write_csv(path: Path, t_us: np.ndarray, codes: np.ndarray) -> None:
    names = [PROTOCOLS[c] for c in codes.tolist()]
    rows = map("%d.%06d,%s".__mod__, zip((t_us // US).tolist(), (t_us % US).tolist(), names))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("time,protocol\n")
        fh.write("\n".join(rows))
        fh.write("\n")


def ensure_capture(workdir: Path, seed: int, n_rows: int) -> Path:
    """Write the seeded capture of ``n_rows`` rows once per work directory."""
    path = workdir / f"packets_{n_rows}.csv"
    if not path.exists():
        write_csv(path, *generate(seed, n_rows))
    return path


def rate_counts(t_us: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Reference packets per one-second bin over the TCP/UDP rows."""
    kept = t_us[codes < 2]
    return np.bincount(kept // US).astype(float)
