"""Independent reference implementations used as test oracles.

Everything here is written as directly as possible from the defining
math, without reusing package code, so tests can cross-check the real
implementations against a second route.
"""
import csv
import io
import math
import re

import numpy as np


def count_per_bin(timestamps, width):
    """Brute-force packet count per [i*w, (i+1)*w) bin."""
    n_bins = int(max(timestamps) // width) + 1
    counts = [0] * n_bins
    for t in timestamps:
        counts[int(t // width)] += 1
    return counts


class RowError(Exception):
    """A rejected packet CSV: ``kind`` names the loader's error class and
    ``line`` the line number the loader reports."""

    def __init__(self, kind, line):
        super().__init__(f"{kind} at line {line}")
        self.kind, self.line = kind, line


def load_packet_rows(text, filter_protocols=True, newline=""):
    """Whole-text packet CSV reading: one csv.DictReader pass, float() per row.

    Returns timestamps (stable-sorted) and tags as lists; raises RowError for
    a row the loader must reject.
    """
    reader = csv.DictReader(io.StringIO(text, newline=newline))
    names = reader.fieldnames
    if names is None:
        raise RowError("ParseError", 1)
    lowered = [name.strip().lower() for name in names]
    if "time" not in lowered or "protocol" not in lowered:
        raise RowError("ParseError", 1)
    t_col, p_col = names[lowered.index("time")], names[lowered.index("protocol")]
    rows = []
    for row in reader:
        raw_t, raw_p = row.get(t_col), row.get(p_col)
        if raw_t is None or raw_p is None:
            raise RowError("ParseError", reader.line_num)
        try:
            t = float(raw_t)
        except ValueError:
            raise RowError("ParseError", reader.line_num) from None
        if not math.isfinite(t):
            raise RowError("ParseError", reader.line_num)
        if t < 0:
            raise RowError("ValidationError", reader.line_num)
        tag = raw_p.strip().upper()
        tag = tag if tag in ("TCP", "UDP") else "other"
        if filter_protocols and tag == "other":
            continue
        rows.append((t, tag))
    rows.sort(key=lambda row: row[0])  # list.sort is stable
    return [t for t, _ in rows], [tag for _, tag in rows]


def error_line(exc):
    """The ``line N`` a loader error names, or None."""
    found = re.search(r"line (\d+)", str(exc))
    return int(found.group(1)) if found else None


def box_center_frames(x, window, hop):
    """Frame-by-frame overlap-add: subtract each frame's mean, average the copies."""
    x = np.asarray(x, dtype=float)
    n_frames = (x.size - window) // hop + 1
    out_len = hop * (n_frames - 1) + window
    acc = np.zeros(out_len)
    cover = np.zeros(out_len)
    for f in range(n_frames):
        s = f * hop
        frame = x[s : s + window]
        acc[s : s + window] += frame - frame.mean()
        cover[s : s + window] += 1.0
    return acc / cover


def box_center_reference(x, window, hop):
    """Per-output-sample overlap averaging, formulated sample-first."""
    x = list(x)
    n_frames = (len(x) - window) // hop + 1
    out = []
    for j in range(hop * (n_frames - 1) + window):
        contributions = []
        for f in range(n_frames):
            s = f * hop
            if s <= j < s + window:
                frame_mean = sum(x[s : s + window]) / window
                contributions.append(x[j] - frame_mean)
        out.append(sum(contributions) / len(contributions))
    return np.array(out)


def yule_walker(x, order):
    """AR coefficients from sample autocovariances (biased estimator)."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    n = x.size
    r = np.array([np.dot(x[: n - k], x[k:]) / n for k in range(order + 1)])
    R = np.array([[r[abs(i - j)] for j in range(order)] for i in range(order)])
    return np.linalg.solve(R, r[1:])


def local_level_gain_sequence(q, r, p0, steps):
    """Scalar covariance/gain recursion for the random-walk-plus-noise model."""
    gains, p = [], p0
    for _ in range(steps):
        pp = p + q
        k = pp / (pp + r)
        p = (1.0 - k) * pp
        gains.append(k)
    return np.array(gains)


def local_level_predictions(z, q, r, x0, p0):
    """Scalar one-step predictions for the random-walk-plus-noise model."""
    preds, x, p = [], x0, p0
    for zi in z:
        preds.append(x)  # A = H = 1: the prior mean is the last posterior
        pp = p + q
        k = pp / (pp + r)
        x = x + k * (zi - x)
        p = (1.0 - k) * pp
    return np.array(preds)


def riccati_prior_fixed_point(q, r):
    """Positive root of p**2 - q*p - q*r = 0: the steady-state prior variance."""
    return (q + np.sqrt(q * q + 4.0 * q * r)) / 2.0


def steady_state_gain(q, r):
    p = riccati_prior_fixed_point(q, r)
    return p / (p + r)
