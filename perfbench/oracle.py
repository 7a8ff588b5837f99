"""Reference results for the benchmark's output check.

Everything here is written from the defining math with numpy and the
standard library, without importing the program, so a faster or broken
program path cannot also change the values it is checked against.  The
check is tolerance-based: a fast path may reorder floating-point work.
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9
ATOL = 1e-9
WINDOW, HOP = 10, 5  # default preprocessing: 10-sample frames, 50 % overlap
KF_BURN_IN = 1


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def normal_stream(seed: int, n: int) -> np.ndarray:
    """Box-Muller on the uniform doubles of a Philox 4x64 generator."""
    pairs = (n + 1) // 2
    u = np.random.Generator(np.random.Philox(key=seed % 2**64)).random(2 * pairs)
    radius = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(2.0 * np.pi * u[1::2])
    z[1::2] = radius * np.sin(2.0 * np.pi * u[1::2])
    return z[:n]


def seasonal(n, period, amplitude, base_rate, noise_std, seed) -> np.ndarray:
    i = np.arange(n)
    noise = noise_std * normal_stream(seed, n)
    return np.maximum(base_rate + amplitude * np.sin(2.0 * np.pi * i / period) + noise, 0.0)


def stationarize(x: np.ndarray) -> np.ndarray:
    """ln(1+x), overlap-averaged frame centering, then z-score."""
    x = np.log1p(x)
    n_frames = (x.size - WINDOW) // HOP + 1
    out_len = HOP * (n_frames - 1) + WINDOW
    acc = np.zeros(out_len)
    cover = np.zeros(out_len)
    for s in range(0, HOP * n_frames, HOP):
        frame = x[s : s + WINDOW]
        acc[s : s + WINDOW] += frame - frame.mean()
        cover[s : s + WINDOW] += 1.0
    y = acc / cover
    return (y - y.mean()) / y.std(ddof=1)


def _lags(x, lags, start):
    return np.column_stack([x[start - j : x.size - j] for j in range(1, lags + 1)])


def arma_fit(x, p, q):
    """Hannan-Rissanen: a long AR for innovations, then one regression."""
    m = max(20, 2 * (p + q))
    long_coef = np.linalg.lstsq(_lags(x, m, m), x[m:], rcond=None)[0]
    eps = np.zeros(x.size)
    eps[m:] = x[m:] - _lags(x, m, m) @ long_coef
    t0 = max(p, m + q)
    blocks = []
    if p:
        blocks.append(_lags(x, p, t0))
    if q:
        blocks.append(_lags(eps, q, t0))
    X = np.hstack(blocks)
    coef = np.linalg.lstsq(X, x[t0:], rcond=None)[0]
    return coef[:p].tolist(), coef[p:].tolist()


def arma_predict(x, theta, phi):
    """Rolling one-step predictions with zero-padded history."""
    values = x.tolist()
    p, q = len(theta), len(phi)
    hist = [0.0] * p + values
    eps = [0.0] * q
    preds = []
    for t, actual in enumerate(values):
        pred = sum(theta[i] * hist[t + p - 1 - i] for i in range(p))
        pred += sum(phi[j] * eps[-1 - j] for j in range(q))
        preds.append(pred)
        eps.append(actual - pred)
    return np.asarray(preds)


def kf_predict(z, q, r):
    """Local-level filter from x0 = z[0], P0 = 1; records prior means."""
    x, p = float(z[0]), 1.0
    preds = []
    for zi in z.tolist():
        pp = p + q
        k = pp / (pp + r)
        preds.append(x)
        x = x + k * (zi - x)
        p = (1.0 - k) * pp
    return np.asarray(preds)


def parse_spec(text):
    kind, _, rest = text.partition(":")
    a, b = rest.split(",")
    if kind == "arma":
        return kind, (int(a), int(b))
    return kind, (float(a), float(b))


def spec_label(kind, params):
    if kind == "arma":
        return f"ARMA({params[0]},{params[1]})"
    return "KF" if params == (0.01, 0.01) else f"KF({params[0]:g},{params[1]:g})"


def expected_outputs(raw: dict[str, np.ndarray], specs: list[str]) -> dict:
    """MSE grid and prediction-CSV columns the program should write."""
    parsed = [parse_spec(s) for s in specs]
    skip = max(max(params) if kind == "arma" else KF_BURN_IN for kind, params in parsed)
    arma_cols = [s for s in parsed if s[0] == "arma"]
    paired = next((s for s in arma_cols if s[1] == (2, 1)), arma_cols[0] if arma_cols else None)
    kf_paired = next((s for s in parsed if s[0] == "kf"), None)
    mse_rows, predictions = {}, {}
    for label, series in raw.items():
        x = stationarize(series)
        preds = {}
        for kind, params in parsed:
            if kind == "arma":
                preds[kind, params] = arma_predict(x, *arma_fit(x, *params))
            else:
                preds[kind, params] = kf_predict(x, *params)
        mse_rows[label] = [float(np.mean((preds[s][skip:] - x[skip:]) ** 2)) for s in parsed]
        if paired and kf_paired:
            predictions[label] = np.column_stack([x, preds[paired], preds[kf_paired]])
    return {
        "predictors": [spec_label(*s) for s in parsed],
        "mse": mse_rows,
        "predictions": predictions,
    }


def _read_grid(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0]  # predictor labels such as ARMA(2,1) hold unquoted commas
    rows = {}
    for line in lines[1:]:
        label, *cells = line.split(",")
        rows[label] = [float(c) if c else None for c in cells]
    return header, rows


def check_outputs(outdir: Path, expected: dict) -> tuple[int, list[str]]:
    """Compare a run's artifacts with ``expected``.

    Returns the number of grid cells that are blank or wrong, and one
    message per problem found.
    """
    problems: list[str] = []
    bad_cells = 0
    labels = list(expected["mse"])
    n_cells = len(labels) * len(expected["predictors"])
    grids = {}
    for name in ("mse_grid.csv", "time_grid.csv"):
        try:
            header, rows = _read_grid(outdir / name)
        except (OSError, ValueError, IndexError) as exc:
            return n_cells, [f"{name}: unreadable ({exc})"]
        width = len(expected["predictors"])
        if (header != "dataset," + ",".join(expected["predictors"]) or list(rows) != labels
                or any(len(cells) != width for cells in rows.values())):
            return n_cells, [f"{name}: header {header!r} / rows {list(rows)} do not match"]
        grids[name] = rows
    for label in labels:
        for j, predictor in enumerate(expected["predictors"]):
            want = expected["mse"][label][j]
            got = grids["mse_grid.csv"][label][j]
            seconds = grids["time_grid.csv"][label][j]
            if got is None or not math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
                problems.append(f"mse {label}/{predictor}: got {got}, want {want}")
            elif seconds is None or not seconds > 0:
                problems.append(f"time {label}/{predictor}: got {seconds}")
            else:
                continue
            bad_cells += 1
    for label, want in expected["predictions"].items():
        path = outdir / f"predictions_{label}.csv"
        try:
            with open(path, encoding="utf-8") as fh:
                header = fh.readline().strip()
                got = np.loadtxt(fh, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            problems.append(f"{path.name}: unreadable ({exc})")
            continue
        if header != "index,actual,arma_pred,kf_pred" or got.shape != (want.shape[0], 4):
            problems.append(f"{path.name}: header {header!r}, shape {got.shape}")
        elif not np.array_equal(got[:, 0], np.arange(want.shape[0])):
            problems.append(f"{path.name}: index column is not 0..{want.shape[0] - 1}")
        elif not np.allclose(got[:, 1:], want, rtol=RTOL, atol=ATOL):
            worst = float(np.max(np.abs(got[:, 1:] - want)))
            problems.append(f"{path.name}: columns differ from reference by up to {worst:.3g}")
    return bad_cells, problems
