"""Independent reference implementations used as test oracles.

Everything here is written as directly as possible from the defining
math, without reusing package code, so tests can cross-check the real
implementations against a second route.
"""
import cmath
import csv
import io
import math
import re

import numpy as np
from hypothesis import strategies as st


def count_per_bin(timestamps, width):
    """Brute-force packet count per [i*w, (i+1)*w) bin."""
    n_bins = int(max(timestamps) // width) + 1
    counts = [0] * n_bins
    for t in timestamps:
        counts[int(t // width)] += 1
    return counts


class RowError(Exception):
    """A rejected packet CSV: ``kind`` names the loader's error class and
    ``line`` the line number the loader reports.  When ``csv`` cannot read
    a row, the loader names the line the row starts on, which lies in
    ``first_line..line``."""

    def __init__(self, kind, line, first_line=None):
        super().__init__(f"{kind} at line {line}")
        self.kind, self.line = kind, line
        self.first_line = line if first_line is None else first_line


def load_packet_rows(text, filter_protocols=True, newline=""):
    """Whole-text packet CSV reading: one csv.DictReader pass, float() per row.

    Returns timestamps (stable-sorted) and tags as lists; raises RowError for
    a row the loader must reject.
    """
    reader = csv.DictReader(io.StringIO(text, newline=newline))
    try:
        names = reader.fieldnames
    except csv.Error:
        raise RowError("ParseError", 1) from None
    if names is None:
        raise RowError("ParseError", 1)
    lowered = [name.strip().lower() for name in names]
    if "time" not in lowered or "protocol" not in lowered:
        raise RowError("ParseError", 1)
    t_col, p_col = names[lowered.index("time")], names[lowered.index("protocol")]
    rows = []
    while True:
        after = reader.reader.line_num
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error:
            raise RowError("ParseError", reader.reader.line_num, after + 1) from None
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


def indexed_csv_loop(header, *columns):
    """Row-by-row CSV of an index column and float columns, each value
    written with ``repr``: ``header``, then ``i,x,y,...`` per row."""
    buf = io.StringIO()
    buf.write(header + "\n")
    for i in range(len(columns[0])):
        buf.write(f"{i}," + ",".join(f"{float(col[i])!r}" for col in columns) + "\n")
    return buf.getvalue()


def series_values_loop(values):
    """The value rows of a series CSV, one ``repr`` per line."""
    return "".join(f"{float(v)!r}\n" for v in values)


# Floats whose repr is easy to get wrong: signed zero, the shortest
# exponent forms, the smallest subnormal, the largest float and integral
# values.
AWKWARD_FLOATS = [
    -0.0, 0.0, 1e-05, 0.0001, 1e16, 1e15, 5e-324, 1.7976931348623157e308,
    -1.7976931348623157e308, 3.0, -7.0, 2.0**53, 2.0**53 + 2, 0.1, 1 / 3,
]


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


def box_center_offsets(x, window, hop):
    """``box_center`` as one array expression per frame offset, its sums
    and its count division each a new array."""
    x = np.asarray(x, dtype=float)
    n_frames = (x.size - window) // hop + 1
    out_len = hop * (n_frames - 1) + window
    means = np.lib.stride_tricks.sliding_window_view(x, window)[::hop].mean(axis=1)
    acc = np.zeros(out_len)
    cover = np.zeros(out_len)
    for k in reversed(range(window)):
        at = slice(k, k + hop * n_frames, hop)
        acc[at] += x[at] - means
        cover[at] += 1.0
    return acc / cover


def zscore_expression(x):
    """(x - mean) / std with numpy's mean and sample std, each step a new
    array; returns (values, mean, std)."""
    x = np.asarray(x, dtype=float)
    mean = float(x.mean())
    std = float(x.std(ddof=1))
    return (x - mean) / std, mean, std


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


def philox_uniforms(seed, n):
    """``n`` uniform doubles from numpy's own Philox 4x64 generator keyed
    by the seed."""
    return np.random.Generator(np.random.Philox(key=seed % 2**64)).random(n)


def philox_normals(seed, n):
    """``n`` Box-Muller normals from a Philox 4x64 stream keyed by the
    seed, written as array expressions, each a new array."""
    pairs = (max(n, 0) + 1) // 2
    u = philox_uniforms(seed, 2 * pairs)
    u1 = 1.0 - u[0::2]
    u2 = u[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(2.0 * np.pi * u2)
    z[1::2] = radius * np.sin(2.0 * np.pi * u2)
    return z[:n]


def seasonal_traffic(n, period, amplitude, base_rate, noise_std, seed):
    """max(0, base + amplitude sin(2 pi i / period) + noise_std * normal_i)
    as one array expression."""
    i = np.arange(n)
    noise = noise_std * philox_normals(seed, n)
    values = base_rate + amplitude * np.sin(2.0 * np.pi * i / period) + noise
    return np.maximum(values, 0.0)


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


def linear_recurrence_loop(u, a, init=()):
    """y[t] = u[t] - sum_j a[j-1] * y[t-j], one sample at a time; ``init``
    holds the outputs before u[0], most recent last, missing ones zero."""
    q = len(a)
    hist = [0.0] * (q - len(init)) + [float(v) for v in init]
    out = []
    for ut in u:
        value = float(ut)
        for j in range(1, q + 1):
            value -= a[j - 1] * hist[-j]
        hist.append(value)
        out.append(value)
    return np.array(out)


def first_order_scan(u, c, y_prev=0.0, stop=False):
    """y[t] = u[t] + c y[t-1] by Hillis-Steele doubling over every span
    below n, each pass over the whole array at once, with no early stop:
    the scan ``linear_recurrence`` runs for q = 1 before its stop rule.
    With ``stop`` (and |c| < 1) it ends once |c^d| (1 + |c|) / (1 - |c|)
    <= 2**-53, as that stop rule does, and is then the unblocked form of
    ``series.first_order_scan``.  A complex ``u`` is scanned as complex.
    A zero ``y_prev`` adds nothing, so a leading -0.0 keeps its sign."""
    y = np.array(u, dtype=complex if np.iscomplexobj(u) else float)
    if y_prev:
        y[0] += c * y_prev
    d, power = 1, c
    bound = 2.0**-53 * (1 - abs(c)) / (1 + abs(c)) if stop and abs(c) < 1 else 0.0
    while d < y.size and not abs(power) <= bound:
        y[d:] += power * y[:-d]
        power *= power
        d *= 2
    return y


def arma_predict_loop(theta, phi, x):
    """Rolling one-step ARMA predictions with zero-padded history: the
    per-sample loop ``arma.predict_series`` ran before its scan."""
    theta_rev = np.asarray(theta, dtype=float)[::-1]
    phi_rev = np.asarray(phi, dtype=float)[::-1]
    p, q = theta_rev.size, phi_rev.size
    x = np.asarray(x, dtype=float)
    padded = np.concatenate([np.zeros(p), x])
    eps = np.zeros(x.size + q)
    preds = np.empty(x.size)
    for t in range(x.size):
        value = 0.0
        if p:
            value += float(np.dot(theta_rev, padded[t : t + p]))
        if q:
            value += float(np.dot(phi_rev, eps[t : t + q]))
        preds[t] = value
        eps[t + q] = x[t] - value
    return preds


def arma_simulate_loop(theta, phi, eps, burn_in):
    """ARMA sample path driven by ``eps`` from zero history, first
    ``burn_in`` samples dropped: the loop ``arma.simulate`` ran before its
    scan."""
    theta_rev = np.asarray(theta, dtype=float)[::-1]
    phi_rev = np.asarray(phi, dtype=float)[::-1]
    p, q = theta_rev.size, phi_rev.size
    total = len(eps)
    x = np.zeros(total + p)
    eps_pad = np.concatenate([np.zeros(q), eps])
    for t in range(total):
        value = eps[t]
        if p:
            value += float(np.dot(theta_rev, x[t : t + p]))
        if q:
            value += float(np.dot(phi_rev, eps_pad[t : t + q]))
        x[t + p] = value
    return x[p + burn_in :].copy()


def linear_gaussian_states_loop(a, w, x0):
    """x_k = a * x_{k-1} + w_k from x_{-1} = x0, one step at a time."""
    states = np.empty(len(w))
    x = float(x0)
    for k in range(len(w)):
        x = a * x + w[k]
        states[k] = x
    return states


def scalar_kalman_loop(a, h, q, r, x0, p0, z):
    """Scalar Kalman filter, one plain-float step per sample: the loop
    ``kalman.predict_series`` ran for scalar models before its scan.

    Returns (predictions, gains, posterior covariances); raises
    ``ValueError`` on a nonpositive innovation variance.
    """
    n = len(z)
    gains = np.empty(n)
    covs = np.empty(n)
    p_prev = None
    settled = n
    p = p0
    for i in range(n):
        pp = a * p * a + q
        s = h * pp * h + r
        if not s > 0.0:
            raise ValueError("singular innovation covariance")
        k = pp * h / s
        p = (1.0 - k * h) * pp
        gains[i] = k
        covs[i] = p
        if p == p_prev:
            settled = i + 1
            break
        p_prev = p
    if settled < n:
        gains[settled:] = gains[settled - 1]
        covs[settled:] = covs[settled - 1]
    preds = []
    x = x0
    for zi, k in zip(np.asarray(z, dtype=float).tolist(), gains.tolist()):
        xp = a * x
        pred = h * xp
        x = xp + k * (zi - pred)
        preds.append(pred)
    return np.asarray(preds), gains, covs


def local_level_settle_and_scan(a, h, q, r, x0, p0, z):
    """The scalar filter as one loop up to the settle step and one
    first-order scan after it, with full-length gain and covariance
    arrays, the scan's drive in its own array and the two parts joined
    by ``np.concatenate``.

    Returns (predictions, gains, posterior covariances).
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    gains = np.empty(n)
    covs = np.empty(n)
    head = []
    x, p, p_prev, settled = x0, p0, None, n
    for i, zi in enumerate(z.tolist()):
        xp = a * x
        pp = a * p * a + q
        k = pp * h / (h * pp * h + r)
        pred = h * xp
        x = xp + k * (zi - pred)
        p = (1.0 - k * h) * pp
        gains[i] = k
        covs[i] = p
        head.append(pred)
        if p == p_prev:
            settled = i + 1
            break
        p_prev = p
    gains[settled:] = k
    covs[settled:] = p
    tail = np.empty(0)
    if settled < n:
        drive = (h * a * k) * z[settled - 1 : n - 1]
        drive[0] = h * (a * x)
        tail = first_order_scan(drive, a * (1.0 - k * h), stop=True)
    return np.concatenate([head, tail]), gains, covs


def poly_from_roots(roots):
    """Coefficients c_1..c_q of prod_i (1 - z / r_i) = 1 + sum_j c_j z^j;
    complex roots come in conjugate pairs, so the coefficients are real."""
    coef = np.array([1.0])
    for r in roots:
        coef = np.convolve(coef, [1.0, -1.0 / r])
    return coef[1:].real


def real_roots(low, high, max_size=3):
    """Hypothesis strategy: up to ``max_size`` real roots with modulus in
    [low, high], either sign."""
    modulus = st.floats(low, high)
    return st.lists(
        st.tuples(modulus, st.booleans()).map(lambda t: t[0] if t[1] else -t[0]),
        max_size=max_size,
    )


def conjugate_pair(low, high):
    """Hypothesis strategy: a complex root and its conjugate, with modulus in
    [low, high] and the argument strictly between 0 and pi."""
    arg = st.floats(0.0, math.pi, exclude_min=True, exclude_max=True)
    return st.tuples(st.floats(low, high), arg).map(
        lambda t: [cmath.rect(*t), cmath.rect(t[0], -t[1])]
    )


# Roots at least 1.3 out: a stable recurrence or invertible MA part that
# is well conditioned even with repeated roots, so loop and scan agree to
# 1e-12 of the scale.  Closer to the unit circle, an error in a pole
# (np.roots moves a repeated root by about eps**(1/q)) or in one step is
# amplified by up to the impulse response's l1 norm, so tests scale the
# tolerance by that gain there.
stable_roots = real_roots(1.3, 6.0)


def arma_fit_lstsq(x, p, q):
    """Hannan-Rissanen ARMA(p, q) fit through dense design matrices and
    ``np.linalg.lstsq``: the route ``arma.fit`` took before its normal
    equations.  Returns (theta, phi, sigma2, residuals, lam_min), where
    ``lam_min`` is the smallest eigenvalue over both stages of the
    regressors' Gram matrix scaled to unit diagonal."""
    x = np.asarray(x, dtype=float)
    n = x.size
    m = max(20, 2 * (p + q))

    def lags(v, count, start):
        return np.column_stack([v[start - j : n - j] for j in range(1, count + 1)])

    def solve(X, y):
        coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        assert rank == X.shape[1], "singular regression matrix"
        gram = X.T @ X
        norms = np.sqrt(np.diag(gram))
        lam = np.linalg.eigvalsh(gram / np.outer(norms, norms))
        return coef, y - X @ coef, lam[0]

    _, long_resid, lam_long = solve(lags(x, m, m), x[m:])
    eps = np.zeros(n)
    eps[m:] = long_resid
    t0 = max(p, m + q)
    blocks = ([lags(x, p, t0)] if p else []) + ([lags(eps, q, t0)] if q else [])
    coef, resid, lam = solve(np.hstack(blocks), x[t0:])
    return coef[:p], coef[p:], float(np.mean(resid**2)), resid, min(lam_long, lam)


def gram_loop(cols, y):
    """Normal equations of ``y`` on the columns, one elementwise product
    summed per Gram entry: the per-pair loop ``arma.fit`` used before it
    built its Gram matrices from lag products.  Returns (gram, rhs)."""
    k = len(cols)
    gram = np.empty((k, k))
    rhs = np.empty(k)
    for i, ci in enumerate(cols):
        for j in range(i, k):
            gram[i, j] = gram[j, i] = np.sum(ci * cols[j])
        rhs[i] = np.sum(ci * y)
    return gram, rhs
