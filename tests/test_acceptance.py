"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 4 (MSE direction on the default synthetic seasonal dataset) is
a known honest failure; see the assertion message for the measured
numbers and the README for the analysis.
"""
import math
import time
from pathlib import Path

import numpy as np

from trafficast import arma, cli, evaluate, kalman, preprocess, synth
from trafficast.series import TimeSeries

import reference

FIXTURE = Path(__file__).parent / "fixtures" / "reference_tables.json"


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def _default_stationary_dataset():
    raw = synth.gen_seasonal_traffic(synth.SeasonalSpec())
    return preprocess.pipeline(raw)


def test_c1_kalman_steady_state_gain():
    start = time.perf_counter()
    model, init = kalman.default_local_level(0.01, 0.01)
    trace = kalman.predict_series(model, np.zeros(250), init)
    analytic = (math.sqrt(5.0) - 1.0) / 2.0
    oracle = reference.local_level_gain_sequence(0.01, 0.01, 1.0, 250)
    gap_analytic = abs(trace.gain_series[199] - analytic)
    gap_oracle = float(np.max(np.abs(trace.gain_series - oracle)))
    elapsed = time.perf_counter() - start
    _report(
        "C1 steady-state gain hits the Riccati root by step 200",
        gap_analytic < 1e-6 and gap_oracle < 1e-10 and elapsed < 1.0,
        f"|gain-root|={gap_analytic:.2e}, |gain-recursion|={gap_oracle:.2e}, {elapsed:.2f}s",
    )


def test_c2_kalman_optimality_on_true_model():
    start = time.perf_counter()
    model, _ = kalman.default_local_level(0.01, 0.01)
    _, measurements = synth.gen_linear_gaussian(model, 0.0, 100_000, seed=99)
    z = measurements.values
    _, init = kalman.default_local_level(0.01, 0.01, x0=z[0])
    trace = kalman.predict_series(model, measurements, init)
    kf_mse = evaluate.mse(trace.predictions, z, skip=1)
    target = reference.riccati_prior_fixed_point(0.01, 0.01) + 0.01
    naive_mse = evaluate.mse(z[:-1], z[1:])
    const_mse = evaluate.mse(np.full(z.size - 1, z.mean()), z[1:])
    elapsed = time.perf_counter() - start
    _report(
        "C2 filter MSE matches steady innovation variance and beats baselines",
        abs(kf_mse - target) / target < 0.10
        and kf_mse < naive_mse
        and kf_mse < const_mse
        and elapsed < 5.0,
        f"kf={kf_mse:.6f} target={target:.6f} naive={naive_mse:.6f} "
        f"const={const_mse:.3f}, {elapsed:.2f}s",
    )


def test_c3_arma_estimator_consistency():
    start = time.perf_counter()
    cases = [
        (2, 0, [0.5, -0.3], []),
        (2, 1, [0.6, -0.2], [0.3]),
        (3, 0, [0.4, -0.3, 0.2], []),
    ]
    worst_coef = 0.0
    worst_mse_rel = 0.0
    yw_ok = True
    for p, q, theta, phi in cases:
        true = arma.ArmaModel(p=p, q=q, theta=theta, phi=phi, sigma2=1.0)
        sim = arma.simulate(true, 10_000, seed=2000 + 10 * p + q)
        fitted, _ = arma.fit(sim, p, q)
        errs = np.concatenate([fitted.theta - theta, fitted.phi - phi])
        worst_coef = max(worst_coef, float(np.max(np.abs(errs))))
        preds = arma.predict_series(true, sim)
        rolling = evaluate.mse(preds.values, sim.values, skip=true.burn_in)
        worst_mse_rel = max(worst_mse_rel, abs(rolling - true.sigma2) / true.sigma2)
        if q == 0:  # independent Yule-Walker route must agree for pure AR
            yw = reference.yule_walker(sim.values, p)
            yw_ok = yw_ok and bool(np.max(np.abs(yw - theta)) <= 0.1)
    elapsed = time.perf_counter() - start
    _report(
        "C3 coefficients recovered within 0.1 and true-model MSE within 5% of sigma2",
        worst_coef <= 0.1 and worst_mse_rel < 0.05 and yw_ok and elapsed < 30.0,
        f"max|coef err|={worst_coef:.4f}, max MSE rel err={worst_mse_rel:.4f}, "
        f"yule-walker agrees={yw_ok}, {elapsed:.2f}s",
    )


def test_c4_mse_direction_on_default_seasonal_dataset():
    start = time.perf_counter()
    stationary = _default_stationary_dataset()
    skip = 2  # the larger of the two predictors' burn-ins
    model, _ = arma.fit(stationary, 2, 1)
    arma_mse = evaluate.mse(
        arma.predict_series(model, stationary).values, stationary.values, skip=skip
    )
    kf_model, init = kalman.default_local_level(
        0.01, 0.01, x0=float(stationary.values[0])
    )
    kf_mse = evaluate.mse(
        kalman.predict_series(kf_model, stationary, init).predictions,
        stationary.values,
        skip=skip,
    )
    ratio = kf_mse / arma_mse
    elapsed = time.perf_counter() - start
    # Published reference ratio on capture set A: 0.024 / 0.089 ~= 0.27
    # (reported for context, not asserted).
    _report(
        "C4 KF/ARMA(2,1) MSE ratio below 1 on the default seasonal dataset",
        ratio < 1.0 and elapsed < 30.0,
        f"kf={kf_mse:.4f} arma={arma_mse:.4f} ratio={ratio:.3f} "
        f"(published reference ratio ~0.27), {elapsed:.2f}s. "
        "The mandated centering stage removes the slow level component a "
        "random-walk filter tracks, leaving a near-white series on which a "
        "fixed-gain filter cannot beat a fitted linear predictor.",
    )


def test_c5_kf_at_least_10x_faster_than_arma21():
    start = time.perf_counter()
    stationary = _default_stationary_dataset()

    def arma_task():
        model, _ = arma.fit(stationary, 2, 1)
        arma.predict_series(model, stationary)

    def kf_task():
        model, init = kalman.default_local_level(
            0.01, 0.01, x0=float(stationary.values[0])
        )
        kalman.predict_series(model, stationary, init)

    # Medians of 25 runs each: the KF task takes about 0.1 ms, so over a
    # few runs one or two scheduler stalls would decide the gate.
    t_arma = evaluate.time_predictor(arma_task, repetitions=25)
    t_kf = evaluate.time_predictor(kf_task, repetitions=25)
    elapsed = time.perf_counter() - start
    _report(
        "C5 KF fit+predict at least 10x faster than ARMA(2,1) on n=5000",
        t_arma >= 10.0 * t_kf and elapsed < 60.0,
        f"arma={t_arma*1e3:.2f}ms kf={t_kf*1e3:.3f}ms ratio={t_arma/t_kf:.1f}x, "
        f"{elapsed:.2f}s",
    )


def test_c6_preprocessing_exactness():
    start = time.perf_counter()
    cfg = preprocess.PreprocessConfig(window_len=10, overlap_fraction=0.5)
    x = np.sin(np.arange(100.0) * 0.37) + 2.0
    frames = preprocess.frame_count(100, cfg.window_len, cfg.hop)
    centered = preprocess.box_center(TimeSeries(x), cfg)
    constant = preprocess.pipeline(TimeSeries(np.full(100, 7.0)), cfg)
    scaled = preprocess.scale(centered).values
    mean_gap = abs(float(scaled.mean()))
    std_gap = abs(float(scaled.std(ddof=1)) - 1.0)
    elapsed = time.perf_counter() - start
    _report(
        "C6 framing counts, constant-kill and z-score moments are exact",
        frames == 19
        and len(centered) == 100
        and constant.values.tolist() == [0.0] * 100
        and mean_gap < 1e-12
        and std_gap < 1e-12,
        f"frames={frames} out_len={len(centered)} |mean|={mean_gap:.1e} "
        f"|std-1|={std_gap:.1e}, {elapsed:.2f}s",
    )


def test_c7_repro_command_is_deterministic(tmp_path):
    start = time.perf_counter()
    outputs = []
    for run in ("one", "two"):
        outdir = tmp_path / run
        status = cli.main(
            ["repro-paper", "--seed", "42", "--out", str(outdir), "--timing-reps", "1"]
        )
        assert status == 0
        files = sorted(p.name for p in outdir.glob("*.csv"))
        blob = {name: (outdir / name).read_bytes() for name in files if name != "time_grid.csv"}
        outputs.append(blob)
    same = outputs[0] == outputs[1]
    has_predictions = any(n.startswith("predictions_") for n in outputs[0])
    elapsed = time.perf_counter() - start
    _report(
        "C7 repeated seeded runs give byte-identical MSE grids and predictions",
        same and "mse_grid.csv" in outputs[0] and has_predictions,
        f"{len(outputs[0])} artifacts compared, {elapsed:.1f}s",
    )


def test_c8_reference_fixture_renders_verbatim():
    start = time.perf_counter()
    report = evaluate.report_from_json(FIXTURE.read_text())
    md = evaluate.render_report(report, "markdown")
    mse_row_a = "| A | 0.10 | 0.089 | 0.091 | 0.092 | 0.093 | 0.024 |"
    time_row_e = "| E | 12 | 20 | 21 | 21 | 20 | 0.48 |"
    elapsed = time.perf_counter() - start
    _report(
        "C8 published comparison tables render cell-for-cell verbatim",
        mse_row_a in md and time_row_e in md,
        f"rows matched, {elapsed:.2f}s",
    )
