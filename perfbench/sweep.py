"""Layer sweep for the traced run: each layer's public function called on
its own at n = 5e3, 1e5 and 1e6, plus the C5 timing ratio.

Times are monotonic-clock seconds, the median of three calls below 1e6
and one call at 1e6.  Runs inside a ``child.py`` process.
"""
from __future__ import annotations

import statistics
import time

SIZES = {"n5e3": 5_000, "n1e5": 100_000, "n1e6": 1_000_000}


def run(captures: dict[str, str], seed: int) -> dict[str, float]:
    """``captures`` maps each size tag to a packet CSV with that many rows."""
    from trafficast import arma, evaluate, ingest, kalman, preprocess, synth
    from trafficast.rng import derive_seed

    metrics: dict[str, float] = {}
    for tag, n in SIZES.items():
        reps = 1 if n >= 1_000_000 else 3

        def timed(layer, fn, *args):
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                result = fn(*args)
                times.append(time.perf_counter() - start)
            metrics[f"{layer}.{tag}.s"] = statistics.median(times)
            return result

        trace = timed("ingest.load_packet_trace", ingest.load_packet_trace, captures[tag])
        timed("ingest.bin_to_rate", ingest.bin_to_rate, trace)
        del trace
        raw = synth.gen_seasonal_traffic(synth.SeasonalSpec(n=n, seed=derive_seed(seed, f"sweep-{n}")))
        cfg = preprocess.PreprocessConfig()
        logged = timed("preprocess.log_transform", preprocess.log_transform, raw)
        centered = timed("preprocess.box_center", preprocess.box_center, logged, cfg)
        stationary = timed("preprocess.scale", preprocess.scale, centered)
        model, _ = timed("arma.fit", arma.fit, stationary, 2, 1)
        arma_pred = timed("arma.predict_series", arma.predict_series, model, stationary)
        kf_model, init = kalman.default_local_level(0.01, 0.01, x0=float(stationary.values[0]))
        kf = timed("kalman.predict_series", kalman.predict_series, kf_model, stationary, init)
        timed("evaluate.render_prediction_csv", evaluate.render_prediction_csv,
              stationary.values, arma_pred.values, kf.predictions)
    metrics["kalman.c5_ratio"] = c5_ratio(seed)
    return metrics


def c5_ratio(seed: int) -> float:
    """ARMA(2,1) fit+predict time over KF time at n=5000, as test_c5 times it."""
    from trafficast import arma, evaluate, kalman, preprocess, synth
    from trafficast.rng import derive_seed

    stationary = preprocess.pipeline(
        synth.gen_seasonal_traffic(synth.SeasonalSpec(seed=derive_seed(seed, "c5")))
    )

    def arma_task():
        model, _ = arma.fit(stationary, 2, 1)
        arma.predict_series(model, stationary)

    def kf_task():
        model, init = kalman.default_local_level(0.01, 0.01, x0=float(stationary.values[0]))
        kalman.predict_series(model, stationary, init)

    return evaluate.time_predictor(arma_task, 3) / evaluate.time_predictor(kf_task, 3)
