"""Span recorder for the traced run, and the per-layer metrics built from it.

``Tracer.install`` puts a timing wrapper on each public function at the
module attribute its caller looks the name up through: ``cli`` imports
``compare``, ``run_predictor``, ``pipeline`` and others by name, so those
wrappers go on ``trafficast.cli``; ``evaluate`` and ``preprocess`` resolve
their callees through their own module globals.  Spans stay in memory and
are written out once the run has ended.  Nothing in the program changes.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time

# (module the name is looked up in, attribute, span name)
TARGETS = [
    ("trafficast.cli", "main", "cli.main"),
    ("trafficast.cli", "load_run_config", "cli.load_run_config"),
    ("trafficast.cli", "run_pipeline", "cli.run_pipeline"),
    ("trafficast.cli", "load_packet_trace", "ingest.load_packet_trace"),
    ("trafficast.cli", "bin_to_rate", "ingest.bin_to_rate"),
    ("trafficast.cli", "write_series_csv", "ingest.write_series_csv"),
    ("trafficast.cli", "gen_seasonal_traffic", "synth.gen_seasonal_traffic"),
    ("trafficast.cli", "pipeline", "preprocess.pipeline"),
    ("trafficast.cli", "pipeline_with_stages", "preprocess.pipeline_with_stages"),
    ("trafficast.preprocess", "pipeline_with_stages", "preprocess.pipeline_with_stages"),
    ("trafficast.preprocess", "log_transform", "preprocess.log_transform"),
    ("trafficast.preprocess", "box_center", "preprocess.box_center"),
    ("trafficast.preprocess", "scale", "preprocess.scale"),
    ("trafficast.cli", "compare", "evaluate.compare"),
    ("trafficast.cli", "run_predictor", "evaluate.run_predictor"),
    ("trafficast.evaluate", "run_predictor", "evaluate.run_predictor"),
    ("trafficast.evaluate", "time_predictor", "evaluate.time_predictor"),
    ("trafficast.cli", "render_report", "evaluate.render_report"),
    ("trafficast.cli", "grid_csv", "evaluate.grid_csv"),
    ("trafficast.cli", "render_prediction_csv", "evaluate.render_prediction_csv"),
    ("trafficast.arma", "fit", "arma.fit"),
    ("trafficast.arma", "predict_series", "arma.predict_series"),
    ("trafficast.kalman", "default_local_level", "kalman.default_local_level"),
    ("trafficast.kalman", "predict_series", "kalman.predict_series"),
]

# Spans whose arguments or result carry a count.  Only O(1) work happens
# while the program runs; the rest is resolved by ``Tracer.spans_out``.
_KEEP = {
    "ingest.load_packet_trace": lambda args, result: {"path": str(args[0]), "kept": len(result)},
    "ingest.bin_to_rate": lambda args, result: {"bins": len(result)},
    "preprocess.box_center": lambda args, result: {
        "n": len(args[0]), "window": args[1].window_len, "hop": args[1].hop},
    "arma.fit": lambda args, result: {"stationary": bool(result[1].ar_stationary)},
    "arma.predict_series": lambda args, result: {"samples": len(result)},
    "kalman.predict_series": lambda args, result: {"gains": result.gains},
    "evaluate.compare": lambda args, result: {
        "cells": len(result.datasets) * len(result.predictors)},
}


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span and
    the run ID shared by every span of the run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, kept]
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock, keep = self.spans, self._stack, time.perf_counter, _KEEP.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep is not None:
                span[4] = keep(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                self._installed.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def spans_out(self) -> list[dict]:
        """The recorded spans as JSON-ready dicts, counts resolved."""
        t0 = self.spans[0][1] if self.spans else 0.0
        out = []
        for i, (name, start, end, parent, kept) in enumerate(self.spans):
            span = {"id": i, "run_id": self.run_id, "name": name, "parent": parent,
                    "start": start - t0, "end": end - t0}
            if kept:
                span.update(_resolve(kept))
            out.append(span)
        return out


def _resolve(kept: dict) -> dict:
    kept = dict(kept)
    if "path" in kept:
        with open(kept.pop("path"), "rb") as fh:
            kept["rows"] = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
    if "window" in kept:
        kept["frames"] = (kept.pop("n") - kept["window"]) // kept.pop("hop") + 1
    if "gains" in kept:
        g = kept.pop("gains")[:, 0, 0]
        repeats = (g[1:] == g[:-1]).nonzero()[0]
        kept["settle_step"] = int(repeats[0]) + 1 if repeats.size else len(g)
    return kept


TIMED_LAYERS = [
    "ingest.load_packet_trace", "ingest.bin_to_rate", "synth.gen_seasonal_traffic",
    "preprocess.log_transform", "preprocess.box_center", "preprocess.scale",
    "arma.fit", "arma.predict_series", "kalman.default_local_level", "kalman.predict_series",
    "evaluate.run_predictor", "evaluate.time_predictor", "evaluate.compare",
    "evaluate.render_report", "evaluate.grid_csv", "evaluate.render_prediction_csv",
    "cli.load_run_config", "cli.run_pipeline",
]
CALL_COUNTS = ["arma.fit", "arma.predict_series", "kalman.predict_series", "evaluate.run_predictor"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run.  Times are self times: a span's
    duration minus the time its child spans cover."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + span["end"] - span["start"]
        calls[span["name"]] = calls.get(span["name"], 0) + 1
        if span["parent"] is not None:
            parent = spans[span["parent"]]["name"]
            self_s[parent] -= span["end"] - span["start"]

    def total(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    rows = total("ingest.load_packet_trace", "rows")
    run_calls = calls.get("evaluate.run_predictor", 0)
    settle = [s["settle_step"] for s in spans if "settle_step" in s]
    metrics = {f"{name}.s": self_s.get(name, 0.0) for name in TIMED_LAYERS}
    metrics.update({f"{name}.calls": calls.get(name, 0) for name in CALL_COUNTS})
    metrics.update({
        "ingest.load_packet_trace.rows": rows,
        "ingest.load_packet_trace.kept_ratio":
            total("ingest.load_packet_trace", "kept") / rows if rows else 0.0,
        "ingest.bins": total("ingest.bin_to_rate", "bins"),
        "preprocess.frames": total("preprocess.box_center", "frames"),
        "arma.fit.nonstationary":
            sum(1 for s in spans if s["name"] == "arma.fit" and not s["stationary"]),
        "arma.predict_series.samples": total("arma.predict_series", "samples"),
        "kalman.settle_step": max(settle, default=0),
        "evaluate.useful_run_ratio":
            total("evaluate.compare", "cells") / run_calls if run_calls else 0.0,
    })
    return metrics


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}
