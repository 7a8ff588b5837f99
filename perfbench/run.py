"""trafficast benchmark: the real ``trafficast.cli.main`` path on seeded inputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload repro_grid --seed 1 --seconds 30 --trace 0

Each timed run is a fresh ``perfbench/child.py`` process, one at a time: a
closed loop with one caller and no extra threads.  Runs repeat until
``--seconds`` have passed; every run's artifacts are checked against
reference values computed from the seed by ``oracle.py``.  ``--trace 1``
alternates untraced and traced runs instead, reports per-layer metrics
from the traced ones, checks that tracing left the artifacts byte-identical,
and ends with the layer sweep.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
TIME_LIMIT_S = 170.0  # a whole invocation of one workload ends within this

import capture  # noqa: E402
import oracle  # noqa: E402
import sweep  # noqa: E402
import tracer  # noqa: E402

GRID = ["arma:2,0", "arma:2,1", "arma:2,2", "arma:3,0", "arma:3,1", "kf:0.01,0.01"]
REPRO_DATASETS = (("A", 50.0, 20.0), ("B", 80.0, 30.0), ("C", 30.0, 12.0),
                  ("D", 65.0, 25.0), ("E", 45.0, 18.0))
CAPTURE_ROWS = 1_000_000
LONG_N = 200_000

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "success_ratio": "ratio"}


def _config(workdir: Path, seed: int, body: str) -> Path:
    path = workdir / "run.cfg"
    path.write_text(f"[run]\nseed = {seed}\noutdir = out\n\n{body}", encoding="utf-8")
    return path


def prepare_repro_grid(seed: int, workdir: Path):
    """`repro-paper` with its defaults: 5 datasets at n=5000, the 6-predictor
    grid, 3 timing reps.  Many short `arma` calls: per-call cost counts."""
    raw = {
        label: oracle.seasonal(5000, 60, amp, base, 5.0, oracle.derive_seed(seed, f"dataset-{label}"))
        for label, base, amp in REPRO_DATASETS
    }
    return ["repro-paper", "--seed", str(seed)], raw, GRID


def prepare_capture_1m(seed: int, workdir: Path):
    """`run` over a generated 1M-packet capture: ingest dominates."""
    path = capture.ensure_capture(workdir, seed, CAPTURE_ROWS)
    cfg = _config(workdir, seed, f"[ingest]\ninputs = {path}\nbin_width = 1.0\n")
    raw = {path.stem: capture.rate_counts(*capture.generate(seed, CAPTURE_ROWS))}
    return ["run", "--config", str(cfg)], raw, GRID


def prepare_long_series(seed: int, workdir: Path):
    """`run` on one n=200000 dataset, ARMA(2,1) and KF, one timing rep:
    few long calls, so per-sample cost counts."""
    specs = ["arma:2,1", "kf:0.01,0.01"]
    cfg = _config(workdir, seed, (
        f"[synth]\ndatasets = L\nn = {LONG_N}\n\n"
        f"[predictors]\nspecs = {' '.join(specs)}\n\n[eval]\ntiming_reps = 1\n"
    ))
    raw = {"L": oracle.seasonal(LONG_N, 60, 20.0, 50.0, 5.0, oracle.derive_seed(seed, "dataset-L"))}
    return ["run", "--config", str(cfg)], raw, specs


WORKLOADS = {
    "repro_grid": prepare_repro_grid,
    "capture_1m": prepare_capture_1m,
    "long_series": prepare_long_series,
}


def run_child(job: dict, deadline: float) -> tuple[dict | None, float, str]:
    """Run one ``child.py`` job, killed at ``deadline``.

    Returns (the child's result or None, its spawn time, error text).
    """
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return None, spawned, "timed out"
    if proc.returncode != 0:
        return None, spawned, f"exit status {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), spawned, ""
    except (IndexError, ValueError):
        return None, spawned, f"no result line in {proc.stdout[-200:]!r}"


def _artifacts(outdir: Path) -> dict[str, bytes]:
    """The deterministic artifacts: every CSV except the timing grid."""
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv")) if p.name != "time_grid.csv"}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = WORK / f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _measure(name, seed, seconds, trace, deadline, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(name, seed, seconds, trace, deadline, workdir) -> dict:
    argv, raw, specs = WORKLOADS[name](seed, workdir)
    expected = oracle.expected_outputs(raw, specs)
    n_cells = len(raw) * len(specs)
    # Also warms the page cache and, where Python caches bytecode, compiles it.
    env, _, error = run_child({"environment": True}, deadline)
    if env is None:
        raise RuntimeError(f"cannot start the program: {error}")

    samples: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "peak_rss_mb": [], "traced_wall_s": []}
    per_run_layers, spans, problems = [], [], []
    attempted = failed = 0

    def one_run(outdir: Path, spans_path: Path | None, run_id: str) -> bool:
        nonlocal attempted, failed
        shutil.rmtree(outdir, ignore_errors=True)
        job = {"argv": argv + ["--out", str(outdir)], "run_id": run_id,
               "spans": str(spans_path) if spans_path else None}
        result, spawned, error = run_child(job, deadline)
        attempted += n_cells
        if result is None or result["status"] != 0:
            failed += n_cells
            problems.append(f"{run_id}: {error or 'exit status %s' % result['status']}")
            return False
        bad, found = oracle.check_outputs(outdir, expected)
        failed += bad
        problems.extend(f"{run_id}: {p}" for p in found)
        if spans_path:
            samples["traced_wall_s"].append(result["wall_s"])
            run_spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans.extend(run_spans)
            per_run_layers.append(tracer.layer_metrics(run_spans))
        else:
            samples["setup_s"].append(result["setup_end"] - spawned)
            samples["wall_s"].append(result["wall_s"])
            samples["peak_rss_mb"].append(result["peak_rss_mb"])
        return not found

    stop = time.monotonic() + seconds
    k = 0
    while True:
        plain_ok = one_run(workdir / "out", None, f"{name}-{seed}-{k}")
        if trace:
            traced_ok = one_run(workdir / "out-traced", workdir / "spans.json", f"{name}-{seed}-{k}-traced")
            if plain_ok and traced_ok and _artifacts(workdir / "out") != _artifacts(workdir / "out-traced"):
                problems.append(f"{name}-{seed}-{k}: traced artifacts differ from untraced ones")
        k += 1
        if time.monotonic() >= stop:
            break
    if not samples["wall_s"] or (trace and not samples["traced_wall_s"]):
        raise RuntimeError("no run completed: " + "; ".join(problems[:3]))

    if trace:
        captures = {tag: str(capture.ensure_capture(workdir, seed, n)) for tag, n in sweep.SIZES.items()}
        swept, _, error = run_child({"sweep": captures, "seed": seed}, deadline)
        if swept is None:
            raise RuntimeError(f"layer sweep failed: {error}")
        metrics = tracer.median_metrics(per_run_layers)
        metrics.update(swept)
        traced, plain = statistics.median(samples["traced_wall_s"]), statistics.median(samples["wall_s"])
        metrics.update({"trace.wall_s": traced, "trace.untraced_wall_s": plain, "trace.overhead_s": traced - plain})
    else:
        metrics = {key: statistics.median(samples[key]) for key in ("setup_s", "wall_s", "peak_rss_mb")}
        metrics["success_ratio"] = 1.0 - failed / attempted
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": metrics, "problems": problems, "environment": {**env, "git_sha": _git_sha()},
        "samples": {key: {"n": len(v), **_spread(v)} for key, v in samples.items() if v},
        "spans": spans,
    }


def _spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    spread = {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
              "min": min(values), "max": max(values), "values": values}
    if len(values) >= 100:  # the highest percentile with ten samples beyond it
        spread["p90"] = statistics.quantiles(values, n=10)[-1]
    return spread


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else "unknown (packed ref)"
    return ref


def _unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    return "step" if metric.endswith("settle_step") else "count"


def report(result: dict) -> dict:
    """Print the human-readable summary; return the result line's object."""
    n = result["samples"]
    print(f"# {result['workload']} seed={result['seed']} trace={int(result['trace'])}: "
          f"{n['wall_s']['n']} untraced runs, {result['attempted']} grid cells, "
          f"{result['failed']} failed, correct={result['correct']}")
    for key, value in result["environment"].items():
        print(f"#   {key}: {value}")
    for key, s in n.items():
        tail = f"p90 {s['p90']:.6g}" if "p90" in s else "too few runs for a tail percentile"
        print(f"#   {key}: median {s['median']:.6g} over n={s['n']} runs "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, max {s['max']:.6g}; {tail})")
    for problem in result["problems"][:20]:
        print(f"#   problem: {problem}")
    metrics = {}
    for key, value in result["metrics"].items():
        metrics[key] = {"value": value, "unit": _unit(key)}
        print(f"{key:45s} {value:14.6g} {_unit(key)}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "trafficast" / "cli.py").is_file():
        print(f"perfbench: no trafficast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(f"# details and spans -> {out.relative_to(ROOT)}")
        lines[name] = report(result)
    if len(lines) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{name}.{key}": m for name, r in lines.items() for key, m in r["metrics"].items()},
        }))
    else:
        print(json.dumps(lines[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
