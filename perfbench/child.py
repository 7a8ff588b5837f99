"""One benchmark process: a fresh interpreter that runs ``trafficast.cli.main``
once, or the traced layer sweep.

Usage: python3 perfbench/child.py '<json job>'

A ``main`` job is ``{"argv": [...], "spans": path or null, "run_id": str}``.
The last line of standard output is a JSON object holding the monotonic
time just before ``cli.main`` was called (the parent subtracts its spawn
time to get ``setup_s``), the call's duration, its exit status and the
process's peak resident memory.  A ``sweep`` job is
``{"sweep": {...}, "seed": n}`` and prints the sweep's metrics; an
``{"environment": true}`` job prints what the results depend on.
"""
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import trafficast.cli as cli  # noqa: E402  (setup_s covers this import)


def run_main(job: dict) -> dict:
    tracer = None
    if job.get("spans"):
        from tracer import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
    setup_end = time.monotonic()
    status = cli.main(job["argv"])
    wall_s = time.monotonic() - setup_end
    if tracer is not None:
        tracer.uninstall()
        Path(job["spans"]).write_text(json.dumps(tracer.spans_out()), encoding="utf-8")
    return {"setup_end": setup_end, "wall_s": wall_s, "status": status, "peak_rss_mb": peak_rss_mb()}


def peak_rss_mb() -> float:
    """This process's peak resident memory.

    ``ru_maxrss`` of a spawned process starts at its parent's resident size
    at the fork, so the kernel's high-water mark of the process's own
    address space (``VmHWM``) is read where the system provides it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """What the results depend on, as found: nothing here is overridden."""
    import os

    import numpy as np
    from trafficast.evaluate import describe_environment

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "describe_environment": describe_environment(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        },
        # Without bytecode caching every run compiles the program: part of setup_s.
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    if "sweep" in job:
        import sweep

        result = sweep.run(job["sweep"], job["seed"])
    elif "environment" in job:
        result = environment()
    else:
        result = run_main(job)
    print(json.dumps(result))
