"""One workload process, started by run.py with the BLAS thread count pinned.

It imports kmsflow from this checkout, runs one untimed warm-up op, then runs
timed ops in a closed loop (one caller, the next op starts when the last one
ends) until the run time is used up, and prints one JSON line.  After each
op it times the reference block of hostref.py, about once per REF_EVERY_S
of op time, so that op latencies can be given in units of the block's
median.  With
--setup-only it stops after the warm-up, so run.py can time set-up again in
a fresh interpreter.  With --trace, every second timed op records spans; the
spans are written to perfbench/out/ at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# Op i of a run with seed s uses instance seed s * OP_SEED_STRIDE + i; op 0 is
# the warm-up.
OP_SEED_STRIDE = 100_000
MAX_LOGGED_ERRORS = 5
# One reference block per this many seconds of op time, at least one per op.
REF_EVERY_S = 0.2
REF_WARMUP = 5


def attempt(op, rec, seed: int, workdir: Path, errors: list) -> bool:
    """Run one op; any exception is a failed op, never retried."""
    try:
        with rec.span("op"):
            op(rec, seed, workdir)
        return True
    except Exception as exc:
        if len(errors) < MAX_LOGGED_ERRORS:
            errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
        return False


def environment() -> dict:
    import numpy
    import scipy

    def blas(config) -> str:
        return config["Build Dependencies"]["blas"].get("openblas configuration", "")

    return {
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
    }


def latency_stats(lat: list) -> tuple:
    """(median, p90) of op latencies."""
    if len(lat) == 1:
        return lat[0], lat[0]
    return statistics.median(lat), statistics.quantiles(lat, n=10, method="inclusive")[8]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import kmsflow

    if Path(kmsflow.__file__).resolve().parent != ROOT / "src" / "kmsflow":
        print(f"kmsflow was imported from {kmsflow.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import hostref
    import workloads
    from spans import NullRecorder, Recorder

    op = workloads.WORKLOADS[args.workload]
    null = NullRecorder()
    errors: list = []
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ok = attempt(op, null, args.seed * OP_SEED_STRIDE, workdir, errors)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready, "failed": int(not ok), "errors": errors}))
            return 0
        attempted, failed = 1, int(not ok)

        for _ in range(REF_WARMUP):
            hostref.block()
        rec = Recorder() if args.trace else None
        lat = {False: [], True: []}
        refs = []
        certified_ops = 0
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < args.seconds:
            i += 1
            traced = rec is not None and i % 2 == 0
            if traced:
                rec.op_id = i
            t0 = time.perf_counter()
            ok = attempt(op, rec if traced else null,
                         args.seed * OP_SEED_STRIDE + i, workdir, errors)
            lat[traced].append(time.perf_counter() - t0)
            refs.extend(hostref.block()
                        for _ in range(max(1, round(lat[traced][-1] / REF_EVERY_S))))
            attempted += 1
            failed += not ok
            certified_ops += ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    result = {
        "ready": ready,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "env": env,
    }
    ref_s = statistics.median(refs)
    result["ref_s"] = ref_s
    result["ref_samples"] = len(refs)
    if rec is None:
        p50, p90 = latency_stats(lat[False])
        op_time = sum(lat[False])
        result["samples"] = len(lat[False])
        result["wall"] = {"ops_per_s": certified_ops / op_time, "op_s_p50": p50, "op_s_p90": p90}
        result["metrics"] = {
            "ops_per_kref": 1000.0 * certified_ops * ref_s / op_time,
            "op_ref_p50": p50 / ref_s,
            "op_ref_p90": p90 / ref_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        traced_ops = len(lat[True])
        overhead = (
            statistics.median(lat[True]) / statistics.median(lat[False]) - 1.0
            if lat[True] and lat[False] else 0.0
        )
        result["samples"] = traced_ops
        result["metrics"] = workloads.per_layer_metrics(rec, traced_ops, overhead)
        result["metrics"]["wall.op_s_p50"] = (
            statistics.median(lat[False]) if lat[False] else statistics.median(lat[True]))
        result["metrics"]["host.ref_block_s"] = ref_s
        result["units"] = workloads.per_layer_units()
        self_time = rec.self_times()
        result["self_time_s"] = self_time
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "env": env,
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": rec.spans,
            "self_time_s": self_time,
        }))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
