"""kmsflow benchmark.

    python3 perfbench/run.py --workload certify|derive-small|derive-n4 \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a worker process of
its own (perfbench/worker.py) with the BLAS thread count pinned to 1 before
numpy loads, closed loop, one caller, for S seconds.  Every op is gated on
its certificates; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  Op latencies and throughput are
given in units of the median time of a fixed reference block (hostref.py)
timed between the ops of the same run, which cancels the drift of the shared
host's CPU speed; the wall-clock figures are printed beside them.  setup_s, the time from process
start to the first timed op (imports plus one untimed warm-up op), is the
median over SETUPS fresh worker processes: the measuring one and SETUPS - 1
that stop after the warm-up.  --trace 1 reports the per-module metrics of a
separate run that traces every second op and writes its spans to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "derive-small", "derive-n4")
SETUPS = 3
# Every worker must end within this many seconds of the start of the run.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "KMSFLOW_THREADS")
UNITS = {
    "ops_per_kref": "1/kref",
    "op_ref_p50": "ref",
    "op_ref_p90": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class WorkerFailed(Exception):
    pass


def spawn(cmd: list, env: dict, deadline: float) -> tuple:
    """Run one worker to completion; returns (its JSON line, seconds from
    spawn until it was ready for its first timed op)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    result = json.loads(lines[-1])
    return result, result["ready"] - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "kmsflow" / "__init__.py").is_file():
        print(f"no kmsflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env = dict(os.environ, PYTHONPATH=pythonpath, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(spawn([*cmd, "--setup-only"], env, deadline)[1])
        run_cmd = [*cmd, "--seconds", str(args.seconds)]
        result, setup = spawn([*run_cmd, "--trace"] if args.trace else run_cmd,
                              env, deadline)
        setups.append(setup)
    except WorkerFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace:
        units = result["units"]
    else:
        metrics["setup_s"] = statistics.median(setups)
        units = UNITS
    attempted, failed = result["attempted"], result["failed"]

    print("env " + json.dumps(result["env"], sort_keys=True))
    for err in result["errors"]:
        print(f"failed op: {err}")
    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops attempted "
          f"(one untimed warm-up), {failed} failed, fail_frac {failed / attempted:.4g} "
          f"(fraction); "
          f"{result['samples']} {'traced' if args.trace else 'timed'} ops in the statistics")
    if args.trace:
        print(f"spans written to {result['spans_file']}; self time per span name, "
              f"summed over the {result['samples']} traced ops:")
        for name, sec in sorted(result["self_time_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:45s} {sec:10.4f} s")
    else:
        print("setup samples " + " ".join(f"{s:.4f}" for s in setups) + " s")
        print(f"reference block: median {result['ref_s'] * 1e3:.4f} ms over "
              f"{result['ref_samples']} samples (1 ref); wall clock: "
              + ", ".join(f"{k} {v:.6g}" for k, v in result["wall"].items()))
    for name, value in metrics.items():
        print(f"  {name:50s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
