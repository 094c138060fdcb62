"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N]

Checks, with BLAS pinned to 1 thread as in the benchmark:

1. BENCHMARK.json names exactly the workloads and metrics the code reports.
2. Negative controls: an op fed a sign-flipped Psi counts as failed on each
   workload's op body (certification, derivation pipeline, CLI exit code).
3. Repeatability: each workload's op run twice on one seed gives identical
   exact counts (dim_h, family sizes, calculus bytes, report bytes) and
   identical report verdicts.

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from kmsflow import instances, serialize  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullRecorder, Recorder  # noqa: E402
from worker import attempt  # noqa: E402

# Counts that must repeat exactly; cli.timings_coverage is a ratio of times.
EXACT_COUNTS = tuple(name for name, unit in workloads.COUNTS if unit != "fraction")


def check_benchmark_json() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.UNITS:
        problems.append(f"end_to_end {e2e} != {run.UNITS}")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layer != workloads.per_layer_units():
        problems.append("per_layer names or units differ from workloads.per_layer_units()")
    return problems


def negative_controls(workdir: Path) -> list:
    """Each control must be counted as a failed op."""
    null = NullRecorder()
    ctx, psi = instances.random_instance(2, 0)
    gen, _ = instances.random_generator(2, 0)
    flipped = workdir / "psi-flipped.json"
    serialize.dump_json(serialize.superop_to_json(-1.0 * psi), str(flipped))
    argv = ["derive", "--method", "both", "--n", "2", "--seed", "0", "--psi", str(flipped)]
    controls = {
        "certify with sign-flipped Psi":
            lambda rec, seed, wd: workloads.certify_instance(rec, ctx, -1.0 * psi, seed),
        "derivation with sign-flipped Psi":
            lambda rec, seed, wd: workloads.derive_instance(rec, gen, -1.0 * psi),
        "cli derive with sign-flipped Psi":
            lambda rec, seed, wd: workloads.derive_and_verify(rec, argv, wd / "neg.json"),
    }
    problems = []
    for name, op in controls.items():
        errors: list = []
        if attempt(op, null, 0, workdir, errors):
            problems.append(f"negative control passed: {name}")
        else:
            print(f"  counted as failed: {name}: {errors[0]}")
    return problems


def repeatability(seed: int, workdir: Path) -> list:
    problems = []
    for name, op in workloads.WORKLOADS.items():
        runs = []
        for _ in range(2):
            rec = Recorder()
            errors: list = []
            if not attempt(op, rec, seed, workdir, errors):
                problems.append(f"{name}: op failed: {errors[0]}")
                break
            counts = {k: v for k, v in rec.counts.items() if k in EXACT_COUNTS}
            runs.append((counts, rec.verdicts))
        else:
            (counts_a, verdicts_a), (counts_b, verdicts_b) = runs
            if counts_a != counts_b:
                problems.append(f"{name}: counts differ {counts_a} != {counts_b}")
            if verdicts_a != verdicts_b:
                problems.append(f"{name}: verdicts differ")
            print(f"  {name}: {len(verdicts_a)} verdicts, counts {counts_a}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out"))
    try:
        problems = check_benchmark_json()
        print("negative controls:")
        problems += negative_controls(workdir)
        print(f"repeatability on seed {args.seed}:")
        problems += repeatability(args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
