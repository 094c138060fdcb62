"""Stage timings and peak memory of ``kmsflow derive --method both``, one
fresh process per dimension.

    python3 tools/stages.py --n 4 5 6 7 8 --seed 1 [--kraus-rank R]
        [--cond-bound C] [--src PATH]

For each n the script starts a new Python process that imports kmsflow from
``--src`` (this checkout's ``src`` by default), runs ``derive --method both
--n N --seed S`` through ``cli.main``, with ``--kraus-rank`` and
``--cond-bound`` passed on when given, and prints one JSON line:

    {"n": N, "seed": S, "kraus_rank": R, "cond_bound": C, "exit": code,
     "wall_s": s, "ru_maxrss_mb": MB, "timings_s": {stage: s, ...},
     "m": {"gns": m, "kraus": m}, "failed": ["result.check", ...]}

where a flag not given reads null (derive's own default ran).

``wall_s`` is the time of ``cli.main`` alone, ``ru_maxrss_mb`` the peak
resident set of the whole process, import included, and ``timings_s`` the
report's own stage timings.  When the report carries an error, ``m`` and
``failed`` give way to ``"error": type``, and a process that dies before
its line leaves ``exit`` and the last line of its ``stderr``.  Pointing
``--src`` at the ``src`` of another checkout measures that tree in the same
session, so two trees can be compared cell by cell.  BLAS runs at 1 thread.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# one derive run in a fresh process, argv the options after ``--method
# both``: prints its JSON line but for the options, with the failing checks
# recomputed by the tree's own ``Report``
CHILD = """
import contextlib, io, json, resource, sys, time
from kmsflow import cli
from kmsflow.reports import Report
argv = ["derive", "--method", "both", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()) as out:
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
report = json.loads(out.getvalue())
line = {"exit": code, "wall_s": wall, "ru_maxrss_mb": rss_mb,
        "timings_s": report.get("timings_s", {})}
if "error" in report:
    line["error"] = report["error"]["type"]
else:
    results = report["results"]
    dims = results.pop("dims")
    line["m"] = {"gns": dims["gns"]["m"], "kraus": dims["kraus"]["m"]}
    line["failed"] = [f"{key}.{c.name}" for key, rep in results.items()
                      for c in Report.from_json_dict(rep).checks if not c.passed()]
print(json.dumps(line))
"""


def stage(n: int, seed: int, src: Path, kraus_rank: int | None,
          cond_bound: float | None) -> dict:
    """The JSON line of one ``derive --method both`` run in a fresh process
    importing kmsflow from ``src``; a Kraus rank or condition bound of None
    is not passed, so derive's default runs."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = ["--n", str(n), "--seed", str(seed)]
    if kraus_rank is not None:
        argv += ["--kraus-rank", str(kraus_rank)]
    if cond_bound is not None:
        argv += ["--cond-bound", repr(cond_bound)]
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          env=env, capture_output=True, text=True)
    line = {"n": n, "seed": seed, "kraus_rank": kraus_rank, "cond_bound": cond_bound}
    if proc.returncode:
        # killed or crashed before its line: the exit status and last words
        return {**line, "exit": proc.returncode,
                "stderr": proc.stderr.strip().splitlines()[-1:]}
    return {**line, **json.loads(proc.stdout)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="derive --method both, one fresh process per n: one JSON line each")
    parser.add_argument("--n", type=int, nargs="+", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--kraus-rank", type=int, default=None)
    parser.add_argument("--cond-bound", type=float, default=None)
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src")
    args = parser.parse_args(argv)
    for n in args.n:
        line = stage(n, args.seed, args.src.resolve(), args.kraus_rank, args.cond_bound)
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
