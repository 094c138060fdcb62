"""Stage timings and peak memory of ``kmsflow derive --method both``, one
fresh process per dimension.

    python3 tools/stages.py --n 4 5 6 7 8 --seed 1 [--src PATH]

For each n the script starts a new Python process that imports kmsflow from
``--src`` (this checkout's ``src`` by default), runs ``derive --method both
--n N --seed S`` through ``cli.main`` and prints one JSON line:

    {"n": N, "seed": S, "exit": code, "wall_s": s, "ru_maxrss_mb": MB,
     "timings_s": {stage: s, ...}, "m": {"gns": m, "kraus": m},
     "failed": ["result.check", ...]}

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

# one derive run in a fresh process, argv (n, seed): prints its JSON line
# but for n and seed, with the failing checks recomputed by the tree's own
# ``Report``
CHILD = """
import contextlib, io, json, resource, sys, time
from kmsflow import cli
from kmsflow.reports import Report
argv = ["derive", "--method", "both", "--n", sys.argv[1], "--seed", sys.argv[2]]
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


def stage(n: int, seed: int, src: Path) -> dict:
    """The JSON line of one ``derive --method both`` run in a fresh process
    importing kmsflow from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", CHILD, str(n), str(seed)],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        # killed or crashed before its line: the exit status and last words
        return {"n": n, "seed": seed, "exit": proc.returncode,
                "stderr": proc.stderr.strip().splitlines()[-1:]}
    return {"n": n, "seed": seed, **json.loads(proc.stdout)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="derive --method both, one fresh process per n: one JSON line each")
    parser.add_argument("--n", type=int, nargs="+", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src")
    args = parser.parse_args(argv)
    for n in args.n:
        print(json.dumps(stage(n, args.seed, args.src.resolve())), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
