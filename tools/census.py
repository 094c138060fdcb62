"""Census of the verdicts of ``kmsflow derive --method both`` over seeded
ensembles.

    python3 tools/census.py > census.json

For each instance the script runs ``derive --method both --n N --seed S``
in-process, with the ensemble's ``--kraus-rank`` or ``--cond-bound``, and
prints one JSON object keyed ``ensemble/n/seed``, whose value is

    {"failed": ["result.check", ...], "m": {"gns": m, "kraus": m}}

where ``result`` is the key of the failing report under the derive report's
``results``, or ``{"error": type}``, the derive report's error type, when an
object cannot be built.  Two runs are compared by comparing their output.

It covers 760 instances: the default ensemble at n = 2..4, seeds 0-199;
Kraus rank 1 at n = 3..5 and ranks 2 and 3 at n = 3..6; ``cond_bound`` 1e6,
1e7 and 1e8 at n = 3..5; each of the last six at seeds 0-7.  BLAS runs at 1
thread, so a run is reproducible on one machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kmsflow import cli  # noqa: E402
from kmsflow.reports import Report  # noqa: E402

# name -> (derive flags, dimensions, seed count)
ENSEMBLES = {
    "default": ((), range(2, 5), 200),
    "kraus_rank_1": (("--kraus-rank", "1"), range(3, 6), 8),
    "kraus_rank_2": (("--kraus-rank", "2"), range(3, 7), 8),
    "kraus_rank_3": (("--kraus-rank", "3"), range(3, 7), 8),
    "cond_1e6": (("--cond-bound", "1e6"), range(3, 6), 8),
    "cond_1e7": (("--cond-bound", "1e7"), range(3, 6), 8),
    "cond_1e8": (("--cond-bound", "1e8"), range(3, 6), 8),
}


def verdict(n: int, seed: int, flags=()) -> dict:
    """The failing checks and m per route of ``derive --method both`` on
    one instance, or the error type of its report."""
    argv = ["derive", "--method", "both", "--n", str(n), "--seed", str(seed), *flags]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(argv)
    report = json.loads(out.getvalue())
    if "error" in report:
        return {"error": report["error"]["type"]}
    results = dict(report["results"])
    dims = results.pop("dims")
    failed = [
        f"{key}.{c.name}"
        for key, rep in results.items()
        for c in Report.from_json_dict(rep).checks
        if not c.passed()
    ]
    return {"failed": failed, "m": {"gns": dims["gns"]["m"], "kraus": dims["kraus"]["m"]}}


def census(names, dims=None, seeds=None) -> dict:
    """``verdict`` of every instance of the named ensembles, keyed
    ``ensemble/n/seed``; ``dims`` and ``seeds`` replace each ensemble's own."""
    out = {}
    for name in names:
        flags, own_dims, own_seeds = ENSEMBLES[name]
        for n in own_dims if dims is None else dims:
            for seed in range(own_seeds if seeds is None else seeds):
                out[f"{name}/{n}/{seed}"] = verdict(n, seed, flags)
    return out


if __name__ == "__main__":
    print(json.dumps(census(ENSEMBLES), indent=1))
