"""Smoke test of ``tools/stages.py``, the per-dimension stage timings of
``derive --method both``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _lines(*args) -> list:
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "stages.py"), *args],
                          capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_one_line_per_run_at_n2(tmp_path):
    # n = 2: both routes keep all n^2 - 1 directions and every check passes;
    # a tree whose kmsflow cannot be imported leaves its exit status and
    # last words, not a crash of the tool
    (line,) = _lines("--n", "2", "--seed", "0", "--src", str(ROOT / "src"))
    assert (line["n"], line["seed"], line["exit"]) == (2, 0, 0)
    assert line["m"] == {"gns": 3, "kraus": 3} and line["failed"] == []
    assert {"generator", "gns_calculus", "commutator_calculus", "total"} <= set(line["timings_s"])
    assert line["wall_s"] > 0 and line["ru_maxrss_mb"] > 0
    (tmp_path / "kmsflow").mkdir()
    (tmp_path / "kmsflow" / "__init__.py").write_text("raise ImportError('broken tree')\n")
    (broken,) = _lines("--n", "2", "--src", str(tmp_path))
    assert broken["exit"] == 1 and broken["stderr"] == ["ImportError: broken tree"]
