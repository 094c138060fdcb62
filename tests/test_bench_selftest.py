"""The benchmark's own self-test, run in the suite: BENCHMARK.json matches
the metrics the benchmark reports, and each sign-flipped-Psi negative control
(certification, derivation pipeline, CLI exit code) counts as a failed op.
A gate dropped from a constructor that let the bad input through would turn
a control into a pass.  The perfbench files are loaded read-only, as in
``test_bench_spans.py``."""

import importlib.util
import sys
from pathlib import Path

import pytest

SELFTEST_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"
# the sibling modules selftest.py imports from perfbench/ by their bare names
BENCH_MODULES = ("run", "workloads", "spans", "worker", "hostref")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def selftest(monkeypatch):
    # selftest.py pins the thread variables and prepends to sys.path on
    # import; both are restored after the test, and its modules dropped
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_selftest", SELFTEST_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def test_benchmark_json_matches_the_code(selftest):
    assert selftest.check_benchmark_json() == []


def test_every_negative_control_fails(selftest, tmp_path, capsys):
    assert selftest.negative_controls(tmp_path) == []
    counted = capsys.readouterr().out.count("counted as failed:")
    assert counted == 3
