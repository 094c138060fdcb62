"""The benchmark names each traced span ``<module>.<function>`` after the
kmsflow function it calls (``perfbench/workloads.py``).  A function moved to
another module would give its span a new name, and the per-layer metric of
the old name would read 0 busy seconds; these tests keep the names in step
with the code."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from kmsflow import cli

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_busy_spans() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BUSY_SPANS


BUSY_SPANS = load_busy_spans()
CLI_SPANS = [s for s in BUSY_SPANS if s.startswith("cli.")]
FUNCTION_SPANS = [s for s in BUSY_SPANS if not s.startswith("cli.")]


@pytest.mark.parametrize("span", FUNCTION_SPANS)
def test_span_function_lives_in_its_module(span):
    module_name, fn_name = span.split(".")
    module = importlib.import_module(f"kmsflow.{module_name}")
    fn = getattr(module, fn_name)
    assert callable(fn)
    assert fn.__module__ == f"kmsflow.{module_name}"
    assert fn.__name__ == fn_name


@pytest.mark.parametrize("span", CLI_SPANS)
def test_cli_span_is_a_command(span, capsys):
    # CLI spans are named after the subcommand the benchmark runs
    with pytest.raises(SystemExit) as exc:
        cli.main([span.split(".")[1], "--help"])
    assert exc.value.code == 0
