"""Smoke test of ``tools/census.py``, the verdict census of seeded
instances."""

import json

import numpy as np
import pytest

from kmsflow.errors import CertificationFailed, SchemaError
from kmsflow.superop import L2, Superoperator
from conftest import census_tool


def test_default_ensemble_at_n2():
    out = json.loads(json.dumps(census_tool().census(["default"], dims=[2], seeds=2)))
    # n = 2: both routes keep all n^2 - 1 directions, and every check of
    # derive and of simulate passes
    assert out == {
        f"default/2/{seed}": {"failed": [], "m": {"gns": 3, "kraus": 3}, "simulate": []}
        for seed in (0, 1)
    }


def test_default_range_has_760_instances():
    ensembles = census_tool().ENSEMBLES.values()
    assert sum(len(dims) * seeds for _, dims, seeds in ensembles) == 760


def test_an_instance_that_cannot_be_built_is_named(monkeypatch):
    def refuse(n, seed, **options):
        raise CertificationFailed("generator failed ccn certification")

    monkeypatch.setattr("kmsflow.instances.random_generator", refuse)
    assert census_tool().census(["cond_1e8"], dims=[3], seeds=1) == {
        "cond_1e8/3/0": {"error": "certification", "simulate": {"error": "certification"}}
    }


def test_failing_simulate_checks_are_named(monkeypatch):
    # 2 id moves the cyclic vector and nothing else: each of the three
    # Markov reports fails its fixed-point check alone, and derive is untouched
    def doubled(gen, t):
        return Superoperator(2.0 * np.eye(gen.dim**2), gen.dim, L2)

    monkeypatch.setattr("kmsflow.generator.evolve", doubled)
    out = census_tool().census(["default"], dims=[2], seeds=1)["default/2/0"]
    assert out["failed"] == []
    assert out["simulate"] == [
        f"markov_t={t}.cyclic_fix_defect" for t in ("0.1", "1", "10")
    ]


def test_an_entry_that_is_no_report_raises():
    # only the named non-report keys are passed over
    failed = census_tool()._failed
    assert failed({"dims": {"n": 2}, "chernoff_residuals": {"8": 0.1}}) == []
    with pytest.raises(AttributeError):
        failed({"cyclic_energy": 0.5})
    with pytest.raises(SchemaError):
        failed({"cp": {"checks": {"name": "min_choi_eig"}}})
