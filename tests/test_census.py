"""Smoke test of ``tools/census.py``, the verdict census of seeded
instances."""

import json

from kmsflow.errors import CertificationFailed
from conftest import census_tool


def test_default_ensemble_at_n2():
    out = json.loads(json.dumps(census_tool().census(["default"], dims=[2], seeds=2)))
    # n = 2: both routes keep all n^2 - 1 directions, and every check passes
    assert out == {
        f"default/2/{seed}": {"failed": [], "m": {"gns": 3, "kraus": 3}} for seed in (0, 1)
    }


def test_default_range_has_760_instances():
    ensembles = census_tool().ENSEMBLES.values()
    assert sum(len(dims) * seeds for _, dims, seeds in ensembles) == 760


def test_an_instance_that_cannot_be_built_is_named(monkeypatch):
    def refuse(n, seed, **options):
        raise CertificationFailed("generator failed ccn certification")

    monkeypatch.setattr("kmsflow.instances.random_generator", refuse)
    assert census_tool().census(["cond_1e8"], dims=[3], seeds=1) == {
        "cond_1e8/3/0": {"error": "certification"}
    }
