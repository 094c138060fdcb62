import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import kmsflow as kf

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")


@functools.cache
def census_tool():
    """``tools/census.py``, the verdict census of seeded instances, loaded
    from its file: it is a script, not a module of the package."""
    path = Path(__file__).resolve().parents[1] / "tools" / "census.py"
    spec = importlib.util.spec_from_file_location("kmsflow_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def cached_generator(n: int, seed: int):
    """Seeded generator shared across tests (construction is deterministic)."""
    return kf.random_generator(n, seed)


@functools.lru_cache(maxsize=None)
def cached_gns(n: int, seed: int):
    gen, psi = cached_generator(n, seed)
    return kf.gns_calculus(gen)


def stored_bytes(arr: np.ndarray) -> int:
    """The bytes of the array that owns ``arr``'s memory, reached through
    ``base``: a view's own ``nbytes`` is its logical size."""
    owner = arr
    while not (isinstance(owner, np.ndarray) and owner.flags.owndata):
        owner = owner.base
    return owner.nbytes


def assert_window_layout(arr: np.ndarray, n: int, dim_h: int) -> None:
    """pi_l or pi_r of a calculus on H of dimension dim_h: read-only for good
    (its memory is read-only too, so the flag cannot be set back), and
    stored in fewer than 4 dim_h^2 + n^2 entries, where the dense
    (n, n, dim_h, dim_h) array holds n^2 dim_h^2."""
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr.flags.writeable = True
    assert stored_bytes(arr) < arr.itemsize * (4 * dim_h**2 + n**2)


def rng_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.fixture
def ctx2():
    return kf.DensityContext.from_rho(np.diag([0.75, 0.25]))


@pytest.fixture
def ctx_tracial2():
    return kf.DensityContext.from_rho(np.eye(2) / 2)
