"""Seeded random instances for tests, acceptance suites and the CLI.

Every instance is a deterministic function of (n, seed): the generator state
is ``numpy.random.default_rng(seed)`` and all draws happen in a fixed order,
so the same seed reproduces bit-identical objects.  The density ensemble
bounds the condition number p_max/p_min (default 100) because the quadrature
oracle degrades on ill-conditioned states; a flag lifts the bound for stress
tests.
"""

from __future__ import annotations

import numpy as np

from .generator import generator_from_cp
from .matrix_core import DensityContext, dagger, opnorm
from .superop import from_kraus, kms_adjoint

DEFAULT_COND_BOUND = 100.0


def ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng: np.random.Generator, n: int, cond_bound: float) -> np.ndarray:
    """Random full-rank density matrix with p_max/p_min <= cond_bound."""
    logp = rng.uniform(0.0, np.log(cond_bound), size=n)
    p = np.exp(logp)
    p /= p.sum()
    u = random_unitary(rng, n)
    rho = (u * p) @ dagger(u)
    return 0.5 * (rho + dagger(rho))


def random_instance(
    n: int,
    seed: int,
    kraus_rank: int | None = None,
    cond_bound: float = DEFAULT_COND_BOUND,
    ctx: DensityContext | None = None,
):
    """A seeded (DensityContext, Psi) pair: Psi is the KMS symmetrization of
    a random Kraus-form completely positive map, rescaled to unit norm of
    Psi(I).  A fixed density context may be supplied instead of sampling one
    (the "rho": matrix variant of the instance config)."""
    if n < 2:
        raise ValueError("instance dimension must be at least 2")
    if kraus_rank is None:
        kraus_rank = n
    if kraus_rank < 1:
        raise ValueError("kraus_rank must be at least 1")
    if not (np.isfinite(cond_bound) and cond_bound >= 1.0):
        raise ValueError(f"cond_bound must be finite and at least 1, got {cond_bound}")
    rng = np.random.default_rng(seed)
    if ctx is None:
        ctx = DensityContext.from_rho(random_density(rng, n, cond_bound))
    elif ctx.dim != n:
        raise ValueError(f"supplied density has dimension {ctx.dim}, expected {n}")
    ops = [ginibre(rng, n) / np.sqrt(n) for _ in range(kraus_rank)]
    phi = from_kraus(ops)
    psi = 0.5 * (phi + kms_adjoint(phi, ctx))
    norm = opnorm(psi.apply(np.eye(n)))
    psi = (1.0 / norm) * psi
    return ctx, psi


def random_generator(
    n: int,
    seed: int,
    kraus_rank: int | None = None,
    cond_bound: float = DEFAULT_COND_BOUND,
    ctx: DensityContext | None = None,
):
    """A seeded certified Markov generator, returned with the Psi that
    produced it."""
    ctx, psi = random_instance(n, seed, kraus_rank=kraus_rank, cond_bound=cond_bound, ctx=ctx)
    gen = generator_from_cp(psi, ctx)
    return gen, psi
