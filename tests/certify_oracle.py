"""Reference implementations for the certify path.

The library computes each of these in closed form or in one batched pass;
the functions here are the plain forms those paths are gated against:

- ``exp_probe_ccn`` tests conditional complete negativity of a generator L
  through its semigroup, as complete positivity of exp(-t L) at
  EXP_PROBE_TIMES, the oracle for ``is_ccn``'s compressed-Choi criterion.
- ``projected_gradient_cone_project`` solves the cone projection
  a ^ rho^{1/2} as min_{v >= 0} ||a - rho^{1/2} + rho^{1/4} v rho^{1/4}||_F^2
  by projected gradient, the oracle for the closed-form ``cone_project``.
- ``dykstra_recover_cp`` recovers an admissible Psi from a generator by
  Dykstra alternating projections between the affine family of resolvent
  representations and the PSD cone, the oracle for the closed-form
  ``recover_cp_from_generator``.  ``loop_resolvent_columns`` builds the
  columns of its Choi system and KMS guard one Hermitian basis element at a
  time, through the public superoperator algebra.
- ``trapezoid_coefficients`` is one trapezoid rule of the integral
  representation of V summed node by node, from a table of exponentials
  with one row per node, so a test can evaluate the fine and the coarse rule
  of ``v_transform_quadrature`` separately.  The library sums the same
  rules in closed form as geometric series; both evaluate the rule, not the
  integral, and neither reads the closed-form multiplier of V.
- ``dense_schur_choi`` is the Choi matrix of the Schur map
  T -> b (mult o (b* T b)) b* in the eigenbasis b of Delta, built as a dense
  n^4 x n^4 matrix for n <= 3.  With V's multiplier it is the Choi matrix of
  V, the oracle for ``v_transform_cptp_certificate``'s ``min_choi_eig``,
  which reads the multiplier alone.
- ``loop_trace_defect`` measures tr V(T) against tr T on random probes, one
  application of V per probe, the oracle for the certificate's
  ``trace_defect``, which reads the multiplier's diagonal alone.
- ``variational_inequality_report`` is the optimality witness of the cone
  projection, Re<a - proj, c - proj> <= tol over random cone points
  (``random_cone_point``).
- ``delta_superop`` is the modular operator Delta^power as a dense
  superoperator, against which the eigenbasis multipliers of V and W are
  checked.
- ``identity_superop`` and ``zero_superop`` are the identity and zero
  superoperators at either level, and ``random_markov_operator`` a seeded
  symmetric Markov operator exp(-t L2): inputs that only the tests build.
"""

import numpy as np

from kmsflow.errors import Infeasible
from kmsflow.generator import (
    MarkovGenerator,
    _psd_project,
    _resolvent_part,
    resolvent_generator,
)
from kmsflow.matrix_core import (
    DensityContext,
    as_matrix,
    dagger,
    descend,
    eigenbasis_multiply,
    embed,
    hermitian_basis,
    hsnorm,
    kron,
    opnorm,
)
from kmsflow.reports import Check, Report
from kmsflow.instances import random_generator
from kmsflow.superop import (
    ALGEBRA,
    L2,
    Superoperator,
    choi,
    is_cp,
    kms_adjoint,
    superop_exp,
    unvec,
    vec,
)
from kmsflow.vtransform import _w_multiplier

TRACE_TRIALS = 20  # probe pairs of loop_trace_defect
# times t at which ``exp_probe_ccn`` probes exp(-t L) for complete positivity
EXP_PROBE_TIMES = (1e-3, 1e-2, 1e-1, 1.0)


def exp_probe_ccn(lgen: Superoperator, tol: float = 1e-9) -> bool:
    """Whether exp(-t L) passes ``is_cp`` at ``tol`` at every time in
    EXP_PROBE_TIMES: a semigroup probe of conditional complete negativity."""
    return all(is_cp(superop_exp(lgen, t), tol=tol).passed for t in EXP_PROBE_TIMES)


def projected_gradient_cone_project(
    ctx: DensityContext,
    a,
    tol: float = 1e-10,
    max_iter: int = 50000,
):
    """Projection a ^ rho^{1/2} by projected gradient on v >= 0, with the
    exact smoothness constant 2 max(p): the quadratic's Hessian acts
    entrywise with eigenvalues 2 (p_a p_b)^{1/2}.  Convergence is declared at
    relative step < tol."""
    a = as_matrix(a, ctx.dim)
    a = 0.5 * (a + dagger(a))
    r = a - ctx.sqrt_rho
    quarter = ctx.quarter_rho
    step = 1.0 / (2.0 * ctx.p.max())
    v = _psd_project(-descend(ctx, r))
    for _ in range(max_iter):
        grad = 2.0 * (quarter @ (r + quarter @ v @ quarter) @ quarter)
        v_new = _psd_project(v - step * grad)
        move = hsnorm(v_new - v)
        v = v_new
        if move <= tol * max(1.0, hsnorm(v)):
            return ctx.sqrt_rho - embed(ctx, v)
    raise RuntimeError(f"cone projection did not converge in {max_iter} iterations")


def _real_stack(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag], axis=-1)


def loop_resolvent_columns(ctx: DensityContext, basis: np.ndarray):
    """(Choi columns, KMS-guard columns) of the recovery, one basis element
    per iteration."""
    cols = []
    sym_cols = []
    for h in basis:
        part = _resolvent_part(ctx, h)
        cols.append(_real_stack(vec(choi(part))))
        sym_cols.append(_real_stack((part - kms_adjoint(part, ctx)).mat.ravel()))
    return np.column_stack(cols), np.column_stack(sym_cols)


def dykstra_recover_cp(
    gen: MarkovGenerator, max_iter: int = 5000, tol: float = 1e-8
):
    """Recover a KMS-symmetric completely positive Psi reproducing the
    generator through the resolvent representation.

    Parametrizes m = Psi(I) over Hermitian matrices, restricts to the
    (numerically computed) subspace where Psi_m = lmul(k) + rmul(k*) - L is
    KMS-symmetric, and runs Dykstra alternating projections between that
    affine family of Choi matrices and the PSD cone.  The round-trip
    L(Psi) = L holds identically on the affine family, so the only
    certification left to reach is Choi positivity.

    The KMS guard's null space comes from a thin SVD of its 2n^4 x n^2
    constraint matrix.

    Returns (psi, report).  Raises Infeasible after max_iter without a PSD
    point; the report carries the best min-eigenvalue reached.
    """
    ctx = gen.ctx
    n = gen.dim
    basis = hermitian_basis(n)

    # KMS-symmetry constraint: homogeneous and, for Hermitian m, satisfied
    # identically; the null space is computed anyway as a guard.
    choi_cols, a_sym = loop_resolvent_columns(ctx, basis)
    _, svals, vt = np.linalg.svd(a_sym, full_matrices=False)
    cutoff = 1e-10 * max(1.0, svals.max(initial=0.0))
    kms_null = vt.T[:, svals <= cutoff]

    a_choi = choi_cols @ kms_null
    a_pinv = np.linalg.pinv(a_choi, rcond=1e-12)
    c_l = choi(gen.L)
    c0 = -_real_stack(vec(c_l))

    def affine_project(z: np.ndarray):
        phi = a_pinv @ (_real_stack(vec(z)) - c0)
        r = c0 + a_choi @ phi
        half = r.size // 2
        return unvec(r[:half] + 1j * r[half:], n * n), phi

    feas_tol = 0.5 * ctx.tol
    x = affine_project(np.zeros((n * n, n * n), dtype=complex))[0]
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    best_min_eig = -np.inf
    iterations = 0
    converged = False
    phi = None
    for iterations in range(1, max_iter + 1):
        y = _psd_project(x + p)
        p = x + p - y
        x, phi = affine_project(y + q)
        q = y + q - x
        min_eig = float(np.linalg.eigvalsh(0.5 * (x + dagger(x))).min())
        best_min_eig = max(best_min_eig, min_eig)
        scale = max(1.0, opnorm(x))
        if min_eig >= -feas_tol * scale:
            converged = True
            break

    rep = Report(name="recover_cp", tol=tol)
    rep.metrics.update(
        {
            "iterations": iterations,
            "best_min_choi_eig": best_min_eig,
            "kms_null_dim": int(kms_null.shape[1]),
        }
    )
    if not converged:
        rep.checks.append(Check("feasible", 0.0, 1.0, "ge"))
        raise Infeasible(
            f"no PSD point found within {max_iter} iterations "
            f"(best min eigenvalue {best_min_eig:.3e})",
            rep,
        )

    theta = kms_null @ phi
    m = sum(t * h for t, h in zip(theta, basis))
    psi = _resolvent_part(ctx, m) - gen.L
    # Round trip through the public representation: recompute m from psi.
    roundtrip = opnorm(resolvent_generator(psi, ctx).mat - gen.L.mat)
    rep.checks.append(Check("roundtrip_residual", roundtrip, tol * max(1.0, gen.L.norm), "le"))
    rep.checks.append(
        Check("min_choi_eig", float(np.linalg.eigvalsh(choi(psi)).min()),
              -ctx.tol * max(1.0, opnorm(choi(psi))), "ge")
    )
    return psi, rep


def trapezoid_coefficients(lam: np.ndarray, nodes: np.ndarray, h: float) -> np.ndarray:
    """c[a, b] = 2 sum_k wts_k lam_a^{1/4} lam_b^{1/4} e^{-r_k (sqrt(lam_a)+sqrt(lam_b))}
    for the trapezoid weights wts of step h on ``nodes``."""
    sq = np.sqrt(lam)
    wts = np.full(nodes.size, h)
    wts[0] = wts[-1] = 0.5 * h
    e = np.sqrt(wts)[:, None] * np.power(lam, 0.25)[None, :] * np.exp(
        -nodes[:, None] * sq[None, :]
    )
    return 2.0 * (e.T @ e)


def dense_schur_choi(ctx: DensityContext, mult: np.ndarray) -> np.ndarray:
    """Choi matrix of T -> b (mult o (b* T b)) b*, b = ``ctx.superop_basis``,
    through the dense n^4 x n^4 superoperator of the map; n <= 3."""
    if ctx.dim > 3:
        raise ValueError(f"the dense Choi oracle is gated at n <= 3, got n = {ctx.dim}")
    q = kron(ctx.superop_basis.conj(), ctx.superop_basis)
    m = q @ np.diag(vec(mult)) @ dagger(q)
    return choi(Superoperator(m, ctx.dim**2, L2))


def loop_trace_defect(ctx: DensityContext) -> float:
    """max |tr V(P) - 1| and |tr V(T) - tr T| over TRACE_TRIALS probe pairs:
    per trial a random rank-one projector P, then a random matrix T, drawn in
    that order from the seed-0 generator and each passed through V alone."""
    n2 = ctx.dim**2
    v = 1.0 / _w_multiplier(ctx)
    rng = np.random.default_rng(0)
    trace_defect = 0.0
    for _ in range(TRACE_TRIALS):
        vvec = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
        vvec /= np.linalg.norm(vvec)
        proj = np.outer(vvec, vvec.conj())
        image = eigenbasis_multiply(ctx.superop_basis, v, proj)
        trace_defect = max(trace_defect, abs(np.trace(image) - 1.0))
        t = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
        image = eigenbasis_multiply(ctx.superop_basis, v, t)
        trace_defect = max(trace_defect, abs(np.trace(image) - np.trace(t)))
    return float(trace_defect)


def random_cone_point(ctx: DensityContext, rng: np.random.Generator) -> np.ndarray:
    """A random element of the cone rho^{1/2} - L2_+."""
    n = ctx.dim
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v = g @ dagger(g) * rng.uniform(0.1, 2.0)
    return ctx.sqrt_rho - embed(ctx, v)


def variational_inequality_report(
    ctx: DensityContext, a, proj, trials: int = 100, seed: int = 0, tol: float = 1e-9
) -> Report:
    """Optimality witness for the cone projection: Re<a - proj, c - proj> <= tol
    for random cone points c."""
    a = as_matrix(a, ctx.dim)
    proj = as_matrix(proj, ctx.dim)
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(trials):
        c = random_cone_point(ctx, rng)
        val = float(np.real(np.trace(dagger(a - proj) @ (c - proj))))
        worst = max(worst, val)
    rep = Report(name="cone_variational_inequality", tol=tol)
    rep.checks.append(Check("max_inner_product", worst, tol, "le"))
    return rep


def delta_superop(ctx: DensityContext, power: float = 1.0, level: str = L2) -> Superoperator:
    """Delta^power as a superoperator: a -> rho^power a rho^{-power}."""
    rp = ctx.power(power)
    rm = ctx.power(-power)
    return Superoperator(kron(rm.T, rp), ctx.dim, level)


def identity_superop(n: int, level: str = ALGEBRA) -> Superoperator:
    return Superoperator(np.eye(n * n, dtype=complex), n, level)


def zero_superop(n: int, level: str = ALGEBRA) -> Superoperator:
    return Superoperator(np.zeros((n * n, n * n), dtype=complex), n, level)


def random_markov_operator(n: int, seed: int):
    """A seeded symmetric Markov operator on the standard form, produced as
    exp(-t L2) of a seeded generator, t drawn from the seed."""
    gen, _ = random_generator(n, seed)
    t = float(np.random.default_rng(seed + 7919).uniform(0.2, 2.0))
    return gen.ctx, superop_exp(gen.L2, t)
