"""Reference implementations for the certify path.

The library computes each of these in closed form or in one batched pass;
the functions here are the plain forms those paths are gated against:

- ``projected_gradient_cone_project`` solves the cone projection
  a ^ rho^{1/2} as min_{v >= 0} ||a - rho^{1/2} + rho^{1/4} v rho^{1/4}||_F^2
  by projected gradient, the oracle for the closed-form ``cone_project``.
- ``loop_resolvent_columns`` builds the columns of the Choi system and of the
  KMS guard of ``recover_cp_from_generator`` one Hermitian basis element at
  a time, through the public superoperator algebra.
- ``trapezoid_coefficients`` is one trapezoid rule of the integral
  representation of V on its own nodes, so a test can evaluate the fine and
  the coarse rule of ``v_transform_quadrature`` separately.
"""

import numpy as np

from kmsflow.generator import _psd_project, _real_stack, _resolvent_part
from kmsflow.matrix_core import DensityContext, as_matrix, dagger, descend, embed, hsnorm
from kmsflow.superop import choi, kms_adjoint, vec


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
