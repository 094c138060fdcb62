"""The V-transform on superoperators and its inverse W.

W averages the two modular quarter-rotations of a map,

    W(S) = (Delta^{1/4} S Delta^{-1/4} + Delta^{-1/4} S Delta^{1/4}) / 2,

where Delta is the modular superoperator a -> rho a rho^{-1}.  In the
eigenbasis of Delta both W and its inverse V act entrywise: the matrix
element coupling Delta-eigenvalues (lam_a, lam_b) is multiplied by

    w = ((lam_a/lam_b)^{1/4} + (lam_b/lam_a)^{1/4}) / 2      for W,
    v = 1 / w                                                for V.

Since w >= 1 the closed-form V is unconditionally stable and contractive;
it is the production path.  The integral representation

    V(S) = 2 int_0^inf Delta^{1/4} e^{-r Delta^{1/2}} S
                       Delta^{1/4} e^{-r Delta^{1/2}} dr

is implemented as a plain trapezoid quadrature and kept solely as a
cross-validation oracle.  The same multipliers apply verbatim to
algebra-level maps, where the quarter-rotations are sigma_{+-i/4}, so both
levels share one implementation.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InsufficientRange
from .matrix_core import DensityContext, dagger, eigenbasis_multiply, opnorm
from .reports import Check, Report
from .superop import (
    L2,
    Superoperator,
    choi,
    is_markov_l2,
    vec,
)

QUADRATURE_CONDITION_LIMIT = 1e6
TAIL_TARGET = 1e-14  # auto range target; the precondition itself is 1e-12
TAIL_BOUND_LIMIT = 1e-8


def delta_superop(ctx: DensityContext, power: float = 1.0, level: str = L2) -> Superoperator:
    """Delta^power as a superoperator: a -> rho^power a rho^{-power}."""
    rp = ctx.power(power)
    rm = ctx.power(-power)
    return Superoperator(np.kron(rm.T, rp), ctx.dim, level)


def _w_multiplier(ctx: DensityContext) -> np.ndarray:
    """Entrywise multiplier of W in the eigenbasis of Delta:
    w = cosh(log(lam_a / lam_b) / 4) for the coupled eigenvalues."""
    q = ctx.log_ratio.ravel(order="F")  # log lam, vec order
    return np.cosh((q[:, None] - q[None, :]) / 4.0)


def _entrywise(s: Superoperator, ctx: DensityContext, mult: np.ndarray) -> Superoperator:
    if s.dim != ctx.dim:
        raise DimensionMismatch("superoperator and context dimensions differ")
    return Superoperator(eigenbasis_multiply(ctx.superop_basis, mult, s.mat), s.dim, s.level)


def w_transform(s: Superoperator, ctx: DensityContext) -> Superoperator:
    """The averaged modular rotation of a superoperator (inverse of V)."""
    return _entrywise(s, ctx, _w_multiplier(ctx))


def v_transform(s: Superoperator, ctx: DensityContext) -> Superoperator:
    """Closed-form V-transform: inverse of :func:`w_transform`.

    Unital (identity maps to identity) and contractive in operator norm;
    preserves KMS symmetry and complete positivity of the input map.
    """
    return _entrywise(s, ctx, 1.0 / _w_multiplier(ctx))


def v_transform_quadrature(
    s: Superoperator,
    ctx: DensityContext,
    r_max: float | None = None,
    steps: int = 20000,
    invert_delta: bool = False,
):
    """Trapezoid quadrature of the integral representation of V.

    Cross-validation oracle only.  ``invert_delta=True`` integrates the
    alternative representation with Delta replaced by Delta^{-1} (the same
    prefactor 2 applies; consistency with the closed form pins the constant).

    Returns ``(transformed, info)`` where ``info`` reports the truncation
    tail bound and the step-doubling difference.  Raises InsufficientRange
    when rho is too ill-conditioned or the tail bound exceeds 1e-8.
    """
    if steps < 1000:
        raise ValueError("quadrature oracle requires steps >= 1000")
    if steps % 2:
        steps += 1
    if ctx.condition > QUADRATURE_CONDITION_LIMIT:
        raise InsufficientRange(
            f"condition number {ctx.condition:.3e} exceeds "
            f"{QUADRATURE_CONDITION_LIMIT:.0e}; quadrature would under-resolve the tail"
        )
    log_lam = ctx.log_ratio.ravel(order="F")
    lam = np.exp(-log_lam if invert_delta else log_lam)
    sq = np.sqrt(lam)
    if r_max is None:
        r_max = float(-np.log(TAIL_TARGET) / (2.0 * sq.min()))
    if np.exp(-2.0 * sq.min() * r_max) > 1e-12:
        raise InsufficientRange(
            f"r_max = {r_max:.3g} leaves exp(-2 sqrt(lam_min) r_max) > 1e-12"
        )

    snorm = s.norm
    pre = np.power(np.outer(lam, lam), 0.25)
    s_pair = sq[:, None] + sq[None, :]
    tail_coef = float((2.0 * pre * np.exp(-r_max * s_pair) / s_pair).max())
    tail_bound = tail_coef * snorm
    if tail_bound > TAIL_BOUND_LIMIT * max(1.0, snorm):
        raise InsufficientRange(
            f"truncation tail bound {tail_bound:.3e} exceeds {TAIL_BOUND_LIMIT:.0e}"
        )

    # c[a, b] = 2 sum_k wts_k lam_a^{1/4} lam_b^{1/4} e^{-r_k (sqrt(lam_a)+sqrt(lam_b))}
    # from one table on the fine nodes: the coarse rule takes every second
    # node at twice the fine weight, endpoints too, so with G the Gram
    # matrices of the even and odd rows, c_fine = 2 (G_even + G_odd) and
    # c_coarse = 4 G_even.
    h = r_max / steps
    nodes = np.linspace(0.0, r_max, steps + 1)
    wts = np.full(nodes.size, h)
    wts[0] = wts[-1] = 0.5 * h
    e = np.sqrt(wts)[:, None] * np.power(lam, 0.25)[None, :] * np.exp(
        -nodes[:, None] * sq[None, :]
    )
    g_even = e[::2].T @ e[::2]
    g_odd = e[1::2].T @ e[1::2]
    c_fine = 2.0 * (g_even + g_odd)
    c_coarse = 4.0 * g_even

    fine_mat, coarse_mat = eigenbasis_multiply(
        ctx.superop_basis, np.stack([c_fine, c_coarse]), s.mat
    )
    fine = Superoperator(fine_mat, s.dim, s.level)
    info = {
        "r_max": float(r_max),
        "steps": int(steps),
        "tail_bound": float(tail_bound),
        "step_doubling_diff": float(opnorm(fine.mat - coarse_mat)),
        "invert_delta": bool(invert_delta),
    }
    return fine, info


def v_transform_cptp_certificate(ctx: DensityContext, tol: float = 1e-9) -> Report:
    """Certify V itself as a unital completely positive trace-preserving map
    on the n^2 x n^2 matrices.

    Complete positivity goes through the n^4 x n^4 Choi matrix of V, which is
    feasible for n <= 3; for larger n only the unitality and trace checks run.
    """
    n = ctx.dim
    b = ctx.superop_basis
    v = 1.0 / _w_multiplier(ctx)
    n2 = n * n

    def v_apply(t: np.ndarray) -> np.ndarray:
        return eigenbasis_multiply(b, v, t)

    rep = Report(name="v_cptp", tol=tol)
    unital_defect = opnorm(v_apply(np.eye(n2, dtype=complex)) - np.eye(n2))
    rep.checks.append(Check("unital_defect", unital_defect, tol, "le"))

    rng = np.random.default_rng(0)
    trace_defect = 0.0
    for _ in range(20):
        vvec = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
        vvec /= np.linalg.norm(vvec)
        proj = np.outer(vvec, vvec.conj())
        trace_defect = max(trace_defect, abs(np.trace(v_apply(proj)) - 1.0))
        t = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
        trace_defect = max(trace_defect, abs(np.trace(v_apply(t)) - np.trace(t)))
    rep.checks.append(Check("trace_defect", float(trace_defect), tol, "le"))

    if n <= 3:
        q = np.kron(b.conj(), b)
        m_v = q @ (np.diag(vec(v))) @ dagger(q)
        as_super = Superoperator(m_v, n2, L2)
        c = choi(as_super)
        w_eigs = np.linalg.eigvalsh(0.5 * (c + dagger(c)))
        rep.checks.append(Check("min_choi_eig", float(w_eigs.min()), -tol, "ge"))
        rep.metrics["choi_dim"] = c.shape[0]
    else:
        rep.metrics["choi_skipped"] = f"n={n} > 3"
    return rep


def markov_preservation_check(
    t: Superoperator, ctx: DensityContext, tol: float = 1e-9
) -> Report:
    """Check that V maps a symmetric Markov operator to a symmetric Markov
    operator.

    Precondition gate: the input must itself certify as a Markov operator and
    be self-adjoint on the standard form; a failed gate is reported (not
    raised) and the transform is not evaluated.
    """
    rep = Report(name="markov_preservation", tol=tol)
    pre = is_markov_l2(t, ctx, tol=tol)
    sym_defect = opnorm(t.mat - dagger(t.mat))
    rep.checks.append(
        Check("precondition_markov", 1.0 if pre.passed else 0.0, 1.0, "ge")
    )
    rep.checks.append(
        Check("precondition_symmetric", sym_defect, tol * max(1.0, t.norm), "le")
    )
    rep.metrics["precondition"] = {c.name: c.value for c in pre.checks}
    if not rep.passed:
        rep.metrics["transformed"] = "skipped (precondition failed)"
        return rep
    post = is_markov_l2(v_transform(t, ctx), ctx, tol=tol)
    rep.checks.extend(post.checks)
    rep.metrics["transformed_norm"] = post.metrics["norm"]
    return rep
