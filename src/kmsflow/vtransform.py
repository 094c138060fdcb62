"""The V-transform on superoperators and its inverse W.

W averages the two modular quarter-rotations of a map,

    W(S) = (Delta^{1/4} S Delta^{-1/4} + Delta^{-1/4} S Delta^{1/4}) / 2,

where Delta is the modular superoperator a -> rho a rho^{-1}.  In the
eigenbasis of Delta both W and its inverse V act entrywise: the matrix
element coupling Delta-eigenvalues (lam_a, lam_b) is multiplied by

    w = ((lam_a/lam_b)^{1/4} + (lam_b/lam_a)^{1/4}) / 2      for W,
    v = 1 / w                                                for V.

Since w >= 1 the closed-form V is unconditionally stable and contractive;
it is the production path.  V is thus the Schur multiplier v in the
eigenbasis of Delta, and its CPTP certificate reads v directly: V is
completely positive iff v is positive semidefinite, and trace preserving and
unital iff diag(v) = 1, at every n.  The integral representation

    V(S) = 2 int_0^inf Delta^{1/4} e^{-r Delta^{1/2}} S
                       Delta^{1/4} e^{-r Delta^{1/2}} dr

is evaluated by the trapezoid rule and kept solely as a cross-validation
oracle.  The nodes are uniform, so each rule's sum of exponentials
e^{-r_k (sqrt(lam_a) + sqrt(lam_b))} is a finite geometric series and is
summed in closed form.  That is an exact identity for the rule, not for the
integral: the sum keeps the rule's discretisation error and truncation tail
and never uses the multiplier v, so the oracle stays independent of the
closed form it checks.  The same multipliers apply verbatim to
algebra-level maps, where the quarter-rotations are sigma_{+-i/4}, so both
levels share one implementation.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InsufficientRange
from .matrix_core import DensityContext, dagger, eigenbasis_multiply, opnorm
from .reports import Check, Report
from .superop import Superoperator, is_markov_l2

QUADRATURE_CONDITION_LIMIT = 1e6
TAIL_TARGET = 1e-14  # auto range target; the precondition itself is 1e-12
TAIL_BOUND_LIMIT = 1e-8


def _w_multiplier(ctx: DensityContext) -> np.ndarray:
    """Entrywise multiplier of W in the eigenbasis of Delta:
    w = cosh(log(lam_a / lam_b) / 4) for the coupled eigenvalues."""
    q = ctx.superop_log_spectrum
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


def _trapezoid_sum(pre: np.ndarray, s_pair: np.ndarray, h: float, intervals: int) -> np.ndarray:
    """Trapezoid rule of step h on the nodes r_k = k h, k = 0..N (N =
    ``intervals``), for 2 int pre e^{-r s_pair} dr, summed as the geometric
    series in q = e^{-h s_pair}:  2 pre h [(1 - q^{N+1}) / (1 - q) - (1 + q^N) / 2]."""
    x = h * s_pair
    geometric = np.expm1(-(intervals + 1) * x) / np.expm1(-x)
    return 2.0 * pre * h * (geometric - 0.5 * (1.0 + np.exp(-intervals * x)))


def v_transform_quadrature(
    s: Superoperator,
    ctx: DensityContext,
    r_max: float | None = None,
    steps: int = 20000,
    invert_delta: bool = False,
):
    """Trapezoid quadrature of the integral representation of V.

    Cross-validation oracle only.  The fine rule has ``steps`` intervals of
    width h = r_max / steps and the coarse rule every second node at step 2h;
    each is summed over its nodes in closed form (see the module docstring),
    so the cost does not grow with ``steps``.  ``invert_delta=True`` integrates the
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
    log_lam = ctx.superop_log_spectrum
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

    fine_coef = _trapezoid_sum(pre, s_pair, r_max / steps, steps)
    coarse_coef = _trapezoid_sum(pre, s_pair, 2.0 * r_max / steps, steps // 2)
    fine_mat, coarse_mat = eigenbasis_multiply(
        ctx.superop_basis, np.stack([fine_coef, coarse_coef]), s.mat
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
    on the n^2 x n^2 matrices, at every n.

    V is the Schur multiplier T -> b (v o (b* T b)) b* in the eigenbasis b
    of Delta, so every check reads the multiplier v.  The Choi matrix of V
    is unitarily congruent to sum_ij v_ij E_ij (x) E_ij, whose spectrum is
    eig(v) and n^4 - n^2 zeros: ``min_choi_eig`` is min(lambda_min(v), 0)
    (Paulsen, Completely Bounded Maps and Operator Algebras, Thm 3.7).
    ``trace_defect`` is max_i |v_ii - 1|, which certifies both trace
    preservation and unitality: tr V(T) = sum_i v_ii (b* T b)_ii for every
    T, and V(I) = b diag(v) b*, so ||V(I) - I|| is the same max_i |v_ii - 1|.
    """
    v = 1.0 / _w_multiplier(ctx)
    rep = Report(name="v_cptp", tol=tol)
    trace_defect = float(np.abs(np.diagonal(v) - 1.0).max())
    rep.checks.append(Check("trace_defect", trace_defect, tol, "le"))
    min_eig = min(float(np.linalg.eigvalsh(v)[0]), 0.0)
    rep.checks.append(Check("min_choi_eig", min_eig, -tol, "ge"))
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
