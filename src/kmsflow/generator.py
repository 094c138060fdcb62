"""KMS-symmetric Markov generators and their Dirichlet forms.

A certified :class:`MarkovGenerator` bundles the algebra-level generator L
(annihilating the identity, KMS-symmetric, conditionally completely
negative), its standard-form implementation L2 = embed o L o descend, and the
certification reports.

Generators are built from completely positive data through

    L(A) = (1 + sigma_{-i/2})^{-1}(Psi(I)) A
         + A (1 + sigma_{+i/2})^{-1}(Psi(I)) - Psi(A)

for a KMS-symmetric completely positive Psi; the two resolvent coefficients
are mutual adjoints, and the partial-fraction identity
(1+s)^{-1} + (1+1/s)^{-1} = 1 makes L(I) = 0 automatic.  The inverse problem
(recovering an admissible Psi from a certified L) is solved in closed form:
the compressed Choi matrix of -L that certifies conditional complete
negativity is the Choi matrix of an admissible Psi.

The quadratic form E(a) = <a, L2 a> on the standard form is the Dirichlet
form of the semigroup; this module also provides the cone projection
a -> a ^ rho^{1/2} (nearest point of rho^{1/2} - L2_+ in the real
Hilbert-Schmidt metric, in closed form from one eigendecomposition) and the
contraction and product-inequality checks that characterize Dirichlet forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificationFailed,
    Infeasible,
    NotJFixed,
    PreconditionFailed,
)
from .matrix_core import (
    DensityContext,
    as_matrix,
    dagger,
    eigenbasis_multiply,
    hilbert_algebra_product,
    hsnorm,
    opnorm,
)
from .reports import Check, Report
from .superop import (
    Superoperator,
    compressed_choi,
    is_ccn,
    is_cp,
    is_kms_symmetric,
    lmul,
    rmul,
    superop_exp,
    superop_from_choi,
    to_l2,
    unital_kernel_report,
)
from .vtransform import v_transform


def modular_resolvent(ctx: DensityContext, m, half: float) -> np.ndarray:
    """(1 + sigma_{-i*half})^{-1} applied entrywise in rho's eigenbasis.

    ``half=+0.5`` gives (1 + sigma_{-i/2})^{-1}, whose entry (a, b) divisor is
    1 + (p_a/p_b)^{1/2};  ``half=-0.5`` gives (1 + sigma_{+i/2})^{-1}.
    The spectrum of the divisor is contained in (1, inf), so this is always
    well conditioned.
    """
    m = as_matrix(m, ctx.dim)
    return eigenbasis_multiply(ctx.u, 1.0 / (1.0 + np.exp(half * ctx.log_ratio)), m)


def _resolvent_part(ctx: DensityContext, m) -> Superoperator:
    """X -> k X + X k* with k = (1 + sigma_{-i/2})^{-1}(Herm m)."""
    k = modular_resolvent(ctx, 0.5 * (m + dagger(m)), +0.5)
    return lmul(k) + rmul(dagger(k))


def resolvent_generator(psi: Superoperator, ctx: DensityContext) -> Superoperator:
    """The generator L = k . + . k* - Psi of the resolvent representation,
    k = (1 + sigma_{-i/2})^{-1}(Herm Psi(I))."""
    return _resolvent_part(ctx, psi.apply(np.eye(psi.dim))) - psi


@dataclass(frozen=True, eq=False)
class MarkovGenerator:
    """A certified Markov generator with its standard-form implementation."""

    L: Superoperator
    L2: Superoperator
    ctx: DensityContext
    certificates: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.L.dim

    @property
    def tol(self) -> float:
        return self.ctx.tol


def certify_generator(lgen: Superoperator, ctx: DensityContext, tol: float | None = None) -> MarkovGenerator:
    """Certify L(I) = 0, KMS symmetry and conditional complete negativity,
    and attach the KMS implementation L2.

    The certificates run in that order, and the first that fails raises
    CertificationFailed carrying its report before the next is computed.
    L(I) = 0 is measured once, by ``unital_kernel``: ``is_ccn``'s criterion
    does not read it.
    """
    tol = ctx.tol if tol is None else tol
    certify = {
        "unital_kernel": lambda: unital_kernel_report(lgen, tol),
        "kms_symmetric": lambda: is_kms_symmetric(lgen, ctx, tol=tol),
        "ccn": lambda: is_ccn(lgen, tol=tol),
    }
    certificates = {}
    for name, run in certify.items():
        rep = certificates[name] = run()
        if not rep.passed:
            raise CertificationFailed(f"generator failed {name} certification", rep)
    return MarkovGenerator(L=lgen, L2=to_l2(lgen, ctx), ctx=ctx, certificates=certificates)


def generator_from_cp(psi: Superoperator, ctx: DensityContext, tol: float | None = None) -> MarkovGenerator:
    """Build a certified Markov generator from a KMS-symmetric completely
    positive map via the resolvent representation."""
    tol = ctx.tol if tol is None else tol
    cp = is_cp(psi, tol=tol)
    if not cp.passed:
        raise PreconditionFailed("Psi is not completely positive", cp)
    sym = is_kms_symmetric(psi, ctx, tol=tol)
    if not sym.passed:
        raise PreconditionFailed("Psi is not KMS-symmetric", sym)
    return certify_generator(resolvent_generator(psi, ctx), ctx, tol=tol)


def _psd_project(h: np.ndarray) -> np.ndarray:
    h = 0.5 * (h + dagger(h))
    w, u = np.linalg.eigh(h)
    wc = np.clip(w, 0.0, None)
    return (u * wc) @ dagger(u)


def recover_cp_from_generator(gen: MarkovGenerator, tol: float = 1e-8):
    """Recover a KMS-symmetric completely positive Psi reproducing the
    generator through the resolvent representation, in closed form.

    Psi is the map whose Choi matrix is the compressed Choi matrix
    P C(-L) P of the CCN certificate, so it is CP exactly when L is CCN.
    C(-L) - P C(-L) P lies in span{omega w* + w omega*}, the Choi matrices of
    the maps X -> aX + Xb, so Psi lies in the family -L + {X -> aX + Xb}, and
    so does its KMS adjoint, since L is KMS-symmetric.  Both Choi matrices
    annihilate omega = vec(I) (the sandwich of the KMS adjoint fixes omega),
    and only one member of the family has that property, so Psi is
    KMS-symmetric.  L + Psi is then a Hermiticity-preserving, KMS-symmetric
    map X -> aX + Xb, which is X -> kX + Xk* with
    k = (1 + sigma_{-i/2})^{-1}(Psi(I)) because (L + Psi)(I) = Psi(I): the
    round trip is exact.

    Returns (psi, report) with the checks ``roundtrip_residual`` and
    ``min_choi_eig``, the latter ``is_cp``'s check of psi at ``ctx.tol``.
    Raises Infeasible, carrying the report, when Choi positivity fails: then
    no admissible Psi exists.
    """
    ctx = gen.ctx
    c_psi = compressed_choi(gen.L)
    psi = superop_from_choi(c_psi)

    rep = Report(name="recover_cp", tol=tol)
    # Round trip through the public representation: recompute k from psi.
    roundtrip = opnorm(resolvent_generator(psi, ctx).mat - gen.L.mat)
    rep.checks.append(Check("roundtrip_residual", roundtrip, tol * max(1.0, gen.L.norm), "le"))
    min_eig = is_cp(psi, tol=ctx.tol).check("min_choi_eig")
    rep.checks.append(min_eig)
    if not min_eig.passed():
        raise Infeasible(
            f"no admissible completely positive map: -L is not CCN (min Choi "
            f"eigenvalue {min_eig.value:.3e} below {min_eig.bound:.3e})",
            rep,
        )
    return psi, rep


def _require_time(t: float) -> None:
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"Markov evolution requires a finite t >= 0, got t = {t}")


def evolve(gen: MarkovGenerator, t: float) -> Superoperator:
    """Standard-form semigroup exp(-t L2).  Raises ValueError unless t is
    finite and >= 0."""
    _require_time(t)
    return superop_exp(gen.L2, t)


def chernoff_residual(gen: MarkovGenerator, t: float, n_steps: int) -> float:
    """Operator-norm distance between the Chernoff product of V-transformed
    semigroup elements and the semigroup generated by the V-transform of L2:

        || (V(exp(-t/n L2)))^n - exp(-t V(L2)) ||.

    Raises ValueError when n_steps < 1 or t is not finite and >= 0.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    _require_time(t)
    ctx = gen.ctx
    step = v_transform(evolve(gen, t / n_steps), ctx)
    target = superop_exp(v_transform(gen.L2, ctx), t)
    return opnorm(np.linalg.matrix_power(step.mat, n_steps) - target.mat)


def dirichlet_energy(gen: MarkovGenerator, a) -> float:
    """Dirichlet form E(a) = <a, L2 a> on the standard form (real part; the
    imaginary part vanishes for a certified generator)."""
    a = as_matrix(a, gen.dim)
    return float(np.real(np.vdot(a, gen.L2.apply(a))))


def et_energy(gen: MarkovGenerator, a, t: float) -> float:
    """Truncated form E_t(a) = <a, a - exp(-t L2) a> / t, increasing to E(a)
    as t decreases to 0.  Raises ValueError unless t is finite and > 0."""
    if not (np.isfinite(t) and t > 0):
        raise ValueError(f"the truncated Dirichlet form requires a finite t > 0, got t = {t}")
    a = as_matrix(a, gen.dim)
    return float(np.real(np.vdot(a, a - superop_exp(gen.L2, t).apply(a))) / t)


def cone_project(ctx: DensityContext, a):
    """Projection a ^ rho^{1/2} onto the closed convex cone
    {rho^{1/2} - rho^{1/4} v rho^{1/4} : v >= 0} in the real Hilbert-Schmidt
    metric.

    Congruence by the invertible rho^{1/4} maps the PSD cone onto itself, so
    the cone is rho^{1/2} minus the PSD cone, and the nearest point is

        a ^ rho^{1/2} = rho^{1/2} - (rho^{1/2} - a)_+,

    with (.)_+ the positive part, from one eigendecomposition.
    """
    a = as_matrix(a, ctx.dim)
    if hsnorm(a - dagger(a)) > ctx.tol * max(1.0, hsnorm(a)):
        raise NotJFixed("cone_project requires a J-fixed (Hermitian) vector")
    a = 0.5 * (a + dagger(a))
    return ctx.sqrt_rho - _psd_project(ctx.sqrt_rho - a)


def dirichlet_contraction_check(
    gen: MarkovGenerator, trials: int = 50, tol: float = 1e-8, seed: int = 0
) -> Report:
    """Markovianity of the Dirichlet form: E(a ^ rho^{1/2}) <= E(a) for
    J-fixed a, together with J-invariance E(Ja) = E(a), each the worst over
    ``trials`` random draws.  Raises ValueError when trials < 1."""
    if trials < 1:
        raise ValueError(f"dirichlet_contraction_check requires trials >= 1, got {trials}")
    ctx = gen.ctx
    n = gen.dim
    rng = np.random.default_rng(seed)
    worst_contraction = -np.inf
    worst_j = 0.0
    for _ in range(trials):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = 0.5 * (g + dagger(g))
        proj = cone_project(ctx, a)
        worst_contraction = max(
            worst_contraction, dirichlet_energy(gen, proj) - dirichlet_energy(gen, a)
        )
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst_j = max(worst_j, abs(dirichlet_energy(gen, dagger(b)) - dirichlet_energy(gen, b)))
    rep = Report(name="dirichlet_contraction", tol=tol)
    rep.checks.append(Check("max_energy_increase", worst_contraction, tol, "le"))
    rep.checks.append(Check("max_j_invariance_defect", worst_j, tol, "le"))
    return rep


def energy_product_inequality(
    gen: MarkovGenerator, a, b, tol: float = 1e-8
) -> Report:
    """Dirichlet-form product inequality on the standard form:

        E(a.b)^{1/2} <= ||pi_l(a)|| E(b)^{1/2} + E(a)^{1/2} ||pi_r(b)||,

    where a.b = a rho^{-1/2} b is the standard-form product of vectors and
    the norms are the operator norms of the left/right multiplication
    operators (a rho^{-1/2} and rho^{-1/2} b respectively).
    """
    ctx = gen.ctx
    a = as_matrix(a, gen.dim)
    b = as_matrix(b, gen.dim)
    ab = hilbert_algebra_product(ctx, a, b)
    ea = max(dirichlet_energy(gen, a), 0.0)
    eb = max(dirichlet_energy(gen, b), 0.0)
    eab = max(dirichlet_energy(gen, ab), 0.0)
    left_norm = opnorm(a @ ctx.inv_sqrt_rho)
    right_norm = opnorm(ctx.inv_sqrt_rho @ b)
    lhs = np.sqrt(eab)
    rhs = left_norm * np.sqrt(eb) + np.sqrt(ea) * right_norm
    rep = Report(name="energy_product_inequality", tol=tol)
    rep.checks.append(Check("excess", float(lhs - rhs), tol, "le"))
    rep.metrics.update(
        {"lhs": float(lhs), "rhs": float(rhs), "pi_l_norm": left_norm, "pi_r_norm": right_norm}
    )
    return rep
