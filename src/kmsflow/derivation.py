"""First-order differential calculus of a KMS-symmetric Markov generator.

The calculus (H, pi_l, pi_r, J, delta) is produced by a GNS-type quotient:
on the tensor square of the matrix algebra, the V-transformed generator
induces the sesquilinear form

    <A1 (x) B1, A2 (x) B2>  =  -1/2 tr(B1* rho^{1/2} Lv(A1* A2) rho^{1/2} B2),

which is positive semidefinite on the subspace

    N = { sum_j A_j (x) B_j  :  sum_j A_j sigma_{-i/2}(B_j) = 0 }.

H is N modulo the numerical null space of the form; the two commuting
actions are pi_l(X): A (x) B -> XA (x) B and pi_r(X): A (x) B -> A (x) BX,
the antilinear involution is A (x) B -> -B* (x) A*, and the derivation is

    delta(A) = sigma_{-i/4}(A) (x) I  -  I (x) sigma_{i/4}(A),

satisfying the twisted Leibniz rule and <delta(A), delta(B)> = <A, L(B)>_rho.
On E_ab (x) E_cd the form is delta_aA delta_dD T[(b, c), (B, C)], and since
right multiplication by rho^{-1/2} is injective, N is the set of x with
sum_bc x_abcd (rho^{1/2})_bc = 0 for every outer pair (a, d).  So
H = C^n (x) K (x) C^n, K the quotient of (rho^{1/2})^perp in C^{n^2} by the
null space of T, and the calculus is built directly in these coordinates.

Because the bimodule is a multiple of the standard M_n bimodule, the
derivation decomposes into components delta_j(A) = rho^{1/4} [V_j, A] rho^{1/4}
for matrices V_1..V_N; the same family is reachable through the Kraus
decomposition of Xi(A) = rho^{1/4} Pv(rho^{-1/4} A rho^{-1/4}) rho^{1/4} for
an admissible completely positive Psi (Pv its V-transform).  Both routes are
implemented, each family is returned as Hermitian operators with the identity
pairing, and ``commutator_calculus`` builds the calculus of a family in the
same coordinates C^n (x) C^m (x) C^n.  A numerical isometry between the two
calculi witnesses the uniqueness of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    CertificationFailed,
    DerivationRecoveryFailure,
    GramMismatch,
    GramNotPSD,
    InconsistentPsi,
    Infeasible,
    NonIntegralMultiplicity,
    ReconstructionFailure,
)
from .generator import (
    MarkovGenerator,
    recover_cp_from_generator,
    resolvent_generator,
)
from .matrix_core import (
    DensityContext,
    as_matrix,
    dagger,
    descend,
    hilbert_algebra_product,
    opnorm,
    right_bounded_rep,
)
from .reports import Check, Report
from .superop import (
    Superoperator,
    choi,
    kms_gram,
    kraus_from_choi,
    lmul,
    rmul,
    sandwich,
    to_algebra,
)
from .vtransform import v_transform

GRAM_PSD_TOL = 1e-8
NULL_CUTOFF = 1e-10
FORM_TOL = 1e-8
COMMUTATOR_FORM_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class FirstOrderCalculus:
    """Coordinates of a first-order differential calculus.

    ``pi_l[a, b]`` / ``pi_r[a, b]`` are the (dim_h x dim_h) matrices of the
    two actions on the computational matrix unit E_ab, ``delta[a, b]`` is the
    vector delta(E_ab) in H, and the antilinear involution acts as
    ``xi -> jmat @ conj(xi)``.  ``meta`` carries construction diagnostics
    (Gram spectrum, null cutoff, dimensions).
    """

    dim_h: int
    pi_l: np.ndarray  # (n, n, dim_h, dim_h)
    pi_r: np.ndarray  # (n, n, dim_h, dim_h)
    jmat: np.ndarray  # (dim_h, dim_h)
    delta: np.ndarray  # (n, n, dim_h)
    ctx: DensityContext
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.pi_l.shape[0]

    def pi_l_of(self, x) -> np.ndarray:
        return np.tensordot(as_matrix(x, self.dim), self.pi_l, axes=2)

    def pi_r_of(self, x) -> np.ndarray:
        return np.tensordot(as_matrix(x, self.dim), self.pi_r, axes=2)

    def delta_of(self, a) -> np.ndarray:
        return np.tensordot(as_matrix(a, self.dim), self.delta, axes=2)

    def jop(self, xi) -> np.ndarray:
        return self.jmat @ np.conj(xi)


@dataclass(frozen=True, eq=False)
class CommutatorFamily:
    """Matrices V_1..V_N with the generator form sum_j <[V_j,A],[V_j,B]>_rho,
    closed under adjoints as a set through the stored involutive pairing.

    Both extraction routes return Hermitian families with the identity
    pairing: the GNS route m = dim H / n^2 traceless operators, the Kraus
    route the Hermitian normal form of Xi's Kraus operators, in Xi's gauge.
    Other pairings are accepted as given."""

    ops: tuple
    pairing: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(v, dtype=complex) for v in self.ops)
        object.__setattr__(self, "ops", ops)
        pairing = tuple(int(j) for j in self.pairing)
        object.__setattr__(self, "pairing", pairing)
        if sorted(pairing) != list(range(len(ops))):
            raise ValueError("pairing must be a permutation")
        for j, k in enumerate(pairing):
            if pairing[k] != j:
                raise ValueError("pairing must be an involution")
            if not np.array_equal(ops[k], dagger(ops[j])):
                raise ValueError("pairing does not realize adjoint closure exactly")

    def __len__(self) -> int:
        return len(self.ops)


def _quarter_units(ctx: DensityContext):
    """(s_m4, s_p4) with s_m4[a, b] = sigma_{-i/4}(E_ab) = rho^{1/4} E_ab rho^{-1/4}
    and s_p4[a, b] = sigma_{+i/4}(E_ab) = rho^{-1/4} E_ab rho^{1/4}."""
    qr = ctx.quarter_rho
    qi = ctx.inv_quarter_rho
    return np.einsum("xa,by->abxy", qr, qi), np.einsum("xa,by->abxy", qi, qr)


def _unit_perm(n: int) -> np.ndarray:
    """Permutation from row-major unit labels (a n + b) to vec indices (b n + a)."""
    return np.arange(n * n).reshape(n, n).T.ravel()


def _standard_form_calculus(
    ctx: DensityContext, delta: np.ndarray, k_j: np.ndarray, meta: dict
) -> FirstOrderCalculus:
    """The calculus on H = C^n (x) C^m (x) C^n with the given delta, of shape
    (n, n, n m n), and multiplicity block K_J (m x m).  In the coordinates
    (a, k, d), indexed (a m + k) n + d, pi_l(E) = E (x) I (x) I,
    pi_r(E) = I (x) I (x) E^T, and J is the swap of a and d tensored with
    K_J, composed with conjugation."""
    n = delta.shape[0]
    m = k_j.shape[0]
    dim_h = n * n * m
    units = np.eye(n * n, dtype=complex).reshape(n, n, n, n)  # units[p, q] = E_pq
    eye = np.eye(n, dtype=complex)
    return FirstOrderCalculus(
        dim_h=dim_h,
        pi_l=np.kron(units, np.eye(m * n)),
        # np.kron keeps a transposed operand's strides; the copy keeps pi_r C-contiguous
        pi_r=np.kron(np.eye(n * m), units.transpose(1, 0, 2, 3).copy()),
        jmat=np.einsum("xw,yz,kl->xkyzlw", eye, eye, k_j).reshape(dim_h, dim_h),
        delta=delta,
        ctx=ctx,
        meta=meta,
    )


def _traceless(ops: np.ndarray) -> np.ndarray:
    """The stack of matrices ``ops`` (N, n, n) shifted by multiples of I to trace 0."""
    n = ops.shape[-1]
    return ops - np.trace(ops, axis1=1, axis2=2)[:, None, None] / n * np.eye(n)


def _hermitian_normal_form(ops: np.ndarray, rank_tol: float):
    """Hermitian family with the commutator form of the stack ``ops`` (N, n, n).

    With X[j, l] = tr(B_l V_j) in an HS-orthonormal Hermitian basis B_l of
    M_n and Re(X* X) = W diag(lam) W^T, returns (O, lam, cutoff) where
    O_i = sqrt(lam_i) sum_l W[l, i] B_l for the lam_i above
    cutoff = rank_tol * max(lam).  Re(X* X) is the Gram of the doubled family
    {V_j / sqrt2} + {V_j* / sqrt2}, so up to the dropped eigenvalues
    sum_i O_i Y O_i = sum_j (V_j* Y V_j + V_j Y V_j*) / 2 for every Y.  For a
    family whose span is closed under adjoints X* X is real, so this is
    sum_j V_j* Y V_j and the commutator form is that of the family.
    """
    n = ops.shape[-1]
    n2 = n * n
    units = np.eye(n2, dtype=complex).reshape(n, n, n, n)  # units[a, b] = E_ab
    swapped = units.transpose(1, 0, 2, 3)  # swapped[a, b] = E_ba
    upper = np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None, None]
    # E_aa, (E_ab + E_ba) / sqrt2 for a < b and i (E_ab - E_ba) / sqrt2 for a > b
    basis = np.where(upper, units + swapped, 1j * (units - swapped)) / np.sqrt(2.0)
    basis[np.arange(n), np.arange(n)] = units[np.arange(n), np.arange(n)]
    basis = basis.reshape(n2, n2)
    x = ops.reshape(-1, n2) @ np.conj(basis).T  # tr(B_l V) with B_l Hermitian
    eigs, w = np.linalg.eigh((dagger(x) @ x).real)
    cutoff = rank_tol * eigs.max()
    keep = eigs > cutoff
    herm = ((np.sqrt(eigs[keep]) * w[:, keep]).T @ basis).reshape(-1, n, n)
    # bit-exact Hermitian, so the identity pairing is exact
    return 0.5 * (herm + np.conj(herm).transpose(0, 2, 1)), eigs, cutoff


def kms_form_of_generator(gen: MarkovGenerator) -> np.ndarray:
    """The matrix F[(ab),(cd)] = <E_ab, L(E_cd)>_rho over matrix-unit pairs
    (row-major unit labels)."""
    perm = _unit_perm(gen.dim)
    f_vec = kms_gram(gen.ctx) @ gen.L.mat
    return f_vec[np.ix_(perm, perm)]


def gns_calculus(gen: MarkovGenerator, rank_tol: float = NULL_CUTOFF) -> FirstOrderCalculus:
    """Construct the first-order calculus of a certified generator by the
    GNS quotient of the V-transformed generator, in H = C^n (x) K (x) C^n.

    With P an orthonormal basis of (rho^{1/2})^perp and P* T P = W g W*, the
    m eigenvalues above the cutoff give K = C^m, the class map
    C_mid = sqrt(g) W* P* and the lift L_mid = P W / sqrt(g).  In the
    coordinates (a, k, d), indexed (a m + k) n + d, pi_l(E) = E (x) I (x) I,
    pi_r(E) = I (x) I (x) E^T, J is the swap of a and d tensored with
    K_J = -C_mid (b <-> c swap) conj(L_mid), composed with conjugation, and

        delta(E)[a, k, d] = sum_bc C_mid[k, b, c] (sigma_{-i/4}(E)[a, b] delta_cd
                                                   - delta_ab sigma_{i/4}(E)[c, d]).

    Raises GramNotPSD when P* T P has an eigenvalue below -1e-8 * ||P* T P||
    (a non-CND input slipping through certification), and
    ReconstructionFailure when Lv misses I in its kernel, when P does not have
    n^2 - 1 columns, when delta's ambient representative leaves the
    constraint subspace, or when <delta(A), delta(B)> fails to reproduce
    <A, L(B)>_rho on the matrix units.  ``meta["gram_eigs"]`` is the (n^2 - 1)
    middle spectrum of P* T P; the Gram form restricted to N has each of
    these eigenvalues n^2 times.  No quotient map is stored.
    """
    ctx = gen.ctx
    n = gen.dim
    n2 = n * n
    eye = np.eye(n, dtype=complex)

    lcheck = to_algebra(v_transform(gen.L2, ctx), ctx)
    kernel_defect = opnorm(lcheck.apply(eye))
    kernel_bound = ctx.tol * max(1.0, lcheck.norm)
    if kernel_defect > kernel_bound:
        raise ReconstructionFailure(
            f"V-transformed generator does not annihilate I (defect {kernel_defect:.3e})",
            value=float(kernel_defect),
            bound=float(kernel_bound),
        )

    # T[(b, c), (B, C)] = -1/2 (rho^{1/2} Lv(E_bB) rho^{1/2})[c, C]; column
    # B n + b of lcheck.mat is vec(Lv(E_bB)), column-stacked
    sqrt_rho = ctx.sqrt_rho
    lv_units = lcheck.mat.reshape(n, n, n, n).transpose(3, 2, 1, 0)  # [b, B] = Lv(E_bB)
    tmid = -0.5 * (sqrt_rho @ lv_units @ sqrt_rho).transpose(0, 2, 1, 3).reshape(n2, n2)

    pbasis = scipy.linalg.null_space(sqrt_rho.reshape(1, n2))
    if pbasis.shape[1] != n2 - 1:
        raise ReconstructionFailure(
            f"middle constraint space has dimension {pbasis.shape[1]}, expected {n2 - 1}",
            value=float(pbasis.shape[1]),
            bound=float(n2 - 1),
        )
    t_p = dagger(pbasis) @ tmid @ pbasis
    eigs, w = np.linalg.eigh(0.5 * (t_p + dagger(t_p)))
    gnorm = max(abs(eigs).max(initial=0.0), 0.0)
    psd_bound = GRAM_PSD_TOL * max(gnorm, 1e-300)
    if eigs.min(initial=0.0) < -psd_bound:
        raise GramNotPSD(
            f"restricted Gram form has eigenvalue {eigs.min():.3e} "
            f"< -{GRAM_PSD_TOL:.0e} * ||G||",
            value=float(eigs.min()),
            bound=float(psd_bound),
        )
    # Anchor the cutoff both to ||G|| (relative rank decision) and to the
    # assembly noise floor of the generator, so a numerically-zero L yields
    # an empty calculus instead of amplified rounding junk.
    cutoff = rank_tol * gnorm + 1e-13 * max(1.0, gen.L.norm)
    keep = eigs > cutoff
    m = int(keep.sum())
    dim_h = n2 * m
    sqrt_g = np.sqrt(eigs[keep])
    pw = pbasis @ w[:, keep]
    c_mid = (sqrt_g[:, None] * dagger(pw)).reshape(m, n, n)
    l_mid = pw / sqrt_g[None, :]

    s_m4, s_p4 = _quarter_units(ctx)
    constraint_defect = float(np.abs(s_m4 @ sqrt_rho - sqrt_rho @ s_p4).max())
    constraint_bound = ctx.tol * max(1.0, np.abs(s_m4).max(), np.abs(s_p4).max())
    if constraint_defect > constraint_bound:
        raise ReconstructionFailure(
            f"delta leaves the constraint subspace by {constraint_defect:.3e}",
            value=constraint_defect,
            bound=float(constraint_bound),
        )
    delta = np.einsum("abxy,kyw->abxkw", s_m4, c_mid)
    delta -= np.einsum("kxz,abzw->abxkw", c_mid, s_p4)
    delta = delta.reshape(n, n, dim_h)

    l_swapped = l_mid.reshape(n, n, m).transpose(1, 0, 2).reshape(n2, m)
    k_j = -c_mid.reshape(m, n2) @ np.conj(l_swapped)
    calc = _standard_form_calculus(
        ctx,
        delta,
        k_j,
        meta={
            "gram_eigs": eigs,
            "null_cutoff": cutoff,
            "ambient_dim": n**4,
            "constraint_dim": n2 * pbasis.shape[1],
            "vgen_kernel_defect": kernel_defect,
        },
    )

    form_h = np.einsum("abi,cdi->abcd", np.conj(delta), delta).reshape(n2, n2)
    form_l = kms_form_of_generator(gen)
    defect = np.abs(form_h - form_l).max()
    form_bound = FORM_TOL * max(1.0, gen.L.norm)
    if defect > form_bound:
        raise ReconstructionFailure(
            f"<delta(A), delta(B)> deviates from <A, L(B)>_rho by {defect:.3e}",
            value=float(defect),
            bound=float(form_bound),
        )
    calc.meta["form_identity_defect"] = float(defect)
    return calc


def spanning_family(calc: FirstOrderCalculus) -> np.ndarray:
    """Matrix whose columns are pi_l(E_ab) delta(E_cd), indexed by
    ((a n + b) n + c) n + d."""
    s = np.tensordot(calc.pi_l, calc.delta, axes=([3], [2]))  # [a, b, i, c, d]
    return s.transpose(2, 0, 1, 3, 4).reshape(calc.dim_h, calc.dim**4)


def standard_form_unitary(calc: FirstOrderCalculus, basis: np.ndarray | None = None):
    """Coordinates of H as a multiple of the standard M_n bimodule.

    With matrix units F_ab = basis E_ab basis* (the computational units when
    ``basis`` is None) and eta_1..eta_r the eigenvectors of the minimal
    bimodule projection pi_l(F_00) pi_r(F_00) for eigenvalues above 1/2,
    returns ``(u_std, proj_eigs)`` where

        u_std[:, a, b, j] = pi_l(F_a0) pi_r(F_0b) eta_j

    and ``proj_eigs`` is the spectrum of the projection.  For a calculus
    H = C^n (x) C^n (x) C^m, r = m = dim H / n^2 and u_std is unitary, with
    pi_l acting on the first factor and pi_r on the second.
    """
    n = calc.dim
    basis = np.eye(n) if basis is None else basis
    f_units = np.einsum("xa,yb->abxy", basis, np.conj(basis))
    left = np.tensordot(f_units[:, 0], calc.pi_l, axes=2)  # left[a] = pi_l(F_a0)
    right = np.tensordot(f_units[0], calc.pi_r, axes=2)  # right[b] = pi_r(F_0b)
    proj = left[0] @ right[0]
    proj_eigs, vecs = np.linalg.eigh(0.5 * (proj + dagger(proj)))
    eta = vecs[:, proj_eigs > 0.5]
    u_std = left[:, None] @ (right @ eta)[None]
    return u_std.transpose(2, 0, 1, 3), proj_eigs


def calculus_invariants_report(
    calc: FirstOrderCalculus, gen: MarkovGenerator, tol: float = 1e-9
) -> Report:
    """Certify the defining properties of a first-order calculus.

    The bimodule structure is certified through the standard form: the
    coordinates U = standard_form_unitary(calc) must have n^2 r = dim H
    columns, be unitary, and intertwine pi_l(E_cd) with E_cd (x) I (x) I,
    pi_r(E_cd) with I (x) E_dc (x) I, and J with swap (x) K composed with
    complex conjugation, K the multiplicity block of J.  Together these imply
    that pi_l is a *-homomorphism, pi_r a *-antihomomorphism, the actions
    commute and J exchanges them; they cost n^2 products of size dim H
    instead of the n^4 of the pairwise matrix-unit grid.  Also certified:
    star compatibility and unitality of the actions, J antiunitary and
    involutive, delta(A*) = J delta(A), the twisted Leibniz rule, cyclicity
    of the delta-image under the left action, and the reconstruction of the
    generator form.  Defects are maximal entrywise deviations.
    """
    n = calc.dim
    ctx = calc.ctx
    d = calc.dim_h
    rep = Report(name="calculus_invariants", tol=tol)
    scale = max(1.0, gen.L.norm)
    n2 = n * n

    def _maxabs(x) -> float:
        return float(np.abs(x).max(initial=0.0))

    u_std, _ = standard_form_unitary(calc)
    r = u_std.shape[3]
    u_flat = u_std.reshape(d, n2 * r)
    multiplicity = float(d % n2 + abs(r - d // n2))
    unitarity = _maxabs(dagger(u_flat) @ u_flat - np.eye(n2 * r))
    pl_tw = pr_tw = 0.0
    for c in range(n):
        for e in range(n):
            # pi_l(E_ce) U = U (E_ce (x) I (x) I): column (e, b, j) is U[:, c, b, j]
            dl = (calc.pi_l[c, e] @ u_flat).reshape(d, n, n, r)
            dl[:, e] -= u_std[:, c]
            pl_tw = max(pl_tw, _maxabs(dl))
            # pi_r(E_ce) U = U (I (x) E_ec (x) I): column (a, c, j) is U[:, a, e, j]
            dr = (calc.pi_r[c, e] @ u_flat).reshape(d, n, n, r)
            dr[:, :, c] -= u_std[:, :, e]
            pr_tw = max(pr_tw, _maxabs(dr))
    # J conj(U) = U (swap (x) K), K read off at (a, b) = (0, 0)
    k = dagger(u_std[:, 0, 0]) @ calc.jmat @ np.conj(u_std[:, 0, 0])
    swapped = (u_std.transpose(0, 2, 1, 3).reshape(d * n2, r) @ k).reshape(d, n2 * r)
    j_tw = _maxabs(calc.jmat @ np.conj(u_flat) - swapped)
    rep.checks.append(Check("multiplicity_defect", multiplicity, 0.0, "le"))
    rep.checks.append(Check("standard_form_unitarity_defect", unitarity, tol * scale, "le"))
    rep.checks.append(Check("pi_l_intertwine_defect", pl_tw, tol * scale, "le"))
    rep.checks.append(Check("pi_r_intertwine_defect", pr_tw, tol * scale, "le"))
    rep.checks.append(Check("j_intertwine_defect", j_tw, tol * scale, "le"))

    adj = max(
        _maxabs(np.conj(calc.pi_l.transpose(0, 1, 3, 2)) - calc.pi_l.transpose(1, 0, 2, 3)),
        _maxabs(np.conj(calc.pi_r.transpose(0, 1, 3, 2)) - calc.pi_r.transpose(1, 0, 2, 3)),
    )
    unital = max(
        _maxabs(np.einsum("aaij->ij", calc.pi_l) - np.eye(d)),
        _maxabs(np.einsum("aaij->ij", calc.pi_r) - np.eye(d)),
    )
    rep.checks.append(Check("star_compatibility_defect", adj, tol * scale, "le"))
    rep.checks.append(Check("unitality_defect", unital, tol * scale, "le"))

    j_unitary = _maxabs(dagger(calc.jmat) @ calc.jmat - np.eye(d))
    j_invol = _maxabs(calc.jmat @ np.conj(calc.jmat) - np.eye(d))
    rep.checks.append(Check("j_antiunitary_defect", j_unitary, tol * scale, "le"))
    rep.checks.append(Check("j_involution_defect", j_invol, tol * scale, "le"))

    # delta(A*) = J delta(A)
    j_delta = _maxabs(
        calc.delta.transpose(1, 0, 2)
        - np.einsum("ij,abj->abi", calc.jmat, np.conj(calc.delta))
    )
    rep.checks.append(Check("j_delta_defect", j_delta, tol * scale, "le"))

    # twisted Leibniz rule delta(E_ab E_cd) = pi_l(sigma_{-i/4}(E_ab)) delta(E_cd)
    #                                        + pi_r(sigma_{+i/4}(E_cd)) delta(E_ab)
    s_m4, s_p4 = _quarter_units(ctx)
    pl_s = np.tensordot(s_m4, calc.pi_l, axes=2).reshape(n2, d, d)
    pr_s = np.tensordot(s_p4, calc.pi_r, axes=2).reshape(n2, d, d)
    delta_cols = calc.delta.reshape(n2, d).T
    rhs = (pl_s @ delta_cols).transpose(0, 2, 1) + (pr_s @ delta_cols).transpose(2, 0, 1)
    lhs = np.zeros((n, n, n, n, d), dtype=complex)
    for b in range(n):
        lhs[:, b, b, :, :] = calc.delta[:, :, :]
    leibniz = _maxabs(lhs - rhs.reshape(n, n, n, n, d))
    rep.checks.append(Check("twisted_leibniz_defect", leibniz, tol * scale, "le"))

    # cyclicity: pi_l(A) delta(B) spans H
    if d > 0:
        sv = np.linalg.svd(spanning_family(calc), compute_uv=False)
        rank = int((sv > NULL_CUTOFF * sv.max(initial=0.0)).sum())
    else:
        rank = 0
    rep.checks.append(Check("cyclic_rank_deficit", float(calc.dim_h - rank), 0.0, "le"))

    form_h = np.einsum("abi,cdi->abcd", np.conj(calc.delta), calc.delta).reshape(n2, n2)
    form_defect = float(np.abs(form_h - kms_form_of_generator(gen)).max())
    rep.checks.append(Check("form_identity_defect", form_defect, FORM_TOL * scale, "le"))
    return rep


def commutator_form_matrix(family: CommutatorFamily, ctx: DensityContext, n: int) -> np.ndarray:
    """The matrix sum_j <[V_j, E_ab], [V_j, E_cd]>_rho over matrix-unit pairs
    (row-major unit labels)."""
    perm = _unit_perm(n)
    gk = kms_gram(ctx)
    rhs = np.zeros((n * n, n * n), dtype=complex)
    for v in family.ops:
        k = lmul(v).mat - rmul(v).mat  # columns are vec([V, E]) in vec order
        rhs += dagger(k) @ gk @ k
    return rhs[np.ix_(perm, perm)]


def verify_commutator_form(
    family: CommutatorFamily, gen: MarkovGenerator, tol: float = COMMUTATOR_FORM_TOL
) -> Report:
    """Evaluate <A, L(B)>_rho against sum_j <[V_j, A], [V_j, B]>_rho on all
    matrix-unit pairs; the deviation matrix is attached to the report."""
    lhs = kms_form_of_generator(gen)
    rhs = commutator_form_matrix(family, gen.ctx, gen.dim)
    dev = np.abs(lhs - rhs)
    rep = Report(name="commutator_form", tol=tol)
    rep.checks.append(
        Check("max_form_deviation", float(dev.max(initial=0.0)), tol * max(1.0, gen.L.norm), "le")
    )
    rep.metrics["deviation_matrix"] = dev
    rep.metrics["family_size"] = len(family)
    return rep


def extract_commutators_gns(
    calc: FirstOrderCalculus, gen: MarkovGenerator, tol: float = COMMUTATOR_FORM_TOL
) -> CommutatorFamily:
    """Read the commutator family off the GNS calculus.

    The bimodule is a multiple of the standard M_n bimodule; the multiplicity
    space is the range of the minimal projection pi_l(F_11) pi_r(F_11) built
    from the matrix units of rho's eigenbasis.  Component derivations are
    untwisted with rho^{-1/4} and each V_j is recovered by
    V_j = sum_a d_j(E_a1) E_1a.  The V_j are shifted to trace 0, which fixes
    the additive-identity gauge, and brought to the Hermitian normal form:
    the family is m = dim H / n^2 Hermitian operators with the identity
    pairing, independent modulo I.
    """
    ctx = calc.ctx
    n = calc.dim
    if calc.dim_h == 0:
        fam = CommutatorFamily(ops=(), pairing=())
        rep = verify_commutator_form(fam, gen, tol=tol)
        if not rep.passed:
            raise CertificationFailed("empty family fails nonzero form", rep)
        return fam

    if calc.dim_h % (n * n):
        raise NonIntegralMultiplicity(
            f"dim H = {calc.dim_h} is not a multiple of n^2 = {n*n}"
        )
    mult = calc.dim_h // (n * n)

    u = ctx.u
    f_units = np.einsum("xa,yb->abxy", u, np.conj(u))  # F_ab = U E_ab U*
    # orthonormal coordinate vectors F_ab (x) xi_j = pi_l(F_a0) pi_r(F_0b) eta_j
    basis_vectors, proj_eigs = standard_form_unitary(calc, u)
    tr = float(proj_eigs.sum())
    if abs(tr - mult) > 0.01:
        raise NonIntegralMultiplicity(
            f"rank of the minimal bimodule projection is {tr:.6f}, expected {mult}"
        )
    if basis_vectors.shape[3] != mult:
        raise NonIntegralMultiplicity(
            f"projection rank {basis_vectors.shape[3]} disagrees with multiplicity {mult}"
        )

    qi = ctx.inv_quarter_rho
    # delta components on every matrix unit, expressed in the F basis:
    # coeff[j, a, b, c, d] = < F_ab (x) xi_j, delta(E_cd) >_H
    coeff = np.einsum("iabj,cdi->jabcd", np.conj(basis_vectors), calc.delta)
    comp = np.einsum("jabcd,abxy->jcdxy", coeff, f_units)  # delta_j(E_cd) as matrices
    dj = qi @ comp @ qi
    vs = dj[:, :, 0, :, 0].transpose(0, 2, 1)  # V_j[:, a] = d_j(E_a0)[:, 0]
    units = np.eye(n * n).reshape(n, n, n, n)  # units[c, d] = E_cd
    comm = vs[:, None, None] @ units - units @ vs[:, None, None]
    worst = float(np.linalg.norm(dj - comm, axis=(-2, -1)).max())
    vscale = max(1.0, max(opnorm(v) for v in vs))
    if worst > 1e-7 * vscale:
        raise DerivationRecoveryFailure(
            f"component derivations deviate from commutators by {worst:.3e}",
            value=worst,
            bound=1e-7 * vscale,
        )

    herm, _, _ = _hermitian_normal_form(_traceless(vs), NULL_CUTOFF)
    fam = CommutatorFamily(ops=tuple(herm), pairing=tuple(range(len(herm))))
    rep = verify_commutator_form(fam, gen, tol=tol)
    if not rep.passed:
        raise CertificationFailed("extracted family fails the form identity", rep)
    return fam


def xi_map(gen: MarkovGenerator, psi: Superoperator) -> Superoperator:
    """Xi(A) = rho^{1/4} Pv(rho^{-1/4} A rho^{-1/4}) rho^{1/4} with Pv the
    V-transform of Psi; symmetric for the trace pairing."""
    ctx = gen.ctx
    mat = sandwich(v_transform(psi, ctx).mat, ctx.quarter_rho, ctx.inv_quarter_rho)
    return Superoperator(mat, gen.dim, psi.level)


def extract_commutators_kraus(
    gen: MarkovGenerator,
    psi: Superoperator | None = None,
    tol: float = COMMUTATOR_FORM_TOL,
    rank_tol: float = 1e-10,
) -> CommutatorFamily:
    """Extract the commutator family through the Kraus decomposition of Xi.

    If no Psi is supplied, one is recovered from the generator; infeasible
    recovery aborts with InconsistentPsi rather than guessing.  The raw Kraus
    operators of Xi carry twice the generator form (the W-average of the two
    modular rotations contributes a factor 1/2), so the family is normalized
    by 1/sqrt(2).  It is returned in the Hermitian normal form with the
    identity pairing and without a gauge shift: Xi's Kraus gauge keeps
    Y -> sum_j V_j* Y V_j, and with it the resolvent sum identities.
    """
    ctx = gen.ctx
    n = gen.dim
    if psi is None:
        try:
            psi, _ = recover_cp_from_generator(gen)
        except Infeasible as exc:
            raise InconsistentPsi(
                "no admissible completely positive map could be recovered"
            ) from exc
    defect = opnorm(resolvent_generator(psi, ctx).mat - gen.L.mat)
    if defect > 1e-8 * max(1.0, gen.L.norm):
        raise InconsistentPsi(
            f"Psi does not reproduce the generator (residual {defect:.3e})"
        )

    xi = xi_map(gen, psi)
    # trace symmetry tr(A Xi(B)) = tr(Xi(A) B): t2[a n + b, c n + d] = Xi(E_cd)[b, a]
    t2 = xi.mat[:, _unit_perm(n)]
    sym_defect = np.abs(t2 - t2.T).max()
    if sym_defect > 1e-8 * max(1.0, xi.norm):
        raise InconsistentPsi(
            f"Xi is not symmetric for the trace pairing (defect {sym_defect:.3e})"
        )

    raw = np.array(kraus_from_choi(choi(xi), rank_tol=rank_tol), dtype=complex)
    herm, _, _ = _hermitian_normal_form(raw.reshape(-1, n, n) / np.sqrt(2.0), rank_tol)
    fam = CommutatorFamily(ops=tuple(herm), pairing=tuple(range(len(herm))))
    rep = verify_commutator_form(fam, gen, tol=tol)
    if not rep.passed:
        raise CertificationFailed("Kraus-route family fails the form identity", rep)
    return fam


def commutator_calculus(
    family: CommutatorFamily, gen: MarkovGenerator, rank_tol: float = NULL_CUTOFF
) -> FirstOrderCalculus:
    """The calculus carried by a commutator family, in H = C^n (x) C^m (x) C^n.

    The traceless parts of the family, in the Hermitian normal form, give
    m Hermitian operators V_1..V_m independent modulo I, and

        delta(E)[a, k, d] = (rho^{1/4} [V_k, E] rho^{1/4})[a, d],  K_J = -I_m,

    so that J delta(A) = -(rho^{1/4} [V_k, A] rho^{1/4})* = delta(A*).  The
    delta-image is cyclic without trimming: if sum_k [V_k, B] z_k = 0 for
    every B, then sum_k (w* z_k) V_k is a multiple of I for every w, so z = 0.
    ``meta["gram_eigs"]`` is the spectrum of the traceless Re(X* X) of
    ``_hermitian_normal_form`` and ``meta["null_cutoff"]`` its cutoff.
    """
    ctx = gen.ctx
    n = gen.dim
    ops = np.array(family.ops, dtype=complex).reshape(-1, n, n)
    herm, eigs, cutoff = _hermitian_normal_form(_traceless(ops), rank_tol)
    m = len(herm)
    qr = ctx.quarter_rho
    units = np.eye(n * n).reshape(n, n, n, n)  # units[p, q] = E_pq
    vs = herm[:, None, None]
    blocks = qr @ (vs @ units - units @ vs) @ qr  # blocks[k, p, q] = delta_k(E_pq)
    delta = blocks.transpose(1, 2, 3, 0, 4).reshape(n, n, n * m * n)
    return _standard_form_calculus(
        ctx,
        delta,
        -np.eye(m, dtype=complex),
        meta={"gram_eigs": eigs, "null_cutoff": cutoff, "family_size": len(family)},
    )


def inner_vector(calc: FirstOrderCalculus, ctx: DensityContext | None = None):
    """Least-squares solution of the innerness equation

        delta(A) = pi_l(sigma_{-i/4}(A)) xi0 - pi_r(sigma_{+i/4}(A)) xi0

    over all matrix units A.  Returns (xi0, residual); the residual is
    relative to the total norm of the delta image (absolute when the image
    vanishes) and is guaranteed to be tiny in finite dimension, where every
    such derivation is inner.

    The stacked operator A has the central vectors as its kernel and a
    well-conditioned range, so xi0 is the minimum-norm solution of the
    normal equations, G^+ A* b with G = A* A and the eigenvalues of G up to
    ``NULL_CUTOFF`` times the largest dropped, refined once on the residual.
    The returned residual is |A xi0 - b| itself, whatever the solver.
    """
    ctx = calc.ctx if ctx is None else ctx
    n = calc.dim
    d = calc.dim_h
    if d == 0:
        return np.zeros(0, dtype=complex), 0.0
    s_m4, s_p4 = _quarter_units(ctx)
    a_stack = np.tensordot(s_m4, calc.pi_l, axes=2)
    a_stack -= np.tensordot(s_p4, calc.pi_r, axes=2)
    gram = np.zeros((d, d), dtype=complex)
    for block in a_stack.reshape(n * n, d, d):
        gram += dagger(block) @ block
    a_stack = a_stack.reshape(n * n * d, d)
    b_stack = calc.delta.reshape(n * n * d)
    eigs, vecs = np.linalg.eigh(gram)
    keep = eigs > NULL_CUTOFF * eigs[-1]
    range_vecs = vecs[:, keep]
    inv_eigs = 1.0 / eigs[keep]

    def normal_solve(r):
        # G^+ A* r, with A* r formed as conj(conj(r) A) to avoid a copy of A
        a_adj_r = np.conj(np.conj(r) @ a_stack)
        return range_vecs @ (inv_eigs * (dagger(range_vecs) @ a_adj_r))

    xi0 = normal_solve(b_stack)
    xi0 += normal_solve(b_stack - a_stack @ xi0)
    resid = np.linalg.norm(a_stack @ xi0 - b_stack)
    denom = np.linalg.norm(b_stack)
    return xi0, float(resid / denom if denom > 0 else resid)


def uniqueness_witness(
    calc_a: FirstOrderCalculus,
    calc_b: FirstOrderCalculus,
    gen: MarkovGenerator,
    tol: float = 1e-6,
):
    """Witness that two calculi of the same generator are isomorphic.

    The candidate intertwiner maps the spanning family pi_l(E_ab) delta(E_cd)
    of one calculus onto the other's.  Gram agreement of the two spanning
    families is exactly the isometry condition and is checked first (raising
    GramMismatch with the worst entry); the returned report certifies that
    the induced map intertwines both actions, the involutions and the
    derivations.  Returns (theta, report).

    The intertwining is certified at operator level.  With S the spanning
    family of ``calc_a`` and X = theta pi_a(E) - pi_b(E) theta for a matrix
    unit E, the defect max |X S| on the spanning family is bounded, by
    Cauchy-Schwarz, by (largest row 2-norm of X) * (largest column 2-norm
    of S).  ``pi_l_intertwine_defect`` and ``pi_r_intertwine_defect`` record
    that bound, maximised over the n^2 units, and ``j_intertwine_defect``
    the same bound for X = theta J_a - J_b conj(theta), since
    conj(theta S) = conj(theta) conj(S).  Each recorded value is an upper
    bound on the entrywise defect over the spanning family, so a pass here
    implies a pass of that defect at the same tol.
    """
    n = gen.dim
    sa = spanning_family(calc_a)
    sb = spanning_family(calc_b)
    ga = dagger(sa) @ sa
    gb = dagger(sb) @ sb
    dev = np.abs(ga - gb)
    max_dev = float(dev.max(initial=0.0))
    if max_dev > tol * max(1.0, np.abs(ga).max(initial=0.0)):
        idx = np.unravel_index(np.argmax(dev), dev.shape)
        raise GramMismatch(
            f"spanning-family Gram matrices deviate by {max_dev:.3e} at {idx}",
            max_deviation=max_dev,
            index=tuple(int(i) for i in idx),
        )

    theta = sb @ np.linalg.pinv(sa, rcond=1e-12)
    theta_sa = theta @ sa
    rep = Report(name="uniqueness_witness", tol=tol)
    rep.checks.append(Check("gram_mismatch_max", max_dev, tol * max(1.0, np.abs(ga).max(initial=0.0)), "le"))
    rep.checks.append(Check("spanning_map_defect", float(np.abs(theta_sa - sb).max(initial=0.0)), tol, "le"))

    def max_row_norm(x) -> float:
        return float(np.linalg.norm(x, axis=-1).max(initial=0.0))

    span_norm = float(np.linalg.norm(sa, axis=0).max(initial=0.0))
    pl_dev = 0.0
    pr_dev = 0.0
    # unit by unit, as fast as batching over b and with n times smaller temporaries
    for a in range(n):
        for b in range(n):
            x_l = theta @ calc_a.pi_l[a, b]
            x_l -= calc_b.pi_l[a, b] @ theta
            pl_dev = max(pl_dev, max_row_norm(x_l))
            x_r = theta @ calc_a.pi_r[a, b]
            x_r -= calc_b.pi_r[a, b] @ theta
            pr_dev = max(pr_dev, max_row_norm(x_r))
    rep.checks.append(Check("pi_l_intertwine_defect", pl_dev * span_norm, tol, "le"))
    rep.checks.append(Check("pi_r_intertwine_defect", pr_dev * span_norm, tol, "le"))

    j_dev = max_row_norm(theta @ calc_a.jmat - calc_b.jmat @ np.conj(theta))
    rep.checks.append(Check("j_intertwine_defect", j_dev * span_norm, tol, "le"))

    d_dev = 0.0
    for a in range(n):
        for b in range(n):
            d_dev = max(d_dev, np.linalg.norm(theta @ calc_a.delta[a, b] - calc_b.delta[a, b]))
    rep.checks.append(Check("delta_match_defect", float(d_dev), tol, "le"))
    rep.metrics.update({"dim_h_a": calc_a.dim_h, "dim_h_b": calc_b.dim_h})
    return theta, rep


def leibniz_bilinear_residual(calc: FirstOrderCalculus, a, b, c) -> float:
    """Residual of the six-term bilinear identity satisfied by any bounded
    first-order calculus, evaluated on standard-form vectors a, b, c:

        <d(D^{1/4}a) . D^{1/4}b, d(D^{-1/4}c)> + <d(D^{-1/4}a) . D^{-1/4}b, d(D^{1/4}c)>
      = <d(D^{-1/4}(a.b)), d(D^{1/4}c)> + <d(D^{1/4}a), d((D^{-1/4}c) . J(D^{-1/4}b))>
        - <d(J(D^{1/4}c) . (D^{1/4}a)), d(J(D^{-1/4}b))>

    where D^s is the modular flow on vectors, dots are the standard-form
    products, and the right action of a vector y is pi_r(rho^{-1/2} y).
    """
    ctx = calc.ctx

    def dpow(s, x):
        return ctx.power(s) @ x @ ctx.power(-s)

    def dl2(x):
        return calc.delta_of(descend(ctx, x))

    def right_act(xi, y):
        return calc.pi_r_of(right_bounded_rep(ctx, y)) @ xi

    def ip(x, y):
        return complex(np.vdot(x, y))

    a = as_matrix(a, calc.dim)
    b = as_matrix(b, calc.dim)
    c = as_matrix(c, calc.dim)
    prod = lambda x, y: hilbert_algebra_product(ctx, x, y)
    jj = dagger

    lhs = ip(right_act(dl2(dpow(0.25, a)), dpow(0.25, b)), dl2(dpow(-0.25, c))) + ip(
        right_act(dl2(dpow(-0.25, a)), dpow(-0.25, b)), dl2(dpow(0.25, c))
    )
    rhs = (
        ip(dl2(dpow(-0.25, prod(a, b))), dl2(dpow(0.25, c)))
        + ip(dl2(dpow(0.25, a)), dl2(prod(dpow(-0.25, c), jj(dpow(-0.25, b)))))
        - ip(dl2(prod(jj(dpow(0.25, c)), dpow(0.25, a))), dl2(jj(dpow(-0.25, b))))
    )
    scale = max(1.0, abs(lhs), abs(rhs))
    return float(abs(lhs - rhs) / scale)
