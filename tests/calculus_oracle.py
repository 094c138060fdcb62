"""Dense reference implementations for the calculus layer.

The library certifies every calculus through its standard-form data, the
inner vector X and the m x m block K_J.  The functions here work on the
dense fields instead (the delta coefficients and the dim_h x dim_h actions
and involution) and are the oracles those paths are gated against at small
n.  They take a ``FirstOrderCalculus``, whose dense fields
are the rendering of its data, or a ``DenseCalculus``, which holds any dense
fields: the non-standard oracle builds and the negative controls that break
the standard form (``as_dense`` copies a calculus into one).

- ``dense_invariants_report`` certifies the calculus through the
  standard-form unitary of the dense actions (``standard_form_unitary``), and
  ``pairwise_grid_defects``/``grid_invariants_report`` check the same
  properties directly over every pair of matrix units, at O(n^4 dim_h^3)
  cost.
- ``dense_uniqueness_witness`` maps the spanning family
  (``spanning_family``) of one calculus onto the other's, for any two
  calculi, in standard form or not; ``loop_witness_defects`` is the per-unit
  intertwining defect of a witness on the spanning family, and
  ``render_theta`` renders the library witness W as I (x) W (x) I.
- ``lstsq_inner_vector`` is the dense least-squares solve of the innerness
  equation, the independent recovery of ``inner_vector``'s QX from delta.
- ``standard_form_defect`` measures how far the dense fields are from the
  rendering of the standard-form data read off them; ``kron_render``
  renders those fields with ``np.kron``, the oracle for the scatter of the
  ``FirstOrderCalculus`` constructor, and ``loop_standard_form_defect``
  compares them one matrix unit at a time, the oracle for the one-pass
  ``standard_form_defect``.
- ``loop_commutator_form_matrix`` sums the commutator form over the family
  with n^2 x n^2 ``lmul``/``rmul`` superoperators, and ``delta_form_matrix``
  forms a calculus's form as one GEMM of its delta coefficients: the two
  oracles for ``_form_matrix`` of X.  ``delta_j_defect`` measures
  delta(A*) = J delta(A) on the delta coefficients, the oracle for the
  report's ``j_delta_defect`` on X, and ``delta_uniqueness_witness`` is the
  witness on the delta coefficients (the n^3 x n^3 Gram and the n^4 x m
  least squares), the oracle for the witness on QX.
  ``tensor_leibniz_defect`` evaluates
  the twisted Leibniz rule on the full n^6 m tensor of unit triples, which
  holds by type for delta = inner(X).
- ``dense_gns_calculus`` is the GNS quotient built on the full
  n^4-dimensional tensor square, the oracle for the factored
  ``gns_calculus``; ``einsum_gns_actions`` is the plain-einsum form of its
  batched contractions; ``lift_k_j`` is the quotient formula for K_J
  through the lift P W / sqrt(g), which the product of isometries in
  ``gns_calculus`` replaced.
- ``trimmed_commutator_calculus`` builds a commutator family's calculus on
  M_n (x) C^N and trims it to the cyclic sub-bimodule by an SVD of the
  spanning family, the oracle for the native ``commutator_calculus``;
  ``kron_commutator_actions`` is the Kronecker-product construction of the
  untrimmed calculus, against which the blockwise actions of the trimmed one
  are checked; ``commutator_delta`` forms rho^{1/4} [V_k, E] rho^{1/4}
  directly, the oracle for the delta that ``commutator_calculus`` renders
  from its inner vector.
- ``kraus_from_choi`` is a Kraus family {V_j} of a completely positive map
  read off the eigendecomposition of its Choi matrix, keeping eigenvalues
  above KRAUS_RANK_TOL ||C||: a plain Kraus family to build commutator
  families from, independent of the Hermitian normal form that
  ``extract_commutators_kraus`` reads off B* C(Xi) B.
- ``_quarter_units`` renders the n^4 tensors sigma_{-+i/4}(E_ab) of the
  rotated matrix units, and ``einsum_render_delta`` contracts them with the
  inner vector by plain einsum: the oracle for the two Kronecker products of
  ``derivation._render_delta``.
- ``pi_l_of``, ``pi_r_of`` and ``delta_of`` apply the actions and the
  derivation of a calculus to one matrix structurally, and
  ``leibniz_bilinear_residual`` evaluates the six-term bilinear identity of
  a bounded first-order calculus on standard-form vectors through them,
  with the right action of a vector read off by ``right_bounded_rep``.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from kmsflow.derivation import (
    FORM_TOL,
    GRAM_PSD_TOL,
    NULL_CUTOFF,
    CommutatorFamily,
    kms_form_of_generator,
)
from kmsflow.errors import (
    DimensionMismatch,
    GramNotPSD,
    NotPSD,
    ReconstructionFailure,
)
from kmsflow.generator import MarkovGenerator
from kmsflow.matrix_core import (
    DensityContext,
    as_matrix,
    dagger,
    hilbert_algebra_product,
    kron,
    opnorm,
)
from kmsflow.reports import Check, Report
from kmsflow.superop import KRAUS_RANK_TOL, lmul, rmul, to_algebra, unvec, vec
from kmsflow.vtransform import v_transform

STRUCTURE_CHECKS = (
    "multiplicity_defect",
    "standard_form_unitarity_defect",
    "pi_l_intertwine_defect",
    "pi_r_intertwine_defect",
    "j_intertwine_defect",
)


def _maxabs(x) -> float:
    return float(np.abs(x).max(initial=0.0))


def _quarter_units(ctx: DensityContext):
    """(s_m4, s_p4) with s_m4[a, b] = sigma_{-i/4}(E_ab) = rho^{1/4} E_ab rho^{-1/4}
    and s_p4[a, b] = sigma_{+i/4}(E_ab) = rho^{-1/4} E_ab rho^{1/4}."""
    qr = ctx.quarter_rho
    qi = ctx.inv_quarter_rho
    return np.einsum("xa,by->abxy", qr, qi), np.einsum("xa,by->abxy", qi, qr)


def einsum_render_delta(ctx: DensityContext, x: np.ndarray) -> np.ndarray:
    """delta[a, b] = inner(X)(E_ab) in H's (a, k, d) order, of shape
    (n, n, n^2 m), for the stack ``x`` (m, n, n): sigma_{-i/4}(E_ab) X_k -
    X_k sigma_{i/4}(E_ab) contracted over the unit tensors of
    ``_quarter_units``."""
    n = ctx.dim
    s_m4, s_p4 = _quarter_units(ctx)
    delta = np.einsum("abxy,kyw->abxkw", s_m4, x)
    delta -= np.einsum("kxz,abzw->abxkw", x, s_p4)
    return delta.reshape(n, n, n * n * len(x))


@dataclass(frozen=True, eq=False)
class DenseCalculus:
    """A calculus given by its dense fields, in standard form or not:
    ``pi_l[a, b]`` / ``pi_r[a, b]`` are the (dim_h x dim_h) matrices of the
    two actions on E_ab, ``delta[a, b]`` is delta(E_ab) and J acts as
    xi -> jmat @ conj(xi)."""

    dim_h: int
    pi_l: np.ndarray  # (n, n, dim_h, dim_h)
    pi_r: np.ndarray  # (n, n, dim_h, dim_h)
    jmat: np.ndarray  # (dim_h, dim_h)
    delta: np.ndarray  # (n, n, dim_h)
    ctx: DensityContext
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.delta.shape[0]


def as_dense(calc) -> DenseCalculus:
    """Writable copies of the dense fields of a calculus."""
    return DenseCalculus(
        dim_h=calc.dim_h,
        pi_l=calc.pi_l.copy(),
        pi_r=calc.pi_r.copy(),
        jmat=calc.jmat.copy(),
        delta=calc.delta.copy(),
        ctx=calc.ctx,
        meta=dict(calc.meta),
    )


def dense_k_j(calc):
    """(m, K_J) of a dense calculus on C^n (x) C^m (x) C^n: the multiplicity
    m = dim H / n^2 and the block K_J[k, l] = jmat[(0, k, 0), (0, l, 0)].

    Raises DimensionMismatch when n^2 does not divide dim H.
    """
    n = calc.dim
    if calc.dim_h % (n * n):
        raise DimensionMismatch(
            f"dim H = {calc.dim_h} is not a multiple of n^2 = {n * n}"
        )
    m = calc.dim_h // (n * n)
    return m, calc.jmat.reshape(n, m, n, n, m, n)[0, :, 0, 0, :, 0]


def standard_form_defect(calc) -> float:
    """Largest entrywise deviation of ``pi_l``, ``pi_r`` and ``jmat`` from the
    standard-form rendering pi_l(E) = E (x) I (x) I, pi_r(E) = I (x) I (x) E^T
    and J = (outer swap) (x) K_J, with K_J read by ``dense_k_j``.  One pass
    per left unit index p: the moduli of pi_l(E_p.), pi_r(E_p.) and the rows
    of J with outer index a = p, with the pattern entries overwritten by
    their distance to the rendering, so no complex copy of a field is made.
    Exactly 0 for a ``FirstOrderCalculus``.
    """
    n = calc.dim
    m, k_j = dense_k_j(calc)
    mn = m * n
    pi_l = calc.pi_l.reshape(n, n, n, mn, n, mn)  # [p, q, a, (k, d), a', (l, d')]
    pi_r = calc.pi_r.reshape(n, n, mn, n, mn, n)  # [p, q, (a, k), d, (a', l), d']
    jmat = calc.jmat.reshape(n, m, n, n, m, n)  # [a, k, d, a', l, d']
    d = np.arange(n)
    q = d[:, None]
    r = np.arange(mn)
    moduli = np.empty(pi_l.shape[1:])  # one buffer for both actions at every p
    worst = 0.0
    for p in range(n):
        left = np.abs(pi_l[p], out=moduli)
        left[q, p, r, q, r] = np.abs(pi_l[p, q, p, r, q, r] - 1.0)
        worst = max(worst, left.max(initial=0.0))
        right = np.abs(pi_r[p], out=moduli.reshape(pi_r.shape[1:]))
        right[q, r, q, r, p] = np.abs(pi_r[p, q, r, q, r, p] - 1.0)  # E_pq^T = E_qp
        worst = max(worst, right.max(initial=0.0))
        # the rows of J with outer pair (a, d) = (p, d) hit (a', d') = (d, p)
        inv = np.abs(jmat[p])
        inv[:, d, d, :, p] = np.abs(jmat[p, :, d, d, :, p] - k_j)
        worst = max(worst, inv.max(initial=0.0))
    return float(worst)


def spanning_family(calc) -> np.ndarray:
    """Matrix whose columns are pi_l(E_ab) delta(E_cd), indexed by
    ((a n + b) n + c) n + d."""
    s = np.tensordot(calc.pi_l, calc.delta, axes=([3], [2]))  # [a, b, i, c, d]
    return s.transpose(2, 0, 1, 3, 4).reshape(calc.dim_h, calc.dim**4)


def standard_form_unitary(calc, basis: np.ndarray | None = None):
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


def dense_invariants_report(calc, gen: MarkovGenerator, tol: float = 1e-9) -> Report:
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


def pairwise_grid_defects(calc) -> dict:
    """Largest entrywise violation over all matrix-unit pairs (E_ab, E_cd) of

    - pi_l(E_ab) pi_l(E_cd) = delta_bc pi_l(E_ad),
    - pi_r(E_ab) pi_r(E_cd) = delta_da pi_r(E_cb),
    - [pi_l(E_ab), pi_r(E_cd)] = 0,
    - J pi_l(E_ab) pi_r(E_cd) = pi_l(E_cd)* pi_r(E_ab)* J.
    """
    n = calc.dim
    d = calc.dim_h
    n2 = n * n
    pl = calc.pi_l.reshape(n2, d, d)
    pr = calc.pi_r.reshape(n2, d, d)
    pl_wide = calc.pi_l.transpose(2, 0, 1, 3).reshape(d, n2 * d)
    pr_wide = calc.pi_r.transpose(2, 0, 1, 3).reshape(d, n2 * d)

    hom = antihom = commute = j_twist = 0.0
    for a in range(n):
        for b in range(n):
            x = a * n + b
            prod = (pl[x] @ pl_wide).reshape(d, n2, d).transpose(1, 0, 2)
            expect = np.zeros_like(prod)
            expect[b * n : (b + 1) * n] = calc.pi_l[a]
            hom = max(hom, _maxabs(prod - expect))
            prod_r = (pr[x] @ pr_wide).reshape(d, n2, d).transpose(1, 0, 2)
            expect_r = np.zeros_like(prod_r)
            expect_r.reshape(n, n, d, d)[:, a] = calc.pi_r[:, b]
            antihom = max(antihom, _maxabs(prod_r - expect_r))
            lr = (pl[x] @ pr_wide).reshape(d, n2, d).transpose(1, 0, 2)
            rl = (pr.reshape(n2 * d, d) @ pl[x]).reshape(n2, d, d)
            commute = max(commute, _maxabs(lr - rl))
            lhs = (calc.jmat @ np.conj(pl[x] @ pr_wide)).reshape(d, n2, d).transpose(1, 0, 2)
            t = dagger(pr[x]) @ calc.jmat
            rhs = (np.conj(pl.transpose(0, 2, 1)).reshape(n2 * d, d) @ t).reshape(n2, d, d)
            j_twist = max(j_twist, _maxabs(lhs - rhs))
    return {
        "pi_l_homomorphism_defect": hom,
        "pi_r_antihomomorphism_defect": antihom,
        "actions_commute_defect": commute,
        "j_bimodule_twist_defect": j_twist,
    }


def grid_invariants_report(calc, gen, tol: float = 1e-9):
    """The dense invariants report with the structure certificate replaced by
    the pairwise grid, all at the same tol * max(1, ||L||)."""
    rep = dense_invariants_report(calc, gen, tol=tol)
    bound = tol * max(1.0, gen.L.norm)
    rep.checks = [c for c in rep.checks if c.name not in STRUCTURE_CHECKS] + [
        Check(name, value, bound, "le") for name, value in pairwise_grid_defects(calc).items()
    ]
    return rep


def kron_commutator_actions(family, gen) -> dict:
    """The calculus of a commutator family on M_n (x) C^N before trimming,
    as dense arrays over the vectorized blocks: pi_l(E_ab) = I (x) lmul(E_ab),
    pi_r(E_ab) = I (x) rmul(E_ab), delta(E_ab)_j = vec(rho^{1/4} [V_j, E_ab]
    rho^{1/4}), the linear part of J (I (x) transpose, negated, since the
    family is Hermitian) and the spanning family pi_l(E_ab) delta(E_cd)."""
    n = gen.dim
    nf = len(family)
    qr = gen.ctx.quarter_rho
    dim_full = n * n * nf
    eye_f = np.eye(nf)
    delta_full = np.zeros((n, n, dim_full), dtype=complex)
    pi_l_full = np.empty((n, n, dim_full, dim_full), dtype=complex)
    pi_r_full = np.empty((n, n, dim_full, dim_full), dtype=complex)
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b] = 1.0
            for j, v in enumerate(family.ops):
                block = qr @ (v @ e - e @ v) @ qr
                delta_full[a, b, j * n * n : (j + 1) * n * n] = vec(block)
            pi_l_full[a, b] = np.kron(eye_f, lmul(e).mat)
            pi_r_full[a, b] = np.kron(eye_f, rmul(e).mat)
    pt = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            pt[j * n + i, i * n + j] = 1.0
    span = np.einsum("abik,cdk->iabcd", pi_l_full, delta_full).reshape(dim_full, n**4)
    return {
        "pi_l": pi_l_full,
        "pi_r": pi_r_full,
        "delta": delta_full,
        "jmat": -np.kron(eye_f, pt),
        "span": span,
    }


def dense_gns_calculus(gen, rank_tol: float = NULL_CUTOFF) -> DenseCalculus:
    """The GNS quotient of the V-transformed generator built densely on the
    n^4-dimensional tensor square: the ambient Gram form, the kernel N of the
    n^2 x n^4 constraint matrix and one eigh of size n^4 - n^2.

    Raises GramNotPSD when the restricted form has an eigenvalue below
    -1e-8 * ||G|| (a non-CND input slipping through certification) and
    ReconstructionFailure when <delta(A), delta(B)> fails to reproduce
    <A, L(B)>_rho on the matrix units.  ``meta["class_map"]`` (dim_h x n^4)
    sends the product basis E_ab (x) E_cd, indexed ((a n + b) n + c) n + d,
    to its class in H, and ``meta["lift"]`` (n^4 x dim_h) lifts the basis of
    H to representatives in that product basis.
    """
    ctx = gen.ctx
    n = gen.dim
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

    # Gram form on the product basis E_ab (x) E_cd.
    sqrt_rho = ctx.sqrt_rho
    t4 = np.empty((n, n, n, n), dtype=complex)
    for b in range(n):
        for bp in range(n):
            y = sqrt_rho @ unvec(lcheck.mat[:, bp * n + b], n) @ sqrt_rho
            t4[b, bp] = y
    gram = -0.5 * np.einsum("aA,bBcC,dD->abcdABCD", eye, t4, eye).reshape(n**4, n**4)
    gram = 0.5 * (gram + dagger(gram))

    # Constraint subspace N: kernel of sum_j A_j sigma_{-i/2}(B_j).
    s_half = np.einsum("xc,dy->cdxy", sqrt_rho, ctx.inv_sqrt_rho)  # sigma_{-i/2}(E_cd)
    mu = np.einsum("pa,cdbq->pqabcd", eye, s_half).reshape(n * n, n**4)
    nullbasis = scipy.linalg.null_space(mu)
    if nullbasis.shape[1] != n**4 - n * n:
        raise ReconstructionFailure(
            f"constraint kernel has dimension {nullbasis.shape[1]}, expected {n**4 - n*n}",
            value=float(nullbasis.shape[1]),
            bound=float(n**4 - n * n),
        )

    gram_n = dagger(nullbasis) @ gram @ nullbasis
    gram_n = 0.5 * (gram_n + dagger(gram_n))
    eigs, w = np.linalg.eigh(gram_n)
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
    dim_h = int(keep.sum())
    g_kept = eigs[keep]
    w_kept = w[:, keep]

    # class map (ambient -> H) and lift (H basis -> ambient representatives)
    class_map = (np.sqrt(g_kept)[:, None] * dagger(w_kept)) @ dagger(nullbasis)
    lift = nullbasis @ (w_kept / np.sqrt(g_kept)[None, :])

    # pi_l[p, q] contracts the last three ambient indices of class_map and
    # lift, with the first one fixed to p and q; pi_r[p, q] the first three,
    # with the last one fixed to q and p.  One batched BLAS matmul each, on
    # contiguous operands, so pi_l and pi_r come out C-contiguous.
    n3 = n**3
    cl = np.ascontiguousarray(class_map.reshape(dim_h, n, n3).transpose(1, 0, 2))
    ll = lift.reshape(n, n3, dim_h)
    pi_l = cl[:, None] @ ll[None]
    cr = np.ascontiguousarray(class_map.reshape(dim_h, n3, n).transpose(2, 0, 1))
    lr = np.ascontiguousarray(lift.reshape(n3, n, dim_h).transpose(1, 0, 2))
    pi_r = cr[None] @ lr[:, None]

    # delta(E_ab) = sigma_{-i/4}(E_ab) (x) I - I (x) sigma_{i/4}(E_ab)
    s_m4, s_p4 = _quarter_units(ctx)
    d6 = np.einsum("abxy,zw->abxyzw", s_m4, eye) - np.einsum(
        "xy,abzw->abxyzw", eye, s_p4
    )
    delta = (d6.reshape(n * n, n**4) @ class_map.T).reshape(n, n, dim_h)

    # antilinear involution: A (x) B -> -B* (x) A*
    lift_t = lift.reshape(n, n, n, n, dim_h)
    mj_lift = -np.conj(lift_t).transpose(3, 2, 1, 0, 4).reshape(n**4, dim_h)
    jmat = class_map @ mj_lift

    calc = DenseCalculus(
        dim_h=dim_h,
        pi_l=pi_l,
        pi_r=pi_r,
        jmat=jmat,
        delta=delta,
        ctx=ctx,
        meta={
            "gram_eigs": eigs,
            "null_cutoff": cutoff,
            "ambient_dim": n**4,
            "constraint_dim": int(nullbasis.shape[1]),
            "vgen_kernel_defect": kernel_defect,
            "class_map": class_map,
            "lift": lift,
        },
    )

    form_h = np.einsum("abi,cdi->abcd", np.conj(delta), delta).reshape(n * n, n * n)
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


def einsum_gns_actions(calc) -> dict:
    """pi_l, pi_r and delta of a ``dense_gns_calculus`` recomputed from its
    quotient maps (``meta["class_map"]``, ``meta["lift"]``) with plain einsums:
    pi_l(E_pq) acts on the first ambient factor's row index, pi_r(E_pq) on
    the second factor's column index, and delta(E_ab) is the class of
    sigma_{-i/4}(E_ab) (x) I - I (x) sigma_{i/4}(E_ab)."""
    n = calc.dim
    d = calc.dim_h
    class_t = calc.meta["class_map"].reshape(d, n, n, n, n)
    lift_t = calc.meta["lift"].reshape(n, n, n, n, d)
    qr = calc.ctx.quarter_rho
    qi = calc.ctx.inv_quarter_rho
    eye = np.eye(n)
    s_m4 = np.einsum("xa,by->abxy", qr, qi)
    s_p4 = np.einsum("xa,by->abxy", qi, qr)
    d6 = np.einsum("abxy,zw->abxyzw", s_m4, eye) - np.einsum("xy,abzw->abxyzw", eye, s_p4)
    return {
        "pi_l": np.einsum("ipbcd,qbcdk->pqik", class_t, lift_t),
        "pi_r": np.einsum("iabcq,abcpk->pqik", class_t, lift_t),
        "delta": np.einsum("iP,abP->abi", calc.meta["class_map"], d6.reshape(n, n, n**4)),
    }


def trimmed_commutator_calculus(
    family: CommutatorFamily, gen: MarkovGenerator, rank_tol: float = NULL_CUTOFF
) -> DenseCalculus:
    """Assemble the calculus carried by a commutator family on M_n (x) C^N,
    with delta(A)_j = rho^{1/4} [V_j, A] rho^{1/4}, then trim to the cyclic
    sub-bimodule generated by the delta-image so the spanning property holds.
    ``meta["isometry"]`` has orthonormal columns spanning that sub-bimodule,
    in the coordinates (j, col, row) of the vectorized blocks of M_n (x) C^N.
    """
    ctx = gen.ctx
    n = gen.dim
    nf = len(family)
    if nf == 0:
        return DenseCalculus(
            dim_h=0,
            pi_l=np.zeros((n, n, 0, 0), dtype=complex),
            pi_r=np.zeros((n, n, 0, 0), dtype=complex),
            jmat=np.zeros((0, 0), dtype=complex),
            delta=np.zeros((n, n, 0), dtype=complex),
            ctx=ctx,
            meta={"family_size": 0},
        )
    qr = ctx.quarter_rho
    dim_full = n * n * nf

    # H_full = M_n (x) C^N, coordinates (j, col, row) of the vectorized
    # blocks; blocks[j, a, b] = rho^{1/4} [V_j, E_ab] rho^{1/4}
    units = np.eye(n * n).reshape(n, n, n, n)  # units[a, b] = E_ab
    vs = np.stack(family.ops)[:, None, None]
    blocks = qr @ (vs @ units - units @ vs) @ qr
    delta_full = blocks.transpose(1, 2, 0, 4, 3).reshape(n, n, dim_full)

    # cyclic subspace spanned by pi_l(E_ab) delta(E_cd); E_ab X moves row b
    # of X to row a: span[(j, col, row), (a, b, c, d)] = [row = a] blocks[j, c, d, b, col]
    span = np.einsum("ra,jcdbk->jkrabcd", np.eye(n), blocks).reshape(dim_full, n**4)
    if np.abs(span).max(initial=0.0) == 0.0:
        q = np.zeros((dim_full, 0))
    else:
        uu, sv, _ = np.linalg.svd(span, full_matrices=False)
        q = uu[:, sv > rank_tol * sv.max()]
    dim_h = q.shape[1]

    # Compressed actions, block by block: with rows[a] (cols[a]) the entries
    # of q in row (column) a of every block, q* pi_l(E_ab) q = rows[a]* rows[b]
    # and q* pi_r(E_ab) q = cols[b]* cols[a].
    q4 = q.reshape(nf, n, n, dim_h)  # [j, col, row, k]
    rows = q4.transpose(2, 0, 1, 3).reshape(n, nf * n, dim_h)
    cols = q4.transpose(1, 0, 2, 3).reshape(n, nf * n, dim_h)
    pi_l = np.conj(rows).transpose(0, 2, 1)[:, None] @ rows[None]
    pi_r = np.conj(cols).transpose(0, 2, 1)[None] @ cols[:, None]
    delta = (delta_full.reshape(n * n, dim_full) @ np.conj(q)).reshape(n, n, dim_h)
    # J(X_j) = -X_j^* for a Hermitian family: transpose each block, on conj(q)
    j_conj_q = -np.conj(q4).transpose(0, 2, 1, 3)
    jmat = dagger(q) @ j_conj_q.reshape(dim_full, dim_h)

    # leak of pi_l(E_ab) q out of range(q): pi_l(E_ab) q - q pi_l[a, b], whose
    # part in row r of the blocks is [r = a] rows[b] - rows[r] pi_l[a, b]
    # = G[r, a] rows[b] with the Gram blocks G[r, a] = rows[r] rows[a]* - [r = a] I;
    # one left index a at a time keeps the residual at the size of one pi_l[a]
    nfn = nf * n
    gram = rows[:, None] @ np.conj(rows).transpose(0, 2, 1)[None]
    gram[np.arange(n), np.arange(n)] -= np.eye(nfn)
    rows_wide = rows.transpose(1, 0, 2).reshape(nfn, n * dim_h)
    leak = 0.0
    for a in range(n):
        resid = gram[:, a].reshape(n * nfn, nfn) @ rows_wide
        leak = max(leak, float(np.abs(resid).max(initial=0.0)))
    return DenseCalculus(
        dim_h=dim_h,
        pi_l=pi_l,
        pi_r=pi_r,
        jmat=jmat,
        delta=delta,
        ctx=ctx,
        meta={
            "family_size": nf,
            "full_dim": dim_full,
            "compression_leak": leak,
            "isometry": q,
        },
    )


def kraus_from_choi(c: np.ndarray) -> list[np.ndarray]:
    """Kraus family {V_j}, S(X) = sum_j V_j* X V_j, of a completely positive
    map from its Choi matrix C.

    Eigenvalues at or below KRAUS_RANK_TOL * ||C|| are discarded, small
    negatives above -KRAUS_RANK_TOL * ||C|| (rounding noise from upstream
    eigendecompositions) included.  Raises NotPSD for anything more negative.
    """
    c = np.asarray(c, dtype=complex)
    w, u = np.linalg.eigh(0.5 * (c + dagger(c)))
    scale = max(abs(w).max(initial=0.0), 1e-300)
    if w.min(initial=0.0) < -KRAUS_RANK_TOL * scale:
        raise NotPSD(
            f"Choi matrix has eigenvalue {w.min():.3e} < -{KRAUS_RANK_TOL:.1e} * ||C||"
        )
    n = int(round(np.sqrt(c.shape[0])))
    # S(X) = sum K X K* = sum V* X V with V = K*
    return [dagger(unvec(np.sqrt(wi) * ui, n)) for wi, ui in zip(w, u.T)
            if wi > KRAUS_RANK_TOL * scale]


def render_theta(w, n: int) -> np.ndarray:
    """The dim_h_b x dim_h_a isometry I_n (x) W (x) I_n of the m_b x m_a
    witness W of ``uniqueness_witness``."""
    return np.kron(np.eye(n), np.kron(w, np.eye(n)))


def lift_k_j(gen) -> np.ndarray:
    """K_J of the GNS calculus by the quotient formula -C_mid S(L_mid), with
    the class map C_mid = sqrt(g) W* P*, the lift L_mid = P W / sqrt(g) and
    S the swap-conjugation x_bc -> conj(x_cb).  The same T, P, eigh and
    cutoff as ``gns_calculus``, which builds K_J = -(PW)* S(PW) instead;
    the two agree in exact arithmetic, and this one amplifies rounding by
    the conditioning of the kept spectrum g."""
    ctx = gen.ctx
    n = gen.dim
    n2 = n * n
    lcheck = to_algebra(v_transform(gen.L2, ctx), ctx)
    sqrt_rho = ctx.sqrt_rho
    lv_units = lcheck.mat.reshape(n, n, n, n).transpose(3, 2, 1, 0)  # [b, B] = Lv(E_bB)
    tmid = -0.5 * (sqrt_rho @ lv_units @ sqrt_rho).transpose(0, 2, 1, 3).reshape(n2, n2)
    pbasis = scipy.linalg.null_space(sqrt_rho.reshape(1, n2))
    t_p = dagger(pbasis) @ tmid @ pbasis
    eigs, w = np.linalg.eigh(0.5 * (t_p + dagger(t_p)))
    cutoff = NULL_CUTOFF * abs(eigs).max(initial=0.0) + 1e-13 * max(1.0, gen.L.norm)
    keep = eigs > cutoff
    m = int(keep.sum())
    sqrt_g = np.sqrt(eigs[keep])
    pw = pbasis @ w[:, keep]
    c_mid = sqrt_g[:, None] * dagger(pw)
    l_swapped = (pw / sqrt_g[None, :]).reshape(n, n, m).transpose(1, 0, 2).reshape(n2, m)
    return -c_mid @ np.conj(l_swapped)


def loop_witness_defects(theta, calc_a, calc_b) -> dict:
    """Largest entrywise intertwining defect of theta on the spanning family
    S of ``calc_a``, one matrix unit E at a time: theta pi_a(E) S against
    pi_b(E) theta S for both actions, and theta J_a conj(S) against
    J_b conj(theta S)."""
    n = calc_a.dim
    sa = spanning_family(calc_a)
    theta_sa = theta @ sa
    pl = pr = 0.0
    for a in range(n):
        for b in range(n):
            pl = max(pl, _maxabs(theta @ (calc_a.pi_l[a, b] @ sa) - calc_b.pi_l[a, b] @ theta_sa))
            pr = max(pr, _maxabs(theta @ (calc_a.pi_r[a, b] @ sa) - calc_b.pi_r[a, b] @ theta_sa))
    j = _maxabs(theta @ (calc_a.jmat @ np.conj(sa)) - calc_b.jmat @ np.conj(theta_sa))
    return {
        "pi_l_intertwine_defect": pl,
        "pi_r_intertwine_defect": pr,
        "j_intertwine_defect": j,
    }


def lstsq_inner_vector(calc):
    """(xi0, residual) of the innerness equation solved by dense
    least squares (``np.linalg.lstsq``, rcond=None) on the stacked
    (n^2 dim_h x dim_h) operator, residual relative as in ``inner_vector``."""
    n, d = calc.dim, calc.dim_h
    s_m4, s_p4 = _quarter_units(calc.ctx)
    a_stack = np.tensordot(s_m4, calc.pi_l, axes=2) - np.tensordot(s_p4, calc.pi_r, axes=2)
    a_stack = a_stack.reshape(n * n * d, d)
    b_stack = calc.delta.reshape(n * n * d)
    xi0, *_ = np.linalg.lstsq(a_stack, b_stack, rcond=None)
    resid = np.linalg.norm(a_stack @ xi0 - b_stack)
    denom = np.linalg.norm(b_stack)
    return xi0, float(resid / denom if denom > 0 else resid)


def dense_uniqueness_witness(
    calc_a,
    calc_b,
    gen: MarkovGenerator,
    tol: float = 1e-6,
):
    """Witness that two calculi of the same generator are isomorphic.

    The candidate intertwiner maps the spanning family pi_l(E_ab) delta(E_cd)
    of one calculus onto the other's.  Gram agreement of the two spanning
    families is exactly the isometry condition (``gram_mismatch_max``, the
    worst entry); the returned report also certifies that the induced map
    intertwines both actions, the involutions and the derivations, and
    fails with the measured values when the calculi disagree.  Returns
    (theta, report).

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
    max_dev = float(np.abs(ga - gb).max(initial=0.0))
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


def kron_render(ctx, delta, k_j, meta) -> DenseCalculus:
    """The dense fields of a ``FirstOrderCalculus`` with delta coefficients
    ``delta`` and block ``k_j``, rendered by Kronecker products: pi_l(E) = E (x) I_{mn},
    pi_r(E) = I_{nm} (x) E^T and J = (outer swap) (x) K_J."""
    n = delta.shape[0]
    m = k_j.shape[0]
    dim_h = n * n * m
    units = np.eye(n * n, dtype=complex).reshape(n, n, n, n)  # units[p, q] = E_pq
    eye = np.eye(n, dtype=complex)
    return DenseCalculus(
        dim_h=dim_h,
        pi_l=np.kron(units, np.eye(m * n)),
        # np.kron keeps a transposed operand's strides; the copy keeps pi_r C-contiguous
        pi_r=np.kron(np.eye(n * m), units.transpose(1, 0, 2, 3).copy()),
        jmat=np.einsum("xw,yz,kl->xkyzlw", eye, eye, k_j).reshape(dim_h, dim_h),
        delta=delta,
        ctx=ctx,
        meta=meta,
    )


def loop_standard_form_defect(calc) -> float:
    """``standard_form_defect`` one matrix unit (one outer pair of J) at a
    time, subtracting the rendering from a complex copy of each block."""
    n = calc.dim
    m, k_j = dense_k_j(calc)
    mn = m * n
    eye = np.eye(mn)
    pi_l = calc.pi_l.reshape(n, n, n, mn, n, mn)  # [p, q, a, (k, d), a', (l, d')]
    pi_r = calc.pi_r.reshape(n, n, mn, n, mn, n)  # [p, q, (a, k), d, (a', l), d']
    jmat = calc.jmat.reshape(n, m, n, n, m, n)  # [a, k, d, a', l, d']
    worst = 0.0
    for p in range(n):
        for q in range(n):
            left = pi_l[p, q].copy()
            left[p, :, q] -= eye
            right = pi_r[p, q].copy()
            right[:, q, :, p] -= eye  # E_pq^T = E_qp
            inv = jmat[p, :, q].copy()
            inv[:, q, :, p] -= k_j
            worst = max(worst, _maxabs(left), _maxabs(right), _maxabs(inv))
    return worst


def loop_commutator_form_matrix(family, ctx, n: int) -> np.ndarray:
    """sum_j <[V_j, E_ab], [V_j, E_cd]>_rho summed member by member over the
    vectorized commutator superoperators lmul(V_j) - rmul(V_j) and the KMS
    Gram (rho^{1/2})^T (x) rho^{1/2}, permuted to row-major unit labels."""
    perm = np.arange(n * n).reshape(n, n).T.ravel()
    gk = np.kron(ctx.sqrt_rho.T, ctx.sqrt_rho)
    rhs = np.zeros((n * n, n * n), dtype=complex)
    for v in family.ops:
        k = lmul(v).mat - rmul(v).mat  # columns are vec([V, E]) in vec order
        rhs += dagger(k) @ gk @ k
    return rhs[np.ix_(perm, perm)]


def delta_form_matrix(calc) -> np.ndarray:
    """F[(p, q), (r, s)] = <delta(E_pq), delta(E_rs)> as one GEMM of the
    n^2 x dim_h delta coefficients (row-major unit labels)."""
    dmat = calc.delta.reshape(calc.dim**2, calc.dim_h)
    return np.conj(dmat) @ dmat.T


def delta_j_defect(calc) -> float:
    """Largest entrywise deviation of delta(E_qp) from J delta(E_pq), on the
    delta coefficients of a ``FirstOrderCalculus``:
    (J xi)[a, k, d] = sum_l K_J[k, l] conj(xi[d, l, a])."""
    n, m = calc.dim, calc.m
    c = calc.delta.reshape(n, n, n, m, n)
    j_image = np.tensordot(calc.k_j, np.conj(c), axes=([1], [3]))  # [k, p, q, d, a]
    return _maxabs(c.transpose(1, 0, 2, 3, 4) - j_image.transpose(1, 2, 4, 0, 3))


def delta_uniqueness_witness(calc_a, calc_b, gen: MarkovGenerator, tol: float = 1e-6):
    """The standard-form witness on the delta coefficients of two
    ``FirstOrderCalculus`` objects.  Returns (W, report) with the checks of
    ``uniqueness_witness``: the n^3 x n^3 Grams N N* of the coefficients read
    with rows (p, q, a) and columns (k, d), W^T = pinv(C_a) C_b by least
    squares on the n^4 x m coefficient columns C[(p, q, a, d), k] =
    delta_k(E_pq)[a, d], and max |C_a W^T - C_b| as ``delta_match_defect``."""
    n = gen.dim
    m_a, k_a = calc_a.m, calc_a.k_j
    m_b, k_b = calc_b.m, calc_b.k_j
    c_a = calc_a.delta.reshape(n, n, n, m_a, n)
    c_b = calc_b.delta.reshape(n, n, n, m_b, n)
    n_a = c_a.reshape(n**3, m_a * n)
    n_b = c_b.reshape(n**3, m_b * n)
    ga = n_a @ dagger(n_a)
    max_dev = _maxabs(ga - n_b @ dagger(n_b))
    cols_a = c_a.transpose(0, 1, 2, 4, 3).reshape(n**4, m_a)
    cols_b = c_b.transpose(0, 1, 2, 4, 3).reshape(n**4, m_b)
    w = (np.linalg.pinv(cols_a, rcond=1e-12) @ cols_b).T
    unitarity = max(
        _maxabs(dagger(w) @ w - np.eye(m_a)), _maxabs(w @ dagger(w) - np.eye(m_b))
    )
    rep = Report(name="uniqueness_witness", tol=tol)
    rep.checks.append(Check("gram_mismatch_max", max_dev, tol * max(1.0, _maxabs(ga)), "le"))
    rep.checks.append(Check("w_unitarity_defect", unitarity, tol, "le"))
    rep.checks.append(Check("j_intertwine_defect", _maxabs(w @ k_a - k_b @ np.conj(w)), tol, "le"))
    rep.checks.append(Check("delta_match_defect", _maxabs(cols_a @ w.T - cols_b), tol, "le"))
    return w, rep


def tensor_leibniz_defect(calc) -> float:
    """Largest entrywise deviation of delta_k(E_ab E_cd) from
    sigma_{-i/4}(E_ab) delta_k(E_cd) + delta_k(E_ab) sigma_{+i/4}(E_cd),
    over the whole (n, n, n, n, m, n, n) tensor of unit pairs and
    components at once."""
    n = calc.dim
    c = calc.delta.reshape(n, n, n, calc.dim_h // (n * n), n)
    s_m4, s_p4 = _quarter_units(calc.ctx)
    dk = c.transpose(0, 1, 3, 2, 4)
    rhs = s_m4[:, :, None, None, None] @ dk + dk[:, :, None, None] @ s_p4[:, :, None]
    rhs[:, np.arange(n), np.arange(n)] -= dk[:, None]  # E_ab E_cd = delta_bc E_ad
    return _maxabs(rhs)


def commutator_delta(herm: np.ndarray, ctx: DensityContext) -> np.ndarray:
    """delta(E_pq)[a, k, d] = (rho^{1/4} [V_k, E_pq] rho^{1/4})[a, d] for the
    stack ``herm`` (m, n, n), of shape (n, n, n^2 m): the commutators with
    the matrix units sandwiched by rho^{1/4}, without the inner vector."""
    n = ctx.dim
    units = np.eye(n * n, dtype=complex).reshape(n, n, n, n)  # units[p, q] = E_pq
    v = herm[:, None, None]
    blocks = ctx.quarter_rho @ (v @ units - units @ v) @ ctx.quarter_rho  # [k, p, q]
    return blocks.transpose(1, 2, 3, 0, 4).reshape(n, n, n * n * len(herm))


def pi_l_of(calc, x) -> np.ndarray:
    """pi_l(x) = x (x) I_{mn} of a standard-form calculus."""
    return kron(as_matrix(x, calc.dim), np.eye(calc.dim_h // calc.dim))


def pi_r_of(calc, x) -> np.ndarray:
    """pi_r(x) = I_{nm} (x) x^T of a standard-form calculus."""
    return kron(np.eye(calc.dim_h // calc.dim), as_matrix(x, calc.dim).T)


def delta_of(calc, a) -> np.ndarray:
    """delta(a) in H, from the delta coefficients of the matrix units."""
    return np.tensordot(as_matrix(a, calc.dim), calc.delta, axes=2)


def right_bounded_rep(ctx: DensityContext, b) -> np.ndarray:
    """The matrix y with b = rho^{1/2} y; right multiplication by y is the
    right action of the vector b."""
    return ctx.inv_sqrt_rho @ as_matrix(b, ctx.dim)


def leibniz_bilinear_residual(calc, a, b, c) -> float:
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
        return delta_of(calc, ctx.inv_quarter_rho @ x @ ctx.inv_quarter_rho)

    def right_act(xi, y):
        return pi_r_of(calc, right_bounded_rep(ctx, y)) @ xi

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
