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
decomposition of Xi = to_l2(V(Psi)), the L2 implementation of the
V-transform of an admissible completely positive Psi.  Both routes are
implemented, each returning a Hermitian family, and ``commutator_calculus``
builds the calculus of a family in the coordinates C^n (x) C^m (x) C^n.

The routes differ only in the multiplicity space C^m, and a calculus is its
data there: ``FirstOrderCalculus`` is built from the inner vector X, m
matrices X_k with delta_k(E) = sigma_{-i/4}(E) X_k - X_k sigma_{i/4}(E), and
the m x m block K_J of the involution.  X is defined modulo rho^{1/2}, the
kernel of this map, and QX, X projected off rho^{1/2}, is the representative
on which it is injective.  The GNS route passes its class map, the Kraus
route X_k = -rho^{1/4} V_k rho^{1/4}.  Every certificate reads (X, K_J), in
O(n^4 m): one form function, ``_form_matrix``, serves the report and
``verify_commutator_form``, and the rest reads QX.  The uniqueness witness
is the m_b x m_a matrix W of the isometry I (x) W (x) I.  The constructor
renders delta, the actions and the dense involution, and only
``inner_vector`` reads any of them (delta), so no check compares a calculus
with its own rendering.  Each term of delta_k(E_ab) is an outer product of a
column of rho^{1/4} or of X_k rho^{-1/4} with a row of rho^{-1/4} X_k or of
rho^{1/4}, so delta is rendered as two Kronecker products with no
contraction (``_render_delta``); the einsum over the n^4 tensors
sigma_{-+i/4}(E_ab) (``_quarter_units``) is the dense oracle it is gated
against in the tests.  The actions depend on (n, m) alone and are rendered
once per (n, m), as read-only windows of one small array: every calculus of
that (n, m) holds the same views while any of them is alive.

Constructors raise only when they cannot build their object; each identity
the calculus claims is measured once, by its report.  The form identity
<delta(A), delta(B)> = <A, L(B)>_rho is certified by
``calculus_invariants_report`` for the GNS calculus and by
``verify_commutator_form`` for each commutator family, and the agreement of
two calculi by ``uniqueness_witness``, whose Gram comparison is one of its
checks.  Innerness and the twisted Leibniz rule hold by type: delta is
inner(X), and an inner derivation satisfies the rule exactly, because
sigma_{-i/4} and sigma_{i/4} are homomorphisms.  Their dense oracles, and
the delta-space forms of the certificates, stay with the tests.

Every bound here is a fixed module constant, relative to max(1, ||L||)
where it scales: GRAM_PSD_TOL for Gram positivity, NULL_CUTOFF for the one
rank decision of each calculus (``_kept``), NOISE_FLOOR for the noise the
Hermitian normal form drops, FORM_TOL for the form identity, INVARIANTS_TOL
for the invariants report, COMMUTATOR_FORM_TOL for the commutator form and
WITNESS_TOL for the uniqueness witness.  Each report records it as ``tol``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DimensionMismatch,
    GramNotPSD,
    InconsistentPsi,
    Infeasible,
    NotPSD,
    ReconstructionFailure,
)
from .generator import (
    MarkovGenerator,
    recover_cp_from_generator,
    resolvent_generator,
)
from .matrix_core import (
    DensityContext,
    dagger,
    hermitian_basis,
    kron,
    opnorm,
)
from .reports import Check, Report
from .superop import (
    KRAUS_RANK_TOL,
    Superoperator,
    choi,
    to_algebra,
    to_l2,
    unit_images,
)
from .vtransform import v_transform

GRAM_PSD_TOL = 1e-8
NULL_CUTOFF = 1e-10
NOISE_FLOOR = 1e-15
FORM_TOL = 1e-8
COMMUTATOR_FORM_TOL = 1e-7
INVARIANTS_TOL = 1e-9
WITNESS_TOL = 1e-6


# (n, m, side) -> the read-only rendering of pi_l or pi_r, alive while some
# calculus holds it
_ACTIONS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _windows(ones: np.ndarray, side: int, dim_h: int) -> np.ndarray:
    """The read-only grid of every dim_h x dim_h window of the complex
    side x side array that is 1 at (ones, ones) and 0 elsewhere."""
    base = np.zeros((side, side), dtype=complex)
    base[ones, ones] = 1.0
    base.flags.writeable = False  # and so every view of it
    return sliding_window_view(base, (dim_h, dim_h))


def _standard_actions(n: int, m: int):
    """(pi_l, pi_r), each (n, n, n^2 m, n^2 m) and read-only, of the standard
    bimodule on C^n (x) C^m (x) C^n: pi_l(E_pq) = E_pq (x) I on (a, (k, d))
    and pi_r(E_pq) = I (x) E_qp on ((a, k), d).  They depend on (n, m) alone,
    so every live calculus of that (n, m) shares one rendering; the table
    holds them weakly, and they are freed with the last calculus.

    Each is a view, with no copy, of windows of one small array.  With
    mn = m n, pi_l[p, q] is the window at block offset ((n-1-p) mn,
    (n-1-q) mn) of the ((2n-1) mn)^2 array whose one nonzero part is the
    mn x mn identity block at its centre.  pi_r[p, q] is the window at
    (n-1-q, n-1-p) of the (dim_h + n - 1)^2 array with ones at (x, x) for
    x = n-1 mod n.  The values, shape and dtype are those of the dense
    (n, n, dim_h, dim_h) array, bit for bit, and numpy's ``nbytes`` of either
    is that logical size; the bytes stored are the small array's, fewer than
    4 dim_h^2 + n^2 entries against the n^2 dim_h^2 of a dense array."""
    mn = m * n
    dim_h = n * mn
    step = max(mn, 1)  # m = 0 leaves H = 0, and any step gives empty windows
    actions = []
    for side in ("l", "r"):
        arr = _ACTIONS.get((n, m, side))
        if arr is None:
            if side == "l":
                centre = np.arange((n - 1) * mn, n * mn)
                grid = _windows(centre, (n - 1) * step + dim_h, dim_h)
                arr = grid[::-step, ::-step]
            else:
                period = np.arange(n - 1, dim_h + n - 1, n)
                grid = _windows(period, dim_h + n - 1, dim_h)
                arr = grid[::-1, ::-1].swapaxes(0, 1)
            _ACTIONS[n, m, side] = arr
        actions.append(arr)
    return tuple(actions)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A view of ``arr`` that stays read-only: numpy lets a view's flag be
    set back while ``arr`` or any array under it is writeable, so all of
    them are made read-only first."""
    base = arr
    while isinstance(base, np.ndarray):
        base.flags.writeable = False
        base = base.base
    return arr.view()


@dataclass(frozen=True, eq=False)
class FirstOrderCalculus:
    """A first-order differential calculus on H = C^n (x) C^m (x) C^n,
    indexed (a m + k) n + d, given by its standard-form data.

    ``x`` is the inner vector, an (m, n, n) stack of matrices X_k defined
    modulo rho^{1/2}, and ``k_j`` the m x m block K_J of the antilinear
    involution: in these coordinates pi_l(E) = E (x) I (x) I,
    pi_r(E) = I (x) I (x) E^T, J is the swap of a and d tensored with K_J,
    composed with conjugation, and delta is inner(X),

        delta(E)[a, k, d] = (sigma_{-i/4}(E) X_k - X_k sigma_{i/4}(E))[a, d].

    ``meta`` carries construction diagnostics (Gram spectrum, null cutoff).

    The constructor stores read-only copies of X and K_J, derives ``dim_h``
    and ``m``, and renders ``delta[a, b]`` = delta(E_ab) in H, of shape
    (n, n, dim_h), as two Kronecker products with no contraction
    (``_render_delta``, gated in the tests against the einsum over the n^4
    tensors of ``_quarter_units``), and the (dim_h, dim_h) ``jmat`` (J acts
    as xi -> jmat @ conj(xi)); each of the four is a view of read-only memory
    (``_read_only``), so its flag cannot be set back.  The (n, n, dim_h, dim_h)
    ``pi_l`` and ``pi_r`` depend on (n, m) alone: each is a read-only view of
    windows of one small array (``_standard_actions``), so its ``nbytes`` is
    the logical size of a dense array, not the bytes stored, and while any
    calculus of that (n, m) is alive, every other one holds the same views,
    which are freed with the last of them.  None of these is a constructor
    argument, so ``dataclasses.replace`` cannot set them and they are the
    rendering of X and K_J by construction.  The library never reads the
    dense pi_l, pi_r and jmat, and reads delta only in ``inner_vector``.

    Raises DimensionMismatch when X is not (m, n, n) with n = ctx.dim or
    K_J is not m x m.
    """

    ctx: DensityContext
    x: np.ndarray  # (m, n, n)
    k_j: np.ndarray  # (m, m)
    meta: dict = field(default_factory=dict)
    delta: np.ndarray = field(init=False, repr=False)  # (n, n, dim_h)
    dim_h: int = field(init=False)
    m: int = field(init=False)
    pi_l: np.ndarray = field(init=False, repr=False)  # (n, n, dim_h, dim_h)
    pi_r: np.ndarray = field(init=False, repr=False)  # (n, n, dim_h, dim_h)
    jmat: np.ndarray = field(init=False, repr=False)  # (dim_h, dim_h)

    def __post_init__(self):
        n = self.ctx.dim
        x = np.array(self.x, dtype=complex, order="C")
        k_j = np.array(self.k_j, dtype=complex, order="C")
        if x.ndim != 3 or x.shape[1:] != (n, n):
            raise DimensionMismatch(f"X has shape {x.shape}, expected (m, {n}, {n})")
        m = x.shape[0]
        if k_j.shape != (m, m):
            raise DimensionMismatch(f"K_J has shape {k_j.shape}, expected ({m}, {m})")
        dim_h = n * n * m
        # J sends the outer pair (a, d) to (d, a): a zero array with K_J
        # scattered into the pattern blocks
        a = np.arange(n)[:, None]
        d = np.arange(n)
        jmat = np.zeros((n, m, n, n, m, n), dtype=complex)
        jmat[a, :, d, d, :, a] = k_j
        pi_l, pi_r = _standard_actions(n, m)
        fields = {
            "x": _read_only(x),
            "k_j": _read_only(k_j),
            "delta": _read_only(_render_delta(self.ctx, x)),
            "pi_l": pi_l,
            "pi_r": pi_r,
            "jmat": _read_only(jmat.reshape(dim_h, dim_h)),
        }
        for name, arr in fields.items():
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "dim_h", dim_h)
        object.__setattr__(self, "m", m)

    @property
    def dim(self) -> int:
        return self.ctx.dim


@dataclass(frozen=True, eq=False)
class CommutatorFamily:
    """Hermitian matrices V_1..V_N, so closed under adjoints, with the
    generator form sum_j <[V_j,A],[V_j,B]>_rho: from the GNS route
    m = dim H / n^2 traceless operators, from the Kraus route the Hermitian
    normal form of Xi's Kraus operators.  Raises ValueError, naming the first
    such operator, when one is not exactly Hermitian, by one comparison of the
    stacked family with its adjoint, and when the operators are not n x n
    matrices of one shape."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(v, dtype=complex) for v in self.ops)
        object.__setattr__(self, "ops", ops)
        if not ops:
            return
        stack = np.stack(ops)  # raises ValueError for operators of unequal shape
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError(f"the family's operators have shape {stack.shape[1:]}, not n x n")
        off = (stack != np.conj(stack).transpose(0, 2, 1)).any(axis=(1, 2))
        if off.any():
            raise ValueError(f"operator {off.argmax()} of the family is not exactly Hermitian")

    def __len__(self) -> int:
        return len(self.ops)


def _render_delta(ctx: DensityContext, x: np.ndarray) -> np.ndarray:
    """delta[a, b] = inner(X)(E_ab) in H's (a, k, d) order, of shape
    (n, n, n^2 m), for the stack ``x`` (m, n, n).

    With A = rho^{1/4} and B = rho^{-1/4}, sigma_{-i/4}(E_ab) = A E_ab B and
    sigma_{i/4}(E_ab) = B E_ab A, so

        delta_k(E_ab)[x, w] = A[x, a] (B X_k)[b, w] - (X_k B)[x, a] A[b, w]:

    row (a, b) and column (x, k, w) of A^T (x) [b, (k, w)] minus
    [a, (x, k)] (x) A, two Kronecker products and no contraction."""
    n = ctx.dim
    qr, qi = ctx.quarter_rho, ctx.inv_quarter_rho
    left = (qi @ x).transpose(1, 0, 2).reshape(n, -1)  # [b, (k, w)] = (B X_k)[b, w]
    right = (x @ qi).transpose(2, 1, 0).reshape(n, -1)  # [a, (x, k)] = (X_k B)[x, a]
    return (kron(qr.T, left) - kron(right, qr)).reshape(n, n, -1)


def _off_sqrt_rho(ctx: DensityContext, x: np.ndarray) -> np.ndarray:
    """QX, each X_k of the stack ``x`` minus its Hilbert-Schmidt projection on
    rho^{1/2}: the representative orthogonal to the innerness map's kernel."""
    r = ctx.sqrt_rho
    coef = x.reshape(len(x), r.size) @ np.conj(r).ravel() / np.vdot(r, r).real
    return x - coef[:, None, None] * r


def _form_matrix(ctx: DensityContext, x: np.ndarray) -> np.ndarray:
    """F[(p, q), (r, s)] = sum_k <inner(X_k)(E_pq), inner(X_k)(E_rs)> over
    matrix-unit pairs (row-major unit labels) for the stack ``x`` (m, n, n),
    Hermitian or not, from X alone.

    With A = rho^{1/4}, R = rho^{1/2}, Y_k = rho^{-1/4} X_k and
    Z_k = X_k rho^{-1/4}, inner(X_k)(E_pq)[a, d] = A[a, p] Y_k[q, d]
    - Z_k[a, p] A[q, d], so

        F = R (x) conj(sum_k Y_k Y_k*) + (sum_k Z_k* Z_k) (x) R^T - H - H*,
        H[(p, q), (r, s)] = sum_k (A Z_k)[p, r] conj(Y_k A)[q, s],

    where H* = sum_k (Z_k* A)[p, r] (conj(A) Y_k^T)[q, s]: two Kronecker
    products and one (n^2 x m)(m x n^2) product, O(n^4 m)."""
    n = ctx.dim
    n2 = n * n
    a, qi, r = ctx.quarter_rho, ctx.inv_quarter_rho, ctx.sqrt_rho
    xw = x.transpose(1, 0, 2).reshape(n, -1)  # [a, (k, d)] = X_k[a, d]
    xv = x.reshape(-1, n)  # [(k, a), d] = X_k[a, d]
    yy = qi @ (xw @ dagger(xw)) @ qi
    zz = qi @ (dagger(xv) @ xv) @ qi
    az = (a @ x @ qi).reshape(-1, n2)
    ya = (qi @ x @ a).reshape(-1, n2)
    h = (az.T @ np.conj(ya)).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n2, n2)
    return kron(r, np.conj(yy)) + kron(zz, r.T) - h - dagger(h)


def _maxabs(x) -> float:
    return float(np.abs(x).max(initial=0.0))


def _kept(eigs: np.ndarray, gen: MarkovGenerator):
    """The rank rule of every calculus on the spectrum ``eigs`` of M*M, M = QX:
    (mask, cutoff), cutoff = NULL_CUTOFF max|eigs| + 1e-13 max(1, ||L||), the
    generator's noise floor, so a numerically zero L gives an empty calculus."""
    cutoff = NULL_CUTOFF * np.abs(eigs).max(initial=0.0) + 1e-13 * max(1.0, gen.L.norm)
    return eigs > cutoff, cutoff


def _hermitian_normal_form(gram: np.ndarray, b: np.ndarray):
    """(O, lam) for a Gram = W diag(lam) W^T over the HS-orthonormal
    Hermitian basis B_l of M_n, ``b`` the matrix of columns vec(B_l):
    O_i = sqrt(lam_i) sum_l W[l, i] B_l for the lam_i above
    NOISE_FLOOR * max(lam), so sum_i O_i Y O_i is the map of that Gram up to
    rounding.  It makes no rank decision; the calculus does."""
    n = math.isqrt(len(b))
    eigs, w = np.linalg.eigh(gram)
    keep = eigs > NOISE_FLOOR * eigs.max(initial=0.0)
    herm = ((np.sqrt(eigs[keep]) * w[:, keep]).T @ dagger(b)).reshape(-1, n, n)
    # bit-exact Hermitian, as ``CommutatorFamily`` requires
    return 0.5 * (herm + np.conj(herm).transpose(0, 2, 1)), eigs


def _kms_unit_form(s: Superoperator, ctx: DensityContext) -> np.ndarray:
    """The KMS form of S over matrix units: rho^{1/2} S(E_ab) rho^{1/2} at
    [a, b], so entry [a, b, p, q] is <E_pq, S(E_ab)>_rho."""
    return ctx.sqrt_rho @ unit_images(s) @ ctx.sqrt_rho


def kms_form_of_generator(gen: MarkovGenerator) -> np.ndarray:
    """The matrix F[(ab),(cd)] = <E_ab, L(E_cd)>_rho over matrix-unit pairs
    (row-major unit labels)."""
    n2 = gen.dim**2
    return _kms_unit_form(gen.L, gen.ctx).transpose(2, 3, 0, 1).reshape(n2, n2)


def gns_calculus(gen: MarkovGenerator) -> FirstOrderCalculus:
    """Construct the first-order calculus of a certified generator by the
    GNS quotient of the V-transformed generator, in H = C^n (x) K (x) C^n.

    With P an orthonormal basis of (rho^{1/2})^perp, the trailing right
    singular vectors of one full SVD of the 1 x n^2 row rho^{1/2}, and
    P* T P = W g W*, the m eigenvalues that ``_kept`` keeps give K = C^m
    and the class map C_mid = sqrt(g) W* P*.  In the coordinates (a, k, d), indexed
    (a m + k) n + d, pi_l(E) = E (x) I (x) I, pi_r(E) = I (x) I (x) E^T,
    J is the swap of a and d tensored with K_J, composed with conjugation,
    the class of sigma_{-i/4}(E) (x) I - I (x) sigma_{i/4}(E) is

        delta(E)[a, k, d] = (sigma_{-i/4}(E) C_k - C_k sigma_{i/4}(E))[a, d],

    so the inner vector is X = C_mid, and K_J = -(PW)* S(PW), with S the
    swap-conjugation x_bc -> conj(x_cb).
    The quotient's -C_mid S(P W / sqrt(g)) is sqrt(g_k / g_l) times each
    entry; they agree because S fixes rho^{1/2} and commutes with T (the
    involution A (x) B -> -B* (x) A* is antiunitary for the form), so it maps
    each eigenspace of P* T P to itself and entry (k, l) vanishes unless
    g_k = g_l.  The product of isometries does not amplify rounding by the
    conditioning of g.

    Raises only when the quotient cannot be built: GramNotPSD when P* T P
    has an eigenvalue below -1e-8 * ||P* T P|| (a non-CND input slipping
    through certification), and ReconstructionFailure when Lv misses I in
    its kernel.  That delta reproduces <A, L(B)>_rho and is compatible with
    J is certified by ``calculus_invariants_report``.
    ``meta["gram_eigs"]`` is the (n^2 - 1) middle spectrum g of P* T P, and
    M*M = diag(g) on the kept directions for M = QX = C_mid; the Gram form
    on N has each g n^2 times.  No quotient map is stored.
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

    # T[(b, c), (B, C)] = -1/2 (rho^{1/2} Lv(E_bB) rho^{1/2})[c, C]
    tmid = -0.5 * _kms_unit_form(lcheck, ctx).transpose(0, 2, 1, 3).reshape(n2, n2)

    # P: the right singular vectors of the row rho^{1/2} past its rank, the
    # count of singular values above eps * n^2 * sigma_max
    _, sv, vh = np.linalg.svd(ctx.sqrt_rho.reshape(1, n2), full_matrices=True)
    rank = int((sv > np.finfo(float).eps * n2 * sv.max(initial=0.0)).sum())
    pbasis = dagger(vh[rank:])
    t_p = dagger(pbasis) @ tmid @ pbasis
    eigs, w = np.linalg.eigh(0.5 * (t_p + dagger(t_p)))
    psd_bound = GRAM_PSD_TOL * max(abs(eigs).max(initial=0.0), 1e-300)
    if eigs.min(initial=0.0) < -psd_bound:
        raise GramNotPSD(
            f"restricted Gram form has eigenvalue {eigs.min():.3e} "
            f"< -{GRAM_PSD_TOL:.0e} * ||G||",
            value=float(eigs.min()),
            bound=float(psd_bound),
        )
    keep, cutoff = _kept(eigs, gen)
    m = int(keep.sum())
    sqrt_g = np.sqrt(eigs[keep])
    pw = pbasis @ w[:, keep]
    c_mid = (sqrt_g[:, None] * dagger(pw)).reshape(m, n, n)

    pw_swapped = pw.reshape(n, n, m).transpose(1, 0, 2).reshape(n2, m)
    k_j = -dagger(pw) @ np.conj(pw_swapped)
    return FirstOrderCalculus(
        ctx,
        c_mid,
        k_j,
        meta={
            "gram_eigs": eigs,
            "null_cutoff": cutoff,
            "vgen_kernel_defect": kernel_defect,
        },
    )


def calculus_invariants_report(calc: FirstOrderCalculus, gen: MarkovGenerator) -> Report:
    """Certify the defining properties of a first-order calculus from its
    standard-form data (X, K_J).

    The actions pi_l(E) = E (x) I (x) I and pi_r(E) = I (x) I (x) E^T and
    J = (outer swap) (x) K_J are standard by the type, which makes pi_l a
    unital *-homomorphism, pi_r a unital *-antihomomorphism, the actions
    commute and J exchanges them.  delta = inner(X) by the type too, so it is
    inner and satisfies the twisted Leibniz rule.  The rest is certified on
    (X, K_J): J antiunitary and involutive
    (jmat* jmat = I (x) K_J* K_J and jmat conj(jmat) = I (x) K_J conj(K_J),
    so the m x m defects equal the dim H ones), delta(A*) = J delta(A),
    cyclicity of the delta-image under the left action, and the form identity
    <delta(A), delta(B)> = <A, L(B)>_rho on the matrix units, which no other
    function measures.  Defects are maximal entrywise deviations, bounded by
    INVARIANTS_TOL * max(1, ||L||) (the form identity by
    FORM_TOL * max(1, ||L||)); the report records INVARIANTS_TOL as its
    ``tol``.

    With Q the projection off rho^{1/2}, the kernel of the innerness map,
    J delta(A) = inner(X')(A*) with X'_k = -sum_l K_J[k, l] X_l*, so
    ``j_delta_defect`` records max |Q(X - X')|.  The delta-image generates
    C^n (x) K' (x) C^n, and z in C^m is orthogonal to K' iff
    sum_k conj(z_k) QX_k = 0, so ``cyclic_rank_deficit`` records
    dim H - n^2 rank(QX), the rank of QX read as the n^2 x m matrix by one
    SVD with cutoff NULL_CUTOFF relative to its largest singular value.
    ``form_identity_defect`` reads ``_form_matrix`` of X.

    For the GNS calculus K_J is a product of isometries, so
    ``j_antiunitary_defect`` measures only the rounding of that product; the
    checks that carry the measurement of J are ``j_delta_defect`` and the
    uniqueness witness's ``j_intertwine_defect``.
    """
    ctx = calc.ctx
    n2 = calc.dim**2
    m = calc.m
    x, k_j = calc.x, calc.k_j
    tol = INVARIANTS_TOL
    rep = Report(name="calculus_invariants", tol=tol)
    scale = max(1.0, gen.L.norm)

    eye_m = np.eye(m)
    j_unitary = _maxabs(dagger(k_j) @ k_j - eye_m)
    j_invol = _maxabs(k_j @ np.conj(k_j) - eye_m)
    rep.checks.append(Check("j_antiunitary_defect", j_unitary, tol * scale, "le"))
    rep.checks.append(Check("j_involution_defect", j_invol, tol * scale, "le"))

    x_j = -(k_j @ np.conj(x).transpose(0, 2, 1).reshape(m, n2)).reshape(x.shape)  # X'
    j_delta = _maxabs(_off_sqrt_rho(ctx, x - x_j))
    rep.checks.append(Check("j_delta_defect", j_delta, tol * scale, "le"))

    if m > 0:
        sv = np.linalg.svd(_off_sqrt_rho(ctx, x).reshape(m, n2).T, compute_uv=False)
        rank = n2 * int((sv > NULL_CUTOFF * sv.max()).sum())
    else:
        rank = 0
    rep.checks.append(Check("cyclic_rank_deficit", float(calc.dim_h - rank), 0.0, "le"))
    form = _maxabs(_form_matrix(ctx, x) - kms_form_of_generator(gen))
    rep.checks.append(Check("form_identity_defect", form, FORM_TOL * scale, "le"))
    return rep


def verify_commutator_form(family: CommutatorFamily, gen: MarkovGenerator) -> Report:
    """Evaluate <A, L(B)>_rho against sum_j <[V_j, A], [V_j, B]>_rho on all
    matrix-unit pairs, bounded by COMMUTATOR_FORM_TOL * max(1, ||L||); the
    report records COMMUTATOR_FORM_TOL as its ``tol`` and the family size.
    rho^{1/4} [V, E] rho^{1/4} = inner(X)(E) with X = -rho^{1/4} V rho^{1/4},
    so the family's form is ``_form_matrix`` of that stack.  This is the one
    certificate of a family's form: the extractions do not run it."""
    ctx = gen.ctx
    qr = ctx.quarter_rho
    ops = np.array(family.ops, dtype=complex).reshape(-1, ctx.dim, ctx.dim)
    dev = _maxabs(kms_form_of_generator(gen) - _form_matrix(ctx, -(qr @ ops @ qr)))
    tol = COMMUTATOR_FORM_TOL
    rep = Report(name="commutator_form", tol=tol)
    rep.checks.append(Check("max_form_deviation", dev, tol * max(1.0, gen.L.norm), "le"))
    rep.metrics["family_size"] = len(family)
    return rep


def extract_commutators_gns(calc: FirstOrderCalculus, gen: MarkovGenerator) -> CommutatorFamily:
    """Read the commutator family off the GNS calculus.

    Component k of the derivation is inner(X_k), and
    rho^{1/4} [V, E] rho^{1/4} = inner(-rho^{1/4} V rho^{1/4})(E), so
    V_k = -rho^{-1/4} X_k rho^{-1/4}.  The V_k are shifted to trace 0, which
    fixes the additive-identity gauge and removes the rho^{1/2} freedom of X,
    and brought to the Hermitian normal form, which truncates nothing the
    calculus kept: the family is m = dim H / n^2 Hermitian operators,
    independent modulo I (none when dim H = 0).  ``gen`` is not read.

    Never raises on a measurement; the family's form identity is certified
    by ``verify_commutator_form``.
    """
    n = calc.dim
    qi = calc.ctx.inv_quarter_rho
    ops = -(qi @ calc.x @ qi)
    ops -= np.trace(ops, axis1=1, axis2=2)[:, None, None] / n * np.eye(n)
    b = np.conj(hermitian_basis(n).reshape(n * n, -1)).T  # columns vec(B_l)
    # x[k, l] = tr(B_l V_k); Re(x* x) is the Gram of {V_k / sqrt2} + {V_k* / sqrt2}
    x = ops.reshape(-1, n * n) @ b
    herm, _ = _hermitian_normal_form((dagger(x) @ x).real, b)
    return CommutatorFamily(ops=tuple(herm))


def extract_commutators_kraus(
    gen: MarkovGenerator, psi: Superoperator | None = None
) -> CommutatorFamily:
    """Extract the commutator family through the Kraus decomposition of
    Xi = to_l2(V(Psi)), the L2 implementation of the V-transform of Psi:
    Xi(A) = rho^{1/4} V(Psi)(rho^{-1/4} A rho^{-1/4}) rho^{1/4}.

    If no Psi is supplied, one is recovered from the generator; infeasible
    recovery aborts with InconsistentPsi rather than guessing.  Xi's Kraus
    operators carry twice the generator form (the W-average of the two
    modular rotations contributes a factor 1/2).  The family is the Hermitian
    normal form of G = B* C(Xi) B / 2 (B's columns the vec(B_l)), the Gram of
    the Kraus family scaled by 1/sqrt(2), read off the Choi matrix C(Xi).

    Raises only when the family cannot be built: InconsistentPsi when Psi
    does not reproduce the generator or Xi is not trace-symmetric, NotPSD
    when G has an eigenvalue below -KRAUS_RANK_TOL ||G|| (G is unitarily
    congruent to C(Xi) / 2), and WrongLevel, from the resolvent check, when
    Psi is not an algebra-level map.  The family's form identity is certified
    by ``verify_commutator_form``, not here.
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

    xi = to_l2(v_transform(psi, ctx), ctx)
    # trace symmetry tr(A Xi(B)) = tr(Xi(A) B): Xi(E_ab)[p, q] = Xi(E_qp)[b, a]
    units = unit_images(xi)
    sym_defect = np.abs(units - units.transpose(3, 2, 1, 0)).max()
    if sym_defect > 1e-8 * max(1.0, xi.norm):
        raise InconsistentPsi(
            f"Xi is not symmetric for the trace pairing (defect {sym_defect:.3e})"
        )

    b = np.conj(hermitian_basis(n).reshape(n * n, -1)).T  # columns vec(B_l)
    gram = dagger(b) @ choi(xi) @ b / 2.0
    herm, eigs = _hermitian_normal_form(0.5 * (gram + dagger(gram)).real, b)
    if eigs.min(initial=0.0) < -KRAUS_RANK_TOL * np.abs(eigs).max(initial=0.0):
        raise NotPSD(f"Choi(Xi) has eigenvalue {2 * eigs.min():.3e} < -{KRAUS_RANK_TOL:.0e} ||C||")
    return CommutatorFamily(ops=tuple(herm))


def commutator_calculus(family: CommutatorFamily, gen: MarkovGenerator) -> FirstOrderCalculus:
    """The calculus carried by a commutator family, in H = C^n (x) C^m (x) C^n.

    X_j = -rho^{1/4} V_j rho^{1/4} gives delta_j(E) = rho^{1/4} [V_j, E] rho^{1/4}.
    With M = QX, the real N x N Gram M*M = U diag(g) U^T (each QX_j is
    Hermitian); X is rotated by the columns of U that pass ``_kept``.  The
    rotation is real, so each X'_i comes from a Hermitian V'_i and K_J = -I_m
    gives J delta(A) = delta(A*); Q removes the identity gauge (V + cI shifts
    X by c rho^{1/2}), and the kept QX' are orthogonal, so the delta-image is
    cyclic.  ``meta`` holds g and the cutoff, as in ``gns_calculus``.
    """
    ctx = gen.ctx
    n2 = gen.dim**2
    qr = ctx.quarter_rho
    x = -(qr @ np.array(family.ops, dtype=complex).reshape(-1, gen.dim, gen.dim) @ qr)
    qx = _off_sqrt_rho(ctx, x).reshape(-1, n2)
    gram = (np.conj(qx) @ qx.T).real
    eigs, u = np.linalg.eigh(0.5 * (gram + gram.T))
    keep, cutoff = _kept(eigs, gen)
    return FirstOrderCalculus(
        ctx,
        (u[:, keep].T @ x.reshape(-1, n2)).reshape(-1, gen.dim, gen.dim),
        -np.eye(int(keep.sum()), dtype=complex),
        meta={"gram_eigs": eigs, "null_cutoff": cutoff, "family_size": len(family)},
    )


def inner_vector(calc: FirstOrderCalculus):
    """The inner vector of the calculus as a vector of H, with the residual
    of the innerness equation

        delta(A) = pi_l(sigma_{-i/4}(A)) xi0 - pi_r(sigma_{+i/4}(A)) xi0

    over all matrix units A.  Returns (xi0, residual).  xi0 is QX in H's
    (a, k, d) order, xi0[a, k, d] = (QX_k)[a, d], with Q the projection off
    rho^{1/2}, which spans the kernel of the equation in each component: the
    minimum-norm solution.  The residual is |delta - inner(QX)|, with
    inner(QX) rendered as the constructor renders delta, relative to |delta|
    (absolute when delta vanishes).
    """
    qx = _off_sqrt_rho(calc.ctx, calc.x)
    resid = np.linalg.norm(calc.delta - _render_delta(calc.ctx, qx))
    denom = np.linalg.norm(calc.delta)
    xi0 = qx.transpose(1, 0, 2).ravel()
    return xi0, float(resid / denom if denom > 0 else resid)


def uniqueness_witness(
    calc_a: FirstOrderCalculus, calc_b: FirstOrderCalculus, gen: MarkovGenerator
):
    """Witness that two standard-form calculi of the same generator are
    isomorphic.  Returns (W, report), W the m_b x m_a matrix on the
    multiplicity spaces.

    The isometry is theta = I_n (x) W (x) I_n, which commutes with the
    standard actions.  The innerness map is injective off rho^{1/2}, so with
    M = QX read as the n^2 x m matrix M[(a, d), k] = (QX_k)[a, d] (Q the
    projection off rho^{1/2}), theta delta_a = delta_b iff M_a W^T = M_b, and
    W^T = pinv(M_a) M_b.  The spanning families pi_l(E_ab) delta(E_cd) have
    equal Grams iff M_a M_a* = M_b M_b*, and ``gram_mismatch_max`` records
    the worst entry of that n^2 x n^2 difference.  Both calculi are in
    standard form by their type, so theta intertwines both actions exactly;
    the report also certifies W unitary (``w_unitarity_defect``; calculi of
    different multiplicity fail it with a measured value), W K_a = K_b conj(W)
    (``j_intertwine_defect``, theta J_a = J_b theta) and M_a W^T = M_b
    (``delta_match_defect``).  Every bound is WITNESS_TOL, relative to
    max(1, max |M_a M_a*|) for the Gram check, and the report records
    WITNESS_TOL as its ``tol``.  Its metrics record the extreme singular
    values of M_a and M_b (``sigma_min_a`` ... ``sigma_max_b``, 0 for an
    empty calculus): W's defects are amplified by about 1/sigma_min_a.  For
    each calculus whose ``meta`` holds its Gram spectrum g and cutoff, they
    record the margin of its rank rule, ``kept_gap_a`` (smallest kept g over
    the cutoff) and ``dropped_mass_a`` (sum of dropped |g| over sum |g|), and
    the same for b; no check reads them.  ``gen`` is not read.
    """
    tol = WITNESS_TOL
    m_a, k_a = calc_a.m, calc_a.k_j
    m_b, k_b = calc_b.m, calc_b.k_j
    cols_a = _off_sqrt_rho(calc_a.ctx, calc_a.x).reshape(m_a, calc_a.dim**2).T
    cols_b = _off_sqrt_rho(calc_b.ctx, calc_b.x).reshape(m_b, calc_b.dim**2).T
    ga = cols_a @ dagger(cols_a)
    max_dev = _maxabs(ga - cols_b @ dagger(cols_b))
    gram_bound = tol * max(1.0, _maxabs(ga))
    w = (np.linalg.pinv(cols_a, rcond=1e-12) @ cols_b).T
    unitarity = max(
        _maxabs(dagger(w) @ w - np.eye(m_a)), _maxabs(w @ dagger(w) - np.eye(m_b))
    )
    rep = Report(name="uniqueness_witness", tol=tol)
    rep.checks.append(Check("gram_mismatch_max", max_dev, gram_bound, "le"))
    rep.checks.append(Check("w_unitarity_defect", unitarity, tol, "le"))
    rep.checks.append(Check("j_intertwine_defect", _maxabs(w @ k_a - k_b @ np.conj(w)), tol, "le"))
    rep.checks.append(Check("delta_match_defect", _maxabs(cols_a @ w.T - cols_b), tol, "le"))
    rep.metrics.update({"dim_h_a": calc_a.dim_h, "dim_h_b": calc_b.dim_h})
    for side, calc, cols in (("a", calc_a, cols_a), ("b", calc_b, cols_b)):
        sv = np.linalg.svd(cols, compute_uv=False) if cols.size else np.zeros(1)
        rep.metrics.update({f"sigma_min_{side}": sv.min(), f"sigma_max_{side}": sv.max()})
        if "gram_eigs" in calc.meta and "null_cutoff" in calc.meta:
            # the rank rule's margin: 0 gap when nothing is kept, 0 mass
            # when the spectrum vanishes
            g, cutoff = np.asarray(calc.meta["gram_eigs"]), calc.meta["null_cutoff"]
            keep = g > cutoff
            total = np.abs(g).sum()
            rep.metrics[f"kept_gap_{side}"] = g[keep].min() / cutoff if keep.any() else 0.0
            rep.metrics[f"dropped_mass_{side}"] = np.abs(g[~keep]).sum() / total if total else 0.0
    return w, rep
