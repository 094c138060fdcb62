"""Superoperator algebra on n x n matrices.

A superoperator is stored as an n^2 x n^2 complex matrix over the
column-stacking vectorization  vec(X) = X.flatten(order="F"),  so that
vec(A X B) = (B^T otimes A) vec(X).  This module owns that layout: other
modules read a map through ``apply`` or :func:`unit_images` and never index
``mat``.  Two take ``mat`` whole: ``vtransform`` multiplies it in the
coordinates of ``DensityContext.superop_basis``, built in the same order,
and ``serialize`` writes it as the on-disk format.  The same storage serves
two levels:

* ``algebra`` -- maps on the matrix algebra itself (Phi, Psi, generators L),
* ``l2``      -- maps on the standard-form Hilbert space (T, L_2).

The two levels are converted by conjugation with the symmetric embedding
x -> rho^{1/4} x rho^{1/4}; composing mismatched levels is an error.  The
semigroup exp(-t L2) is self-adjoint: ``generator`` takes it from the
spectrum of L2.

The Choi matrix convention is  C = sum_ab E_ab otimes S(E_ab);  a map is
completely positive iff its Choi matrix is positive semidefinite.  Kraus
families are stored so that  S(X) = sum_j V_j* X V_j  (left factor is the
adjoint), matching the generator representation used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyKrausList,
    NotHermiticityPreserving,
    WrongLevel,
)
from .matrix_core import (
    DensityContext,
    as_matrix,
    dagger,
    hsnorm,
    kron,
    opnorm,
)
from .reports import Check, Report

ALGEBRA = "algebra"
L2 = "l2"
_LEVELS = (ALGEBRA, L2)

# relative bound of the NotPSD check on a Choi matrix: an eigenvalue below
# -KRAUS_RANK_TOL * ||C|| is not rounding
KRAUS_RANK_TOL = 1e-10


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(x, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`vec` for an n x n matrix."""
    v = np.asarray(v, dtype=complex).ravel()
    if n * n != v.size:
        raise DimensionMismatch(f"cannot reshape length {v.size} into a square matrix")
    return v.reshape((n, n), order="F")


@dataclass(frozen=True, eq=False)
class Superoperator:
    """A linear map on n x n matrices at a fixed representation level.

    ``mat`` is a read-only view of a read-only copy of the matrix passed in,
    so neither an alias nor its ``writeable`` flag can change it after
    construction, and ``norm`` is computed once.
    """

    mat: np.ndarray
    dim: int
    level: str = ALGEBRA

    def __post_init__(self):
        if self.level not in _LEVELS:
            raise WrongLevel(f"unknown level {self.level!r}")
        m = np.array(self.mat, dtype=complex)
        if m.shape != (self.dim**2, self.dim**2):
            raise DimensionMismatch(
                f"superoperator matrix has shape {m.shape}, expected "
                f"{(self.dim**2, self.dim**2)}"
            )
        m.flags.writeable = False  # the owner, so the view's flag cannot be set back
        object.__setattr__(self, "mat", m.view())

    def apply(self, x) -> np.ndarray:
        x = as_matrix(x, self.dim)
        return unvec(self.mat @ vec(x), self.dim)

    def _require_same(self, other: "Superoperator"):
        if self.dim != other.dim:
            raise DimensionMismatch("superoperator dimensions differ")
        if self.level != other.level:
            raise WrongLevel(f"cannot combine levels {self.level!r} and {other.level!r}")

    def __matmul__(self, other: "Superoperator") -> "Superoperator":
        self._require_same(other)
        return Superoperator(self.mat @ other.mat, self.dim, self.level)

    def __add__(self, other: "Superoperator") -> "Superoperator":
        self._require_same(other)
        return Superoperator(self.mat + other.mat, self.dim, self.level)

    def __sub__(self, other: "Superoperator") -> "Superoperator":
        self._require_same(other)
        return Superoperator(self.mat - other.mat, self.dim, self.level)

    def __mul__(self, c) -> "Superoperator":
        return Superoperator(complex(c) * self.mat, self.dim, self.level)

    __rmul__ = __mul__

    def __neg__(self) -> "Superoperator":
        return Superoperator(-self.mat, self.dim, self.level)

    @cached_property
    def norm(self) -> float:
        """Spectral norm of the n^2 x n^2 matrix (the operator norm on the
        Hilbert-Schmidt space; used as the scale for every certification)."""
        return opnorm(self.mat)


def lmul(a) -> Superoperator:
    """Left multiplication X -> A X."""
    a = as_matrix(a)
    n = a.shape[0]
    return Superoperator(kron(np.eye(n), a), n)


def rmul(b) -> Superoperator:
    """Right multiplication X -> X B."""
    b = as_matrix(b)
    n = b.shape[0]
    return Superoperator(kron(b.T, np.eye(n)), n)


def from_kraus(ops) -> Superoperator:
    """The map X -> sum_j V_j* X V_j for the given family {V_j}."""
    ops = [as_matrix(v) for v in ops]
    if not ops:
        raise EmptyKrausList("need at least one Kraus operator")
    n = ops[0].shape[0]
    mat = np.zeros((n * n, n * n), dtype=complex)
    for v in ops:
        if v.shape[0] != n:
            raise DimensionMismatch("Kraus operators must share one dimension")
        mat += kron(v.T, dagger(v))
    return Superoperator(mat, n)


def _choi_shuffle(m: np.ndarray) -> np.ndarray:
    """Swap the first and last of the four n-sized indices of an n^2 x n^2
    matrix (or of each matrix in a stack); this involution exchanges a stored
    superoperator and its Choi matrix."""
    n = int(round(np.sqrt(m.shape[-1])))
    return np.swapaxes(m.reshape(m.shape[:-2] + (n, n, n, n)), -4, -1).reshape(m.shape)


def choi(s: Superoperator) -> np.ndarray:
    """Choi matrix C = sum_ab E_ab otimes S(E_ab).

    The columns of ``s.mat`` are exactly vec(S(E_ab)) with column index
    b*n + a, so the Choi matrix is an index rearrangement of the stored
    matrix: C[a n + i, b n + j] = s.mat[j n + i, b n + a].
    """
    return _choi_shuffle(s.mat)


def superop_from_choi(c: np.ndarray) -> Superoperator:
    """Inverse of :func:`choi`."""
    c = np.asarray(c, dtype=complex)
    return Superoperator(_choi_shuffle(c), int(round(np.sqrt(c.shape[0]))))


def sandwich(s: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of the map X -> a S(b X b) a, for S stored as ``s``."""
    return kron(a.T, a) @ s @ kron(b.T, b)


def to_l2(s: Superoperator, ctx: DensityContext) -> Superoperator:
    """KMS implementation of an algebra-level map:
    T(rho^{1/4} x rho^{1/4}) = rho^{1/4} S(x) rho^{1/4}."""
    if s.level != ALGEBRA:
        raise WrongLevel("to_l2 expects an algebra-level superoperator")
    return Superoperator(sandwich(s.mat, ctx.quarter_rho, ctx.inv_quarter_rho), s.dim, L2)


def to_algebra(s: Superoperator, ctx: DensityContext) -> Superoperator:
    """Inverse of :func:`to_l2`."""
    if s.level != L2:
        raise WrongLevel("to_algebra expects an L2-level superoperator")
    return Superoperator(sandwich(s.mat, ctx.inv_quarter_rho, ctx.quarter_rho), s.dim, ALGEBRA)


def kms_adjoint(s: Superoperator, ctx: DensityContext) -> Superoperator:
    """Adjoint with respect to the KMS inner product:
    <S^dag(A), B>_rho = <A, S(B)>_rho for all A, B."""
    if s.level != ALGEBRA:
        raise WrongLevel("kms_adjoint is defined for algebra-level maps")
    if s.dim != ctx.dim:
        raise DimensionMismatch("superoperator and context dimensions differ")
    return Superoperator(
        sandwich(dagger(s.mat), ctx.inv_sqrt_rho, ctx.sqrt_rho), s.dim, ALGEBRA
    )


def _scale(x: float) -> float:
    """Certification scale: thresholds are tol * max(norm, 1)."""
    return max(float(x), 1.0)


def unit_images(s: Superoperator) -> np.ndarray:
    """S(E_ab) at [a, b]: a read-only (n, n, n, n) view of ``mat``, whose
    column b n + a is vec(S(E_ab)), column-stacked."""
    n = s.dim
    return s.mat.reshape(n, n, n, n).transpose(3, 2, 1, 0)


def hermiticity_preservation_defect(s: Superoperator) -> float:
    """max_ab || S(E_ab*) - S(E_ab)* ||_HS over the matrix-unit basis, the
    defect of S commuting with the conjugation X -> X*."""
    units = unit_images(s)
    defect = units - np.conj(units).transpose(1, 0, 3, 2)
    return float(np.linalg.norm(defect, axis=(2, 3)).max(initial=0.0))


def is_cp(s: Superoperator, tol: float = 1e-9) -> Report:
    """Complete positivity via Choi positivity."""
    c = choi(s)
    w = np.linalg.eigvalsh(0.5 * (c + dagger(c)))
    cnorm = abs(w).max(initial=0.0)
    rep = Report(name="cp", tol=tol)
    rep.checks.append(
        Check("min_choi_eig", float(w.min(initial=0.0)), -tol * _scale(cnorm), "ge")
    )
    rep.metrics["choi_norm"] = float(cnorm)
    return rep


def is_kms_symmetric(s: Superoperator, ctx: DensityContext, tol: float = 1e-9) -> Report:
    """Self-adjointness for the KMS inner product: ||S - S^dag|| <= tol ||S||."""
    adj = kms_adjoint(s, ctx)
    defect = opnorm(s.mat - adj.mat)
    rep = Report(name="kms_symmetric", tol=tol)
    rep.checks.append(Check("kms_defect", defect, tol * _scale(s.norm), "le"))
    rep.metrics["norm"] = s.norm
    return rep


def compressed_choi(lgen: Superoperator) -> np.ndarray:
    """P Herm(C(-L)) P: the Hermitian part of the Choi matrix of -L,
    compressed by P = I - omega omega* / n to the orthogonal complement of
    omega = vec(I).  It is PSD exactly when L is conditionally completely
    negative, and it is then the Choi matrix of a CP part of -L."""
    n = lgen.dim
    omega = vec(np.eye(n))
    proj = np.eye(n * n, dtype=complex) - np.outer(omega, omega.conj()) / n
    c_neg = choi(-1.0 * lgen)
    return proj @ (0.5 * (c_neg + dagger(c_neg))) @ proj


def unital_kernel_report(lgen: Superoperator, tol: float) -> Report:
    """L(I) = 0: ||L(I)|| against tol * max(1, ||L||), the one measurement
    of a generator's kernel (``is_ccn`` does not need it)."""
    defect = opnorm(lgen.apply(np.eye(lgen.dim)))
    check = Check("kernel_defect", defect, tol * max(1.0, lgen.norm), "le")
    return Report(name="unital_kernel", tol=tol, checks=[check])


def is_ccn(lgen: Superoperator, tol: float = 1e-9) -> Report:
    """Conditional complete negativity of a candidate Markov generator.

    Precondition (raised, not reported): Hermiticity preservation on the
    matrix-unit basis, whose value and bound NotHermiticityPreserving
    carries.

    Criterion: the Choi matrix of -L, compressed to the orthogonal
    complement of vec(I), is PSD down to -tol * max(||L||, 1), which holds
    exactly when every exp(-t L), t >= 0, is completely positive (Lindblad
    1976, Evans 1977), so it certifies the semigroup too.  It needs no
    L(I) = 0 (e^{-t} id is CP, so the identity passes); L(I) is measured
    by ``unital_kernel_report`` alone.
    """
    if lgen.level != ALGEBRA:
        raise WrongLevel("is_ccn expects an algebra-level generator")
    scale = _scale(lgen.norm)
    herm_defect = hermiticity_preservation_defect(lgen)
    if herm_defect > tol * scale:
        raise NotHermiticityPreserving(
            f"max ||L(E_ab*) - L(E_ab)*||_HS = {herm_defect:.3e} exceeds tolerance",
            value=float(herm_defect),
            bound=float(tol * scale),
        )

    min_eig = float(np.linalg.eigvalsh(compressed_choi(lgen)).min())
    rep = Report(name="ccn", tol=tol)
    rep.checks.append(Check("min_projected_choi_eig", min_eig, -tol * scale, "ge"))
    rep.metrics.update({"hermiticity_defect": herm_defect, "norm": lgen.norm})
    return rep


def is_markov_l2(t: Superoperator, ctx: DensityContext, tol: float = 1e-9) -> Report:
    """Markov-operator certification on the standard form.

    Checks (i) T fixes the cyclic vector rho^{1/2}; (ii) the descended map
    ``to_algebra(T)``, x -> rho^{-1/4} T(rho^{1/4} x rho^{1/4}) rho^{-1/4}, is
    completely positive (the finite-dimensional criterion for complete
    preservation of the cone rho^{1/4} PSD rho^{1/4});
    (iii) T commutes with the modular conjugation.
    """
    if t.level != L2:
        raise WrongLevel("is_markov_l2 expects an L2-level superoperator")
    if t.dim != ctx.dim:
        raise DimensionMismatch("superoperator and context dimensions differ")
    cyclic = ctx.sqrt_rho
    fix_defect = hsnorm(t.apply(cyclic) - cyclic)
    cp_rep = is_cp(to_algebra(t, ctx), tol=tol)
    jdefect = hermiticity_preservation_defect(t)

    rep = Report(name="markov_l2", tol=tol)
    rep.checks.append(Check("cyclic_fix_defect", fix_defect, tol * _scale(t.norm), "le"))
    rep.checks.append(cp_rep.check("min_choi_eig"))
    rep.checks.append(Check("j_commutation_defect", jdefect, tol * _scale(t.norm), "le"))
    rep.metrics["descended_choi_norm"] = cp_rep.metrics["choi_norm"]
    rep.metrics["norm"] = t.norm
    return rep
