"""Dense complex matrix primitives attached to a faithful state.

Everything downstream is driven by a :class:`DensityContext`: an invertible
density matrix rho together with its spectral decomposition.  The context
carries

* the KMS inner product  <A, B> = tr(A* rho^{1/2} B rho^{1/2}),
* the modular group  sigma_z(A) = rho^{iz} A rho^{-iz}  (analytically
  continued to complex z),
* the embedding x -> rho^{1/4} x rho^{1/4} of the algebra into its
  standard-form Hilbert space (matrices with the Hilbert-Schmidt inner
  product, cyclic vector rho^{1/2}),
* the modular conjugation J(a) = a*.

Matrices are plain complex numpy arrays; fractional powers always go through
the full spectral decomposition, never scalar interpolation, so all formulas
are invariant under the basis choice inside degenerate eigenspaces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotHermitian

DEFAULT_TOL = 1e-9

# Public complex powers are restricted to |Im z| <= 1/2; conditioning of
# sigma_z degrades like (p_max/p_min)^{|Im z|}.
IM_Z_PUBLIC_LIMIT = 0.5 + 1e-12


class AnalyticContinuationWarning(UserWarning):
    """Raised when sigma_z is continued beyond |Im z| = 1/2."""


def as_matrix(a, n: int | None = None) -> np.ndarray:
    """Return ``a`` as a square complex128 array, after checking it.

    Raises DimensionMismatch unless the array is 2-D and square, and, if
    ``n`` is given, n x n; raises ValueError if any entry has a NaN or
    infinite real or imaginary part (one ``isfinite`` pass over the complex
    array, which tests both parts).
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if n is not None and m.shape[0] != n:
        raise DimensionMismatch(f"expected dimension {n}, got {m.shape[0]}")
    return m


def opnorm(a: np.ndarray) -> float:
    """Operator (spectral) norm of a 2-D array: its largest singular value,
    and 0.0 for an empty array.

    The one spectral norm of the package.  It is the first value of one
    LAPACK ``svd`` without vectors, which returns them in descending order:
    bitwise ``np.linalg.norm(a, 2)``, which makes the same call, without its
    generic axis and dtype handling.
    """
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def hsnorm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices: entry (i k, j l) is a[i, j] b[k, l].

    One broadcast multiply and a reshape, bitwise ``np.kron`` for 2-D
    operands (same values, dtype and C order) without its generic N-d
    set-up, which dominates at the n^2 x n^2 sizes used here.
    """
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def hermitian_basis(n: int) -> np.ndarray:
    """Hilbert-Schmidt orthonormal basis of the Hermitian n x n matrices, as
    an (n^2, n, n) array: E_aa for each a, then (E_ab + E_ba) / sqrt2 and
    i (E_ab - E_ba) / sqrt2 for each a < b in row-major order."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    diag = np.arange(n)
    basis[diag, diag, diag] = 1.0
    a, b = np.triu_indices(n, 1)
    sym = n + 2 * np.arange(a.size)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    basis[sym, a, b] = basis[sym, b, a] = inv_sqrt2
    basis[sym + 1, a, b] = 1j * inv_sqrt2
    basis[sym + 1, b, a] = -1j * inv_sqrt2
    return basis


def eigenbasis_multiply(basis: np.ndarray, f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """basis (f * (basis* x basis)) basis*: multiply x entrywise by f in the
    orthonormal basis given by the columns of ``basis``.

    A stack of multipliers f of shape (k, N, N) gives the k products at the
    cost of one change of basis into the eigenbasis.
    """
    return basis @ (f * (dagger(basis) @ x @ basis)) @ dagger(basis)


def eig_hermitian(h, tol: float = DEFAULT_TOL):
    """Spectral decomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary of eigenvectors as columns).
    Raises NotHermitian if ||H - H*|| > tol * max(||H||, 1), in the
    operator norm.
    """
    h = as_matrix(h)
    scale = max(opnorm(h), 1.0)
    if opnorm(h - dagger(h)) > tol * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    w, u = np.linalg.eigh(0.5 * (h + dagger(h)))
    return w, u


@dataclass(frozen=True, eq=False)
class DensityContext:
    """An invertible density matrix with cached spectral data.

    Fields: ``rho`` (Hermitian, positive definite, unit trace), its
    eigenvalues ``p`` (ascending, strictly positive, summing to one), the
    eigenvector unitary ``u`` (columns), and the default certification
    tolerance ``tol``.
    """

    rho: np.ndarray
    p: np.ndarray
    u: np.ndarray
    tol: float = DEFAULT_TOL

    MIN_EIGENVALUE = 1e-12

    @staticmethod
    def from_rho(rho, tol: float = DEFAULT_TOL) -> "DensityContext":
        rho = as_matrix(rho)
        if isinstance(tol, bool) or not (np.isfinite(tol) and tol > 0):
            raise ValueError(f"tolerance must be finite and > 0, got {tol!r}")
        p, u = eig_hermitian(rho, tol=max(tol, 1e-12))
        if p.min() < DensityContext.MIN_EIGENVALUE:
            raise ValueError(
                f"density matrix is numerically singular "
                f"(min eigenvalue {p.min():.3e} < {DensityContext.MIN_EIGENVALUE:.0e})"
            )
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"trace must be 1 within 1e-12, got {p.sum()!r}")
        recon = (u * p) @ dagger(u)
        if opnorm(recon - rho) > 1e-12 * max(opnorm(rho), 1.0):
            raise NotHermitian("spectral reconstruction of rho failed")
        return DensityContext(rho=rho, p=p, u=u, tol=float(tol))

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def condition(self) -> float:
        return float(self.p.max() / self.p.min())

    def power(self, z: complex) -> np.ndarray:
        """rho^z through the spectral decomposition; Hermitian for real z."""
        z = complex(z)
        w = np.exp(z * np.log(self.p))
        out = (self.u * w) @ dagger(self.u)
        if z.imag == 0.0:
            out = 0.5 * (out + dagger(out))
        return out

    @cached_property
    def sqrt_rho(self) -> np.ndarray:
        return self.power(0.5)

    @cached_property
    def quarter_rho(self) -> np.ndarray:
        return self.power(0.25)

    @cached_property
    def inv_quarter_rho(self) -> np.ndarray:
        return self.power(-0.25)

    @cached_property
    def inv_sqrt_rho(self) -> np.ndarray:
        return self.power(-0.5)

    @cached_property
    def log_p(self) -> np.ndarray:
        return np.log(self.p)

    @cached_property
    def log_ratio(self) -> np.ndarray:
        """log(p_a / p_b) at [a, b]: the log-spectrum of the modular operator
        a -> rho a rho^{-1}, whose eigenvector for p_a / p_b is u E_ab u*."""
        return self.log_p[:, None] - self.log_p[None, :]

    @cached_property
    def superop_basis(self) -> np.ndarray:
        """kron(conj u, u): its column b n + a is vec(u E_ab u*), so it
        diagonalizes the modular operator as an n^2 x n^2 matrix, with
        eigenvalues exp(superop_log_spectrum)."""
        return kron(self.u.conj(), self.u)

    @cached_property
    def superop_log_spectrum(self) -> np.ndarray:
        """``log_ratio`` in the order of ``superop_basis``'s columns: entry
        b n + a is log(p_a / p_b), the log-eigenvalue of that column."""
        return self.log_ratio.ravel(order="F")


def kms_inner(ctx: DensityContext, a, b) -> complex:
    """KMS inner product tr(A* rho^{1/2} B rho^{1/2}).

    Conjugate-linear in the first argument, positive definite.
    """
    a = as_matrix(a, ctx.dim)
    b = as_matrix(b, ctx.dim)
    s = ctx.sqrt_rho
    return complex(np.trace(dagger(a) @ s @ b @ s))


def sigma_z(ctx: DensityContext, z: complex, a) -> np.ndarray:
    """Modular group sigma_z(A) = rho^{iz} A rho^{-iz}.

    Computed entrywise in rho's eigenbasis, where the (a, b) entry picks up
    the factor (p_a/p_b)^{iz}.  Warns when continued beyond |Im z| = 1/2,
    where conditioning degrades.
    """
    a = as_matrix(a, ctx.dim)
    z = complex(z)
    if abs(z.imag) > IM_Z_PUBLIC_LIMIT:
        warnings.warn(
            f"sigma_z continued to Im z = {z.imag:.3g}; conditioning degrades like "
            f"(p_max/p_min)^|Im z|",
            AnalyticContinuationWarning,
            stacklevel=2,
        )
    return eigenbasis_multiply(ctx.u, np.exp(1j * z * ctx.log_ratio), a)


def embed(ctx: DensityContext, x) -> np.ndarray:
    """Symmetric embedding of the algebra into the standard form:
    x -> rho^{1/4} x rho^{1/4}.  Sends the identity to the cyclic vector
    rho^{1/2}; positive matrices land in the standard positive cone."""
    x = as_matrix(x, ctx.dim)
    return ctx.quarter_rho @ x @ ctx.quarter_rho


def descend(ctx: DensityContext, a) -> np.ndarray:
    """Exact inverse of :func:`embed`: a -> rho^{-1/4} a rho^{-1/4}."""
    a = as_matrix(a, ctx.dim)
    return ctx.inv_quarter_rho @ a @ ctx.inv_quarter_rho


def modular_conjugation(ctx: DensityContext, a) -> np.ndarray:
    """Modular conjugation of the standard form: J(a) = a*.

    Antilinear, isometric for the Hilbert-Schmidt norm, involutive, and fixes
    embed(x) for Hermitian x.
    """
    a = as_matrix(a, ctx.dim)
    return dagger(a)


def hilbert_algebra_product(ctx: DensityContext, a, b) -> np.ndarray:
    """Product of two standard-form vectors induced by the left Hilbert
    algebra: a . b = a rho^{-1/2} b.

    Under the GNS identification x -> x rho^{1/2} this is the algebra
    product; equivalently descend(a . b) = descend(a) descend(b).
    """
    a = as_matrix(a, ctx.dim)
    b = as_matrix(b, ctx.dim)
    return a @ ctx.inv_sqrt_rho @ b
