"""Dense complex matrix primitives attached to a faithful state.

Everything downstream is driven by a :class:`DensityContext`: an invertible
density matrix rho together with its spectral decomposition.  The context
carries the powers rho^z, with rho^{+-1/4} and rho^{+-1/2} cached: the
sandwiches that the rest of the package writes inline, such as the KMS inner
product tr(A* rho^{1/2} B rho^{1/2}) and the embedding x -> rho^{1/4} x
rho^{1/4} of the algebra into its standard form (matrices with the
Hilbert-Schmidt inner product, cyclic vector rho^{1/2} and modular
conjugation a -> a*).  It also caches the eigenbasis and log-spectrum of the
modular operator a -> rho a rho^{-1}, in which ``eigenbasis_multiply``
applies entrywise multipliers.

Matrices are plain complex numpy arrays; fractional powers always go through
the full spectral decomposition, never scalar interpolation, so all formulas
are invariant under the basis choice inside degenerate eigenspaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotHermitian

DEFAULT_TOL = 1e-9


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


def hilbert_algebra_product(ctx: DensityContext, a, b) -> np.ndarray:
    """Product of two standard-form vectors induced by the left Hilbert
    algebra: a . b = a rho^{-1/2} b.

    Under the GNS identification x -> x rho^{1/2} this is the algebra
    product; equivalently, with d(a) = rho^{-1/4} a rho^{-1/4} the inverse of
    the embedding, d(a . b) = d(a) d(b).
    """
    a = as_matrix(a, ctx.dim)
    b = as_matrix(b, ctx.dim)
    return a @ ctx.inv_sqrt_rho @ b
