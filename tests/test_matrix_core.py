import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import kmsflow as kf
from kmsflow.errors import DimensionMismatch, NotHermitian
from kmsflow.matrix_core import (
    as_matrix,
    dagger,
    eig_hermitian,
    hermitian_basis,
    kron,
    opnorm,
)

from conftest import rng_matrix

SQRT3 = np.sqrt(3.0)


class TestKron:
    """kron is bitwise np.kron for every operand kind its call sites use."""

    @staticmethod
    def assert_bitwise(a, b):
        got, want = kron(a, b), np.kron(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros too
        assert got.flags.c_contiguous == want.flags.c_contiguous

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_operand_kinds(self, n):
        rng = np.random.default_rng(n)
        a, b = rng_matrix(rng, n), rng_matrix(rng, n)
        self.assert_bitwise(np.eye(n), a)  # lmul
        self.assert_bitwise(b.T, np.eye(n))  # rmul
        self.assert_bitwise(a.T, b)  # sandwich, delta_superop
        self.assert_bitwise(a.T, dagger(b))  # from_kraus
        self.assert_bitwise(a.conj(), b)  # superop_basis

    def test_choi_basis(self):
        # the 9 x 9 (x) 9 x 9 basis q of the V certificate at n = 3
        u = np.linalg.qr(rng_matrix(np.random.default_rng(9), 9))[0]
        self.assert_bitwise(u.conj(), u)

    def test_no_numpy_kron_in_sources(self):
        src = Path(kf.__file__).resolve().parent
        users = [p.name for p in sorted(src.rglob("*.py")) if "np.kron(" in p.read_text()]
        assert users == []


# module -> the functions in it that may call an SVD: opnorm, and the three
# that read a whole singular spectrum (a rank cut-off, sigma_min / sigma_max,
# the rank of the row rho^{1/2} whose null space gns_calculus keeps)
SVD_CALLERS = {
    "matrix_core.py": {"opnorm"},
    "derivation.py": {"calculus_invariants_report", "gns_calculus", "uniqueness_witness"},
}


def _spectral_norms(source: str, allowed=()) -> list:
    """Line numbers in ``source`` that take a spectral norm other than
    through ``opnorm``: a ``norm`` or ``matrix_norm`` call with an ord of
    2 or -2 (or an ord that is not a literal), or an ``svd`` / ``svdvals``
    call outside the functions named in ``allowed``."""
    lines = []
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name in allowed:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("svd", "svdvals"):
            lines.append(node.lineno)
        elif name in ("norm", "matrix_norm"):
            ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
            if any(not isinstance(o, ast.Constant) or o.value in (2, -2) for o in ords):
                lines.append(node.lineno)
    return sorted(lines)


class TestOpnorm:
    """opnorm is bitwise np.linalg.norm(a, 2) and the package's one
    spectral norm."""

    @staticmethod
    def assert_bitwise(a):
        got = opnorm(a)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(np.linalg.norm(a, 2)).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 4), (25, 25), (3, 5), (7, 2)])
    def test_seeded_real_and_complex(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        real = rng.standard_normal(shape)
        self.assert_bitwise(real)
        self.assert_bitwise(real + 1j * rng.standard_normal(shape))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_instance_psi(self, n):
        _, psi = kf.random_instance(n, n)
        assert psi.mat.shape == (n * n, n * n)
        self.assert_bitwise(psi.mat)

    def test_zero_and_empty(self):
        self.assert_bitwise(np.zeros((4, 4), dtype=complex))
        for shape in [(0, 0), (0, 3), (3, 0)]:
            got = opnorm(np.zeros(shape, dtype=complex))
            assert type(got) is float and got == 0.0

    def test_no_other_spectral_norm_in_sources(self):
        src = Path(kf.__file__).resolve().parent
        found = {
            p.name: _spectral_norms(p.read_text(), SVD_CALLERS.get(p.name, ()))
            for p in sorted(src.rglob("*.py"))
        }
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_guard_flags_a_planted_norm(self):
        snippet = (
            "def opnorm(a):\n"
            "    return np.linalg.svd(a, compute_uv=False)[0]\n"
            "def f(a, k):\n"
            "    b = np.linalg.norm(a, 2) + scipy.linalg.norm(a, ord=-2)\n"
            "    c = np.linalg.svd(a, compute_uv=False).max() + svdvals(a)[0]\n"
            "    d = np.linalg.matrix_norm(a, ord=2) + np.linalg.norm(a, k)\n"
            "    return np.linalg.norm(a) + np.linalg.norm(a, 'fro') + np.linalg.norm(a, axis=1)\n"
        )
        assert _spectral_norms(snippet, {"opnorm"}) == [4, 4, 5, 5, 6, 6]
        assert _spectral_norms(snippet) == [2, 4, 4, 5, 5, 6, 6]


class TestAsMatrix:
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
    def test_rejects_non_finite_part(self, part, value):
        m = np.ones((3, 3), dtype=complex)
        getattr(m, part)[1, 2] = value
        other = m.imag if part == "real" else m.real
        assert np.isfinite(other).all()  # only the one part is non-finite
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            as_matrix(m)

    def test_accepts_finite_extremes(self):
        big = np.finfo(float).max
        tiny = np.finfo(float).smallest_subnormal
        m = np.array([[big, -big * 1j], [tiny * 1j, complex(-big, big)]])
        out = as_matrix(m, 2)
        assert out.dtype == np.complex128 and np.array_equal(out, m)


class TestEigHermitian:
    def test_identity(self):
        w, u = eig_hermitian(np.eye(2))
        np.testing.assert_allclose(w, [1.0, 1.0])
        np.testing.assert_allclose(u @ dagger(u), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        w, _ = eig_hermitian(np.diag([0.25, 0.75]))
        np.testing.assert_allclose(w, [0.25, 0.75])

    def test_sigma_x(self):
        # eigenvalues of [[0,1],[1,0]] are -1, 1; check by reconstruction
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        w, u = eig_hermitian(h)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose((u * w) @ dagger(u), h, atol=1e-14)

    def test_ascending_order(self):
        rng = np.random.default_rng(5)
        g = rng_matrix(rng, 4)
        w, _ = eig_hermitian(g + dagger(g))
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHermitianBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hs_orthonormal_hermitian(self, n):
        basis = hermitian_basis(n)
        assert basis.shape == (n * n, n, n)
        assert np.array_equal(basis, np.conj(basis).transpose(0, 2, 1))
        flat = basis.reshape(n * n, n * n)
        np.testing.assert_allclose(np.conj(flat) @ flat.T, np.eye(n * n), atol=1e-15)

    def test_ordering(self):
        # E_aa first, then each pair a < b in row-major order
        s = 1.0 / np.sqrt(2.0)
        basis = hermitian_basis(3)
        assert basis[2, 2, 2] == 1.0
        assert basis[3, 0, 1] == basis[3, 1, 0] == s
        assert basis[4, 0, 1] == 1j * s and basis[4, 1, 0] == -1j * s
        assert basis[8, 1, 2] == 1j * s


class TestDensityContext:
    def test_valid_construction(self, ctx2):
        np.testing.assert_allclose(sorted(ctx2.p), [0.25, 0.75])
        assert abs(ctx2.p.sum() - 1) < 1e-12

    def test_rejects_trace(self):
        with pytest.raises(ValueError):
            kf.DensityContext.from_rho(np.eye(2))

    def test_rejects_near_singular(self):
        with pytest.raises(ValueError):
            kf.DensityContext.from_rho(np.diag([1.0 - 1e-13, 1e-13]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            kf.DensityContext.from_rho(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            kf.DensityContext.from_rho(np.diag([np.inf, 0.5]))

    @pytest.mark.parametrize("tol", [np.inf, np.nan, True, 0.0, -1e-9], ids=str)
    def test_rejects_tol_not_finite_positive(self, tol):
        with pytest.raises(ValueError, match="finite and > 0"):
            kf.DensityContext.from_rho(np.diag([0.75, 0.25]), tol=tol)


class TestFracPower:
    def test_scalar_half(self):
        ctx = kf.DensityContext.from_rho(np.eye(2) / 2)
        np.testing.assert_allclose(ctx.power(0.5), np.eye(2) / np.sqrt(2), atol=1e-15)

    def test_diagonal_half(self, ctx2):
        # entrywise square root of the eigenvalues
        np.testing.assert_allclose(
            ctx2.power(0.5), np.diag([SQRT3 / 2, 0.5]), atol=1e-15
        )

    def test_zeroth_power(self, ctx2):
        np.testing.assert_allclose(ctx2.power(0.0), np.eye(2), atol=1e-15)

    def test_hermitian_for_real_exponent(self):
        gen, _ = kf.random_generator(3, 11)
        r = gen.ctx.power(0.25)
        assert opnorm(r - dagger(r)) < 1e-14

    def test_quarter_sandwich_sends_identity_to_cyclic_vector(self, ctx2):
        # the embedding x -> rho^{1/4} x rho^{1/4} sends I to rho^{1/2}
        q = ctx2.quarter_rho
        np.testing.assert_allclose(q @ np.eye(2) @ q, np.diag([SQRT3 / 2, 0.5]), atol=1e-15)

    @given(st.integers(0, 10_000))
    def test_inverse_quarter_sandwich_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        ctx = kf.DensityContext.from_rho(np.diag([0.75, 0.25]))
        x = rng_matrix(rng, 2)
        q, qi = ctx.quarter_rho, ctx.inv_quarter_rho
        np.testing.assert_allclose(qi @ (q @ x @ q) @ qi, x, atol=1e-10 * max(1, opnorm(x)))


class TestModularStructure:
    def test_modular_flow_unitary(self):
        # x -> rho^{it} x rho^{-it} is the unitary modular flow on the
        # standard form for real t
        gen, _ = kf.random_generator(3, 31)
        ctx = gen.ctx
        t = 0.37
        u_t = np.kron(ctx.power(-1j * t).T, ctx.power(1j * t))
        np.testing.assert_allclose(dagger(u_t) @ u_t, np.eye(9), atol=1e-12)

    def test_delta_superop_spectrum_and_j_conjugation(self, ctx2):
        from certify_oracle import delta_superop

        d = delta_superop(ctx2)
        eigs = np.sort(np.linalg.eigvals(d.mat).real)
        expect = np.sort([pa / pb for pa in ctx2.p for pb in ctx2.p])
        np.testing.assert_allclose(eigs, expect, atol=1e-12)
        # J Delta J = Delta^{-1}: check on a random matrix
        rng = np.random.default_rng(7)
        a = rng_matrix(rng, 2)
        lhs = dagger(d.apply(dagger(a)))
        rhs = delta_superop(ctx2, power=-1.0).apply(a)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_hilbert_algebra_product_descends(self, ctx2):
        rng = np.random.default_rng(8)
        a, b = rng_matrix(rng, 2), rng_matrix(rng, 2)
        qi = ctx2.inv_quarter_rho
        lhs = qi @ kf.hilbert_algebra_product(ctx2, a, b) @ qi
        rhs = (qi @ a @ qi) @ (qi @ b @ qi)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
