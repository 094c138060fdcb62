import numpy as np
import pytest
from hypothesis import given, strategies as st

import kmsflow as kf
from kmsflow.errors import (
    EmptyKrausList,
    NotHermiticityPreserving,
    NotPSD,
    WrongLevel,
)
from kmsflow.matrix_core import dagger, opnorm
from kmsflow.superop import (
    choi,
    from_kraus,
    hermiticity_preservation_defect,
    superop_from_choi,
    unit_images,
    unvec,
    vec,
)

from calculus_oracle import kraus_from_choi
from certify_oracle import exp_probe_ccn, identity_superop, zero_superop
from conftest import rng_matrix, stored_bytes

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def transpose_superop(n, level="algebra"):
    mat = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            mat[i * n + j, j * n + i] = 1.0
    return kf.Superoperator(mat, n, level)


def choi_by_blocks(s):
    """Choi matrix assembled block by block: block (a, b) is S(E_ab)."""
    n = s.dim
    c = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            c[a * n : (a + 1) * n, b * n : (b + 1) * n] = unvec(s.mat[:, b * n + a], n)
    return c


def superop_from_choi_by_blocks(c):
    n = int(round(np.sqrt(c.shape[0])))
    mat = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            mat[:, b * n + a] = vec(c[a * n : (a + 1) * n, b * n : (b + 1) * n])
    return mat


def hermiticity_defect_by_units(s):
    """max_ab ||S(E_ab*) - S(E_ab)*||_HS, one matrix unit at a time."""
    n = s.dim
    worst = 0.0
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b] = 1.0
            worst = max(worst, np.linalg.norm(s.apply(dagger(e)) - dagger(s.apply(e))))
    return worst


def depolarizing(n):
    """X -> tr(X) I / n"""
    omega = vec(np.eye(n))
    return kf.Superoperator(np.outer(omega, omega) / n, n)


class TestStorage:
    @pytest.mark.parametrize("level", ["algebra", "l2"])
    def test_mat_is_read_only(self, level):
        s = kf.Superoperator(rng_matrix(np.random.default_rng(0), 4), 2, level)
        with pytest.raises(ValueError):
            s.mat[0, 0] = 1.0
        with pytest.raises(ValueError):
            s.mat += 1.0

    @pytest.mark.parametrize("level", ["algebra", "l2"])
    def test_read_only_flag_cannot_be_set_back(self, level):
        # mat views a read-only copy, which stores nothing beyond the n^2 x n^2
        # complex matrix
        a = rng_matrix(np.random.default_rng(2), 9)
        s = kf.Superoperator(a, 3, level)
        with pytest.raises(ValueError):
            s.mat.flags.writeable = True
        assert s.mat.dtype == complex and s.mat.shape == (9, 9)
        assert np.array_equal(s.mat, a) and stored_bytes(s.mat) == a.nbytes

    @pytest.mark.parametrize("level", ["algebra", "l2"])
    def test_input_alias_cannot_change_map(self, level):
        a = rng_matrix(np.random.default_rng(1), 9)
        s = kf.Superoperator(a, 3, level)
        before, norm = s.mat.copy(), s.norm
        a[:] = 0.0
        np.testing.assert_array_equal(s.mat, before)
        assert s.norm == norm
        assert s.norm == opnorm(before)

    @pytest.mark.parametrize("level", ["algebra", "l2"])
    def test_norm_is_opnorm(self, level):
        for n in (2, 3, 4):
            s = kf.Superoperator(rng_matrix(np.random.default_rng(n), n * n), n, level)
            assert s.norm == opnorm(s.mat)
            assert (-s).norm == opnorm(-s.mat)


class TestBasicMaps:
    def test_vec_convention(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(vec(x), [1, 3, 2, 4])
        np.testing.assert_allclose(unvec(vec(x), 2), x)

    def test_lmul(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(
            kf.lmul(np.diag([1.0, 0.0])).apply(x), [[1, 2], [0, 0]]
        )

    def test_rmul(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(
            kf.rmul(np.diag([1.0, 0.0])).apply(x), [[1, 0], [3, 0]]
        )

    def test_lmul_rmul_commute(self):
        rng = np.random.default_rng(0)
        a, b = rng_matrix(rng, 3), rng_matrix(rng, 3)
        lhs = kf.lmul(a) @ kf.rmul(b)
        rhs = kf.rmul(b) @ kf.lmul(a)
        np.testing.assert_allclose(lhs.mat, rhs.mat, atol=1e-13)

    def test_from_kraus_identity(self):
        s = from_kraus([np.eye(2)])
        np.testing.assert_allclose(s.mat, np.eye(4), atol=1e-15)

    def test_from_kraus_sigma_x(self):
        s = from_kraus([SX])
        np.testing.assert_allclose(s.apply(np.diag([1.0, 0.0])), np.diag([0.0, 1.0]))

    def test_from_kraus_empty(self):
        with pytest.raises(EmptyKrausList):
            from_kraus([])

    def test_level_mismatch_raises(self):
        a = identity_superop(2, "algebra")
        b = identity_superop(2, "l2")
        with pytest.raises(WrongLevel):
            a @ b


class TestChoiKraus:
    def test_choi_of_identity(self):
        c = choi(identity_superop(2))
        omega = vec(np.eye(2))
        np.testing.assert_allclose(c, np.outer(omega, omega.conj()), atol=1e-15)

    def test_choi_of_depolarizing(self):
        # evaluating X -> tr(X) I/n on matrix units gives Choi = I/n
        c = choi(depolarizing(3))
        np.testing.assert_allclose(c, np.eye(9) / 3, atol=1e-14)

    def test_choi_linearity(self):
        rng = np.random.default_rng(1)
        s = kf.Superoperator(rng_matrix(rng, 4), 2)
        t = kf.Superoperator(rng_matrix(rng, 4), 2)
        alpha = 0.7 - 0.2j
        np.testing.assert_array_equal(
            choi(alpha * s + t), alpha * choi(s) + choi(t)
        )

    def test_choi_round_trip(self):
        rng = np.random.default_rng(2)
        s = kf.Superoperator(rng_matrix(rng, 9), 3)
        np.testing.assert_allclose(superop_from_choi(choi(s)).mat, s.mat, atol=1e-15)

    @given(st.integers(0, 10_000))
    def test_kraus_round_trip_cp(self, seed):
        rng = np.random.default_rng(seed)
        s = from_kraus([rng_matrix(rng, 2), rng_matrix(rng, 2)])
        ops = kraus_from_choi(choi(s))
        np.testing.assert_allclose(
            from_kraus(ops).mat, s.mat, atol=1e-9 * max(1, s.norm)
        )

    def test_kraus_rank_counting(self):
        s = from_kraus([np.eye(2)])
        assert len(kraus_from_choi(choi(s))) == 1

    def test_kraus_rejects_non_psd(self):
        with pytest.raises(NotPSD):
            kraus_from_choi(choi(transpose_superop(2)))

    @given(st.integers(0, 10_000))
    def test_kraus_unitary_remixing(self, seed):
        # mixing the family by a unitary leaves the superoperator unchanged
        rng = np.random.default_rng(seed)
        v1, v2 = rng_matrix(rng, 2), rng_matrix(rng, 2)
        g = rng_matrix(rng, 2)
        w, _ = np.linalg.qr(g)
        mixed = [w[0, 0] * v1 + w[1, 0] * v2, w[0, 1] * v1 + w[1, 1] * v2]
        lhs = from_kraus([v1, v2])
        rhs = from_kraus(mixed)
        assert opnorm(lhs.mat - rhs.mat) < 1e-10 * max(1.0, lhs.norm)


class TestLoopOracles:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_choi_matches_block_assembly(self, n):
        rng = np.random.default_rng(20 + n)
        s = kf.Superoperator(rng_matrix(rng, n * n), n)
        np.testing.assert_array_equal(choi(s), choi_by_blocks(s))
        c = rng_matrix(rng, n * n)
        np.testing.assert_array_equal(superop_from_choi(c).mat, superop_from_choi_by_blocks(c))

    @pytest.mark.parametrize("n", [2, 3])
    def test_hermiticity_defect_matches_unit_loop(self, n):
        rng = np.random.default_rng(30 + n)
        k = rng_matrix(rng, n)
        maps = [
            kf.Superoperator(rng_matrix(rng, n * n), n),
            from_kraus([k, rng_matrix(rng, n)]),  # Hermiticity-preserving
            kf.lmul(k),
        ]
        for s in maps:
            expect = hermiticity_defect_by_units(s)
            assert abs(hermiticity_preservation_defect(s) - expect) <= 1e-14 * max(1.0, expect)
        assert hermiticity_preservation_defect(maps[1]) < 1e-13


class TestIsCp:
    def test_kraus_map_passes(self):
        rng = np.random.default_rng(3)
        rep = kf.is_cp(from_kraus([rng_matrix(rng, 2)]))
        assert rep.passed

    def test_transpose_fails_with_minus_one(self):
        rep = kf.is_cp(transpose_superop(2))
        assert not rep.passed
        assert abs(rep.check("min_choi_eig").value + 1.0) < 1e-12

    def test_identity_passes(self):
        assert kf.is_cp(identity_superop(3)).passed


class TestUnitImages:
    @pytest.mark.parametrize("level", ["algebra", "l2"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_entry_is_the_image_of_the_matrix_unit(self, n, level):
        s = kf.Superoperator(rng_matrix(np.random.default_rng(n), n * n), n, level)
        units = unit_images(s)
        assert units.shape == (n, n, n, n) and not units.flags.writeable
        for k, e in enumerate(np.eye(n * n).reshape(n * n, n, n)):  # E_ab, k = a n + b
            assert np.array_equal(units[divmod(k, n)], s.apply(e))


class TestKmsAdjoint:
    def test_gram_matrix_represents_inner_product(self, ctx2):
        rng = np.random.default_rng(4)
        a, b = rng_matrix(rng, 2), rng_matrix(rng, 2)
        s = ctx2.sqrt_rho
        lhs = np.trace(dagger(a) @ s @ b @ s)  # <a, b>_rho
        rhs = vec(a).conj() @ np.kron(s.T, s) @ vec(b)
        assert abs(lhs - rhs) < 1e-12

    def test_defining_property(self, ctx2):
        rng = np.random.default_rng(5)
        s = kf.Superoperator(rng_matrix(rng, 4), 2)
        sd = kf.kms_adjoint(s, ctx2)
        r = ctx2.sqrt_rho

        def kms_inner(x, y):  # tr(x* rho^{1/2} y rho^{1/2})
            return np.trace(dagger(x) @ r @ y @ r)

        for a in [rng_matrix(rng, 2) for _ in range(4)]:
            for b in [rng_matrix(rng, 2) for _ in range(4)]:
                lhs = kms_inner(sd.apply(a), b)
                rhs = kms_inner(a, s.apply(b))
                assert abs(lhs - rhs) < 1e-10

    def test_sigma_quarter_selfadjoint(self, ctx2):
        # sigma_{i/4} is its own KMS adjoint since -conj(i/4) = i/4
        s = kf.Superoperator(
            np.kron(ctx2.power(0.25).T, ctx2.power(-0.25)), 2
        )
        np.testing.assert_allclose(kf.kms_adjoint(s, ctx2).mat, s.mat, atol=1e-12)

    def test_tracial_reduces_to_hs_adjoint(self, ctx_tracial2):
        rng = np.random.default_rng(6)
        s = kf.Superoperator(rng_matrix(rng, 4), 2)
        np.testing.assert_allclose(
            kf.kms_adjoint(s, ctx_tracial2).mat, dagger(s.mat), atol=1e-13
        )

    def test_lmul_adjoint_formula(self, ctx2):
        # lmul(k)^dag = lmul(sigma_{i/2}(k*)), sigma_{i/2}(y) = rho^{-1/2} y rho^{1/2}
        rng = np.random.default_rng(7)
        k = rng_matrix(rng, 2)
        lhs = kf.kms_adjoint(kf.lmul(k), ctx2)
        rhs = kf.lmul(ctx2.inv_sqrt_rho @ dagger(k) @ ctx2.sqrt_rho)
        np.testing.assert_allclose(lhs.mat, rhs.mat, atol=1e-12)

    def test_involution_and_antihomomorphism(self, ctx2):
        rng = np.random.default_rng(8)
        s = kf.Superoperator(rng_matrix(rng, 4), 2)
        t = kf.Superoperator(rng_matrix(rng, 4), 2)
        np.testing.assert_allclose(
            kf.kms_adjoint(kf.kms_adjoint(s, ctx2), ctx2).mat, s.mat, atol=1e-12
        )
        lhs = kf.kms_adjoint(s @ t, ctx2)
        rhs = kf.kms_adjoint(t, ctx2) @ kf.kms_adjoint(s, ctx2)
        assert opnorm(lhs.mat - rhs.mat) < 1e-10 * max(1.0, lhs.norm)

    def test_wrong_level(self, ctx2):
        with pytest.raises(WrongLevel):
            kf.kms_adjoint(identity_superop(2, "l2"), ctx2)


class TestIsKmsSymmetric:
    def test_symmetrization_passes(self, ctx2):
        rng = np.random.default_rng(9)
        phi = from_kraus([rng_matrix(rng, 2)])
        psi = 0.5 * (phi + kf.kms_adjoint(phi, ctx2))
        assert kf.is_kms_symmetric(psi, ctx2).passed

    def test_modular_flow_fails_when_nontracial(self, ctx2):
        t = 0.37
        s = kf.Superoperator(np.kron(ctx2.power(-1j * t).T, ctx2.power(1j * t)), 2)
        assert not kf.is_kms_symmetric(s, ctx2).passed

    def test_identity_passes(self, ctx2):
        assert kf.is_kms_symmetric(identity_superop(2), ctx2).passed


class TestIsCcn:
    def test_unitary_conjugation_generator_passes(self, ctx_tracial2):
        # L = id - Psi with Psi(X) = sx X sx, tracially symmetric and unital
        lgen = identity_superop(2) - from_kraus([SX])
        rep = kf.is_ccn(lgen)
        assert rep.passed
        assert exp_probe_ccn(lgen)

    def test_sign_flip_fails_and_criteria_agree(self):
        lgen = -1.0 * (identity_superop(2) - from_kraus([SX]))
        rep = kf.is_ccn(lgen)
        assert not rep.passed
        assert not exp_probe_ccn(lgen)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["kraus_rank_1", "cond_1e6", "repeated_eig", "tracial"])
    def test_verdict_matches_exp_probe_on_stress_inputs(self, kind, n):
        # the repeated-eigenvalue density is p ~ (1, 1, 2, ..., n - 1) in a
        # random basis, which at n = 2 is the tracial state
        p = np.array([1.0, *range(1, n)])
        u = np.linalg.qr(rng_matrix(np.random.default_rng(n), n))[0]
        densities = {"repeated_eig": (u * (p / p.sum())) @ dagger(u), "tracial": np.eye(n) / n}
        options = {"kraus_rank_1": {"kraus_rank": 1}, "cond_1e6": {"cond_bound": 1e6}}
        for seed in range(3):
            if kind in densities:
                ctx = kf.DensityContext.from_rho(densities[kind])
                gen, _ = kf.random_generator(n, seed, ctx=ctx)
            else:
                gen, _ = kf.random_generator(n, seed, **options[kind])
            rep = gen.certificates["ccn"]
            assert rep.passed and exp_probe_ccn(gen.L, tol=rep.tol), (seed, rep)
            flipped = kf.is_ccn(-1.0 * gen.L, tol=rep.tol)
            assert not flipped.passed and not exp_probe_ccn(-1.0 * gen.L, tol=rep.tol), seed

    def test_zero_passes(self):
        assert kf.is_ccn(zero_superop(2)).passed

    def test_criterion_does_not_read_the_kernel(self):
        # e^{-t} id is CP for every t >= 0, so the identity map is CCN,
        # though it fixes I: L(I) = 0 is unital_kernel_report's alone
        from kmsflow.superop import unital_kernel_report

        assert kf.is_ccn(identity_superop(2)).passed
        assert exp_probe_ccn(identity_superop(2), tol=1e-9)
        assert not unital_kernel_report(identity_superop(2), 1e-9).passed

    def test_hermiticity_gate(self):
        # X -> i(X - tr(X) I/2) annihilates I but is not Hermiticity-preserving
        s = 1j * (identity_superop(2) - depolarizing(2))
        with pytest.raises(NotHermiticityPreserving):
            kf.is_ccn(s)

    def test_gate_carries_value_and_bound(self):
        s = 1j * (identity_superop(2) - depolarizing(2))
        with pytest.raises(NotHermiticityPreserving) as err:
            kf.is_ccn(s, tol=1e-9)
        assert err.value.value > err.value.bound == 1e-9 * max(1.0, s.norm)


class TestIsMarkovL2:
    def test_identity_passes(self, ctx2):
        assert kf.is_markov_l2(identity_superop(2, "l2"), ctx2).passed

    def test_semigroup_element_passes(self):
        gen, _ = kf.random_generator(2, 17)
        t = kf.evolve(gen, 0.5)
        assert kf.is_markov_l2(t, gen.ctx).passed

    def test_transpose_sandwich_fails_cp(self, ctx2):
        q, qi = ctx2.quarter_rho, ctx2.inv_quarter_rho
        t = kf.Superoperator(
            np.kron(q.T, q) @ transpose_superop(2).mat @ np.kron(qi.T, qi),
            2,
            "l2",
        )
        rep = kf.is_markov_l2(t, ctx2)
        assert not rep.passed
        assert rep.check("min_choi_eig").value < -1e-3

    def test_j_breaking_map_fails_j_commutation(self, ctx2):
        # T = I + i eps (I - P), P the projection onto rho^{1/2}: fixes the
        # cyclic vector and its descended Choi matrix has PSD Hermitian part,
        # but T(a*) - T(a)* = 2 i eps (a - P a)*
        eps = 0.1
        omega = vec(ctx2.sqrt_rho)
        p = np.outer(omega, omega.conj())
        t = kf.Superoperator(np.eye(4) + 1j * eps * (np.eye(4) - p), 2, "l2")
        rep = kf.is_markov_l2(t, ctx2)
        assert rep.check("cyclic_fix_defect").passed()
        assert rep.check("min_choi_eig").passed()
        assert not rep.passed
        assert not rep.check("j_commutation_defect").passed()
        assert rep.check("j_commutation_defect").value > eps


class TestSerialization:
    def test_superop_json_round_trip(self):
        from kmsflow.serialize import superop_from_json, superop_to_json

        rng = np.random.default_rng(12)
        s = kf.Superoperator(rng_matrix(rng, 4), 2, "l2")
        s2 = superop_from_json(superop_to_json(s))
        np.testing.assert_array_equal(s.mat, s2.mat)
        assert s2.level == "l2"

    def test_matrix_json_full_precision(self):
        import json

        from kmsflow.serialize import matrix_from_json, matrix_to_json

        x = np.array([[1 / 3, np.pi], [np.sqrt(2), 1e-17]]) + 1j * np.array(
            [[0.1, 2 / 7], [1e300, -np.e]]
        )
        y = matrix_from_json(json.loads(json.dumps(matrix_to_json(x))))
        np.testing.assert_array_equal(x, y)
