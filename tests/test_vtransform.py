import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kmsflow as kf
from kmsflow.errors import InsufficientRange
from kmsflow.matrix_core import dagger, eigenbasis_multiply, opnorm
from kmsflow import vtransform
from kmsflow.superop import superop_exp
from kmsflow.vtransform import (
    _w_multiplier,
    markov_preservation_check,
    v_transform_cptp_certificate,
    v_transform_quadrature,
)

from certify_oracle import (
    delta_superop,
    dense_schur_choi,
    identity_superop,
    loop_trace_defect,
    random_markov_operator,
    trapezoid_coefficients,
)
from conftest import cached_generator, rng_matrix


def random_superop(seed, n, level="l2"):
    rng = np.random.default_rng(seed)
    return kf.Superoperator(rng_matrix(rng, n * n), n, level)


def dense_modular_spectrum(ctx):
    """Spectrum of Delta: a -> rho a rho^{-1} as an n^2 x n^2 matrix.

    Returns (lam, basis): lam[b*n + a] = p_a / p_b is the eigenvalue of the
    unit E_ab of rho's eigenbasis, and the columns of basis = kron(conj u, u)
    are the vectorized eigen-units u E_ab u*.
    """
    p = ctx.p
    return np.outer(1.0 / p, p).flatten(), np.kron(ctx.u.conj(), ctx.u)


def dense_w_multiplier(lam):
    """((lam_a/lam_b)^{1/4} + (lam_b/lam_a)^{1/4}) / 2 over eigenvalue pairs."""
    q = np.log(lam)
    ratio = np.exp((q[:, None] - q[None, :]) / 4.0)
    return 0.5 * (ratio + 1.0 / ratio)


def spectrum_context(p, seed):
    """rho with spectrum proportional to p in a random eigenbasis."""
    n = p.size
    u, _ = np.linalg.qr(rng_matrix(np.random.default_rng(seed), n))
    return kf.DensityContext.from_rho(u @ np.diag(p / p.sum()) @ dagger(u))


def conditioned_context(n, cond):
    """rho with eigenvalues in geometric progression, p_max / p_min = cond,
    in a random eigenbasis."""
    return spectrum_context(np.geomspace(1.0, 1.0 / cond, n), seed=n)


def node_by_node_rules(s, ctx, info):
    """The fine and the coarse trapezoid rule behind a quadrature ``info``,
    each summed over its own nodes by ``trapezoid_coefficients``."""
    log_lam = ctx.log_ratio.ravel(order="F")
    lam = np.exp(-log_lam if info["invert_delta"] else log_lam)
    r_max, steps = info["r_max"], info["steps"]
    h = r_max / steps
    nodes = np.linspace(0.0, r_max, steps + 1)
    fine = trapezoid_coefficients(lam, nodes, h)
    coarse = trapezoid_coefficients(lam, nodes[::2], 2.0 * h)
    return eigenbasis_multiply(ctx.superop_basis, np.stack([fine, coarse]), s.mat)


class TestModularSpectrum:
    def test_eigenvalue_reciprocity(self, ctx2):
        lam, _ = dense_modular_spectrum(ctx2)
        n = 2
        for a in range(n):
            for b in range(n):
                assert abs(lam[b * n + a] * lam[a * n + b] - 1.0) < 1e-15
        np.testing.assert_allclose(np.exp(ctx2.log_ratio.ravel(order="F")), lam, rtol=1e-15)

    def test_basis_diagonalizes_delta(self, ctx2):
        lam, basis = dense_modular_spectrum(ctx2)
        np.testing.assert_array_equal(ctx2.superop_basis, basis)
        d = delta_superop(ctx2)
        diag = dagger(basis) @ d.mat @ basis
        np.testing.assert_allclose(diag, np.diag(lam), atol=1e-12)


class TestDenseMultiplierOracle:
    """V and W against the dense formula B (m * B* S B) B* in Delta's
    eigenbasis B, with the multiplier m built from the eigenvalues."""

    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 5), (3, 1), (3, 4)])
    def test_v_and_w_match_dense_formula(self, n, seed):
        gen, _ = cached_generator(n, seed)
        lam, b = dense_modular_spectrum(gen.ctx)
        w = dense_w_multiplier(lam)
        for level in ("l2", "algebra"):
            s = random_superop(seed, n, level)
            s_hat = dagger(b) @ s.mat @ b
            for transform, m in ((kf.w_transform, w), (kf.v_transform, 1.0 / w)):
                out = transform(s, gen.ctx)
                assert out.level == level
                assert opnorm(out.mat - b @ (m * s_hat) @ dagger(b)) <= 1e-13 * s.norm


class TestWTransform:
    def test_identity_fixed(self, ctx2):
        s = identity_superop(2, "l2")
        np.testing.assert_allclose(kf.w_transform(s, ctx2).mat, s.mat, atol=1e-14)

    def test_commuting_with_delta_unchanged(self, ctx2):
        s = delta_superop(ctx2, power=0.25)
        np.testing.assert_allclose(kf.w_transform(s, ctx2).mat, s.mat, atol=1e-12)

    def test_lmul_unit_scaling(self, ctx2):
        # sigma_{+-i/4}(E12) = 3^{-+1/4} E12, so W(lmul(E12)) scales by
        # (3^{1/4} + 3^{-1/4})/2
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        s = kf.lmul(e12)
        expect = 0.5 * (3.0**0.25 + 3.0**-0.25)
        np.testing.assert_allclose(
            kf.w_transform(s, ctx2).mat, expect * s.mat, atol=1e-13
        )


class TestVTransform:
    def test_identity_fixed(self, ctx2):
        s = identity_superop(2, "l2")
        np.testing.assert_allclose(kf.v_transform(s, ctx2).mat, s.mat, atol=1e-14)

    def test_tracial_is_identity_exactly(self, ctx_tracial2):
        s = random_superop(0, 2)
        assert opnorm(kf.v_transform(s, ctx_tracial2).mat - s.mat) <= 1e-12 * s.norm

    def test_matrix_element_scaling(self, ctx2):
        # coupling between Delta-eigenvalues 3 and 1/3 is scaled by
        # 2/(3^{1/2} + 3^{-1/2}) = sqrt(3)/2
        lam, basis = dense_modular_spectrum(ctx2)
        i3 = int(np.argmin(np.abs(lam - 3.0)))
        i13 = int(np.argmin(np.abs(lam - 1.0 / 3.0)))
        m = np.zeros((4, 4), dtype=complex)
        m[i3, i13] = 1.0
        s = kf.Superoperator(basis @ m @ dagger(basis), 2, "l2")
        v = kf.v_transform(s, ctx2)
        np.testing.assert_allclose(v.mat, (np.sqrt(3) / 2) * s.mat, atol=1e-13)

    @given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]))
    @settings(max_examples=20)
    def test_inverse_pair(self, seed, n):
        gen, _ = cached_generator(n, 0)
        s = random_superop(seed, n)
        wv = kf.w_transform(kf.v_transform(s, gen.ctx), gen.ctx)
        vw = kf.v_transform(kf.w_transform(s, gen.ctx), gen.ctx)
        assert opnorm(wv.mat - s.mat) <= 1e-10 * s.norm
        assert opnorm(vw.mat - s.mat) <= 1e-10 * s.norm

    def test_contraction(self):
        gen, _ = cached_generator(3, 1)
        for seed in range(5):
            s = random_superop(seed, 3)
            assert kf.v_transform(s, gen.ctx).norm <= s.norm * (1 + 1e-12)

    def test_key_property(self):
        # (<D^{1/4} xi, Tv D^{-1/4} eta> + <D^{-1/4} xi, Tv D^{1/4} eta>)/2
        #   = <xi, T eta>
        gen, _ = cached_generator(2, 2)
        ctx = gen.ctx
        s = random_superop(3, 2)
        v = kf.v_transform(s, ctx)
        dp = delta_superop(ctx, power=0.25).mat
        dm = delta_superop(ctx, power=-0.25).mat
        rng = np.random.default_rng(4)
        for _ in range(10):
            xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            eta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            lhs = 0.5 * (
                np.vdot(dp @ xi, v.mat @ (dm @ eta))
                + np.vdot(dm @ xi, v.mat @ (dp @ eta))
            )
            rhs = np.vdot(xi, s.mat @ eta)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_j_commutation_preserved(self, ctx2):
        # build a J-commuting map (Hermiticity-preserving) and check Tv stays so
        rng = np.random.default_rng(5)
        k = rng_matrix(rng, 2)
        s = kf.Superoperator(np.kron(k.conj(), k), 2, "l2")  # X -> k X k*

        def j_defect(t):
            worst = 0.0
            for a in range(2):
                for b in range(2):
                    e = np.zeros((2, 2), complex)
                    e[a, b] = 1.0
                    worst = max(worst, opnorm(t.apply(dagger(e)) - dagger(t.apply(e))))
            return worst

        assert j_defect(s) < 1e-13
        assert j_defect(kf.v_transform(s, ctx2)) < 1e-12

    def test_cyclic_vector_fixed(self):
        gen, _ = cached_generator(2, 6)
        t = superop_exp(gen.L2, 0.9)
        tv = kf.v_transform(t, gen.ctx)
        s = gen.ctx.sqrt_rho
        assert np.linalg.norm(tv.apply(s) - s) < 1e-10


class TestQuadratureOracle:
    def test_identity(self, ctx2):
        s = identity_superop(2, "l2")
        q, info = v_transform_quadrature(s, ctx2, steps=400000)
        assert opnorm(q.mat - s.mat) < 1e-8
        assert info["tail_bound"] < 1e-8

    def test_matches_closed_form(self, ctx2):
        s = random_superop(7, 2)
        v = kf.v_transform(s, ctx2)
        q, info = v_transform_quadrature(s, ctx2, steps=200000)
        assert opnorm(q.mat - v.mat) < 1e-6
        assert info["tail_bound"] < 1e-8
        assert info["step_doubling_diff"] < 1e-5

    def test_tail_insensitive_to_doubled_range(self, ctx2):
        s = random_superop(8, 2)
        q1, info = v_transform_quadrature(s, ctx2, steps=100000)
        q2, _ = v_transform_quadrature(s, ctx2, r_max=2 * info["r_max"], steps=200000)
        # doubling the range (same step size) only moves the truncated tail
        assert opnorm(q1.mat - q2.mat) < 1e-10

    def test_alternative_integral_inverted_delta(self, ctx2):
        # the representation with Delta -> Delta^{-1} carries the same
        # prefactor 2; agreement with the closed form pins the constant
        s = random_superop(9, 2)
        v = kf.v_transform(s, ctx2)
        q, _ = v_transform_quadrature(s, ctx2, steps=200000, invert_delta=True)
        assert opnorm(q.mat - v.mat) < 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    def test_step_doubling_matches_two_rules(self, n):
        # evaluate the fine rule and the coarse rule (every second node, step
        # 2h) each on its own nodes and compare with the closed-form sums
        ctx = cached_generator(n, 1)[0].ctx
        for seed in range(2):
            s = random_superop(30 + seed, n)
            q, info = v_transform_quadrature(s, ctx, steps=20000)
            fine, coarse = node_by_node_rules(s, ctx, info)
            assert opnorm(q.mat - fine) <= 1e-13 * s.norm
            diff = opnorm(fine - coarse)
            assert diff > 0.0
            assert abs(info["step_doubling_diff"] - diff) <= 1e-6 * diff

    @pytest.mark.parametrize(
        "n,ctx_kind,steps,invert_delta,double_range",
        [
            (2, "seed", 200000, False, False),
            (2, "seed", 1000000, False, False),
            (3, "seed", 20000, True, False),
            (2, "seed", 200000, True, True),
            (3, "seed", 20000, False, True),
            (3, "cond1e5", 20000, False, False),
            (2, "cond1e5", 200000, True, False),
            (3, "seed", 20001, False, False),
        ],
    )
    def test_closed_form_rules_match_node_by_node(
        self, n, ctx_kind, steps, invert_delta, double_range
    ):
        if ctx_kind == "cond1e5":
            ctx = conditioned_context(n, 1e5)
            assert ctx.condition == pytest.approx(1e5)
        else:
            ctx = cached_generator(n, 1)[0].ctx
        s = random_superop(40 + n, n)
        r_max = None
        if double_range:
            r_max = 2.0 * v_transform_quadrature(s, ctx, steps=steps)[1]["r_max"]
        q, info = v_transform_quadrature(
            s, ctx, r_max=r_max, steps=steps, invert_delta=invert_delta
        )
        assert info["steps"] == steps + steps % 2
        fine, coarse = node_by_node_rules(s, ctx, info)
        assert opnorm(q.mat - fine) <= 1e-13 * s.norm
        diff = opnorm(fine - coarse)
        assert abs(info["step_doubling_diff"] - diff) <= 1e-6 * diff

    def test_rejects_insufficient_range(self, ctx2):
        s = random_superop(10, 2)
        with pytest.raises(InsufficientRange):
            v_transform_quadrature(s, ctx2, r_max=1.0, steps=2000)

    def test_rejects_ill_conditioned(self):
        ctx = kf.DensityContext.from_rho(np.diag([1 - 1e-8, 1e-8]))
        s = random_superop(11, 2)
        with pytest.raises(InsufficientRange):
            v_transform_quadrature(s, ctx, steps=2000)

    def test_rejects_too_few_steps(self, ctx2):
        with pytest.raises(ValueError):
            v_transform_quadrature(identity_superop(2, "l2"), ctx2, steps=100)


class TestCptpCertificate:
    def test_tracial_trivial(self, ctx_tracial2):
        rep = v_transform_cptp_certificate(ctx_tracial2)
        assert rep.passed
        assert rep.check("min_choi_eig").value > -1e-14

    def test_nontracial_n2(self, ctx2):
        rep = v_transform_cptp_certificate(ctx2)
        assert rep.passed
        assert rep.check("min_choi_eig").value >= -1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_trace_defect_reads_multiplier_diagonal(self, n):
        contexts = [cached_generator(n, seed)[0].ctx for seed in range(3)]
        contexts.append(conditioned_context(n, 1e5))
        for ctx in contexts:
            rep = v_transform_cptp_certificate(ctx)
            diag = np.diagonal(1.0 / _w_multiplier(ctx))
            assert rep.check("trace_defect").value == np.abs(diag - 1.0).max()
            assert loop_trace_defect(ctx) <= rep.check("trace_defect").bound
            # V(I) = b diag(v) b*: the same defect is V's unitality defect
            assert [c.name for c in rep.checks] == ["trace_defect", "min_choi_eig"]
            unital = kf.v_transform(identity_superop(n, "l2"), ctx).mat - np.eye(n * n)
            assert abs(opnorm(unital) - rep.check("trace_defect").value) <= 1e-13

    @pytest.mark.parametrize("n", [4, 5])
    def test_min_choi_eig_certified_beyond_dense_oracle(self, n):
        gen, _ = cached_generator(n, 3)
        rep = v_transform_cptp_certificate(gen.ctx)
        assert rep.passed
        assert rep.check("min_choi_eig").value >= -1e-13
        assert not rep.metrics

    @pytest.mark.parametrize("n", [2, 3])
    def test_min_choi_eig_matches_dense_oracle(self, n, monkeypatch):
        contexts = [cached_generator(n, seed)[0].ctx for seed in range(5)]
        contexts += [kf.random_generator(n, seed, cond_bound=1e6)[0].ctx for seed in range(5)]
        contexts.append(spectrum_context(np.array([2.0] * (n - 1) + [1.0]), seed=n))
        contexts.append(spectrum_context(np.ones(n), seed=n))
        for ctx in contexts:
            rep = v_transform_cptp_certificate(ctx)
            c = dense_schur_choi(ctx, 1.0 / _w_multiplier(ctx))
            dense_min = np.linalg.eigvalsh(0.5 * (c + dagger(c)))[0]
            assert rep.passed
            assert abs(rep.check("min_choi_eig").value - dense_min) <= 1e-13
        # negative control: the same certificate on W's multiplier, which is
        # indefinite unless rho is tracial
        monkeypatch.setattr(vtransform, "_w_multiplier", lambda ctx: 1.0 / _w_multiplier(ctx))
        for ctx in contexts[:-1]:
            rep = v_transform_cptp_certificate(ctx)
            assert not rep.check("min_choi_eig").passed()
        assert v_transform_cptp_certificate(contexts[-1]).passed

    @given(
        st.sampled_from([2, 3]),
        st.floats(1.0, 1e6),
        st.sampled_from(["distinct", "repeated", "tracial"]),
        st.integers(0, 10_000),
    )
    @settings(derandomize=True)
    def test_schur_choi_spectrum_is_multiplier_spectrum(self, n, cond, kind, seed):
        rng = np.random.default_rng(seed)
        p = np.exp(rng.uniform(0.0, np.log(cond), n))
        if kind == "repeated":
            p[1] = p[0]
        elif kind == "tracial":
            p = np.ones(n)
        ctx = spectrum_context(p, seed)
        w = _w_multiplier(ctx)
        for mult in (1.0 / w, w):
            c = dense_schur_choi(ctx, mult)
            dense = np.linalg.eigvalsh(0.5 * (c + dagger(c)))
            expect = np.sort(np.concatenate([np.linalg.eigvalsh(mult), np.zeros(n**4 - n**2)]))
            assert np.abs(dense - expect).max() <= 1e-13 * max(1.0, opnorm(mult))


class TestMarkovPreservation:
    def test_identity(self, ctx2):
        assert markov_preservation_check(identity_superop(2, "l2"), ctx2).passed

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_markov_operators(self, seed):
        ctx, t = random_markov_operator(2, seed)
        rep = markov_preservation_check(t, ctx)
        assert rep.passed

    def test_precondition_gate(self):
        ctx, t = random_markov_operator(2, 12)
        skew = kf.Superoperator(t.mat + 0.2j * np.eye(4), 2, "l2")
        rep = markov_preservation_check(skew, ctx)
        assert not rep.passed
        assert rep.metrics["transformed"] == "skipped (precondition failed)"
