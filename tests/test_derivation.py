import ast
import dataclasses
import gc
import inspect
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import kmsflow as kf
from kmsflow import derivation
from kmsflow.derivation import (
    CommutatorFamily,
    FirstOrderCalculus,
    _form_matrix,
    kms_form_of_generator,
)
from kmsflow.errors import (
    DimensionMismatch,
    GramNotPSD,
    InconsistentPsi,
    ReconstructionFailure,
)
from kmsflow.generator import MarkovGenerator, modular_resolvent
from kmsflow.matrix_core import dagger, opnorm
from kmsflow.superop import (
    choi,
    from_kraus,
    kms_adjoint,
    to_l2,
)

from calculus_oracle import (
    DenseCalculus,
    as_dense,
    commutator_delta,
    delta_form_matrix,
    delta_j_defect,
    delta_of,
    delta_uniqueness_witness,
    dense_invariants_report,
    grid_invariants_report,
    kron_commutator_actions,
    kraus_from_choi,
    kron_render,
    leibniz_bilinear_residual,
    lift_k_j,
    loop_commutator_form_matrix,
    loop_standard_form_defect,
    loop_witness_defects,
    lstsq_inner_vector,
    pi_l_of,
    pi_r_of,
    render_theta,
    spanning_family,
    standard_form_defect,
    tensor_leibniz_defect,
    trimmed_commutator_calculus,
)
from certify_oracle import identity_superop, random_markov_operator, zero_superop
from conftest import (
    A_PAIR_PER_CALCULUS,
    assert_window_layout,
    cached_generator,
    cached_gns,
    census_tool,
    rng_matrix,
    stored_bytes,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def family_form(family, ctx):
    """The form matrix of a commutator family, through the inner vector
    X_k = -rho^{1/4} V_k rho^{1/4} as ``verify_commutator_form`` forms it."""
    qr = ctx.quarter_rho
    ops = np.array(family.ops, dtype=complex).reshape(-1, ctx.dim, ctx.dim)
    return _form_matrix(ctx, -(qr @ ops @ qr))


def tracial_sigma_x_generator():
    ctx = kf.DensityContext.from_rho(np.eye(2) / 2)
    phi = from_kraus([SX])
    psi = 0.5 * (phi + kms_adjoint(phi, ctx))
    return kf.generator_from_cp(psi, ctx), psi


class TestGnsCalculus:
    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_generator_gives_empty_calculus(self, n):
        # m = 0 runs the general path: the recovery check reads the empty
        # stack as 0 and the family's report passes
        ctx, _ = kf.random_instance(n, 0)
        gen = kf.certify_generator(zero_superop(n), ctx)
        calc = kf.gns_calculus(gen)
        assert calc.dim_h == 0
        fam = kf.extract_commutators_gns(calc, gen)
        assert len(fam) == 0
        rep = kf.verify_commutator_form(fam, gen)
        assert rep.passed and rep.check("max_form_deviation").value == 0.0
        xi0, res = kf.inner_vector(calc)
        assert xi0.size == 0 and res == 0.0
        assert kf.calculus_invariants_report(calc, gen).passed
        w, wit = kf.uniqueness_witness(calc, calc, gen)
        assert w.shape == (0, 0) and wit.passed
        assert all(c.value == 0.0 for c in wit.checks)

    def test_tracial_sigma_x_form_identity(self):
        # dense oracle: evaluate both <E_ab, L(E_cd)>_rho (KMS inner product,
        # direct) and <delta(E_ab), delta(E_cd)>_H on all 16 basis pairs
        gen, _ = tracial_sigma_x_generator()
        calc = kf.gns_calculus(gen)
        assert calc.dim_h == 4  # M_2 with multiplicity one
        lhs = np.zeros((4, 4), dtype=complex)
        for i, (a, b) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            for k, (c, d) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
                ea = np.zeros((2, 2), complex)
                ea[a, b] = 1.0
                ec = np.zeros((2, 2), complex)
                ec[c, d] = 1.0
                s = gen.ctx.sqrt_rho
                lhs[i, k] = np.trace(dagger(ea) @ s @ gen.L.apply(ec) @ s)
                rhs = np.vdot(calc.delta[a, b], calc.delta[c, d])
                assert abs(lhs[i, k] - rhs) < 1e-12

    def test_gram_restricted_is_psd(self):
        for n, seed in ((2, 0), (3, 0)):
            calc = cached_gns(n, seed)
            eigs = calc.meta["gram_eigs"]
            assert eigs.min() >= -1e-8 * max(abs(eigs).max(), 1e-300)

    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 1), (3, 0)])
    def test_all_invariants(self, n, seed):
        gen, _ = cached_generator(n, seed)
        calc = cached_gns(n, seed)
        rep = kf.calculus_invariants_report(calc, gen)
        assert rep.passed, [
            (c.name, c.value) for c in rep.checks if not c.passed()
        ]

    @pytest.mark.parametrize(
        "n,seed", [(3, s) for s in range(10)] + [(n, s) for n in (4, 5) for s in range(8)]
    )
    def test_invariants_at_conditioning_1e6(self, n, seed):
        # K_J through the lift P W / sqrt(g) failed j_antiunitary_defect at
        # (4, 1), (4, 4), (5, 0), (5, 1), (5, 3) and (5, 4); the product of
        # isometries does not amplify rounding by the conditioning of g
        gen, _ = kf.random_generator(n, seed, cond_bound=1e6)
        calc = kf.gns_calculus(gen)
        rep = kf.calculus_invariants_report(calc, gen)
        assert rep.passed, [(c.name, c.value) for c in rep.checks if not c.passed()]

    def test_delta_outside_constraint_fails_reports(self, monkeypatch):
        # sigma_{i/4}(E) off by 1e-6 I moves the rendered delta off inner(X).
        # The report reads (X, K_J), which the skew does not touch, and
        # passes; the render is caught by inner_vector, which renders QX with
        # the true units, and by the delta-space oracles of j_delta_defect
        # and the form identity.
        gen, _ = cached_generator(2, 0)
        quarter_units = derivation._quarter_units

        def skewed(ctx):
            s_m4, s_p4 = quarter_units(ctx)
            return s_m4, s_p4 + 1e-6 * np.eye(2)

        with monkeypatch.context() as patch:
            patch.setattr(derivation, "_quarter_units", skewed)
            calc = kf.gns_calculus(gen)
        true = kf.gns_calculus(gen)
        assert np.array_equal(calc.x, true.x) and np.array_equal(calc.k_j, true.k_j)
        assert kf.calculus_invariants_report(calc, gen).passed
        assert kf.inner_vector(calc)[1] > 1e-7
        assert kf.inner_vector(true)[1] < 1e-14
        bound = derivation.INVARIANTS_TOL * max(1.0, gen.L.norm)
        assert delta_j_defect(calc) > bound >= delta_j_defect(true)
        form_bound = derivation.FORM_TOL * max(1.0, gen.L.norm)
        form = kms_form_of_generator(gen)
        assert np.abs(delta_form_matrix(calc) - form).max() > form_bound
        assert np.abs(delta_form_matrix(true) - form).max() <= form_bound

    def test_form_identity_failure_rejected(self, monkeypatch):
        # gns_calculus builds the calculus; the invariants report is the one
        # measurement of the form identity and fails it with its value
        gen, _ = cached_generator(2, 0)
        form = derivation.kms_form_of_generator
        monkeypatch.setattr(
            derivation, "kms_form_of_generator", lambda g: form(g) + 1e-6 * np.eye(4)
        )
        calc = kf.gns_calculus(gen)
        assert "form_identity_defect" not in calc.meta
        rep = kf.calculus_invariants_report(calc, gen)
        check = rep.check("form_identity_defect")
        assert not rep.passed and not check.passed()
        assert check.value > check.bound == derivation.FORM_TOL * max(1.0, gen.L.norm)
        assert [c.name for c in rep.checks if not c.passed()] == ["form_identity_defect"]

    def test_form_identity_tolerance(self):
        gen, _ = cached_generator(3, 0)
        calc = cached_gns(3, 0)
        n2 = 9
        form_h = np.einsum(
            "abi,cdi->abcd", np.conj(calc.delta), calc.delta
        ).reshape(n2, n2)
        assert np.abs(form_h - kms_form_of_generator(gen)).max() <= 1e-8 * max(
            1.0, gen.L.norm
        )

    def test_non_cnd_input_rejected(self):
        # L1 - c L2 for two certified generators stays unital and
        # KMS-symmetric but violates CND for large c
        gen1, _ = cached_generator(2, 0)
        gen2, _ = cached_generator(2, 1)
        c = 3.0 * gen1.L.norm / gen2.L.norm
        l_bad = gen1.L - c * gen2.L
        bad = MarkovGenerator(
            L=l_bad, L2=to_l2(l_bad, gen1.ctx), ctx=gen1.ctx, certificates={}
        )
        with pytest.raises(GramNotPSD) as err:
            kf.gns_calculus(bad)
        assert err.value.value < -err.value.bound

    def test_non_unital_input_rejected(self):
        # a shift by 1e-3 id leaves L(I) = 1e-3 I: the quotient needs Lv(I) = 0
        gen, _ = cached_generator(2, 0)
        l_bad = gen.L + 1e-3 * identity_superop(2)
        bad = MarkovGenerator(
            L=l_bad, L2=to_l2(l_bad, gen.ctx), ctx=gen.ctx, certificates={}
        )
        with pytest.raises(ReconstructionFailure, match="annihilate") as err:
            kf.gns_calculus(bad)
        assert err.value.value > err.value.bound


def _perturbed(calc, name, eps=1e-6, at=1):
    arr = getattr(calc, name).copy()
    arr.flat[at] += eps
    return dataclasses.replace(calc, **{name: arr})


def _padded_with_corner(calc):
    """The dense fields of calc plus one dimension on which both actions send
    E_00 to 1 and every other matrix unit to 0: unital and *-preserving, but
    dim H is not a multiple of n^2 and pi_l(E_01) pi_l(E_10) = 0 there, not
    pi_l(E_00)."""
    n, d = calc.dim, calc.dim_h
    e00 = np.zeros((n, n))
    e00[0, 0] = 1.0

    def pad(x, corner):
        out = np.zeros(x.shape[:-2] + (d + 1, d + 1), dtype=complex)
        out[..., :d, :d] = x
        out[..., d, d] = corner
        return out

    return DenseCalculus(
        dim_h=d + 1,
        pi_l=pad(calc.pi_l, e00),
        pi_r=pad(calc.pi_r, e00),
        jmat=pad(calc.jmat, 1.0),
        delta=np.concatenate([calc.delta, np.zeros((n, n, 1))], axis=2),
        ctx=calc.ctx,
    )


def _padded_multiplicity(calc, x_extra=None):
    """calc with one more multiplicity index, on which X is ``x_extra``
    (default 0, so delta vanishes there) and K_J is -1: with X_extra = 0 the
    delta coefficients keep their Gram and dim H grows by n^2."""
    n = calc.dim
    x_extra = np.zeros((n, n)) if x_extra is None else x_extra
    k_pad = -np.eye(calc.m + 1, dtype=complex)
    k_pad[:-1, :-1] = calc.k_j
    return FirstOrderCalculus(calc.ctx, np.concatenate([calc.x, x_extra[None]]), k_pad)


def _columns_swapped(k_j):
    out = k_j.copy()
    out[:, [0, 1]] = out[:, [1, 0]]
    return out


class TestKmsFormOfGenerator:
    @pytest.mark.parametrize(
        "n,seed,options", [(2, 0, {}), (3, 1, {}), (3, 2, {"cond_bound": 1e6})]
    )
    def test_matches_the_kms_inner_loop(self, n, seed, options):
        # F[(p, q), (a, b)] = <E_pq, L(E_ab)>_rho, one KMS inner product
        # tr(A* rho^{1/2} B rho^{1/2}) per unit pair
        gen, _ = kf.random_generator(n, seed, **options)
        s = gen.ctx.sqrt_rho
        units = np.eye(n * n).reshape(n * n, n, n)  # row-major labels
        loop = np.array(
            [[np.trace(dagger(e) @ s @ gen.L.apply(f) @ s) for f in units] for e in units]
        )
        form = kms_form_of_generator(gen)
        assert np.abs(form - loop).max() <= 1e-14 * max(1.0, gen.L.norm)


class TestFirstOrderCalculusType:
    """The calculus is its standard-form data: the constructor validates
    X and K_J, and delta and the dense fields are its read-only rendering."""

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_non_integral_multiplicity_rejected(self, n, seed):
        # X of shape (m, n, n) gives dim H = n^2 m; the delta of a calculus
        # whose dim H is not a multiple of n^2 is no such stack
        calc = cached_gns(n, seed)
        padded = _padded_with_corner(calc)
        assert padded.dim_h % (n * n)
        with pytest.raises(DimensionMismatch, match="X has shape"):
            FirstOrderCalculus(calc.ctx, padded.delta, calc.k_j)
        for m in (0, 1, 5):
            built = FirstOrderCalculus(calc.ctx, np.zeros((m, n, n)), np.eye(m))
            assert built.dim_h == built.delta.shape[2] == n * n * m

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_bad_shapes_rejected(self, n, seed):
        calc = cached_gns(n, seed)
        m = calc.m
        for k_j in (np.zeros((m, m + 1)), np.eye(m + 1), np.eye(m)[0]):
            with pytest.raises(DimensionMismatch, match="K_J"):
                FirstOrderCalculus(calc.ctx, calc.x, k_j)
        for x in (calc.x[:, :1], calc.x.reshape(m, -1), calc.x[..., None], calc.x[0]):
            with pytest.raises(DimensionMismatch, match="X has shape"):
                FirstOrderCalculus(calc.ctx, x, calc.k_j)

    @pytest.mark.parametrize("n", [2, 3])
    def test_empty_multiplicity_builds(self, n):
        ctx = cached_generator(n, 0)[0].ctx
        calc = FirstOrderCalculus(ctx, np.zeros((0, n, n)), np.zeros((0, 0)))
        assert (calc.dim, calc.m, calc.dim_h) == (n, 0, 0)
        assert calc.delta.shape == (n, n, 0)
        assert calc.pi_l.shape == calc.pi_r.shape == (n, n, 0, 0)
        assert calc.jmat.shape == (0, 0) and calc.k_j.dtype == complex

    @pytest.mark.parametrize("route", ["gns", "kraus"])
    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_x_is_taken_modulo_sqrt_rho(self, n, seed, route):
        # inner(rho^{1/2}) = 0: shifting each X_k by a multiple of rho^{1/2}
        # moves delta and the inner vector only at rounding level
        calc = cached_gns(n, seed) if route == "gns" else _kraus_calculus(n, seed)
        shifts = np.random.default_rng(seed).standard_normal(calc.m)
        shifted = dataclasses.replace(
            calc, x=calc.x + shifts[:, None, None] * calc.ctx.sqrt_rho
        )
        scale = np.abs(calc.delta).max()
        assert np.abs(shifted.delta - calc.delta).max() <= 1e-14 * scale
        xi0, _ = kf.inner_vector(calc)
        xi0_shifted, _ = kf.inner_vector(shifted)
        assert np.abs(xi0_shifted - xi0).max() <= 1e-14 * max(1.0, np.abs(xi0).max())
        # every certificate reads X through Q or through inner(X): the shift
        # moves no check beyond rounding, and the witness finds W = I
        gen, _ = cached_generator(n, seed)
        rep = kf.calculus_invariants_report(calc, gen)
        rep_shifted = kf.calculus_invariants_report(shifted, gen)
        for check, moved in zip(rep.checks, rep_shifted.checks):
            assert abs(moved.value - check.value) <= 1e-12 * max(1.0, gen.L.norm), check.name
        assert rep_shifted.passed
        w, wit = kf.uniqueness_witness(calc, shifted, gen)
        assert wit.passed and np.abs(w - np.eye(calc.m)).max() <= 1e-10

    def test_dense_fields_cannot_be_set(self):
        calc = cached_gns(2, 0)
        for name in ("delta", "pi_l", "pi_r", "jmat", "dim_h", "m"):
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(calc, **{name: getattr(calc, name)})
        with pytest.raises(dataclasses.FrozenInstanceError):
            calc.k_j = -calc.k_j

    def test_arrays_are_read_only_copies(self):
        gen, _ = cached_generator(2, 0)
        source = cached_gns(2, 0)
        x, k_j = source.x.copy(), source.k_j.copy()
        calc = FirstOrderCalculus(gen.ctx, x, k_j)
        x[0, 0, 0] += 1.0
        k_j[0, 0] += 1.0
        assert np.array_equal(calc.x, source.x)
        assert np.array_equal(calc.k_j, source.k_j)
        assert np.array_equal(calc.delta, source.delta)
        for name in ("x", "delta", "k_j", "pi_l", "pi_r", "jmat"):
            arr = getattr(calc, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0

    @pytest.mark.parametrize("n,m", [(2, 0), (2, 3), (3, 8)])
    def test_read_only_flags_cannot_be_set_back(self, n, m):
        # each array views read-only memory, stored once at its logical size
        ctx = cached_generator(n, 0)[0].ctx
        rng = np.random.default_rng(m)
        calc = FirstOrderCalculus(ctx, rng.standard_normal((m, n, n)), -np.eye(m))
        dim_h = n * n * m
        shapes = {"x": (m, n, n), "k_j": (m, m), "delta": (n, n, dim_h), "jmat": (dim_h, dim_h)}
        for name, shape in shapes.items():
            arr = getattr(calc, name)
            with pytest.raises(ValueError):
                arr.flags.writeable = True
            assert arr.shape == shape and arr.dtype == complex, name
            assert stored_bytes(arr) == arr.nbytes, name

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_replace_k_j_rerenders_j(self, n, seed):
        calc = cached_gns(n, seed)
        flipped = dataclasses.replace(calc, k_j=-calc.k_j)
        assert np.array_equal(flipped.k_j, -calc.k_j)
        assert np.array_equal(flipped.jmat, -calc.jmat)
        assert flipped.pi_l.tobytes() == calc.pi_l.tobytes()
        assert standard_form_defect(flipped) == 0.0

    def test_structural_actions_match_dense_fields(self):
        calc = cached_gns(3, 1)
        x = rng_matrix(np.random.default_rng(5), 3)
        assert np.array_equal(pi_l_of(calc, x), np.tensordot(x, calc.pi_l, axes=2))
        assert np.array_equal(pi_r_of(calc, x), np.tensordot(x, calc.pi_r, axes=2))


class TestSharedActions:
    """pi_l and pi_r depend on (n, m) alone: every live calculus of one
    (n, m) holds the same read-only arrays, and none is kept once no
    calculus holds it."""

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_routes_of_one_generator_share(self, n, seed):
        calc, calc_k = cached_gns(n, seed), _kraus_calculus(n, seed)
        assert calc.m == calc_k.m == n * n - 1
        assert calc.pi_l is calc_k.pi_l and calc.pi_r is calc_k.pi_r
        assert calc.jmat is not calc_k.jmat
        for arr in (calc.pi_l, calc.pi_r):
            assert_window_layout(arr, n, calc.dim_h)
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0

    def test_other_dims_render_their_own(self):
        calc = cached_gns(2, 0)
        empty = FirstOrderCalculus(calc.ctx, np.zeros((0, 2, 2)), np.zeros((0, 0)))
        for other in (cached_gns(3, 1), _padded_multiplicity(calc), empty):
            assert (other.dim, other.m) != (calc.dim, calc.m)
            assert other.pi_l.shape == other.pi_r.shape == (
                other.dim, other.dim, other.dim_h, other.dim_h)
            assert other.pi_l is not calc.pi_l and other.pi_r is not calc.pi_r
        assert empty.pi_l.shape == (2, 2, 0, 0) and not empty.pi_l.flags.writeable

    def test_replace_shares(self):
        calc = cached_gns(3, 1)
        flipped = dataclasses.replace(calc, k_j=-calc.k_j)
        assert flipped.pi_l is calc.pi_l and flipped.pi_r is calc.pi_r

    def test_nothing_retained(self):
        # an (n, m) that no cached calculus of the suite holds
        n, m = 2, 6
        ctx = cached_generator(n, 0)[0].ctx
        rng = np.random.default_rng(3)
        calc = FirstOrderCalculus(ctx, rng.standard_normal((m, n, n)), -np.eye(m))
        flipped = dataclasses.replace(calc, k_j=np.eye(m))
        assert flipped.pi_l is calc.pi_l
        pi_l, pi_r = weakref.ref(calc.pi_l), weakref.ref(calc.pi_r)
        del calc, flipped
        gc.collect()
        assert pi_l() is None and pi_r() is None
        assert not [key for key in derivation._ACTIONS if key[:2] == (n, m)]


# the GNS calculus, the Kraus family and its calculus of one n = 5 instance
# under tracemalloc, in a fresh process so that no calculus another test
# holds can lend them its actions; prints both m and the traced peak in bytes
TRACED_CALCULI = """
import tracemalloc
from kmsflow import derivation, instances
gen, psi = instances.random_generator(5, 1)
tracemalloc.start()
calc = derivation.gns_calculus(gen)
calc_k = derivation.commutator_calculus(derivation.extract_commutators_kraus(gen, psi), gen)
print(calc.m, calc_k.m, tracemalloc.get_traced_memory()[1])
"""

# at (n, m) = (5, 24) the shared actions store 23.4 MiB as windows, where
# dense arrays stored 275 MiB: the three calls peak at 35.3 MiB, at 58.6 MiB
# with a pair of actions per calculus and at 286.6 MiB with dense actions;
# the bound lies halfway between the first two, and a run takes about 0.3 s
N5_PEAK_BOUND = 47 * 2**20


def _traced_calculi_peak(prelude=""):
    env = {**os.environ, "PYTHONPATH": str(Path(kf.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", prelude + TRACED_CALCULI], env=env,
                          capture_output=True, text=True, check=True)
    m_gns, m_kraus, peak = map(int, proc.stdout.split())
    assert m_gns == m_kraus == 24
    return peak


def test_n5_calculi_hold_one_pair_of_actions():
    assert _traced_calculi_peak() <= N5_PEAK_BOUND


def test_n5_pair_per_calculus_fails_the_bound():
    # control: with the table cleared before each calculus, two pairs are held
    assert _traced_calculi_peak(A_PAIR_PER_CALCULUS) > N5_PEAK_BOUND


DENSE_FIELDS = ("pi_l", "pi_r", "jmat", "delta")


def _dense_field_reads(source: str) -> list:
    """Line numbers of the reads of an attribute ``pi_l``, ``pi_r``, ``jmat``
    or ``delta`` in ``source``, outside ``FirstOrderCalculus.__post_init__``;
    ``delta`` may also be read in the module-level function ``inner_vector``."""
    tree = ast.parse(source)
    allowed = {name: set() for name in DENSE_FIELDS}
    for top in tree.body:
        if isinstance(top, ast.ClassDef) and top.name == "FirstOrderCalculus":
            for fn in top.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                    inside = {id(node) for node in ast.walk(fn)}
                    for ids in allowed.values():
                        ids.update(inside)
        elif isinstance(top, ast.FunctionDef) and top.name == "inner_vector":
            allowed["delta"].update(id(node) for node in ast.walk(top))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in allowed
        and id(node) not in allowed[node.attr]
    ]


class TestFixedBounds:
    @pytest.mark.parametrize(
        "fn,name",
        [
            (derivation.calculus_invariants_report, "tol"),
            (derivation.verify_commutator_form, "tol"),
            (derivation.extract_commutators_gns, "tol"),
            (derivation.extract_commutators_kraus, "tol"),
            (derivation.uniqueness_witness, "tol"),
            (derivation._form_matrix, "n"),
            (kf.random_instance, "tol"),
            (kf.random_generator, "tol"),
            (random_markov_operator, "t"),
        ],
    )
    def test_parameter_stays_removed(self, fn, name):
        assert name not in inspect.signature(fn).parameters

    def test_reports_record_their_constant(self):
        gen, psi = cached_generator(2, 0)
        calc = cached_gns(2, 0)
        fam = kf.extract_commutators_kraus(gen, psi)
        _, wit = kf.uniqueness_witness(calc, kf.commutator_calculus(fam, gen), gen)
        assert kf.calculus_invariants_report(calc, gen).tol == derivation.INVARIANTS_TOL
        assert kf.verify_commutator_form(fam, gen).tol == derivation.COMMUTATOR_FORM_TOL
        assert wit.tol == derivation.WITNESS_TOL


class TestDenseFieldSourceGuard:
    """Nothing in the library reads the rendered dense fields, and only
    ``inner_vector`` reads the rendered delta, so deleting them touches only
    the constructor and that function."""

    def test_guard_flags_a_read(self):
        snippet = (
            "class FirstOrderCalculus:\n"
            "    def __post_init__(self):\n"
            "        self.pi_l\n"
            "    def pi_l_of(self, x):\n"
            "        return self.pi_l\n"
            "def f(calc):\n"
            "    return calc.jmat @ calc.pi_r\n"
        )
        assert sorted(_dense_field_reads(snippet)) == [5, 7, 7]

    def test_guard_flags_a_delta_read(self):
        # delta is allowed in __post_init__ and in the module-level
        # inner_vector only; the other dense fields are not allowed there
        snippet = (
            "class FirstOrderCalculus:\n"
            "    def __post_init__(self):\n"
            "        self.delta\n"
            "    def inner_vector(self):\n"
            "        return self.delta\n"
            "def inner_vector(calc):\n"
            "    return calc.delta, calc.jmat\n"
            "def calculus_invariants_report(calc, gen):\n"
            "    return calc.delta.reshape(-1)\n"
        )
        assert sorted(_dense_field_reads(snippet)) == [5, 7, 9]

    def test_no_dense_field_reads_in_sources(self):
        src = Path(kf.__file__).resolve().parent
        reads = {p.name: _dense_field_reads(p.read_text()) for p in sorted(src.rglob("*.py"))}
        assert {name: lines for name, lines in reads.items() if lines} == {}


class TestInvariantsNegativeControls:
    """Dense fields that break the standard form cannot be held by a
    ``FirstOrderCalculus``; on the dense container the test-side
    ``standard_form_defect`` and the pairwise grid oracle both flag them.  A
    wrong K_J can be built, and the report's ``j_delta_defect`` catches it."""

    @pytest.mark.parametrize(
        "breaker,oracle_check",
        [
            (lambda c: _perturbed(c, "pi_l"), "pi_l_homomorphism_defect"),
            (lambda c: _perturbed(c, "pi_r"), "pi_r_antihomomorphism_defect"),
            (lambda c: _perturbed(c, "jmat"), "j_bimodule_twist_defect"),
            # jmat[0, n] is K_J[0, 1], where ``dense_k_j`` reads K_J; the
            # other outer blocks of J keep the old entry
            (lambda c: _perturbed(c, "jmat", at=c.dim), "j_bimodule_twist_defect"),
        ],
        ids=["pi_l_entry", "pi_r_entry", "j_entry", "j_kj_entry"],
    )
    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_broken_fields_fail(self, n, seed, breaker, oracle_check):
        gen, _ = cached_generator(n, seed)
        broken = breaker(as_dense(cached_gns(n, seed)))
        assert standard_form_defect(broken) > 1e-9 * max(1.0, gen.L.norm)
        oracle = grid_invariants_report(broken, gen, tol=1e-9)
        assert oracle.passed is False
        assert not oracle.check(oracle_check).passed()

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_dim_not_multiple_fails(self, n, seed):
        # no standard-form data exist: the test-side check raises, as the
        # constructor does, and the grid oracle measures the broken product
        gen, _ = cached_generator(n, seed)
        broken = _padded_with_corner(cached_gns(n, seed))
        with pytest.raises(DimensionMismatch):
            standard_form_defect(broken)
        oracle = grid_invariants_report(broken, gen, tol=1e-9)
        assert not oracle.check("pi_l_homomorphism_defect").passed()

    @pytest.mark.parametrize(
        "breaker", [np.conj, np.negative, _columns_swapped], ids=["conj", "sign", "columns"]
    )
    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_wrong_k_j_fails_j_delta(self, n, seed, breaker):
        # K_J is a product of isometries, so its own unitarity says little;
        # delta(A*) = J delta(A), measured on X, catches a wrong K_J.  -J
        # intertwines the bimodule exactly as J does; only this check fixes
        # the sign.  The grid oracle's dense check agrees.
        gen, _ = cached_generator(n, seed)
        calc = cached_gns(n, seed)
        broken = dataclasses.replace(calc, k_j=breaker(calc.k_j))
        rep = kf.calculus_invariants_report(broken, gen)
        assert not rep.check("j_delta_defect").passed()
        assert not grid_invariants_report(broken, gen, tol=1e-9).check("j_delta_defect").passed()
        assert kf.calculus_invariants_report(calc, gen).passed

    @pytest.mark.parametrize(
        "breaker",
        [lambda k: k, np.conj, np.negative, _columns_swapped],
        ids=["native", "conj", "sign", "columns"],
    )
    @pytest.mark.parametrize("route", ["gns", "kraus"])
    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
    def test_j_delta_on_x_agrees_with_delta_oracle(self, n, seed, route, breaker):
        # Q(X - X') = 0 iff delta(A*) = J delta(A) on the delta coefficients:
        # both verdicts agree, and exactly the K_J that differ from the
        # native one fail (conj leaves the Kraus route's K_J = -I alone)
        gen, _ = cached_generator(n, seed)
        calc = cached_gns(n, seed) if route == "gns" else _kraus_calculus(n, seed)
        broken = dataclasses.replace(calc, k_j=breaker(calc.k_j))
        check = kf.calculus_invariants_report(broken, gen).check("j_delta_defect")
        native = np.array_equal(broken.k_j, calc.k_j)
        assert check.passed() == (delta_j_defect(broken) <= check.bound) == native

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_native_calculi_conform_exactly(self, n, seed):
        gen, psi = cached_generator(n, seed)
        calc_k = kf.commutator_calculus(kf.extract_commutators_kraus(gen, psi), gen)
        assert standard_form_defect(cached_gns(n, seed)) == 0.0
        assert standard_form_defect(calc_k) == 0.0


def _kraus_calculus(n, seed):
    gen, psi = cached_generator(n, seed)
    return kf.commutator_calculus(kf.extract_commutators_kraus(gen, psi), gen)


def _last(name):
    return lambda c: _perturbed(c, name, eps=0.25 - 0.5j, at=getattr(c, name).size - 1)


class TestStandardFormAgainstOracles:
    """The constructor's rendering and the test-side one-pass check
    against the Kronecker rendering and the per-unit loop."""

    @pytest.mark.parametrize("m", [0, 1, 2, 5])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_render_is_bitwise_kron(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        ctx = cached_generator(n, 0)[0].ctx
        k_j = rng_matrix(rng, m) if m else np.zeros((0, 0), dtype=complex)
        x = rng.standard_normal((m, n, n)) + 0j
        calc = FirstOrderCalculus(ctx, x, k_j)
        ref = kron_render(ctx, calc.delta, k_j, {})
        assert calc.dim_h == ref.dim_h == n * n * m
        for name in ("pi_l", "pi_r", "jmat"):
            got, want = getattr(calc, name), getattr(ref, name)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert want.flags.c_contiguous
            if name == "jmat":
                assert got.flags.c_contiguous  # one dense array per calculus
            else:
                assert_window_layout(got, n, calc.dim_h)
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize(
        "breaker",
        [
            lambda c: c,
            # flat index 0 is a pattern entry of each field (for jmat K_J[0, 0]),
            # flat index 1 is off the pattern, jmat[0, n] is K_J[0, 1]
            lambda c: _perturbed(c, "pi_l", at=0),
            lambda c: _perturbed(c, "pi_l", at=1),
            _last("pi_l"),
            lambda c: _perturbed(c, "pi_r", at=0),
            lambda c: _perturbed(c, "pi_r", at=1),
            _last("pi_r"),
            lambda c: _perturbed(c, "jmat", at=0),
            lambda c: _perturbed(c, "jmat", at=1),
            lambda c: _perturbed(c, "jmat", at=c.dim),
            _last("jmat"),
            lambda c: dataclasses.replace(c, jmat=-c.jmat),
        ],
        ids=[
            "native", "pi_l_pattern", "pi_l_off", "pi_l_last", "pi_r_pattern", "pi_r_off",
            "pi_r_last", "j_pattern", "j_off", "j_kj_entry", "j_last", "j_sign",
        ],
    )
    @pytest.mark.parametrize("route", ["gns", "kraus"])
    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2)])
    def test_defect_equals_loop_exactly(self, n, seed, route, breaker):
        calc = cached_gns(n, seed) if route == "gns" else _kraus_calculus(n, seed)
        broken = breaker(as_dense(calc))
        assert standard_form_defect(broken) == loop_standard_form_defect(broken)

    @pytest.mark.parametrize("n", [2, 3])
    def test_empty_multiplicity(self, n):
        ctx = cached_generator(n, 0)[0].ctx
        calc = FirstOrderCalculus(
            ctx, np.zeros((0, n, n), dtype=complex), np.zeros((0, 0), dtype=complex)
        )
        assert standard_form_defect(calc) == loop_standard_form_defect(calc) == 0.0


LEIBNIZ_ENSEMBLES = {
    "default": {}, "kraus_rank_1": {"kraus_rank": 1}, "cond_1e6": {"cond_bound": 1e6},
}


class TestBatchedChecksAgainstOracles:
    """The one-contraction commutator form against the member-by-member sum,
    and the properties that hold by type for delta = inner(X) against their
    dense oracles: the twisted Leibniz rule on the full unit-pair tensor, the
    inner vector by dense least squares, and cyclicity through the spanning
    family."""

    @pytest.mark.parametrize("route", ["gns", "kraus", "empty"])
    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
    def test_commutator_form_matches_loop(self, n, seed, route):
        gen, psi = cached_generator(n, seed)
        if route == "gns":
            fam = kf.extract_commutators_gns(cached_gns(n, seed), gen)
        elif route == "kraus":
            fam = kf.extract_commutators_kraus(gen, psi)
        else:
            fam = CommutatorFamily(ops=())
        got = family_form(fam, gen.ctx)
        want = loop_commutator_form_matrix(fam, gen.ctx, n)
        assert got.shape == want.shape == (n * n, n * n)
        scale = max(1.0, np.abs(want).max(initial=0.0))
        assert np.abs(got - want).max() <= 1e-14 * scale

    @pytest.mark.parametrize("route", ["gns", "kraus", "empty"])
    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
    def test_form_matrix_matches_delta_gemm(self, n, seed, route):
        # the form of X in O(n^4 m) against one GEMM of the rendered delta
        gen, _ = cached_generator(n, seed)
        if route == "gns":
            calc = cached_gns(n, seed)
        elif route == "kraus":
            calc = _kraus_calculus(n, seed)
        else:
            calc = FirstOrderCalculus(gen.ctx, np.zeros((0, n, n)), np.zeros((0, 0)))
        got = _form_matrix(calc.ctx, calc.x)
        want = delta_form_matrix(calc)
        assert got.shape == want.shape == (n * n, n * n)
        assert np.abs(got - want).max(initial=0.0) <= 1e-14 * np.abs(want).max(initial=0.0)

    @pytest.mark.parametrize("ensemble", list(LEIBNIZ_ENSEMBLES))
    @pytest.mark.parametrize("n,seed", [(n, s) for n in (2, 3, 4) for s in range(8)])
    def test_leibniz_bound_covers_tensor(self, n, seed, ensemble):
        # delta = inner(X) satisfies the rule by type: on both routes the
        # tensor's largest entry is within the report's bound
        # INVARIANTS_TOL * max(1, ||L||)
        gen, psi = kf.random_generator(n, seed, **LEIBNIZ_ENSEMBLES[ensemble])
        calc_k = kf.commutator_calculus(kf.extract_commutators_kraus(gen, psi), gen)
        bound = derivation.INVARIANTS_TOL * max(1.0, gen.L.norm)
        for calc in (kf.gns_calculus(gen), calc_k):
            assert tensor_leibniz_defect(calc) <= bound

    @pytest.mark.parametrize("ensemble", list(LEIBNIZ_ENSEMBLES))
    @pytest.mark.parametrize("n,seed", [(n, s) for n in (2, 3, 4) for s in range(8)])
    def test_lstsq_recovers_inner_vector(self, n, seed, ensemble):
        # the dense least-squares solve from delta alone finds QX, and
        # inner_vector's evaluated residual stays at rounding level
        gen, psi = kf.random_generator(n, seed, **LEIBNIZ_ENSEMBLES[ensemble])
        calc_k = kf.commutator_calculus(kf.extract_commutators_kraus(gen, psi), gen)
        for calc in (kf.gns_calculus(gen), calc_k):
            xi0, res = kf.inner_vector(calc)
            ref, _ = lstsq_inner_vector(calc)
            assert np.linalg.norm(xi0 - ref) <= 1e-12 * np.linalg.norm(ref)
            assert res <= 1e-14

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2)])
    def test_perturbed_delta_fails(self, n, seed):
        # a delta off the rendering of every X cannot be held by a
        # FirstOrderCalculus; on the dense container the tensor oracle and
        # the dense report measure the broken rule
        gen, _ = cached_generator(n, seed)
        broken = _perturbed(as_dense(cached_gns(n, seed)), "delta", eps=1e-4, at=n + 1)
        bound = derivation.INVARIANTS_TOL * max(1.0, gen.L.norm)
        assert tensor_leibniz_defect(broken) > bound
        check = dense_invariants_report(broken, gen).check("twisted_leibniz_defect")
        assert check.value > check.bound

    @pytest.mark.parametrize("extra", ["repeat", "sqrt_rho"])
    @pytest.mark.parametrize("route", ["gns", "kraus"])
    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2)])
    def test_deficient_x_fails_cyclicity(self, n, seed, route, extra):
        # X_1 appended again, or rho^{1/2}, on which delta vanishes: the
        # delta-image misses n^2 dimensions of H, which the report reads off
        # rank(QX) and the dense oracle off the spanning family; without the
        # extra component both deficits are 0
        gen, _ = cached_generator(n, seed)
        calc = cached_gns(n, seed) if route == "gns" else _kraus_calculus(n, seed)
        x_extra = calc.x[0] if extra == "repeat" else calc.ctx.sqrt_rho
        deficient = _padded_multiplicity(calc, x_extra=x_extra)
        for c, want in ((calc, 0.0), (deficient, float(n * n))):
            check = kf.calculus_invariants_report(c, gen).check("cyclic_rank_deficit")
            dense = dense_invariants_report(c, gen).check("cyclic_rank_deficit")
            assert check.value == dense.value == want
        assert not check.passed()


class TestExtractGns:
    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 3), (3, 1)])
    def test_form_identity_on_unit_pairs(self, n, seed):
        gen, _ = cached_generator(n, seed)
        fam = kf.extract_commutators_gns(cached_gns(n, seed), gen)
        rep = kf.verify_commutator_form(fam, gen)
        assert rep.passed
        assert rep.check("max_form_deviation").value <= 1e-7 * max(1, gen.L.norm)

    def test_tracial_sigma_x_family(self):
        # the quadratic form of the family must equal that of {sx/sqrt2};
        # matrix equality is gauge-dependent, forms are not
        gen, _ = tracial_sigma_x_generator()
        calc = kf.gns_calculus(gen)
        fam = kf.extract_commutators_gns(calc, gen)
        reference = CommutatorFamily(ops=(SX / np.sqrt(2.0),))
        f1 = family_form(fam, gen.ctx)
        f2 = family_form(reference, gen.ctx)
        np.testing.assert_allclose(f1, f2, atol=1e-10)

    def test_multiplicity_integer(self):
        calc = cached_gns(3, 1)
        assert calc.dim_h == 9 * calc.m

    def test_form_failure_is_reported_not_raised(self, monkeypatch):
        # both extractions build their family; only the report measures its form
        gen, psi = cached_generator(2, 0)
        form = derivation.kms_form_of_generator
        monkeypatch.setattr(
            derivation, "kms_form_of_generator", lambda g: form(g) + 1e-3 * np.eye(4)
        )
        for fam in (
            kf.extract_commutators_gns(cached_gns(2, 0), gen),
            kf.extract_commutators_kraus(gen, psi),
        ):
            rep = kf.verify_commutator_form(fam, gen)
            assert not rep.passed
            assert rep.check("max_form_deviation").value >= 1e-3 - 1e-12


class TestExtractKraus:
    def test_tracial_reduces_to_kraus_of_psi(self):
        # tracial rho: all modular twists vanish and Xi = Psi, so the family
        # is the Kraus family of Psi up to the 1/sqrt2 normalization
        gen, psi = tracial_sigma_x_generator()
        fam = kf.extract_commutators_kraus(gen, psi)
        xi = to_l2(kf.v_transform(psi, gen.ctx), gen.ctx)
        assert opnorm(xi.mat - psi.mat) < 1e-12
        f1 = family_form(fam, gen.ctx)
        f2 = family_form(CommutatorFamily(ops=(SX / np.sqrt(2.0),)), gen.ctx)
        np.testing.assert_allclose(f1, f2, atol=1e-10)

    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 5), (3, 2)])
    def test_form_identity(self, n, seed):
        gen, psi = cached_generator(n, seed)
        fam = kf.extract_commutators_kraus(gen, psi)
        assert kf.verify_commutator_form(fam, gen).passed

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 2)])
    def test_appendix_sum_identities(self, n, seed):
        gen, psi = cached_generator(n, seed)
        ctx = gen.ctx
        fam = kf.extract_commutators_kraus(gen, psi)
        m = psi.apply(np.eye(n))
        m = 0.5 * (m + dagger(m))
        # sigma_{-i/2}(v) = rho^{1/2} v rho^{-1/2}, sigma_{i/2}(v) = rho^{-1/2} v rho^{1/2}
        r, ri = ctx.sqrt_rho, ctx.inv_sqrt_rho
        lhs1 = sum(dagger(v) @ r @ v @ ri for v in fam.ops)
        assert opnorm(lhs1 - modular_resolvent(ctx, m, -0.5)) < 1e-8
        lhs2 = sum(ri @ dagger(v) @ r @ v for v in fam.ops)
        assert opnorm(lhs2 - modular_resolvent(ctx, m, +0.5)) < 1e-8

    def test_mismatched_psi_rejected(self):
        gen, _ = cached_generator(2, 0)
        _, psi_other = cached_generator(2, 1)
        with pytest.raises(InconsistentPsi):
            kf.extract_commutators_kraus(gen, psi_other)

    def test_recovered_psi_by_default(self):
        gen, _ = cached_generator(2, 4)
        fam = kf.extract_commutators_kraus(gen, psi=None)
        assert kf.verify_commutator_form(fam, gen).passed

    def test_normal_form_is_not_doubled(self):
        # the 9 raw Kraus operators do not pair off under adjoints here; the
        # Hermitian normal form keeps 9 operators instead of doubling to 18
        gen, psi = kf.random_generator(3, 1, cond_bound=1e6)
        fam = kf.extract_commutators_kraus(gen, psi)
        assert len(fam) == 9
        assert all(np.array_equal(v, dagger(v)) for v in fam.ops)
        assert kf.verify_commutator_form(fam, gen).passed


class TestCommutatorFamilyType:
    def test_adjoint_closure_exact(self):
        # both routes return bit-exact Hermitian families: each is its own adjoint
        gen, psi = cached_generator(2, 6)
        for fam in (
            kf.extract_commutators_kraus(gen, psi),
            kf.extract_commutators_gns(cached_gns(2, 6), gen),
        ):
            for v in fam.ops:
                assert np.array_equal(v, dagger(v))

    def test_non_hermitian_rejected(self):
        rng = np.random.default_rng(0)
        v = rng_matrix(rng, 2)
        with pytest.raises(ValueError, match="operator 1"):
            CommutatorFamily(ops=(SX, v))
        herm = 0.5 * (v + dagger(v))
        off = herm.copy()
        off[0, 1] += 1e-15  # Hermitian only up to rounding
        with pytest.raises(ValueError, match="operator 0"):
            CommutatorFamily(ops=(off,))
        assert len(CommutatorFamily(ops=(herm, SX))) == 2


class TestVerifyCommutatorForm:
    def test_empty_family_vs_zero(self, ctx2):
        gen = kf.certify_generator(zero_superop(2), ctx2)
        assert kf.verify_commutator_form(
            CommutatorFamily(ops=()), gen
        ).passed

    @pytest.mark.parametrize("n", [2, 3])
    def test_forced_empty_family_fails_nonzero_form(self, n):
        gen, _ = cached_generator(n, 0)
        rep = kf.verify_commutator_form(CommutatorFamily(ops=()), gen)
        check = rep.check("max_form_deviation")
        assert not rep.passed
        assert check.value > check.bound > 0.0
        assert check.value == np.abs(kms_form_of_generator(gen)).max()
        assert rep.metrics == {"family_size": 0}

    def test_deleted_operator_fails(self):
        gen, psi = cached_generator(2, 8)
        fam = kf.extract_commutators_kraus(gen, psi)
        broken = CommutatorFamily(ops=fam.ops[1:])
        assert not kf.verify_commutator_form(broken, gen).passed

    def test_gauge_invariance_under_identity_shifts(self):
        gen, psi = cached_generator(2, 9)
        fam = kf.extract_commutators_kraus(gen, psi)
        rng = np.random.default_rng(1)
        # real shifts keep the operators Hermitian
        shifts = rng.standard_normal(len(fam))
        shifted = CommutatorFamily(ops=tuple(v + s * np.eye(2) for v, s in zip(fam.ops, shifts)))
        assert kf.verify_commutator_form(shifted, gen).passed


class TestInnerVector:
    def test_tracial_sigma_x(self):
        gen, _ = tracial_sigma_x_generator()
        calc = kf.gns_calculus(gen)
        xi0, res = kf.inner_vector(calc)
        assert res <= 1e-9

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 3)])
    def test_seeded_residual(self, n, seed):
        calc = cached_gns(n, seed)
        _, res = kf.inner_vector(calc)
        assert res <= 1e-7

    def test_reproduces_delta(self):
        # the least-squares vector actually implements the derivation
        gen, _ = cached_generator(2, 10)
        calc = cached_gns(2, 10)
        xi0, _ = kf.inner_vector(calc)
        rng = np.random.default_rng(2)
        a = rng_matrix(rng, 2)
        q, qi = gen.ctx.quarter_rho, gen.ctx.inv_quarter_rho
        # sigma_{-i/4}(a) = rho^{1/4} a rho^{-1/4}, sigma_{i/4}(a) = rho^{-1/4} a rho^{1/4}
        act = pi_l_of(calc, q @ a @ qi) - pi_r_of(calc, qi @ a @ q)
        assert np.linalg.norm(act @ xi0 - delta_of(calc, a)) < 1e-8


class TestCommutatorCalculus:
    def test_trimmed_calculus_passes_invariants(self):
        gen, psi = cached_generator(2, 11)
        fam = kf.extract_commutators_kraus(gen, psi)
        calc_k = kf.commutator_calculus(fam, gen)
        rep = kf.calculus_invariants_report(calc_k, gen)
        assert rep.passed, [(c.name, c.value) for c in rep.checks if not c.passed()]
        kept = int((calc_k.meta["gram_eigs"] > calc_k.meta["null_cutoff"]).sum())
        assert calc_k.dim_h == 4 * kept == 12

    @pytest.mark.parametrize("n,seed", [(2, 11), (2, 3), (3, 4)])
    def test_blockwise_actions_match_kronecker_oracle(self, n, seed):
        gen, psi = cached_generator(n, seed)
        fam = kf.extract_commutators_kraus(gen, psi)
        calc_k = trimmed_commutator_calculus(fam, gen)
        full = kron_commutator_actions(fam, gen)
        q = calc_k.meta["isometry"]
        qd = dagger(q)
        assert q.shape == (n * n * len(fam), calc_k.dim_h)

        def maxabs(x):
            return float(np.abs(x).max(initial=0.0))

        n2, dim_full = n * n, q.shape[0]
        for name in ("pi_l", "pi_r"):
            projected = qd @ full[name].reshape(n2, dim_full, dim_full) @ q
            assert maxabs(projected.reshape(n, n, *projected.shape[1:]) - getattr(calc_k, name)) <= 1e-14
        delta = (full["delta"].reshape(n2, dim_full) @ np.conj(q)).reshape(calc_k.delta.shape)
        assert maxabs(delta - calc_k.delta) <= 1e-14
        assert maxabs(qd @ full["jmat"] @ np.conj(q) - calc_k.jmat) <= 1e-14
        # q spans the oracle's cyclic subspace, which pi_l leaves invariant
        span = full["span"]
        sv = np.linalg.svd(span, compute_uv=False)
        assert int((sv > 1e-10 * sv.max()).sum()) == calc_k.dim_h
        assert maxabs(span - q @ (qd @ span)) <= 1e-12 * maxabs(span)
        moved = full["pi_l"].reshape(n2, dim_full, dim_full) @ q
        assert maxabs(moved - q @ (qd @ moved)) < 1e-10
        assert calc_k.meta["compression_leak"] < 1e-10

    @pytest.mark.parametrize("n,seed", [(2, 3), (3, 4)])
    def test_dependent_family_is_compressed(self, n, seed):
        # with K the Kraus operators of Xi, the Kraus route's form is that of
        # {K/2} + {K*/2}, which is that of the Hermitian parts
        # {(K + K*)/2 / sqrt2} + {(K - K*)/2i / sqrt2}; each part is split into
        # copies scaled by 0.6 and 0.8, and 0.3 I is appended: 4 n^2 + 1
        # operators spanning n^2 - 1 dimensions modulo I
        gen, psi = cached_generator(n, seed)
        fam = kf.extract_commutators_kraus(gen, psi)

        def herm(x):
            return 0.5 * (x + dagger(x))

        kraus = kraus_from_choi(choi(to_l2(kf.v_transform(psi, gen.ctx), gen.ctx)))
        parts = [herm(p * k) / np.sqrt(2.0) for k in kraus for p in (1, -1j)]
        dependent = CommutatorFamily(
            ops=tuple(c * h for h in parts for c in (0.6, 0.8)) + (0.3 * np.eye(n),)
        )
        assert len(dependent) == 4 * n**2 + 1
        assert kf.verify_commutator_form(dependent, gen).passed
        calc = kf.commutator_calculus(fam, gen)
        calc_dep = kf.commutator_calculus(dependent, gen)
        assert calc_dep.dim_h == calc.dim_h == n**2 * (n**2 - 1)
        _, rep = kf.uniqueness_witness(calc, calc_dep, gen)
        assert rep.passed, [(c.name, c.value) for c in rep.checks if not c.passed()]

    @pytest.mark.parametrize("n,seed", [(n, s) for n in (2, 3, 4, 5) for s in range(4)])
    def test_delta_is_the_commutator_form(self, n, seed):
        # basis-free: the Gram of the calculus's delta over the matrix units,
        # D D* with D the rendering of inner(X), equals that of
        # rho^{1/4} [V_k, E] rho^{1/4} over the family as given, formed
        # directly by the oracle, up to the directions the rank rule drops
        gen, psi = cached_generator(n, seed)
        fam = kf.extract_commutators_kraus(gen, psi)
        calc = kf.commutator_calculus(fam, gen)
        got = calc.delta.reshape(n * n, -1)
        want = commutator_delta(np.array(fam.ops), gen.ctx).reshape(n * n, -1)
        gram_want = want @ dagger(want)
        dev = np.abs(got @ dagger(got) - gram_want).max()
        assert dev <= 1e-9 * np.abs(gram_want).max()

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2)])
    def test_null_cutoff_is_the_rank_rule(self, n, seed):
        # both calculi truncate their M*M spectrum, M = QX, by ``_kept``
        gen, psi = cached_generator(n, seed)
        calc_k = kf.commutator_calculus(kf.extract_commutators_kraus(gen, psi), gen)
        for calc in (cached_gns(n, seed), calc_k):
            keep, cutoff = derivation._kept(calc.meta["gram_eigs"], gen)
            assert calc.meta["null_cutoff"] == cutoff
            assert calc.m == int(keep.sum())

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2)])
    def test_qx_gram_is_diagonal(self, n, seed):
        # the kept directions are eigenvectors of M*M, so M*M = diag(g)
        gen, psi = cached_generator(n, seed)
        calc = kf.commutator_calculus(kf.extract_commutators_kraus(gen, psi), gen)
        qx = derivation._off_sqrt_rho(gen.ctx, calc.x).reshape(calc.m, n * n)
        gram = np.conj(qx) @ qx.T
        kept = calc.meta["gram_eigs"][calc.meta["gram_eigs"] > calc.meta["null_cutoff"]]
        assert np.abs(gram - np.diag(kept)).max() <= 1e-13 * kept.max()

    def test_dimension_matches_gns(self):
        gen, psi = cached_generator(3, 4)
        calc = kf.gns_calculus(gen)
        calc_k = kf.commutator_calculus(kf.extract_commutators_kraus(gen, psi), gen)
        assert calc_k.dim_h == calc.dim_h


class TestUniquenessWitness:
    def test_self_witness_is_identity(self):
        gen, _ = cached_generator(2, 12)
        calc = cached_gns(2, 12)
        w, rep = kf.uniqueness_witness(calc, calc, gen)
        assert rep.passed
        np.testing.assert_allclose(w, np.eye(calc.dim_h // 4), atol=1e-10)
        span = spanning_family(calc)
        np.testing.assert_allclose(render_theta(w, 2) @ span, span, atol=1e-10)

    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 13), (3, 5)])
    def test_gns_vs_kraus(self, n, seed):
        gen, psi = cached_generator(n, seed)
        calc = cached_gns(n, seed)
        calc_k = kf.commutator_calculus(kf.extract_commutators_kraus(gen, psi), gen)
        theta, rep = kf.uniqueness_witness(calc, calc_k, gen)
        assert rep.passed
        assert rep.check("gram_mismatch_max").value <= 1e-6

    @pytest.mark.parametrize("n,seed", [(2, 0), (4, 2)])
    def test_records_rank_margin(self, n, seed):
        # each side's rank-rule margin, read off its meta; a calculus built
        # without meta records neither, and no check reads them
        gen, _ = cached_generator(n, seed)
        calc, calc_k = cached_gns(n, seed), _kraus_calculus(n, seed)
        _, rep = kf.uniqueness_witness(calc, calc_k, gen)
        for side, c in (("a", calc), ("b", calc_k)):
            g, cut = c.meta["gram_eigs"], c.meta["null_cutoff"]
            assert int((g > cut).sum()) == c.m
            assert rep.metrics[f"kept_gap_{side}"] == g[g > cut].min() / cut > 1.0
            dropped = np.abs(g[g <= cut]).sum() / np.abs(g).sum()
            assert rep.metrics[f"dropped_mass_{side}"] == dropped < 1e-12
        bare = FirstOrderCalculus(calc.ctx, calc.x, calc.k_j)
        _, rep_bare = kf.uniqueness_witness(bare, calc_k, gen)
        assert not {"kept_gap_a", "dropped_mass_a"} & set(rep_bare.metrics)
        assert rep_bare.metrics["kept_gap_b"] == rep.metrics["kept_gap_b"]
        assert [c.to_json_dict() for c in rep_bare.checks] == [
            c.to_json_dict() for c in rep.checks]

    def test_rank_margin_of_an_empty_calculus(self):
        # nothing kept: the gap reads 0 and the whole spectrum is dropped
        gen, _ = cached_generator(2, 0)
        empty = FirstOrderCalculus(gen.ctx, np.zeros((0, 2, 2)), np.zeros((0, 0)),
                                   meta={"gram_eigs": np.array([-1e-20, 3e-20]),
                                         "null_cutoff": 1e-13})
        _, rep = kf.uniqueness_witness(empty, empty, gen)
        assert rep.metrics["kept_gap_a"] == rep.metrics["kept_gap_b"] == 0.0
        assert rep.metrics["dropped_mass_a"] == rep.metrics["dropped_mass_b"] == 1.0

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_broken_target_fails_intertwining(self, n, seed):
        # one entry of calc_b's K_J is off; the delta coefficients are not,
        # so the Gram check passes and the J check fails, and I (x) W (x) I
        # misses J on the spanning family (loop oracle)
        gen, psi = cached_generator(n, seed)
        calc = cached_gns(n, seed)
        calc_k = kf.commutator_calculus(kf.extract_commutators_kraus(gen, psi), gen)
        broken = _perturbed(calc_k, "k_j", eps=1e-3)
        w, rep = kf.uniqueness_witness(calc, broken, gen)
        assert rep.passed is False
        assert [c.name for c in rep.checks if not c.passed()] == ["j_intertwine_defect"]
        defects = loop_witness_defects(render_theta(w, n), calc, broken)
        assert defects["j_intertwine_defect"] > 1e-6

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_conjugated_kj_fails_j_intertwining(self, n, seed):
        # the GNS calculus rendered with conj(K_J): standard form holds, the
        # delta coefficients and their Gram are unchanged, J is wrong
        gen, psi = cached_generator(n, seed)
        calc = cached_gns(n, seed)
        calc_k = kf.commutator_calculus(kf.extract_commutators_kraus(gen, psi), gen)
        broken = dataclasses.replace(calc, k_j=np.conj(calc.k_j))
        for calc_a in (calc_k, calc):
            _, rep = kf.uniqueness_witness(calc_a, broken, gen)
            assert [c.name for c in rep.checks if not c.passed()] == ["j_intertwine_defect"]

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_differing_multiplicity_fails_unitarity(self, n, seed):
        # the Gram matches, and W is an isometry one way and a coisometry the
        # other: the report fails on that check without raising
        gen, _ = cached_generator(n, seed)
        calc = cached_gns(n, seed)
        padded = _padded_multiplicity(calc)
        for calc_a, calc_b in ((calc, padded), (padded, calc)):
            w, rep = kf.uniqueness_witness(calc_a, calc_b, gen)
            assert w.shape == (calc_b.dim_h // n**2, calc_a.dim_h // n**2)
            assert [c.name for c in rep.checks if not c.passed()] == ["w_unitarity_defect"]
            assert rep.check("w_unitarity_defect").value > 0.5

    @pytest.mark.parametrize("seed", [1, 4])
    def test_independent_of_star_structure(self, seed):
        # at this conditioning K_J built through the lift P W / sqrt(g) is
        # unitary only to about 1e-8, so that calculus fails
        # j_antiunitary_defect; the witness checks that W intertwines the two
        # calculi, and passes
        gen, psi = kf.random_generator(4, seed, cond_bound=1e6)
        calc = dataclasses.replace(kf.gns_calculus(gen), k_j=lift_k_j(gen))
        inv = kf.calculus_invariants_report(calc, gen)
        assert [c.name for c in inv.checks if not c.passed()] == ["j_antiunitary_defect"]
        calc_k = kf.commutator_calculus(kf.extract_commutators_kraus(gen, psi), gen)
        _, rep = kf.uniqueness_witness(calc, calc_k, gen)
        assert rep.passed, [(c.name, c.value) for c in rep.checks if not c.passed()]

    @pytest.mark.parametrize("n,seed", [(3, 6), (4, 2), (4, 4), (4, 7)])
    def test_kraus_rank_one(self, n, seed):
        # these failed j_antiunitary_defect with K_J through the lift
        gen, psi = kf.random_generator(n, seed, kraus_rank=1)
        calc = kf.gns_calculus(gen)
        inv = kf.calculus_invariants_report(calc, gen)
        assert inv.passed, [(c.name, c.value) for c in inv.checks if not c.passed()]
        calc_k = kf.commutator_calculus(kf.extract_commutators_kraus(gen, psi), gen)
        _, rep = kf.uniqueness_witness(calc, calc_k, gen)
        assert rep.passed, [(c.name, c.value) for c in rep.checks if not c.passed()]

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
    def test_matches_delta_oracle(self, n, seed):
        # the witness on QX and the witness on the delta coefficients give
        # the same W and the same verdicts
        gen, psi = cached_generator(n, seed)
        calc, calc_k = cached_gns(n, seed), _kraus_calculus(n, seed)
        w, rep = kf.uniqueness_witness(calc, calc_k, gen)
        w_ref, ref = delta_uniqueness_witness(calc, calc_k, gen)
        assert np.abs(w - w_ref).max() <= 1e-12
        assert rep.passed and ref.passed

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
    def test_stretched_target_fails_unitarity(self, n, seed):
        # M_b = QX_b stretched by 1 + 1e-2 along its smallest right-singular
        # direction: W = pinv(M_a) M_b is off unitary by that stretch, on QX
        # and on the delta coefficients
        gen, _ = cached_generator(n, seed)
        calc, calc_k = cached_gns(n, seed), _kraus_calculus(n, seed)
        cols = derivation._off_sqrt_rho(calc_k.ctx, calc_k.x).reshape(calc_k.m, n * n).T
        v = np.linalg.svd(cols)[2][-1].conj()
        stretch = np.eye(calc_k.m) + 1e-2 * np.outer(v, v.conj())
        stretched = dataclasses.replace(calc_k, x=np.tensordot(stretch.T, calc_k.x, axes=1))
        for witness in (kf.uniqueness_witness, delta_uniqueness_witness):
            _, rep = witness(calc, stretched, gen)
            assert rep.check("w_unitarity_defect").value > 1e-2

    def test_different_generators_mismatch(self):
        # a mismatch is measured, not raised: the report fails with the Gram
        # deviation and keeps the other three measurements; the witness on
        # the delta coefficients fails the Gram check too
        for n in (2, 4):
            gen_a, _ = cached_generator(n, 0)
            calc_a, calc_b = cached_gns(n, 0), cached_gns(n, 1)
            for witness in (kf.uniqueness_witness, delta_uniqueness_witness):
                _, rep = witness(calc_a, calc_b, gen_a)
                assert not rep.passed
                gram = rep.check("gram_mismatch_max")
                assert gram.value > gram.bound >= derivation.WITNESS_TOL
                assert [c.name for c in rep.checks] == [
                    "gram_mismatch_max", "w_unitarity_defect", "j_intertwine_defect",
                    "delta_match_defect",
                ]


class TestBilinearIdentity:
    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 6)])
    def test_six_term_identity(self, n, seed):
        gen, _ = cached_generator(n, seed)
        calc = cached_gns(n, seed)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            a, b, c = (rng_matrix(rng, n) for _ in range(3))
            assert leibniz_bilinear_residual(calc, a, b, c) < 1e-7


class TestDegenerateSpectrum:
    def test_pipeline_with_repeated_eigenvalues(self):
        # fractional powers go through the full spectral decomposition, so a
        # degenerate (non-tracial) density must work despite the arbitrary
        # eigenbasis inside the repeated eigenspace
        from kmsflow.instances import ginibre, random_unitary

        rng = np.random.default_rng(0)
        u = random_unitary(rng, 3)
        rho = (u * np.array([0.4, 0.4, 0.2])) @ dagger(u)
        ctx = kf.DensityContext.from_rho(0.5 * (rho + dagger(rho)))
        phi = from_kraus([ginibre(rng, 3) / np.sqrt(3) for _ in range(2)])
        psi = 0.5 * (phi + kms_adjoint(phi, ctx))
        psi = (1.0 / opnorm(psi.apply(np.eye(3)))) * psi
        gen = kf.generator_from_cp(psi, ctx)
        calc = kf.gns_calculus(gen)
        assert kf.calculus_invariants_report(calc, gen).passed
        calc_k = kf.commutator_calculus(kf.extract_commutators_kraus(gen, psi), gen)
        _, wit = kf.uniqueness_witness(calc, calc_k, gen)
        assert wit.passed


# Every (n, seed) at n <= 4, seeds 0-7, whose `derive --method both` reports
# fail, with its failing checks as `result.check`, by Kraus rank and by
# `cond_bound`.  Each failure is the witness at a near-cutoff direction of an
# ill-conditioned multiplicity spectrum, with the routes' m equal (ROADMAP
# item 3); the rest pass.
LOW_RANK_CENSUS = {
    1: {(4, 1): ["uniqueness.w_unitarity_defect"]},
    2: {},
}
CONDITIONING_CENSUS = {
    1e7: {(4, 1): ["uniqueness.w_unitarity_defect"]},
    1e8: {(4, 4): ["uniqueness.w_unitarity_defect", "uniqueness.j_intertwine_defect"]},
}


def failing_census(flags):
    """{(n, seed): failing checks} of `derive --method both ...flags` over
    n = 2..4, seeds 0-7, read off ``tools/census.py``'s verdicts."""
    verdicts = {
        (n, seed): census_tool().verdict(n, seed, flags) for n in (2, 3, 4) for seed in range(8)
    }
    return {key: v["failed"] for key, v in verdicts.items() if v["failed"]}


class TestLowRankCensus:
    """The witness census at n = 2..4, seeds 0-7, at low Kraus rank and at
    `cond_bound` 1e7 and 1e8: the same instances fail, each on the same
    checks (under 0.1 s per census)."""

    @pytest.mark.parametrize("rank", sorted(LOW_RANK_CENSUS))
    def test_failing_instances_and_checks(self, rank):
        assert failing_census(["--kraus-rank", str(rank)]) == LOW_RANK_CENSUS[rank]

    @pytest.mark.parametrize("cond", sorted(CONDITIONING_CENSUS))
    def test_failing_instances_at_conditioning(self, cond):
        assert failing_census(["--cond-bound", repr(cond)]) == CONDITIONING_CENSUS[cond]
