import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kmsflow as kf
from kmsflow import derivation, instances
from kmsflow.cli import _build_parser, main
from kmsflow.serialize import density_to_json, dump_json, superop_to_json

from certify_oracle import identity_superop
from conftest import A_PAIR_PER_CALCULUS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_transpose_map(tmp_path, n=2):
    mat = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            mat[i * n + j, j * n + i] = 1.0
    f = tmp_path / "transpose.json"
    dump_json(superop_to_json(kf.Superoperator(mat, n)), str(f))
    return f


def write_instance(tmp_path, capsys, seed=0, n=2):
    rho = tmp_path / f"rho{seed}.json"
    psi = tmp_path / f"psi{seed}.json"
    code = main([
        "random", "--seed", str(seed), "--n", str(n),
        "--rho-out", str(rho), "--psi-out", str(psi), "--out", str(tmp_path / "r.json"),
    ])
    capsys.readouterr()
    assert code == 0
    return rho, psi


class TestRandom:
    def test_deterministic(self, capsys, tmp_path):
        _, rep1 = run(capsys, "random", "--seed", "11", "--n", "2")
        _, rep2 = run(capsys, "random", "--seed", "11", "--n", "2")
        assert rep1["results"] == rep2["results"]

    def test_instance_certifies(self, capsys, tmp_path):
        rho, psi = write_instance(tmp_path, capsys, seed=3)
        code, rep = run(capsys, "check", "--superop", str(psi), "--rho", str(rho))
        assert code == 0
        assert rep["results"]["cp"]["pass"]
        assert rep["results"]["kms_symmetric"]["pass"]

    def test_kraus_rank_zero_rejected(self, capsys):
        code, rep = run(capsys, "random", "--seed", "0", "--n", "2", "--kraus-rank", "0")
        assert code == 2
        assert rep["error"]["type"] == "usage"

    def test_config_with_fixed_rho(self, capsys, tmp_path):
        ctx = kf.DensityContext.from_rho(np.diag([0.75, 0.25]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 2, "seed": 5, "rho": density_to_json(ctx), "kraus_rank": 2,
        }))
        code, rep = run(capsys, "random", "--config", str(cfg))
        assert code == 0
        np.testing.assert_allclose(rep["results"]["rho"]["re"], [[0.75, 0], [0, 0.25]])

    def test_config_seed_and_n_are_reported(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "n": 2}))
        code, rep = run(capsys, "random", "--config", str(cfg))
        assert code == 0
        assert (rep["seed"], rep["n"]) == (3, 2)
        _, flags = run(capsys, "random", "--n", "2", "--seed", "3")
        assert rep["results"] == flags["results"]

    @pytest.mark.parametrize(
        "flag,value,key",
        [("--n", "3", "n"), ("--seed", "0", "seed"), ("--kraus-rank", "1", "kraus_rank")],
    )
    def test_flag_contradicting_config_is_usage_error(self, capsys, tmp_path, flag, value, key):
        config = {"seed": 3, "n": 2, "kraus_rank": 2}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, rep = run(capsys, "random", "--config", str(cfg), flag, value)
        assert code == 2
        assert rep["error"] == {
            "type": "usage",
            "message": f"{flag} {value} contradicts {key!r} = {config[key]} in --config {cfg}",
        }
        code, rep = run(capsys, "random", "--config", str(cfg), "--seed", "3", "--n", "2")
        assert code == 0 and (rep["seed"], rep["n"]) == (3, 2)

    @pytest.mark.parametrize(
        "cfg", [{"n": "3"}, {"n": 2.5}, {"seed": "x"}, {"kraus_rank": "2"}],
        ids=["n_str", "n_float", "seed_str", "kraus_rank_str"],
    )
    def test_non_integer_config_is_schema_error(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, rep = run(capsys, "random", "--config", str(path))
        assert code == 2
        assert rep["error"]["type"] == "schema"
        assert repr(next(iter(cfg))) in rep["error"]["message"]

    def test_unknown_config_key_is_schema_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 3, "kraus-rank": 1, "cond_bound": 1e6}))
        code, rep = run(capsys, "random", "--config", str(path))
        assert code == 2
        assert rep["error"]["type"] == "schema"
        assert str(path) in rep["error"]["message"]
        assert "['cond_bound', 'kraus-rank']" in rep["error"]["message"]

    def test_config_rho_sets_n(self, capsys, tmp_path):
        # n defaults to the dimension of the config's rho; an n that
        # contradicts it is a usage error
        ctx, _ = kf.random_instance(3, 1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": density_to_json(ctx), "seed": 2}))
        code, rep = run(capsys, "random", "--config", str(cfg))
        assert code == 0
        assert (rep["seed"], rep["n"]) == (2, 3)
        np.testing.assert_array_equal(rep["results"]["rho"]["re"], ctx.rho.real)
        assert rep["results"]["psi"]["n"] == 3
        contradiction = {"type": "usage", "message": "supplied density has dimension 3, expected 2"}
        code, rep = run(capsys, "random", "--config", str(cfg), "--n", "2")
        assert (code, rep["error"]) == (2, contradiction)
        cfg.write_text(json.dumps({"rho": density_to_json(ctx), "n": 2}))
        code, rep = run(capsys, "random", "--config", str(cfg))
        assert (code, rep["error"]) == (2, contradiction)

    def test_seeded_command_honors_given_rho(self, capsys, tmp_path):
        rho, _ = write_instance(tmp_path, capsys, seed=20)
        code, rep = run(capsys, "derive", "--method", "gns", "--seed", "21",
                        "--n", "2", "--rho", str(rho))
        assert code == 0
        assert rep["results"]["gns_form"]["pass"]


class TestCheck:
    def test_transpose_map_fails(self, capsys, tmp_path):
        f = write_transpose_map(tmp_path)
        code, rep = run(capsys, "check", "--superop", str(f))
        assert code == 1
        assert rep["results"]["cp"]["pass"] is False
        # a check's value is recorded once, in the report's checks
        assert "min_choi_eig" not in rep["results"]["cp"]["metrics"]
        assert abs(check_values(rep)["cp", "min_choi_eig"][0] + 1.0) < 1e-12

    def test_schema_error_exit_2(self, capsys, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text('{"n": 2, "re": [[1,0],[0,1]]}')  # missing "im"
        code, rep = run(capsys, "check", "--superop", str(f))
        assert code == 2
        assert rep["error"]["type"] == "schema"

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("reader", ["superop", "rho"])
    def test_non_finite_entry_is_schema_error(self, capsys, tmp_path, bad, reader):
        # Python's json parser accepts NaN and Infinity; both readers reject
        # them as a schema error that names the file
        rho, psi = write_instance(tmp_path, capsys, seed=2)
        target = psi if reader == "superop" else rho
        doc = json.loads(target.read_text())
        doc["im"][0][1] = float(bad)
        target.write_text(json.dumps(doc))
        assert bad in target.read_text()
        code, rep = run(capsys, "check", "--superop", str(psi), "--rho", str(rho))
        assert code == 2
        assert rep["error"]["type"] == "schema"
        assert str(target) in rep["error"]["message"]
        assert "finite" in rep["error"]["message"]

    @pytest.mark.parametrize("im", [[[0.0]], 0.0, [0.0, 0.0], [[0, 0, 0]]], ids=str)
    @pytest.mark.parametrize("reader", ["superop", "rho"])
    def test_im_of_another_shape_is_schema_error(self, capsys, tmp_path, reader, im):
        # "im" is read at its own shape, never broadcast against "re", and an
        # "im" that cannot be broadcast is a schema error, not a usage error
        rho, psi = write_instance(tmp_path, capsys, seed=2)
        target = psi if reader == "superop" else rho
        doc = json.loads(target.read_text())
        doc["im"] = im
        target.write_text(json.dumps(doc))
        code, rep = run(capsys, "check", "--superop", str(psi), "--rho", str(rho))
        assert code == 2
        assert rep["error"]["type"] == "schema"
        assert str(target) in rep["error"]["message"]
        assert "'im' of shape" in rep["error"]["message"]

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), True], ids=str)
    def test_non_finite_density_tol_is_schema_error(self, capsys, tmp_path, tol):
        # with tol Infinity every KMS-symmetry defect would pass
        rho, psi = write_instance(tmp_path, capsys, seed=2)
        doc = json.loads(rho.read_text())
        doc["tol"] = tol
        rho.write_text(json.dumps(doc))
        code, rep = run(capsys, "check", "--superop", str(psi), "--rho", str(rho))
        assert code == 2
        assert rep["error"]["type"] == "schema"
        assert "tolerance must be finite and > 0" in rep["error"]["message"]
        assert "kms_symmetric" not in rep["results"]

    def test_parse_error_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        code, rep = run(capsys, "check", "--superop", str(f))
        assert code == 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_generator_certifies(self, capsys, tmp_path, n):
        # a nonzero generator is never CP; --generator certifies what
        # gen-from-cp certifies, and -L (not CCN) fails that
        rho, psi = write_instance(tmp_path, capsys, seed=1, n=n)
        code, rep = run(capsys, "gen-from-cp", "--psi", str(psi), "--rho", str(rho))
        assert code == 0
        doc = rep["results"]["generator"]
        names = {"unital_kernel", "kms_symmetric", "ccn"}
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps(doc))
        code, rep = run(capsys, "check", "--superop", str(gen), "--rho", str(rho), "--generator")
        assert code == 0
        assert set(rep["results"]) == names
        assert all(rep["results"][name]["pass"] for name in names)
        neg = tmp_path / "neg.json"
        neg.write_text(json.dumps({**doc, "re": (-np.asarray(doc["re"])).tolist(),
                                   "im": (-np.asarray(doc["im"])).tolist()}))
        code, rep = run(capsys, "check", "--superop", str(neg), "--rho", str(rho), "--generator")
        assert code == 1
        assert [name for name in names if not rep["results"][name]["pass"]] == ["ccn"]

    def test_generator_unitality_failure_is_measured(self, capsys, tmp_path):
        # the identity map fixes I instead of annihilating it: the kernel
        # certificate fails and is the only one computed, as in
        # certify_generator
        f = tmp_path / "identity.json"
        dump_json(superop_to_json(identity_superop(2)), str(f))
        code, rep = run(capsys, "check", "--superop", str(f), "--generator")
        assert code == 1
        assert list(rep["results"]) == ["unital_kernel"]
        kernel = rep["results"]["unital_kernel"]
        assert kernel["pass"] is False
        assert (kernel["checks"][0]["value"], kernel["checks"][0]["bound"]) == (1.0, 1e-9)
        assert "error" not in rep
        assert rep["pass"] is False

    def test_generator_kms_failure_stops_before_ccn(self, capsys, tmp_path):
        # a generator KMS-symmetric for diag(0.75, 0.25), checked against
        # diag(0.6, 0.4): the kms_symmetric certificate fails and no ccn
        # certificate is computed
        ctx = kf.DensityContext.from_rho(np.diag([0.75, 0.25]))
        phi = kf.from_kraus([np.array([[0.0, 1.0], [1.0, 0.0]])])
        lgen = kf.generator_from_cp(0.5 * (phi + kf.kms_adjoint(phi, ctx)), ctx).L
        gen = tmp_path / "gen.json"
        dump_json(superop_to_json(lgen), str(gen))
        rho = tmp_path / "rho.json"
        dump_json(density_to_json(kf.DensityContext.from_rho(np.diag([0.6, 0.4]))), str(rho))
        code, rep = run(capsys, "check", "--superop", str(gen), "--rho", str(rho), "--generator")
        assert code == 1
        assert list(rep["results"]) == ["unital_kernel", "kms_symmetric"]
        assert rep["results"]["unital_kernel"]["pass"] is True
        assert rep["results"]["kms_symmetric"]["pass"] is False
        assert "error" not in rep
        assert rep["pass"] is False


class TestVTransformCommand:
    def test_identity_passes_through(self, capsys, tmp_path):
        rho, _ = write_instance(tmp_path, capsys, seed=5)
        f = tmp_path / "id.json"
        dump_json(superop_to_json(identity_superop(2, "l2")), str(f))
        code, rep = run(capsys, "vtransform", "--superop", str(f), "--rho", str(rho))
        assert code == 0
        out = rep["results"]["transformed"]
        mat = np.asarray(out["re"]) + 1j * np.asarray(out["im"])
        assert np.abs(mat - np.eye(4)).max() < 1e-12
        inverse = rep["results"]["inverse_residual"]
        assert inverse["pass"] is True
        (check,) = inverse["checks"]
        assert check["name"] == "wv_residual" and check["value"] < 1e-12

    def test_quadrature_report(self, capsys, tmp_path):
        rho, psi = write_instance(tmp_path, capsys, seed=6)
        code, rep = run(
            capsys, "vtransform", "--superop", str(psi), "--rho", str(rho),
            "--quadrature", "200000",
        )
        assert code == 0
        q = rep["results"]["quadrature"]
        assert q["closed_form_distance"] < 1e-6
        assert q["tail_bound"] < 1e-8

    @staticmethod
    def write_density_instance(tmp_path, n, density):
        """(rho, psi) files of a seed-1 instance on the named density."""
        if density == "tracial":
            ctx, psi = kf.random_instance(n, 1, ctx=kf.DensityContext.from_rho(np.eye(n) / n))
        else:
            cond_bound = {"default": 100.0, "cond_1e6": 1e6}[density]
            ctx, psi = kf.random_instance(n, 1, cond_bound=cond_bound)
        rho, f = tmp_path / "rho.json", tmp_path / "psi.json"
        dump_json(density_to_json(ctx), str(rho))
        dump_json(superop_to_json(psi), str(f))
        return rho, f

    @pytest.mark.parametrize("density", ["default", "tracial", "cond_1e6"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reports_v_cptp(self, capsys, tmp_path, n, density):
        # V's own CPTP certificate, which depends on rho alone, enters the verdict
        rho, psi = self.write_density_instance(tmp_path, n, density)
        code, rep = run(capsys, "vtransform", "--superop", str(psi), "--rho", str(rho))
        assert code == 0 and rep["pass"] is True
        v_cptp = rep["results"]["v_cptp"]
        assert v_cptp["pass"] is True
        assert [c["name"] for c in v_cptp["checks"]] == ["trace_defect", "min_choi_eig"]

    def test_v_cptp_fails_on_w_multiplier(self, capsys, tmp_path, monkeypatch):
        # negative control: read W's multiplier cosh(log(lam_a / lam_b) / 4)
        # where V's is expected; it is not PSD, so min_choi_eig fails and the
        # command exits 1
        from kmsflow import vtransform

        rho, psi = self.write_density_instance(tmp_path, 3, "default")
        w_multiplier = vtransform._w_multiplier
        monkeypatch.setattr(vtransform, "_w_multiplier", lambda ctx: 1.0 / w_multiplier(ctx))
        code, rep = run(capsys, "vtransform", "--superop", str(psi), "--rho", str(rho))
        assert code == 1 and rep["pass"] is False
        checks = {c["name"]: c for c in rep["results"]["v_cptp"]["checks"]}
        min_eig = checks["min_choi_eig"]
        assert min_eig["value"] < min_eig["bound"] < 0
        assert "error" not in rep

    def test_inverse_residual_fails_on_perturbed_w(self, capsys, tmp_path, monkeypatch):
        # negative control: a W off by a relative 1e-6 no longer inverts V to
        # within tol * max(1, ||S||), so the check fails, the command exits 1
        # and verify recomputes the same failed verdict
        from kmsflow import vtransform

        rho, psi = self.write_density_instance(tmp_path, 3, "default")
        w_transform = vtransform.w_transform
        monkeypatch.setattr(vtransform, "w_transform",
                            lambda s, ctx: (1.0 + 1e-6) * w_transform(s, ctx))
        out = tmp_path / "report.json"
        code, rep = run(capsys, "vtransform", "--superop", str(psi), "--rho", str(rho),
                        "--out", str(out))
        assert code == 1 and rep["pass"] is False and "error" not in rep
        inverse = rep["results"]["inverse_residual"]
        (check,) = inverse["checks"]
        assert inverse["pass"] is False and check["value"] > check["bound"] > 0
        assert rep["results"]["v_cptp"]["pass"] is True
        code, checked = run(capsys, "verify", "--report", str(out))
        assert code == 0
        assert checked["results"]["results/inverse_residual"] == {
            "stored_pass": False, "recomputed_pass": False, "pass": True}


class TestGeneratorCommands:
    def test_gen_from_cp(self, capsys, tmp_path):
        rho, psi = write_instance(tmp_path, capsys, seed=7)
        code, rep = run(capsys, "gen-from-cp", "--psi", str(psi), "--rho", str(rho))
        assert code == 0
        for name in ("unital_kernel", "kms_symmetric", "ccn"):
            assert rep["results"][name]["pass"]

    def test_recover_cp_seeded(self, capsys):
        code, rep = run(capsys, "recover-cp", "--seed", "8", "--n", "2")
        assert code == 0
        assert rep["results"]["recover_cp"]["pass"]
        # Psi's Choi positivity is recorded once, as recover_cp's min_choi_eig
        assert ("recover_cp", "min_choi_eig") in check_values(rep)
        assert "cp" not in rep["results"]

    def test_recover_cp_tol_sets_psi_kms_bound(self, capsys):
        # --tol bounds Psi's KMS defect; min_choi_eig stays is_cp's check at
        # the density's tol
        code, rep = run(capsys, "recover-cp", "--n", "2", "--seed", "3", "--tol", "1e-4")
        assert code == 0
        kms = rep["results"]["kms_symmetric"]
        assert kms["tol"] == 1e-4
        assert check_values(rep)[("kms_symmetric", "kms_defect")][1] == (
            1e-4 * max(1.0, kms["metrics"]["norm"])
        )
        assert check_values(rep)[("recover_cp", "roundtrip_residual")][1] >= 1e-4
        assert check_values(rep)[("recover_cp", "min_choi_eig")][1] == -1e-9

    def test_simulate(self, capsys):
        code, rep = run(capsys, "simulate", "--seed", "9", "--n", "2",
                        "--t", "1.0", "--steps", "8", "64")
        assert code == 0
        res = rep["results"]["chernoff_residuals"]
        assert res["64"] <= res["8"]

    @pytest.mark.parametrize("tol", ["1e-9", "1e-6"])
    def test_simulate_gen_with_planted_kms_defect(self, capsys, tmp_path, tol):
        # a generator whose KMS defect is 0.9 of its bound certifies at
        # --tol; its L2 is not self-adjoint, and the semigroup of L2's
        # Hermitian part moves the cyclic vector past the markov_t=10 bound
        # at this instance, while exp(-t L2) fixes it
        gen, _ = kf.random_generator(2, 2)
        g = instances.ginibre(np.random.default_rng(102), 2)
        gg = g.conj().T @ g
        planted = kf.from_kraus([g]) - 0.5 * (kf.lmul(gg) + kf.rmul(gg))
        defect = kf.is_kms_symmetric(planted, gen.ctx, tol=1.0).check("kms_defect").value
        lgen = gen.L + (0.9 * float(tol) * max(gen.L.norm, 1.0) / defect) * planted
        rho, f = tmp_path / "rho.json", tmp_path / "gen.json"
        dump_json(density_to_json(gen.ctx), str(rho))
        dump_json(superop_to_json(lgen), str(f))
        code, rep = run(capsys, "simulate", "--gen", str(f), "--rho", str(rho), "--tol", tol)
        assert code == 0, rep
        kms = kf.is_kms_symmetric(lgen, gen.ctx, tol=float(tol)).check("kms_defect")
        assert 0.8 * kms.bound <= kms.value <= kms.bound
        for t in ("0.1", "1", "10"):
            assert rep["results"][f"markov_t={t}"]["pass"], t

    def test_simulate_records_eig_condition(self, capsys, tmp_path):
        # cond(V) of L2's eig: 1 for the self-adjoint tracial depolarizing
        # generator, and larger once a non-normal Lindblad part breaks KMS
        # symmetry, the more so the larger that part; a metric, not a check
        n = 2
        ctx = kf.DensityContext.from_rho(np.eye(n) / n)
        omega = np.eye(n).reshape(-1)
        depol = kf.Superoperator(n * np.eye(n * n) - np.outer(omega, omega), n)
        g = instances.ginibre(np.random.default_rng(102), n)
        gg = g.conj().T @ g
        lindblad = 0.5 * (kf.lmul(gg) + kf.rmul(gg)) - kf.from_kraus([g])
        rho = tmp_path / "rho.json"
        dump_json(density_to_json(ctx), str(rho))
        conds = []
        for eps in (0.0, 1e-3, 1e-1):
            f = tmp_path / f"gen_{eps:g}.json"
            dump_json(superop_to_json(depol + eps * lindblad), str(f))
            _, rep = run(capsys, "simulate", "--gen", str(f), "--rho", str(rho),
                         "--tol", "1")
            markov = [rep["results"][f"markov_t={t}"] for t in ("0.1", "1", "10")]
            assert {m["metrics"]["eig_condition"] for m in markov} == {
                markov[0]["metrics"]["eig_condition"]}
            assert "eig_condition" not in {c["name"] for m in markov for c in m["checks"]}
            conds.append(markov[0]["metrics"]["eig_condition"])
        assert abs(conds[0] - 1.0) <= 1e-12
        assert 2.0 < conds[1] < conds[2]

    def test_dirichlet_check(self, capsys):
        code, rep = run(capsys, "dirichlet-check", "--seed", "10", "--n", "2",
                        "--trials", "10")
        assert code == 0
        assert rep["results"]["contraction"]["pass"]
        assert abs(rep["results"]["cyclic_energy"]) < 1e-10

    @pytest.mark.parametrize("t", ["nan", "inf", "-1"])
    def test_simulate_rejects_t_not_finite_nonnegative(self, capsys, t):
        code, rep = run(capsys, "simulate", "--seed", "9", "--n", "2", "--t", t)
        assert code == 2
        assert rep["error"] == {
            "type": "usage",
            "message": f"Markov evolution requires a finite t >= 0, got t = {float(t)}",
        }

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_dirichlet_check_rejects_no_trials(self, capsys, trials):
        code, rep = run(capsys, "dirichlet-check", "--seed", "10", "--n", "2",
                        "--trials", trials)
        assert code == 2
        assert rep["error"] == {
            "type": "usage",
            "message": f"dirichlet_contraction_check requires trials >= 1, got {trials}",
        }
        assert rep["results"] == {}

    def test_dirichlet_check_n4_fifty_trials(self, capsys):
        code, rep = run(capsys, "dirichlet-check", "--seed", "10", "--n", "4",
                        "--trials", "50")
        assert code == 0
        assert rep["results"]["contraction"]["pass"]

    def test_recover_cp_kraus_rank_one(self, capsys):
        code, rep = run(capsys, "recover-cp", "--n", "3", "--seed", "1", "--kraus-rank", "1")
        assert code == 0
        for name in ("recover_cp", "kms_symmetric"):
            assert rep["results"][name]["pass"]

    def test_recover_cp_n4(self, capsys):
        code, rep = run(capsys, "recover-cp", "--seed", "1", "--n", "4")
        assert code == 0
        assert rep["results"]["recover_cp"]["pass"]
        assert rep["results"]["kms_symmetric"]["pass"]


# every stage `derive --method both` (and so `uniqueness`) times
BOTH_STAGES = {
    "generator", "gns_calculus", "calculus_invariants", "extract_commutators_gns", "gns_form",
    "kraus_route", "kraus_form", "commutator_calculus", "uniqueness_witness", "total",
}


def reports(rep):
    """The results of a CLI report that are reports (``dims`` is not)."""
    return {k: r for k, r in rep["results"].items() if isinstance(r, dict) and "checks" in r}


def check_values(rep):
    """(result key, check name) -> (value, bound, kind) over every report."""
    return {
        (key, c["name"]): (c["value"], c["bound"], c["kind"])
        for key, res in reports(rep).items()
        for c in res["checks"]
    }


def expected_dims(method, n):
    """The ``dims`` block of a default-ensemble run: the GNS route keeps all
    m = n^2 - 1 multiplicity directions, the Kraus family has n^2 members
    and its calculus the GNS calculus's dimensions."""
    m = n * n - 1
    calc = {"dim_h": n * n * m, "m": m}
    dims = {"n": n}
    if method in ("gns", "both"):
        dims["gns"] = {**calc, "family_size": m}
    if method in ("kraus", "both"):
        dims["kraus"] = {"family_size": n * n}
    if method == "both":
        dims["kraus"].update(calc)
    return dims


class TestDimensionMismatch:
    """Inputs that disagree on n are a schema error naming the file that
    disagrees, an --n that contradicts --rho a usage error, and the top-level
    n of a report is the dimension that ran."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        rho3, _ = write_instance(tmp_path, capsys, seed=1, n=3)
        _, psi2 = write_instance(tmp_path, capsys, seed=0, n=2)
        gen2 = tmp_path / "gen2.json"
        dump_json(superop_to_json(kf.random_generator(2, 0)[0].L), str(gen2))
        return {"rho": str(rho3), "psi": str(psi2), "gen": str(gen2)}

    @pytest.mark.parametrize(
        "argv,culprit",
        [
            (["check", "--superop", "{psi}"], "psi"),
            (["vtransform", "--superop", "{psi}"], "psi"),
            (["gen-from-cp", "--psi", "{psi}"], "psi"),
            (["recover-cp", "--gen", "{gen}"], "gen"),
            (["simulate", "--gen", "{gen}"], "gen"),
            (["derive", "--method", "gns", "--gen", "{gen}"], "gen"),
            (["derive", "--method", "kraus", "--psi", "{psi}"], "psi"),
        ],
        ids=["check", "vtransform", "gen-from-cp", "recover-cp", "simulate",
             "derive-gen", "derive-psi"],
    )
    def test_mismatch_is_schema_error(self, capsys, files, argv, culprit):
        argv = [a.format(**files) for a in argv]
        code, rep = run(capsys, *argv, "--rho", files["rho"])
        assert code == 2
        assert rep["error"]["type"] == "schema"
        assert files[culprit] in rep["error"]["message"]
        assert "dimension 2" in rep["error"]["message"]
        assert "dimension 3" in rep["error"]["message"]

    @pytest.mark.parametrize("command", ["recover-cp", "simulate", "derive", "dirichlet-check"])
    def test_n_contradicting_rho_is_usage_error(self, capsys, files, command):
        code, rep = run(capsys, command, "--n", "2", "--rho", files["rho"])
        assert code == 2
        assert rep["error"] == {
            "type": "usage",
            "message": f"--n 2 contradicts --rho {files['rho']} of dimension 3",
        }
        assert rep["results"] == {}

    def test_top_level_n_is_the_dimension_that_ran(self, capsys, files, tmp_path):
        for argv in (["--rho", files["rho"]], ["--n", "3", "--rho", files["rho"]]):
            code, rep = run(capsys, "derive", "--method", "gns", *argv)
            assert code == 0
            assert rep["n"] == rep["results"]["dims"]["n"] == 3
        code, rep = run(capsys, "derive", "--method", "gns")
        assert code == 0 and rep["n"] == rep["results"]["dims"]["n"] == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3}))
        code, rep = run(capsys, "random", "--config", str(cfg))
        assert code == 0 and rep["n"] == rep["results"]["rho"]["n"] == 3


class TestLevelMismatch:
    """An input map at a level its command cannot read is a schema error
    naming the file; vtransform and a plain check read either level."""

    @pytest.fixture
    def files(self, tmp_path):
        gen, psi = kf.random_generator(2, 0)
        files = {name: str(tmp_path / f"{name}.json") for name in ("rho", "psi", "gen")}
        dump_json(density_to_json(gen.ctx), files["rho"])
        dump_json(superop_to_json(kf.to_l2(psi, gen.ctx)), files["psi"])
        dump_json(superop_to_json(gen.L2), files["gen"])
        return files

    @pytest.mark.parametrize(
        "argv,culprit",
        [
            (["derive", "--method", "kraus", "--rho", "{rho}", "--psi", "{psi}"], "psi"),
            (["gen-from-cp", "--rho", "{rho}", "--psi", "{psi}"], "psi"),
            (["check", "--rho", "{rho}", "--superop", "{psi}"], "psi"),
            (["check", "--generator", "--superop", "{gen}"], "gen"),
            (["derive", "--method", "gns", "--gen", "{gen}"], "gen"),
            (["recover-cp", "--gen", "{gen}"], "gen"),
            (["simulate", "--gen", "{gen}"], "gen"),
            (["dirichlet-check", "--gen", "{gen}"], "gen"),
        ],
        ids=["derive-psi", "gen-from-cp", "check-rho", "check-generator", "derive-gen",
             "recover-cp", "simulate", "dirichlet-check"],
    )
    def test_l2_input_is_schema_error(self, capsys, files, argv, culprit):
        argv = [a.format(**files) for a in argv]
        if "--gen" in argv:
            argv += ["--rho", files["rho"]]
        code, rep = run(capsys, *argv)
        assert code == 2
        assert rep["error"] == {
            "type": "schema",
            "message": f"{files[culprit]}: level 'l2', where 'algebra' is needed",
        }

    @pytest.mark.parametrize(
        "argv",
        [["vtransform", "--rho", "{rho}", "--superop", "{psi}"], ["check", "--superop", "{psi}"]],
        ids=["vtransform", "check"],
    )
    def test_either_level_accepted(self, capsys, files, argv):
        code, rep = run(capsys, *[a.format(**files) for a in argv])
        assert code == 0 and "error" not in rep


class TestDerive:
    def test_both_routes_and_witness(self, capsys):
        code, rep = run(capsys, "derive", "--method", "both", "--seed", "7", "--n", "2")
        assert code == 0
        # the Gram deviation is read from the witness report, its one copy
        assert "gram_mismatch_max" not in rep["results"]
        assert check_values(rep)["uniqueness", "gram_mismatch_max"][0] <= 1e-6
        assert rep["results"]["uniqueness"]["pass"]
        assert rep["results"]["calculus_invariants"]["pass"]
        # innerness and the Leibniz rule hold by type: neither is a check
        assert "innerness" not in rep["results"]
        names = [c["name"] for c in rep["results"]["calculus_invariants"]["checks"]]
        assert names == [
            "j_antiunitary_defect", "j_involution_defect", "j_delta_defect",
            "cyclic_rank_deficit", "form_identity_defect",
        ]
        for key in ("gns_form", "kraus_form"):
            assert list(rep["results"][key]["metrics"]) == ["family_size"]
        assert set(rep["timings_s"]) == BOTH_STAGES

    @pytest.mark.parametrize(
        "argv,want",
        [
            (["derive", "--method", "both"], (2, 3, 0)),
            (["uniqueness"], (2, 3, 0)),
            (["derive", "--method", "kraus"], (1, 1, 0)),
        ],
        ids=["both", "uniqueness", "kraus"],
    )
    def test_each_identity_measured_once(self, capsys, monkeypatch, argv, want):
        # the invariants report measures the GNS form identity, and each
        # family's report its commutator form: one measurement each; no
        # inner vector is recovered, the calculus is built from it
        calls = {"verify_commutator_form": 0, "kms_form_of_generator": 0, "inner_vector": 0}
        for name in calls:
            fn = getattr(derivation, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(derivation, name, counted)
        code, _ = run(capsys, *argv, "--n", "3", "--seed", "0")
        assert code == 0
        assert tuple(calls.values()) == want

    @pytest.mark.parametrize("method,key", [("gns", "gns_form"), ("kraus", "kraus_form")])
    def test_family_form_failure_is_a_failing_report(self, capsys, monkeypatch, method, key):
        # the family is built; its report fails with the measured value and
        # the run exits 1 without an error
        form = derivation.kms_form_of_generator
        monkeypatch.setattr(
            derivation, "kms_form_of_generator", lambda g: form(g) + 1e-3 * np.eye(4)
        )
        code, rep = run(capsys, "derive", "--method", method, "--seed", "1", "--n", "2")
        assert code == 1
        assert rep["pass"] is False and "error" not in rep
        check = rep["results"][key]["checks"][0]
        assert not rep["results"][key]["pass"]
        assert check["value"] > check["bound"]

    def test_gram_mismatch_is_a_failing_report(self, capsys, monkeypatch):
        # the Kraus route's calculus replaced by the GNS calculus of another
        # generator: the witness measures the Gram mismatch and fails
        other, _ = kf.random_generator(2, 1)
        monkeypatch.setattr(
            derivation, "commutator_calculus", lambda fam, gen: derivation.gns_calculus(other)
        )
        code, rep = run(capsys, "derive", "--method", "both", "--seed", "0", "--n", "2")
        assert code == 1
        assert rep["pass"] is False and "error" not in rep
        assert rep["results"]["uniqueness"]["pass"] is False
        value, bound, _ = check_values(rep)["uniqueness", "gram_mismatch_max"]
        assert value > bound

    @pytest.mark.parametrize("method", ["gns", "kraus", "both"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_dims_block(self, capsys, tmp_path, method, n):
        out = tmp_path / "derive.json"
        code, rep = run(capsys, "derive", "--method", method, "--seed", "0", "--n", str(n),
                        "--out", str(out))
        assert code == 0
        dims = rep["results"]["dims"]
        assert dims == expected_dims(method, n)
        for route in ("gns", "kraus"):
            if route in dims:
                family = rep["results"][f"{route}_form"]["metrics"]["family_size"]
                assert dims[route]["family_size"] == family
        if method == "both":
            metrics = rep["results"]["uniqueness"]["metrics"]
            assert (metrics["dim_h_a"], metrics["dim_h_b"]) == (
                dims["gns"]["dim_h"], dims["kraus"]["dim_h"])
        # not a report: verify re-checks every report and walks past it
        code, checked = run(capsys, "verify", "--report", str(out))
        assert code == 0 and checked["results"]["idempotent"]["pass"]
        assert set(checked["results"]) == {f"results/{k}" for k in reports(rep)} | {"idempotent"}

    def test_generator_file_uses_recovered_psi(self, capsys, tmp_path):
        # --gen without --psi: the Kraus route runs on the recovered Psi
        rho, psi = write_instance(tmp_path, capsys, seed=1, n=3)
        code, rep = run(capsys, "gen-from-cp", "--psi", str(psi), "--rho", str(rho))
        assert code == 0
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps(rep["results"]["generator"]))
        code, rep = run(capsys, "derive", "--method", "both", "--gen", str(gen),
                        "--rho", str(rho))
        assert code == 0
        assert rep["results"]["kraus_form"]["pass"]
        assert rep["results"]["kraus_form"]["metrics"]["family_size"] == 8
        assert rep["results"]["uniqueness"]["pass"]

    @pytest.mark.parametrize("bound", ["0.5", "-3", "nan", "inf"])
    def test_invalid_cond_bound_is_usage_error(self, capsys, bound):
        code, rep = run(capsys, "derive", "--seed", "0", "--n", "2", "--cond-bound", bound)
        assert code == 2
        assert rep["error"]["type"] == "usage"
        assert "cond_bound" in rep["error"]["message"]

    def test_tracial_cond_bound_passes(self, capsys):
        code, rep = run(capsys, "derive", "--method", "both", "--seed", "0", "--n", "2",
                        "--cond-bound", "1.0")
        assert code == 0
        assert rep["pass"]

    def test_unread_psi_is_usage_error(self, capsys, tmp_path):
        _, psi = write_instance(tmp_path, capsys, seed=5)
        code, rep = run(capsys, "derive", "--method", "gns", "--n", "2", "--psi", str(psi))
        assert code == 2
        assert rep["error"] == {
            "type": "usage",
            "message": "derive --method gns reads no --psi: only the Kraus route does",
        }
        assert rep["results"] == {}

    def test_single_route(self, capsys):
        code, rep = run(capsys, "derive", "--method", "gns", "--seed", "2", "--n", "2")
        assert code == 0
        assert rep["results"]["gns_form"]["pass"]
        assert "kraus_form" not in rep["results"]

    def test_kraus_route_and_dump(self, capsys, tmp_path):
        dump = tmp_path / "calc.json"
        code, rep = run(capsys, "derive", "--method", "kraus", "--seed", "3",
                        "--n", "2", "--dump", str(dump))
        assert code == 0
        assert rep["results"]["kraus_form"]["pass"]
        doc = json.loads(dump.read_text())
        assert "kraus_family" in doc and "V" in doc["kraus_family"]

    def test_dump_both_contains_calculus(self, capsys, tmp_path):
        dump = tmp_path / "full.json"
        code, _ = run(capsys, "derive", "--method", "both", "--seed", "1",
                      "--n", "2", "--dump", str(dump))
        assert code == 0
        doc = json.loads(dump.read_text())
        assert doc["gns_calculus"]["dimH"] > 0
        x = np.asarray(doc["gns_calculus"]["X"]["re"])
        assert x.shape == (doc["gns_calculus"]["dimH"] // 4, 2, 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_dump_round_trip(self, capsys, tmp_path, n):
        # the dumped X and K_J rebuild the calculus: its invariants report
        # reproduces every stored check value bit for bit
        dump = tmp_path / "calc.json"
        code, rep = run(capsys, "derive", "--method", "both", "--seed", "1",
                        "--n", str(n), "--dump", str(dump))
        assert code == 0
        doc = json.loads(dump.read_text())["gns_calculus"]
        assert set(doc) == {"dimH", "X", "K_J"}
        def array(v):
            return np.asarray(v["re"]) + 1j * np.asarray(v["im"])

        m = doc["dimH"] // n**2
        assert m > 0 and array(doc["X"]).shape == (m, n, n)
        assert array(doc["K_J"]).shape == (m, m)
        gen, _ = kf.random_generator(n, 1)
        calc = kf.FirstOrderCalculus(gen.ctx, array(doc["X"]), array(doc["K_J"]))
        recomputed = kf.calculus_invariants_report(calc, gen).to_json_dict()
        assert recomputed["checks"] == rep["results"]["calculus_invariants"]["checks"]

    def test_no_dump_skips_serialization(self, capsys, monkeypatch):
        from kmsflow import serialize

        def refuse(*args, **kwargs):
            raise AssertionError("dump serialized without --dump")

        monkeypatch.setattr(serialize, "calculus_to_json", refuse)
        monkeypatch.setattr(serialize, "family_to_json", refuse)
        code, _ = run(capsys, "derive", "--method", "both", "--seed", "1", "--n", "2")
        assert code == 0

    def test_measured_failure_reports_value_and_bound(self, capsys, monkeypatch):
        from kmsflow import derivation

        def not_psd(gen):
            raise kf.GramNotPSD("negative eigenvalue", value=-2e-6, bound=1e-8)

        monkeypatch.setattr(derivation, "gns_calculus", not_psd)
        code, rep = run(capsys, "derive", "--method", "gns", "--seed", "1", "--n", "2")
        assert code == 1
        assert rep["error"]["type"] == "GramNotPSD"
        assert (rep["error"]["value"], rep["error"]["bound"]) == (-2e-6, 1e-8)


# cli.main derive under tracemalloc, in a fresh process so that no calculus
# another test holds can lend it its actions; prints the traced peak in bytes
TRACED_DERIVE = """
import sys, tracemalloc
from kmsflow import cli
tracemalloc.start()
code = cli.main(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[1], file=sys.stderr)
"""


# the commands of one-shot processes, run in a fresh interpreter; prints
# their exit codes and the scipy modules loaded by then
SCIPY_FREE_RUN = """
import contextlib, io, json, sys
import kmsflow, kmsflow.cli
rho, psi = sys.argv[1:]
argvs = [
    ["random", "--n", "2", "--rho-out", rho, "--psi-out", psi],
    ["derive", "--method", "both", "--n", "2"],
    ["simulate", "--n", "2"],
    ["recover-cp", "--n", "2"],
    ["dirichlet-check", "--n", "2"],
    ["vtransform", "--superop", psi, "--rho", rho, "--quadrature", "20000"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [kmsflow.cli.main(argv) for argv in argvs]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


class TestImportFootprint:
    def test_commands_load_no_scipy(self, tmp_path):
        # numpy is the one runtime dependency: scipy would double start-up
        env = {**os.environ, "PYTHONPATH": str(Path(kf.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path / "rho.json"),
             str(tmp_path / "psi.json")],
            env=env, capture_output=True, text=True, check=True,
        )
        codes, loaded = json.loads(proc.stdout)
        assert codes == [0] * 6
        assert loaded == []


class TestDeriveMemory:
    """derive --method both --n 4 --seed 1 under tracemalloc peaks at
    6.62 MiB, where the GNS and the commutator calculus share pi_l and pi_r,
    and at 10.21 MiB when each renders a pair of its own (3.6 MiB stored);
    the bound lies halfway between the two."""

    PEAK_BOUND = 8.4 * 2**20

    @staticmethod
    def traced_peak(tmp_path, prelude=""):
        argv = ["derive", "--method", "both", "--n", "4", "--seed", "1",
                "--out", str(tmp_path / "derive.json")]
        env = {**os.environ, "PYTHONPATH": str(Path(kf.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", prelude + TRACED_DERIVE, *argv], env=env,
                              capture_output=True, text=True, check=True)
        code, peak = map(int, proc.stderr.split()[-2:])
        assert code == 0
        return peak

    def test_both_routes_hold_one_pair_of_actions(self, tmp_path):
        assert self.traced_peak(tmp_path) <= self.PEAK_BOUND
        calc = kf.gns_calculus(kf.random_generator(4, 1)[0])
        assert calc.dim_h == 240

    def test_a_pair_per_calculus_fails_the_bound(self, tmp_path):
        # control: with the table cleared before each calculus the run holds
        # two pairs of actions, and the guard must see it
        assert self.traced_peak(tmp_path, A_PAIR_PER_CALCULUS) > self.PEAK_BOUND


class TestUniqueness:
    def test_witness_passes_and_every_stage_is_timed(self, capsys):
        code, rep = run(capsys, "uniqueness", "--n", "2", "--seed", "0")
        assert code == 0
        assert rep["command"] == "uniqueness"
        assert rep["results"]["uniqueness"]["pass"]
        assert set(rep["timings_s"]) == BOTH_STAGES

    def test_is_derive_both(self, capsys):
        # uniqueness certifies what it did before, now as reports: the GNS
        # form in calculus_invariants and the Kraus form in kraus_form
        code_u, uniq = run(capsys, "uniqueness", "--n", "2", "--seed", "0")
        code_d, both = run(capsys, "derive", "--method", "both", "--n", "2", "--seed", "0")
        assert code_u == code_d == 0
        assert list(uniq["results"]) == list(both["results"])
        assert uniq["results"]["dims"] == both["results"]["dims"] == expected_dims("both", 2)
        assert check_values(uniq) == check_values(both)
        verdicts = {k: r["pass"] for k, r in reports(both).items()}
        assert {k: r["pass"] for k, r in reports(uniq).items()} == verdicts
        assert all(verdicts.values()) and uniq["pass"] == both["pass"] is True


class TestTol:
    def test_given_tol_is_read(self, capsys, tmp_path):
        rho, psi = write_instance(tmp_path, capsys, seed=3)
        code, rep = run(capsys, "check", "--superop", str(psi), "--rho", str(rho),
                        "--tol", "1e-6")
        assert code == 0
        assert rep["tol"] == 1e-6
        assert rep["results"]["cp"]["tol"] == 1e-6
        assert rep["results"]["kms_symmetric"]["tol"] == 1e-6

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("tol")
        gen, psi = kf.random_generator(2, 1)
        files = {name: str(tmp / f"{name}.json") for name in ("rho", "psi", "gen")}
        dump_json(density_to_json(gen.ctx), files["rho"])
        dump_json(superop_to_json(psi), files["psi"])
        dump_json(superop_to_json(gen.L), files["gen"])
        return files

    # a cheap command line per command; derive and uniqueness read --tol
    # only with --gen
    TOL_ARGV = {
        "check": ["check", "--superop", "{psi}", "--rho", "{rho}"],
        "vtransform": ["vtransform", "--superop", "{psi}", "--rho", "{rho}"],
        "gen-from-cp": ["gen-from-cp", "--psi", "{psi}", "--rho", "{rho}"],
        "recover-cp": ["recover-cp", "--n", "2"],
        "derive": ["derive", "--method", "gns", "--n", "2"],
        "derive-gen": ["derive", "--method", "gns", "--gen", "{gen}", "--rho", "{rho}"],
        "uniqueness": ["uniqueness", "--n", "2"],
        "uniqueness-gen": ["uniqueness", "--gen", "{gen}", "--rho", "{rho}"],
        "simulate": ["simulate", "--n", "2"],
        "dirichlet-check": ["dirichlet-check", "--n", "2", "--trials", "2"],
        "random": ["random", "--n", "2"],
        "verify": ["verify", "--report", "{psi}"],
    }
    READS_TOL = ("check", "gen-from-cp", "recover-cp", "derive-gen", "uniqueness-gen",
                 "simulate", "dirichlet-check")

    @pytest.mark.parametrize("case", list(TOL_ARGV))
    def test_tol_accepted_only_where_read(self, capsys, files, case):
        argv = [a.format(**files) for a in self.TOL_ARGV[case]]
        code, rep = run(capsys, *argv, "--tol", "1e-8")
        if case in self.READS_TOL:
            assert code == 0 and "error" not in rep
            assert rep["tol"] == 1e-8
        else:
            assert code == 2
            assert rep["error"]["type"] == "usage"
            assert "--tol" in rep["error"]["message"]
            assert rep["results"] == {}

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1", "0"])
    @pytest.mark.parametrize("case", READS_TOL)
    def test_invalid_tol_is_usage_error(self, capsys, files, case, tol):
        # at inf, cp would pass any map against a bound of -inf
        argv = [a.format(**files) for a in self.TOL_ARGV[case]]
        code, rep = run(capsys, *argv, f"--tol={tol}")
        assert code == 2
        assert rep["error"] == {
            "type": "usage",
            "message": f"argument --tol: must be finite and > 0, got {float(tol)!r}",
        }
        assert rep["results"] == {} and "tol" not in rep

    def test_derive_with_gen_reads_tol(self, capsys, tmp_path):
        rho, psi = write_instance(tmp_path, capsys, seed=1)
        code, rep = run(capsys, "gen-from-cp", "--psi", str(psi), "--rho", str(rho))
        assert code == 0
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps(rep["results"]["generator"]))
        code, rep = run(capsys, "derive", "--method", "both", "--gen", str(gen),
                        "--rho", str(rho), "--tol", "1e-8")
        assert code == 0
        assert rep["tol"] == 1e-8 and rep["pass"]


class TestParserCache:
    """main reuses one parser per process; no call may leak into the next."""

    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_list_default_survives_override(self, capsys):
        code, rep = run(capsys, "simulate", "--n", "2", "--steps", "4")
        assert code == 0
        assert set(rep["results"]["chernoff_residuals"]) == {"4"}
        code, rep = run(capsys, "simulate", "--n", "2")
        assert code == 0
        assert set(rep["results"]["chernoff_residuals"]) == {"8", "64"}

    def test_rejected_argv_leaves_parser_intact(self, capsys):
        # a command line the parser rejects is a usage report, not an exit
        code, rep = run(capsys, "derive", "--method", "nope")
        assert code == 2
        assert rep == {
            "schema_version": 1, "command": "derive", "results": {}, "timings_s": {},
            "error": {
                "type": "usage",
                "message": "argument --method: invalid choice: 'nope'"
                           " (choose from 'gns', 'kraus', 'both')",
            },
        }
        code, rep = run(capsys, "derive", "--method", "gns", "--n", "2")
        assert code == 0
        assert rep["results"]["gns_form"]["pass"]

    def test_report_independent_of_earlier_calls(self, capsys):
        def report(*argv):
            code, rep = run(capsys, *argv)
            assert code == 0
            del rep["timings_s"]
            return rep

        _build_parser.cache_clear()
        first = report("derive", "--n", "2")
        report("derive", "--n", "3", "--method", "gns")
        assert report("derive", "--n", "2") == first


class TestVerify:
    def test_idempotent_verdicts(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["derive", "--method", "both", "--seed", "4", "--n", "2",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        code2, rep2 = run(capsys, "verify", "--report", str(out))
        assert code2 == 0
        assert rep2["results"]["idempotent"]["pass"]
        # the witness's rank-rule margins ride along as metrics
        metrics = json.loads(out.read_text())["results"]["uniqueness"]["metrics"]
        assert {"kept_gap_a", "kept_gap_b", "dropped_mass_a", "dropped_mass_b"} <= set(metrics)
        assert rep2["results"]["results/uniqueness"]["recomputed_pass"] is True

    def test_invariants_check_is_rechecked(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["derive", "--method", "gns", "--seed", "4", "--n", "2", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        (cyclic,) = [
            c for c in doc["results"]["calculus_invariants"]["checks"]
            if c["name"] == "cyclic_rank_deficit"
        ]
        cyclic["value"] = 4.0  # above its bound 0
        out.write_text(json.dumps(doc))
        code2, rep2 = run(capsys, "verify", "--report", str(out))
        assert code2 == 1
        assert rep2["results"]["idempotent"]["mismatches"] == ["results/calculus_invariants"]
        assert rep2["results"]["results/calculus_invariants"]["recomputed_pass"] is False

    def test_tampered_report_detected(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rho, psi = write_instance(tmp_path, capsys, seed=12)
        code = main(["check", "--superop", str(psi), "--rho", str(rho),
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        doc["results"]["cp"]["pass"] = False  # tamper the verdict only
        out.write_text(json.dumps(doc))
        code2, rep2 = run(capsys, "verify", "--report", str(out))
        assert code2 == 1
        assert not rep2["results"]["idempotent"]["pass"]

    def test_full_precision_serialization(self, capsys, tmp_path):
        rho, psi = write_instance(tmp_path, capsys, seed=13)
        doc = json.loads((psi).read_text())
        ctx, psi_obj = kf.random_instance(2, 13)
        mat = np.asarray(doc["re"]) + 1j * np.asarray(doc["im"])
        np.testing.assert_array_equal(mat, psi_obj.mat)


class TestVerifyMalformed:
    """A report whose checks cannot be read, or whose stored verdict is not a
    boolean, is a schema error that names the report file and the report
    inside it, not a traceback."""

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda rep: rep["checks"][0].update(value=None),
            lambda rep: rep["checks"][0].pop("name"),
            lambda rep: rep.update(checks="oops"),
            lambda rep: rep["checks"][0].update(bound="1e-9"),
            lambda rep: rep["checks"][0].update(kind=None),
            lambda rep: rep["checks"].append(3.0),
        ],
        ids=["value_null", "no_name", "checks_str", "bound_str", "kind_null", "check_not_object"],
    )
    def test_malformed_check_is_schema_error(self, capsys, tmp_path, tamper):
        out = tmp_path / "report.json"
        code = main(["derive", "--method", "gns", "--seed", "4", "--n", "2", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        tamper(doc["results"]["calculus_invariants"])
        out.write_text(json.dumps(doc))
        code, rep = run(capsys, "verify", "--report", str(out))
        assert code == 2
        assert rep["error"]["type"] == "schema"
        assert str(out) in rep["error"]["message"]
        assert "results/calculus_invariants" in rep["error"]["message"]

    @pytest.mark.parametrize("stored", ["false", 0])
    def test_non_boolean_pass_is_schema_error(self, capsys, tmp_path, stored):
        out = tmp_path / "report.json"
        code = main(["derive", "--n", "2", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        doc["results"]["uniqueness"]["pass"] = stored
        out.write_text(json.dumps(doc))
        code, rep = run(capsys, "verify", "--report", str(out))
        assert code == 2
        assert rep["error"]["type"] == "schema"
        assert str(out) in rep["error"]["message"]
        assert "results/uniqueness" in rep["error"]["message"]
        assert "'pass' must be a boolean" in rep["error"]["message"]


class TestOutputs:
    @pytest.mark.parametrize("option", ["--rho", "--psi"])
    def test_abbreviated_option_is_usage_error(self, capsys, tmp_path, option):
        # argparse would read --rho as --rho-out and overwrite the input
        rho, psi = write_instance(tmp_path, capsys, seed=2)
        given = {"--rho": rho, "--psi": psi}[option]
        before = given.read_bytes()
        code, rep = run(capsys, "random", option, str(given))
        assert code == 2
        assert rep["error"]["type"] == "usage"
        assert given.read_bytes() == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["random", "--out"],
            ["random", "--rho-out"],
            ["random", "--psi-out"],
            ["derive", "--method", "gns", "--dump"],
        ],
        ids=["out", "rho_out", "psi_out", "dump"],
    )
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, argv):
        path = str(tmp_path / "missing" / "x.json")
        code, rep = run(capsys, *argv, path)
        assert code == 2
        assert rep["error"]["type"] == "usage"
        assert path in rep["error"]["message"]
        assert rep["command"] == argv[0]
        assert "pass" not in rep

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--report"],
            ["check", "--superop"],
            ["derive", "--rho"],
            ["derive", "--psi"],
            ["simulate", "--rho", "{rho}", "--gen"],
            ["random", "--config"],
        ],
        ids=["report", "superop", "rho", "psi", "gen", "config"],
    )
    def test_directory_input_is_schema_error(self, capsys, tmp_path, argv):
        rho, _ = write_instance(tmp_path, capsys, seed=2)
        argv = [a.format(rho=rho) for a in argv]
        code, rep = run(capsys, *argv, str(tmp_path))
        assert code == 2
        assert rep["error"]["type"] == "schema"
        assert str(tmp_path) in rep["error"]["message"]
        assert rep["command"] == argv[0]


# The CLI's vocabulary: each option with valid and invalid values, as
# token lists; "{name}" is a file in a fresh directory, written from
# TestEveryArgv.documents or left absent, and "{dir}" is the directory.
# Sizes stay small (n <= 3, --trials <= 2, --quadrature in {0, 5, 1000}) so
# that a run is cheap.
ARGV_FILES = ("{rho}", "{rho3}", "{psi}", "{psi_l2}", "{gen}", "{malformed}", "{missing}",
              "{dir}")
ARGV_VALUES = {
    "--superop": ARGV_FILES,
    "--rho": ARGV_FILES,
    "--psi": ARGV_FILES,
    "--gen": ARGV_FILES,
    "--report": ("{report}", "{psi}", "{malformed}", "{missing}", "{dir}"),
    "--config": ("{cfg}", "{cfg_rho3}", "{cfg_bad}", "{cfg_list}", "{cfg_rho_str}",
                 "{cfg_unknown}", "{malformed}", "{missing}", "{dir}"),
    "--out": ("{out}", "{unwritable}"),
    "--dump": ("{dump}", "{unwritable}"),
    "--rho-out": ("{rho_out}", "{unwritable}"),
    "--psi-out": ("{psi_out}", "{unwritable}"),
    "--generator": (),
    "--tol": ("1e-8", "1e-6", "inf", "nan", "0", "-1", "x"),
    "--seed": ("0", "1", "-1", "x"),
    "--n": ("2", "3", "1", "0", "-1", "x"),
    "--kraus-rank": ("1", "2", "0", "x"),
    "--cond-bound": ("1", "100", "0.5", "nan", "inf"),
    "--method": ("gns", "kraus", "both", "nope"),
    "--quadrature": ("0", "5", "1000"),
    "--t": ("0", "1", "-1", "nan", "inf"),
    "--steps": ("1", "8 64", "0", "-1"),
    "--trials": ("1", "2", "0", "-3"),
}
SEEDED = ("--rho", "--gen", "--tol", "--seed", "--n", "--kraus-rank", "--cond-bound", "--out")
ARGV_COMMANDS = {
    "check": ("--superop", "--generator", "--rho", "--tol", "--out"),
    "vtransform": ("--superop", "--quadrature", "--rho", "--out"),
    "gen-from-cp": ("--psi", "--rho", "--tol", "--out"),
    "recover-cp": SEEDED,
    "derive": (*SEEDED, "--method", "--psi", "--dump"),
    "uniqueness": (*SEEDED, "--psi"),
    "simulate": (*SEEDED, "--t", "--steps"),
    "dirichlet-check": (*SEEDED, "--trials"),
    "random": ("--seed", "--n", "--kraus-rank", "--cond-bound", "--config", "--rho-out",
               "--psi-out", "--out"),
    "verify": ("--report", "--out"),
}
# drawn first, so that most command lines get past the parser; --trials
# because it defaults to 50
ARGV_LEADING = {"check": "--superop", "vtransform": "--superop", "gen-from-cp": "--psi",
                "verify": "--report", "dirichlet-check": "--trials"}


@st.composite
def command_lines(draw):
    """A command line from the CLI's vocabulary: a command or a stray word,
    then options, mostly the command's own, each with a value or none."""
    command = draw(st.sampled_from([*ARGV_COMMANDS, "nope", "--tol"]))
    own = ARGV_COMMANDS.get(command, ())
    options = [ARGV_LEADING[command]] if command in ARGV_LEADING else []
    for _ in range(draw(st.integers(0, 4))):
        pool = own if own and draw(st.integers(0, 5)) else tuple(ARGV_VALUES)
        options.append(draw(st.sampled_from(pool)))
    argv = [command]
    for option in options:
        argv.append(option)
        if ARGV_VALUES[option] and draw(st.integers(0, 9)):
            argv += draw(st.sampled_from(ARGV_VALUES[option])).split()
    return argv


class TestEveryArgv:
    """Every command line (--help aside) yields exactly one JSON report and
    an exit code in 0..3, and exit 2 is exactly a schema or usage error."""

    @pytest.fixture(scope="class")
    def documents(self):
        """File name -> JSON text of the inputs; the rest are paths only."""
        gen, psi = kf.random_generator(2, 1)
        ctx3, _ = kf.random_instance(3, 1)
        docs = {
            "rho": density_to_json(gen.ctx),
            "rho3": density_to_json(ctx3),
            "psi": superop_to_json(psi),
            "psi_l2": superop_to_json(kf.to_l2(psi, gen.ctx)),
            "gen": superop_to_json(gen.L),
            "cfg": {"n": 2, "seed": 1},
            "cfg_rho3": {"rho": density_to_json(ctx3)},
            "cfg_bad": {"n": "3"},
            "cfg_list": [2, 1],
            "cfg_rho_str": {"rho": "fixed"},
            "cfg_unknown": {"n": 2, "cond_bound": 1e6},
        }
        texts = {name: dump_json(doc) for name, doc in docs.items()}
        texts["malformed"] = "{not json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["derive", "--n", "2"]) == 0
        texts["report"] = out.getvalue()
        return texts

    @settings(derandomize=True)
    @given(argv=st.one_of(st.just([]), command_lines()))
    def test_one_json_report(self, documents, argv):
        # fresh files for each command line: an output option may name an input
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: os.path.join(tmp, f"{name}.json") for name in (
                *documents, "missing", "out", "dump", "rho_out", "psi_out")}
            paths["unwritable"] = os.path.join(tmp, "missing", "x.json")
            paths["dir"] = tmp
            for name, text in documents.items():
                Path(paths[name]).write_text(text)
            argv = [a.format(**paths) for a in argv]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    raise AssertionError(f"main exited with {exc.code!r}") from exc
        rep = json.loads(out.getvalue())  # exactly one document
        assert rep["schema_version"] == 1
        assert rep["command"] == (argv[0] if argv else None)
        assert code in (0, 1, 2, 3)
        assert (code == 2) == (rep.get("error", {}).get("type") in ("schema", "usage"))
