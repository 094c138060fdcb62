"""The benchmark's three workloads, one op each.

An op takes one seed through the workload's whole call sequence at every
dimension the workload names, so every op of a workload does the same work
on fresh inputs.  The calls follow the CLI commands they stand for and go
through kmsflow's public functions; each call is wrapped in a span named
``<module>.<function>``.  Every certificate a call returns is gated: an op
whose report fails, whose call raises, whose CLI run exits non-zero or whose
``verify`` finds a mismatch is a failed op.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time

import numpy as np

from kmsflow import cli, derivation, generator, instances, serialize, superop, vtransform
from kmsflow.matrix_core import opnorm

# certify: the non-derivation stages, swept over these dimensions.
CERTIFY_DIMS = (2, 3, 4, 5)
# CLI defaults of `simulate`, `recover-cp` and `dirichlet-check`.
SIMULATE_TIMES = (0.1, 1.0, 10.0)
CHERNOFF_T = 1.0
CHERNOFF_STEPS = (8, 64)
CERT_TOL = 1e-8
# cone_project costs about 12 ms per trial at n >= 3; one trial keeps the
# Dirichlet check from swamping the other modules of the op.
DIRICHLET_TRIALS = 1
# `vtransform --quadrature` step count; the step-doubling difference is the
# oracle's own error estimate and bounds its distance to the closed form.
QUADRATURE_STEPS = 20000
MARKOV_T = 1.0
# Thresholds of acceptance criteria 1, 9, 10 and 11.
INVERSE_PAIR_TOL = 1e-10
INNER_RESIDUAL_TOL = 1e-7
CHERNOFF_RATIO = 0.25
ROUNDOFF_FLOOR = 1e-12
CYCLIC_ENERGY_TOL = 1e-10

DERIVE_SMALL_DIMS = (2, 3)
DERIVE_N4_DIMS = (4,)

REPORT_NAMES = (
    "cp",
    "kms_symmetric",
    "unital_kernel",
    "ccn",
    "markov_l2",
    "v_cptp",
    "markov_preservation",
    "recover_cp",
    "dirichlet_contraction",
    "energy_product_inequality",
    "calculus_invariants",
    "commutator_form",
    "uniqueness_witness",
)

BUSY_SPANS = (
    "instances.random_instance",
    "superop.is_cp",
    "superop.is_kms_symmetric",
    "superop.is_markov_l2",
    "generator.generator_from_cp",
    "generator.evolve",
    "generator.chernoff_residual",
    "generator.recover_cp_from_generator",
    "generator.dirichlet_contraction_check",
    "generator.energy_product_inequality",
    "vtransform.v_transform",
    "vtransform.w_transform",
    "vtransform.v_transform_quadrature",
    "vtransform.v_transform_cptp_certificate",
    "vtransform.markov_preservation_check",
    "derivation.gns_calculus",
    "derivation.calculus_invariants_report",
    "derivation.extract_commutators_gns",
    "derivation.extract_commutators_kraus",
    "derivation.verify_commutator_form",
    "derivation.commutator_calculus",
    "derivation.uniqueness_witness",
    "derivation.inner_vector",
    "cli.derive",
    "cli.verify",
)

COUNTS = (
    ("derivation.gns_calculus.dim_h", "count"),
    ("derivation.gns_calculus.bytes", "bytes"),
    ("derivation.commutator_calculus.bytes", "bytes"),
    ("derivation.extract_commutators_gns.family_size", "count"),
    ("derivation.extract_commutators_kraus.family_size", "count"),
    ("cli.report_bytes", "bytes"),
    ("cli.timings_coverage", "fraction"),
)


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    units = {f"{name}.busy_s": "s" for name in BUSY_SPANS}
    units.update(COUNTS)
    units.update({f"{name}.margin_max": "ratio" for name in REPORT_NAMES})
    units["trace.overhead_frac"] = "fraction"
    units["wall.op_s_p50"] = "s"
    units["host.ref_block_s"] = "s"
    return units


class OpFailed(Exception):
    """A correctness gate of an op did not hold."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise OpFailed(what)


def call(rec, fn, *args, **kwargs):
    """Call a kmsflow public function inside a span named after it."""
    name = f"{fn.__module__.removeprefix('kmsflow.')}.{fn.__name__}"
    with rec.span(name):
        return fn(*args, **kwargs)


def certified(rec, rep) -> None:
    rec.report(rep)
    require(rep.passed, f"report {rep.name} failed")


def calculus_bytes(calc) -> int:
    """Computed bytes of the dense arrays a calculus stores."""
    return int(sum(a.nbytes for a in (calc.pi_l, calc.pi_r, calc.delta, calc.jmat)))


# --------------------------------------------------------------- certify


def certify_instance(rec, ctx, psi, seed: int) -> None:
    """`check` on Psi, `gen-from-cp`, `vtransform --quadrature`, `simulate`,
    `recover-cp` and `dirichlet-check`, then the V-transform's own CPTP
    certificate and Markov preservation, on one (rho, Psi) instance."""
    certified(rec, call(rec, superop.is_cp, psi, tol=1e-9))
    certified(rec, call(rec, superop.is_kms_symmetric, psi, ctx, tol=ctx.tol))

    gen = call(rec, generator.generator_from_cp, psi, ctx)
    for rep in gen.certificates.values():
        certified(rec, rep)

    markov = call(rec, generator.evolve, gen, MARKOV_T)
    transformed = call(rec, vtransform.v_transform, markov, ctx)
    inverse = call(rec, vtransform.w_transform, transformed, ctx)
    residual = opnorm(inverse.mat - markov.mat) / markov.norm
    require(residual <= INVERSE_PAIR_TOL, f"W(V(T)) residual {residual:.3e}")
    quad, info = call(
        rec, vtransform.v_transform_quadrature, markov, ctx, steps=QUADRATURE_STEPS
    )
    distance = opnorm(quad.mat - transformed.mat)
    require(
        distance <= info["step_doubling_diff"] + ROUNDOFF_FLOOR,
        f"closed form off the quadrature by {distance:.3e}",
    )

    for t in SIMULATE_TIMES:
        evolved = call(rec, generator.evolve, gen, t)
        certified(rec, call(rec, superop.is_markov_l2, evolved, ctx, tol=CERT_TOL))
    coarse, fine = (
        call(rec, generator.chernoff_residual, gen, CHERNOFF_T, steps)
        for steps in CHERNOFF_STEPS
    )
    require(
        coarse <= ROUNDOFF_FLOOR or fine <= CHERNOFF_RATIO * coarse,
        f"Chernoff residual {coarse:.3e} -> {fine:.3e}",
    )

    psi_back, rep = call(rec, generator.recover_cp_from_generator, gen, tol=CERT_TOL)
    certified(rec, rep)
    certified(rec, call(rec, superop.is_cp, psi_back, tol=ctx.tol))
    certified(rec, call(rec, superop.is_kms_symmetric, psi_back, ctx))

    certified(
        rec,
        call(
            rec,
            generator.dirichlet_contraction_check,
            gen,
            trials=DIRICHLET_TRIALS,
            tol=CERT_TOL,
            seed=seed,
        ),
    )
    rng = np.random.default_rng(seed + 13)
    for _ in range(DIRICHLET_TRIALS):
        a = instances.ginibre(rng, gen.dim)
        b = instances.ginibre(rng, gen.dim)
        certified(rec, call(rec, generator.energy_product_inequality, gen, a, b, tol=CERT_TOL))
    cyclic = abs(generator.dirichlet_energy(gen, ctx.sqrt_rho))
    require(cyclic <= CYCLIC_ENERGY_TOL * max(1.0, gen.L.norm), f"E(rho^1/2) = {cyclic:.3e}")

    certified(rec, call(rec, vtransform.v_transform_cptp_certificate, ctx))
    certified(rec, call(rec, vtransform.markov_preservation_check, markov, ctx, tol=CERT_TOL))


def certify_op(rec, seed: int, workdir) -> None:
    for n in CERTIFY_DIMS:
        ctx, psi = call(rec, instances.random_instance, n, seed)
        certify_instance(rec, ctx, psi, seed)


# ------------------------------------------------------------- derive-n4


def seeded_generator(rec, n: int, seed: int):
    """The seeded (generator, Psi) pair `derive` builds without --gen."""
    ctx, psi = call(rec, instances.random_instance, n, seed)
    gen = call(rec, generator.generator_from_cp, psi, ctx)
    for rep in gen.certificates.values():
        certified(rec, rep)
    return gen, psi


def derive_instance(rec, gen, psi) -> None:
    """`derive --method both`: the derivation calls in the order cli.py
    makes them, with every report and the innerness residual gated."""
    calc = call(rec, derivation.gns_calculus, gen)
    rec.count("derivation.gns_calculus.dim_h", calc.dim_h)
    rec.count("derivation.gns_calculus.bytes", calculus_bytes(calc))
    certified(rec, call(rec, derivation.calculus_invariants_report, calc, gen))
    fam = call(rec, derivation.extract_commutators_gns, calc, gen)
    rec.count("derivation.extract_commutators_gns.family_size", len(fam))
    certified(rec, call(rec, derivation.verify_commutator_form, fam, gen))
    _, residual = call(rec, derivation.inner_vector, calc)
    require(residual <= INNER_RESIDUAL_TOL, f"innerness residual {residual:.3e}")

    fam_k = call(rec, derivation.extract_commutators_kraus, gen, psi)
    rec.count("derivation.extract_commutators_kraus.family_size", len(fam_k))
    certified(rec, call(rec, derivation.verify_commutator_form, fam_k, gen))
    calc_k = call(rec, derivation.commutator_calculus, fam_k, gen)
    rec.count("derivation.commutator_calculus.bytes", calculus_bytes(calc_k))
    _, witness = call(rec, derivation.uniqueness_witness, calc, calc_k, gen)
    certified(rec, witness)


def derive_n4_op(rec, seed: int, workdir) -> None:
    for n in DERIVE_N4_DIMS:
        gen, psi = seeded_generator(rec, n, seed)
        derive_instance(rec, gen, psi)


# ---------------------------------------------------------- derive-small


def run_cli(rec, name: str, argv: list) -> tuple:
    """Run ``kmsflow.cli.main`` in-process; returns (exit code, wall seconds,
    captured stdout)."""
    out = io.StringIO()
    with rec.span(name), contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return code, wall, out.getvalue()


def derive_and_verify(rec, argv: list, report_path) -> tuple:
    """`derive ... --out FILE` then `verify --report FILE`, both gated.
    Returns (report bytes, stage seconds named in timings_s, derive wall).
    The bytes are those of the report as the CLI serializes it, less its
    timings_s, whose float digits vary from run to run."""
    code, wall, _ = run_cli(rec, "cli.derive", [*argv, "--out", str(report_path)])
    require(code == cli.EXIT_PASS, f"derive exited {code}")
    doc = json.loads(report_path.read_text())
    require(doc.get("pass") is True, "derive report does not pass")
    for result in doc["results"].values():
        if isinstance(result, dict) and "checks" in result:
            rec.report(result)
    stages = sum(v for k, v in doc["timings_s"].items() if k != "total")

    code, _, text = run_cli(rec, "cli.verify", ["verify", "--report", str(report_path)])
    require(code == cli.EXIT_PASS, f"verify exited {code}")
    checked = json.loads(text)["results"]
    require(checked["idempotent"]["pass"] is True, "verify found a mismatch")
    require(len(checked) > 1, "verify found no report to re-check")
    content = {k: v for k, v in doc.items() if k != "timings_s"}
    return len(serialize.dump_json(content).encode()), stages, wall


def derive_small_op(rec, seed: int, workdir) -> None:
    size = stages = wall = 0.0
    for n in DERIVE_SMALL_DIMS:
        argv = ["derive", "--method", "both", "--n", str(n), "--seed", str(seed)]
        b, s, w = derive_and_verify(rec, argv, workdir / f"derive-n{n}.json")
        size, stages, wall = size + b, stages + s, wall + w
    rec.count("cli.report_bytes", int(size))
    rec.count("cli.timings_coverage", stages / wall)


WORKLOADS = {
    "certify": certify_op,
    "derive-small": derive_small_op,
    "derive-n4": derive_n4_op,
}


def per_layer_metrics(rec, traced_ops: int, overhead_frac: float) -> dict:
    """Every per-layer metric from a traced run; a module or report the
    workload never reaches reads 0."""
    metrics = {}
    busy = rec.self_times()
    for name in BUSY_SPANS:
        metrics[f"{name}.busy_s"] = busy.get(name, 0.0) / max(traced_ops, 1)
    for name, _ in COUNTS:
        values = rec.counts.get(name)
        metrics[name] = statistics.median(values) if values else 0
    for name in REPORT_NAMES:
        metrics[f"{name}.margin_max"] = rec.margins.get(name, 0.0)
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics
