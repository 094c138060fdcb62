"""Command-line front end.

One command is one process; every run, a command line the parser rejects
included, emits a single JSON report on stdout containing a schema version,
timings, seeds, tolerances and every metric produced.  Reports and the
documents a command writes (--out, --dump, --rho-out, --psi-out) are
single-line JSON through ``serialize.dump_json``; ``python -m json.tool
report.json`` prints one indented, with the same values.  Exit codes: 0 all
certifications passed, 1 certification failure, 2 schema or usage error, 3
infeasible recovery (no admissible CP map: -L is not CCN).  A rejected
command line, an abbreviated option included, is a usage error whose
``command`` is the first argument, or null when there is none; only --help
prints argparse's help instead of a report.  Input files whose dimensions
disagree (--rho against --superop, --psi or --gen, or --psi against the
generator), an input map at a level its command cannot read (--psi or --gen
at the L2 level, or an L2-level ``check --superop`` with --rho or
--generator), an unknown ``random --config`` key, and a report for
``verify`` whose checks or "pass" are malformed are schema errors; an --n
that contradicts --rho, an --n, --seed or --kraus-rank that contradicts the
``random --config`` file or an n that contradicts its "rho", and an output
file that cannot be written are usage errors.

The seeded commands and ``random`` read their inputs the same way: the
values of a ``random --config`` file are the defaults of the flags not
given, and n defaults to the dimension of the given density (--rho or the
config's "rho"), else 2.  The top-level ``n`` of a seeded command is the
dimension that ran, and the top-level ``seed`` of ``random`` the seed that
ran.  Every command that draws or certifies a generator times it as
``timings_s.generator``.

``uniqueness`` is ``derive --method both``: the same pipeline, reports and
timing keys.  Each certificate is measured once, by its report, and a
failed report exits 1 without an ``error``; ``error`` is set only when an
object cannot be built.  A Gram mismatch between the two routes' calculi is
such a failed report: the ``gram_mismatch_max`` check of
``results.uniqueness``.  Beside the reports, ``results.dims`` records n and,
per route that ran, dim H, m and the family size; it is not a report, so
``verify`` walks past it.

--tol must be finite and > 0, and only the commands that read it declare
it: check, gen-from-cp, recover-cp, simulate and dirichlet-check, and derive
and uniqueness, which read it only with --gen.  Anything else is a usage
error (exit 2), and so is --psi with ``derive --method gns``.  It bounds
every report of check and gen-from-cp, of simulate and of dirichlet-check,
and recover-cp's roundtrip_residual and Psi's kms_symmetric, not its
min_choi_eig (is_cp at the density's tol); with --gen, also the generator.

The argument parser is built once per process and reused by every later
:func:`main` call, which saves its set-up for in-process callers that run
several commands; parsing leaves it unchanged.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from . import derivation, instances, serialize, superop, vtransform
from . import generator as generator_mod
from .errors import Infeasible, KmsflowError, MeasuredFailure, ReportError, SchemaError
from .matrix_core import opnorm
from .reports import Check, Report

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3

# error class -> (error type, exit code); the first class that matches wins,
# and a None type is the class name
_ERRORS = {
    SchemaError: ("schema", EXIT_SCHEMA),
    ValueError: ("usage", EXIT_SCHEMA),
    Infeasible: ("infeasible", EXIT_INFEASIBLE),
    ReportError: ("certification", EXIT_FAIL),
    KmsflowError: (None, EXIT_FAIL),
}


class _Parser(argparse.ArgumentParser):
    """Rejects a command line, an abbreviated option included, with a usage
    error (ValueError) instead of exiting; its subparsers inherit the class."""

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        raise ValueError(message)


def _tolerance(text: str) -> float:
    """The type of --tol: a float that is finite and > 0."""
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {tol!r}")
    return tol


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kmsflow",
        description="Certify, transform and differentiate KMS-symmetric "
        "Markov generators on matrix algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, rho=False, tol=False, seeded=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--out", default=None, help="write the report JSON to this file")
        if rho:
            p.add_argument("--rho", default=None, help="density context JSON file")
        if tol:
            p.add_argument("--tol", type=_tolerance, default=None,
                           help="tolerance override, finite and > 0")
        if seeded:
            p.set_defaults(rho=None, config=None)  # random has no --rho, the rest no --config
            p.add_argument("--seed", type=int, default=0, help="instance seed")
            p.add_argument("--n", type=int, default=None,
                           help="matrix dimension (default: that of the density, else 2)")
            p.add_argument("--kraus-rank", type=int, default=None)
            p.add_argument(
                "--cond-bound",
                type=float,
                default=100.0,
                help="condition bound of the seeded density ensemble",
            )
        if rho and seeded:  # a seeded command that reads a density reads a generator too
            p.add_argument("--gen", default=None, help="generator superoperator JSON file")
        return p

    p = command("check", _check, "certify a superoperator (CP, KMS symmetry, CND)",
                rho=True, tol=True)
    p.add_argument("--superop", required=True, help="superoperator JSON file")
    p.add_argument("--generator", action="store_true", help="certify L(I) = 0 and CND, not CP")

    p = command("vtransform", _vtransform, "apply the V-transform to a superoperator", rho=True)
    p.add_argument("--superop", required=True)
    p.add_argument("--quadrature", type=int, default=0,
                   help="also run the quadrature oracle with this many steps")

    p = command("gen-from-cp", _gen_from_cp, "build a certified generator from a CP map",
                rho=True, tol=True)
    p.add_argument("--psi", required=True, help="superoperator JSON file")

    command("recover-cp", _recover_cp, "recover an admissible CP map from a generator",
            rho=True, tol=True, seeded=True)

    p = command("derive", _derive, "construct the first-order calculus and commutator family",
                rho=True, tol=True, seeded=True)
    p.add_argument("--method", choices=("gns", "kraus", "both"), default="both")
    p.add_argument("--psi", default=None, help="CP map JSON file for the Kraus route")
    p.add_argument("--dump", default=None, help="write calculus/family JSON here")

    p = command("uniqueness", _derive, "derive --method both: both routes and their witness",
                rho=True, tol=True, seeded=True)
    p.add_argument("--psi", default=None)
    p.set_defaults(method="both", dump=None)

    p = command("simulate", _simulate, "semigroup evolution and Chernoff residuals",
                rho=True, tol=True, seeded=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--steps", type=int, nargs="+", default=[8, 64])

    p = command("dirichlet-check", _dirichlet_check,
                "Dirichlet form contraction and product checks", rho=True, tol=True, seeded=True)
    p.add_argument("--trials", type=int, default=50)

    p = command("random", _random, "emit a seeded random instance (rho and Psi)", seeded=True)
    p.add_argument("--rho-out", default=None)
    p.add_argument("--psi-out", default=None)
    p.add_argument("--config", default=None,
                   help='instance config JSON: {"n", "seed", "rho": "random"|matrix,'
                        ' "kraus_rank"}')
    p.set_defaults(seed=None)  # None: no --seed given, so a config seed may set it

    p = command("verify", _verify, "re-evaluate the verdicts of a report JSON")
    p.add_argument("--report", required=True)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": argv[0] if argv else None,
        "results": {},
        "timings_s": {},
    }
    out = None
    try:
        args = _build_parser().parse_args(argv)
        out = args.out
        for key in ("seed", "n", "tol"):
            if vars(args).get(key) is not None:
                report[key] = vars(args)[key]
        t0 = time.perf_counter()
        args.run(args, report)
    except (KmsflowError, ValueError) as exc:
        kind, code = next(v for cls, v in _ERRORS.items() if isinstance(exc, cls))
        report["error"] = {"type": kind or type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ReportError) and exc.report is not None:
            report["results"][exc.report.name] = exc.report.to_json_dict()
        if isinstance(exc, MeasuredFailure):
            for key in ("value", "bound"):
                if getattr(exc, key) is not None:
                    report["error"][key] = getattr(exc, key)
        if code == EXIT_FAIL:
            report["pass"] = False
    else:
        report["timings_s"]["total"] = time.perf_counter() - t0
        report["pass"] = all(
            r.get("pass", True) for r in report["results"].values() if isinstance(r, dict)
        )
        code = EXIT_PASS if report["pass"] else EXIT_FAIL
    try:
        text = serialize.dump_json(report, out)
    except ValueError as exc:  # --out cannot be written
        report.pop("pass", None)
        report["error"] = {"type": "usage", "message": str(exc)}
        code = EXIT_SCHEMA
        text = serialize.dump_json(report)
    print(text)
    return code


def _timed(timings: dict, name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), its wall time recorded as timings[name]."""
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    timings[name] = time.perf_counter() - t
    return out


def _load_context(args):
    """Density context from --rho when given, else None."""
    if args.rho:
        return serialize.density_from_json(serialize.load_json(args.rho), args.rho)
    return None


def _load_superop(path, dim, level, against):
    """The superoperator JSON file ``path``; a SchemaError when ``dim`` is
    given and differs from its dimension (``against`` names where ``dim``
    came from), or when ``level`` is given and differs from its level."""
    s = serialize.superop_from_json(serialize.load_json(path), path)
    if dim is not None and s.dim != dim:
        raise SchemaError(f"{path}: dimension {s.dim} differs from {against} of dimension {dim}")
    if level is not None and s.level != level:
        raise SchemaError(f"{path}: level {s.level!r}, where {level!r} is needed")
    return s


def _seeded_inputs(args) -> tuple:
    """(n, seed, Kraus rank, density context or None) of a seeded command.
    The values of a ``random --config`` file are the defaults of the flags
    not given; the density is that of --rho or of the config's "rho" (None
    when it is drawn from the seed), and n defaults to its dimension, else 2."""
    given = {"n": args.n, "seed": args.seed, "kraus_rank": args.kraus_rank}
    ctx = _load_context(args)
    if ctx is not None and args.n not in (None, ctx.dim):
        raise ValueError(f"--n {args.n} contradicts --rho {args.rho} of dimension {ctx.dim}")
    if args.config:
        cfg = serialize.load_json(args.config)
        if not isinstance(cfg, dict):
            raise SchemaError(f"{args.config}: expected an object")
        unknown = sorted(set(cfg) - {*given, "rho"})
        if unknown:
            raise SchemaError(f"{args.config}: unknown keys {unknown}")
        for key, flag in given.items():
            if key not in cfg:
                continue
            value = cfg[key]
            full_rank = value is None and key == "kraus_rank"
            if not full_rank and (isinstance(value, bool) or not isinstance(value, int)):
                raise SchemaError(f"{args.config}: {key!r} must be an integer")
            if flag not in (None, value):
                raise ValueError(
                    f"--{key.replace('_', '-')} {flag} contradicts {key!r} = {value!r}"
                    f" in --config {args.config}"
                )
            given[key] = value
        if cfg.get("rho", "random") != "random":
            ctx = serialize.density_from_json(cfg["rho"], f"{args.config}:rho")
    n = given["n"]
    if n is None:
        n = 2 if ctx is None else ctx.dim
    seed = 0 if given["seed"] is None else given["seed"]
    return n, seed, given["kraus_rank"], ctx


def _seeded_generator(args, report):
    """(generator, Psi or None): --gen certified, else the seeded draw, timed
    as ``generator``; records the dimension that ran as the report's n."""
    n, seed, kraus_rank, ctx = _seeded_inputs(args)
    timings = report["timings_s"]
    if args.gen:
        if ctx is None:
            raise SchemaError("--gen requires --rho")
        lgen = _load_superop(args.gen, n, superop.ALGEBRA, f"--rho {args.rho}")
        gen = _timed(timings, "generator", generator_mod.certify_generator, lgen, ctx, tol=args.tol)
        psi = None
    else:
        gen, psi = _timed(
            timings, "generator", instances.random_generator, n, seed,
            kraus_rank=kraus_rank, cond_bound=args.cond_bound, ctx=ctx,
        )
    report["n"] = gen.dim
    return gen, psi


def _check(args, report) -> None:
    results = report["results"]
    tol = args.tol
    ctx = _load_context(args)
    dim = None if ctx is None else ctx.dim
    # KMS symmetry and the generator certificates read an algebra-level map
    level = superop.ALGEBRA if ctx is not None or args.generator else None
    s = _load_superop(args.superop, dim, level, f"--rho {args.rho}")
    map_tol = 1e-9 if tol is None else tol
    if args.generator:  # a nonzero generator is never CP
        rep = superop.unital_kernel_report(s, map_tol)
    else:
        rep = superop.is_cp(s, tol=map_tol)
    results[rep.name] = rep.to_json_dict()
    # a generator is certified in certify_generator's order, up to the first
    # certificate that fails
    if ctx is not None and (rep.passed or not args.generator):
        rep = superop.is_kms_symmetric(s, ctx, tol=ctx.tol if tol is None else tol)
        results[rep.name] = rep.to_json_dict()
    if args.generator and rep.passed:
        results["ccn"] = superop.is_ccn(s, tol=map_tol).to_json_dict()


def _vtransform(args, report) -> None:
    results = report["results"]
    if not args.rho:
        raise SchemaError("vtransform requires --rho")
    ctx = _load_context(args)
    s = _load_superop(args.superop, ctx.dim, None, f"--rho {args.rho}")
    transformed = _timed(report["timings_s"], "v_transform", vtransform.v_transform, s, ctx)
    results["transformed"] = serialize.superop_to_json(transformed)
    # W inverts V: ||W(V(S)) - S|| within the density's tol, relative to ||S||
    inverse = vtransform.w_transform(transformed, ctx)
    rep = Report(name="inverse_residual", tol=ctx.tol)
    rep.checks.append(Check("wv_residual", opnorm(inverse.mat - s.mat),
                            ctx.tol * max(1.0, s.norm), "le"))
    results[rep.name] = rep.to_json_dict()
    results["v_cptp"] = vtransform.v_transform_cptp_certificate(ctx).to_json_dict()
    if args.quadrature:
        quad, info = vtransform.v_transform_quadrature(s, ctx, steps=args.quadrature)
        info["closed_form_distance"] = opnorm(quad.mat - transformed.mat)
        results["quadrature"] = info


def _gen_from_cp(args, report) -> None:
    results = report["results"]
    if not args.rho:
        raise SchemaError("gen-from-cp requires --rho")
    ctx = _load_context(args)
    psi = _load_superop(args.psi, ctx.dim, superop.ALGEBRA, f"--rho {args.rho}")
    gen = _timed(report["timings_s"], "generator", generator_mod.generator_from_cp,
                 psi, ctx, tol=args.tol)
    for name, rep in gen.certificates.items():
        results[name] = rep.to_json_dict()
    results["generator"] = serialize.superop_to_json(gen.L)
    results["generator_l2"] = serialize.superop_to_json(gen.L2)


def _recover_cp(args, report) -> None:
    results = report["results"]
    gen, _ = _seeded_generator(args, report)
    psi, rep = _timed(report["timings_s"], "recover", generator_mod.recover_cp_from_generator,
                      gen, tol=1e-8 if args.tol is None else args.tol)
    results["recover_cp"] = rep.to_json_dict()
    results["psi"] = serialize.superop_to_json(psi)
    psi_tol = 1e-9 if args.tol is None else args.tol
    results["kms_symmetric"] = superop.is_kms_symmetric(psi, gen.ctx, tol=psi_tol).to_json_dict()


def _derive(args, report) -> None:  # uniqueness is derive --method both
    if args.tol is not None and not args.gen:
        raise ValueError(f"{args.command} reads --tol only with --gen")
    if args.psi and args.method == "gns":
        raise ValueError("derive --method gns reads no --psi: only the Kraus route does")
    results = report["results"]
    timed = functools.partial(_timed, report["timings_s"])
    gen, psi = _seeded_generator(args, report)
    if args.psi:
        psi = _load_superop(args.psi, gen.dim, superop.ALGEBRA, "the generator")
    dims = results["dims"] = {"n": gen.dim}
    dump = {}
    if args.method in ("gns", "both"):
        calc = timed("gns_calculus", derivation.gns_calculus, gen)
        dims["gns"] = {"dim_h": calc.dim_h, "m": calc.m}
        results["calculus_invariants"] = timed(
            "calculus_invariants", derivation.calculus_invariants_report, calc, gen
        ).to_json_dict()
        fam = timed("extract_commutators_gns", derivation.extract_commutators_gns, calc, gen)
        dims["gns"]["family_size"] = len(fam)
        results["gns_form"] = timed(
            "gns_form", derivation.verify_commutator_form, fam, gen
        ).to_json_dict()
        if args.dump:
            dump["gns_calculus"] = serialize.calculus_to_json(calc)
            dump["gns_family"] = serialize.family_to_json(fam)
    if args.method in ("kraus", "both"):
        fam_k = timed("kraus_route", derivation.extract_commutators_kraus, gen, psi)
        dims["kraus"] = {"family_size": len(fam_k)}
        results["kraus_form"] = timed(
            "kraus_form", derivation.verify_commutator_form, fam_k, gen
        ).to_json_dict()
        if args.dump:
            dump["kraus_family"] = serialize.family_to_json(fam_k)
    if args.method == "both":
        calc_k = timed("commutator_calculus", derivation.commutator_calculus, fam_k, gen)
        dims["kraus"].update(dim_h=calc_k.dim_h, m=calc_k.m)
        _, wit = timed("uniqueness_witness", derivation.uniqueness_witness, calc, calc_k, gen)
        results["uniqueness"] = wit.to_json_dict()
    if args.dump:
        serialize.dump_json(dump, args.dump)


def _simulate(args, report) -> None:
    results = report["results"]
    gen, _ = _seeded_generator(args, report)
    # cond(V) of the eig that evolve reads, the amplifier of its rounding
    _, v, v_inv = gen.l2_spectrum
    eig_condition = opnorm(v) * opnorm(v_inv)
    for t in (0.1, 1.0, 10.0):
        rep = superop.is_markov_l2(generator_mod.evolve(gen, t), gen.ctx,
                                   tol=1e-8 if args.tol is None else args.tol)
        rep.metrics["eig_condition"] = eig_condition
        results[f"markov_t={t:g}"] = rep.to_json_dict()
    residuals = {}
    for steps in args.steps:
        residuals[str(steps)] = generator_mod.chernoff_residual(gen, args.t, steps)
    results["chernoff_residuals"] = residuals


def _dirichlet_check(args, report) -> None:
    results = report["results"]
    gen, _ = _seeded_generator(args, report)
    tol = 1e-8 if args.tol is None else args.tol
    results["contraction"] = generator_mod.dirichlet_contraction_check(
        gen, trials=args.trials, tol=tol, seed=args.seed
    ).to_json_dict()
    rng = np.random.default_rng(args.seed + 13)
    n = gen.dim
    worst = None
    for _ in range(args.trials):
        a = instances.ginibre(rng, n)
        b = instances.ginibre(rng, n)
        rep = generator_mod.energy_product_inequality(gen, a, b, tol=tol)
        if worst is None or rep.check("excess").value > worst.check("excess").value:
            worst = rep
    results["energy_product_worst"] = worst.to_json_dict()
    results["cyclic_energy"] = float(generator_mod.dirichlet_energy(gen, gen.ctx.sqrt_rho))


def _random(args, report) -> None:
    results = report["results"]
    n, seed, kraus_rank, ctx = _seeded_inputs(args)
    ctx, psi = instances.random_instance(
        n, seed, kraus_rank=kraus_rank, cond_bound=args.cond_bound, ctx=ctx
    )
    report["seed"] = seed
    report["n"] = ctx.dim
    rho_doc = serialize.density_to_json(ctx)
    psi_doc = serialize.superop_to_json(psi)
    if args.rho_out:
        serialize.dump_json(rho_doc, args.rho_out)
    if args.psi_out:
        serialize.dump_json(psi_doc, args.psi_out)
    results["rho"] = rho_doc
    results["psi"] = psi_doc


def _verify(args, report) -> None:
    results = report["results"]
    doc = serialize.load_json(args.report)
    mismatches = []

    def walk(node, path):
        if isinstance(node, dict):
            if "checks" in node and "pass" in node:
                try:
                    rep = Report.from_json_dict(node)
                except SchemaError as exc:
                    raise SchemaError(f"{args.report}: report at {path or '/'}: {exc}") from exc
                agree = rep.passed == node["pass"]
                if not agree:
                    mismatches.append(path)
                results[path or rep.name] = {
                    "stored_pass": node["pass"], "recomputed_pass": rep.passed, "pass": agree,
                }
            else:
                for k, v in node.items():
                    walk(v, f"{path}/{k}" if path else str(k))

    walk(doc, "")
    results["idempotent"] = {"pass": not mismatches, "mismatches": mismatches}


if __name__ == "__main__":
    sys.exit(main())
