"""Command-line front end.

One command is one process; every run emits a single JSON report on stdout
containing a schema version, timings, seeds, tolerances and every metric
produced.  Exit codes: 0 all certifications passed, 1 certification failure,
2 schema or parse error, 3 infeasible recovery (no admissible CP map: -L is
not CCN).  Input files whose dimensions disagree (--rho against --superop,
--psi or --gen, or --psi against the generator), an input map at a level
its command cannot read (--psi or --gen at the L2 level, or an L2-level
``check --superop`` with --rho or --generator), and a report for ``verify``
whose checks are malformed are schema errors; an --n that contradicts
--rho, and an --n, --seed or --kraus-rank that contradicts the ``random
--config`` file, are usage errors.  The top-level ``n`` of a seeded
command is the dimension that ran, and the top-level ``seed`` of ``random``
the seed that ran, from --config when the file sets one.

``uniqueness`` is ``derive --method both``: the same pipeline, reports and
timing keys.  Each certificate is measured once, by its report, and a
failed report exits 1 without an ``error``; ``error`` is set only when an
object cannot be built.  A Gram mismatch between the two routes' calculi is
such a failed report: the ``gram_mismatch_max`` check of
``results.uniqueness``.  Beside the reports, ``results.dims`` records n and,
per route that ran, dim H, m and the family size; it is not a report, so
``verify`` walks past it.

--tol, when given, must be finite and > 0, and is accepted only by the
commands that read it: check, gen-from-cp, recover-cp, simulate and
dirichlet-check, and derive and uniqueness with --gen.  Anything else is a
usage error (exit 2).

The argument parser is built once per process and reused by every later
:func:`main` call, which saves its set-up for in-process callers that run
several commands; parsing leaves it unchanged.

KMSFLOW_THREADS, when set, is exported to the BLAS thread-count variables
before the numerical stack loads.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3

if os.environ.get("KMSFLOW_THREADS"):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, os.environ["KMSFLOW_THREADS"])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmsflow",
        description="Certify, transform and differentiate KMS-symmetric "
        "Markov generators on matrix algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, rho=False, seeded=False):
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--out", default=None, help="write the report JSON to this file")
        if rho:
            p.add_argument("--rho", default=None, help="density context JSON file")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="instance seed")
            p.add_argument("--n", type=int, default=None,
                           help="matrix dimension (default: that of --rho, else 2)")
            p.add_argument("--kraus-rank", type=int, default=None)
            p.add_argument(
                "--cond-bound",
                type=float,
                default=100.0,
                help="condition bound of the seeded density ensemble",
            )

    p = sub.add_parser("check", help="certify a superoperator (CP, KMS symmetry, CND)")
    p.add_argument("--superop", required=True, help="superoperator JSON file")
    p.add_argument("--generator", action="store_true", help="certify L(I) = 0 and CND, not CP")
    add_common(p, rho=True)

    p = sub.add_parser("vtransform", help="apply the V-transform to a superoperator")
    p.add_argument("--superop", required=True)
    p.add_argument("--quadrature", type=int, default=0,
                   help="also run the quadrature oracle with this many steps")
    add_common(p, rho=True)

    p = sub.add_parser("gen-from-cp", help="build a certified generator from a CP map")
    p.add_argument("--psi", required=True, help="superoperator JSON file")
    add_common(p, rho=True)

    p = sub.add_parser("recover-cp", help="recover an admissible CP map from a generator")
    p.add_argument("--gen", default=None, help="generator superoperator JSON file")
    add_common(p, rho=True, seeded=True)

    p = sub.add_parser("derive", help="construct the first-order calculus and commutator family")
    p.add_argument("--method", choices=("gns", "kraus", "both"), default="both")
    p.add_argument("--gen", default=None, help="generator superoperator JSON file")
    p.add_argument("--psi", default=None, help="CP map JSON file for the Kraus route")
    p.add_argument("--dump", default=None, help="write calculus/family JSON here")
    add_common(p, rho=True, seeded=True)

    p = sub.add_parser("uniqueness", help="derive --method both: both routes and their witness")
    p.add_argument("--gen", default=None)
    p.add_argument("--psi", default=None)
    add_common(p, rho=True, seeded=True)

    p = sub.add_parser("simulate", help="semigroup evolution and Chernoff residuals")
    p.add_argument("--gen", default=None)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--steps", type=int, nargs="+", default=[8, 64])
    add_common(p, rho=True, seeded=True)

    p = sub.add_parser("dirichlet-check", help="Dirichlet form contraction and product checks")
    p.add_argument("--gen", default=None)
    p.add_argument("--trials", type=int, default=50)
    add_common(p, rho=True, seeded=True)

    p = sub.add_parser("random", help="emit a seeded random instance (rho and Psi)")
    p.add_argument("--rho-out", default=None)
    p.add_argument("--psi-out", default=None)
    p.add_argument("--config", default=None,
                   help='instance config JSON: {"n", "seed", "rho": "random"|matrix,'
                        ' "kraus_rank"}')
    add_common(p, seeded=True)
    p.set_defaults(seed=None)  # None: no --seed given, so a config seed may set it

    p = sub.add_parser("verify", help="re-evaluate the verdicts of a report JSON")
    p.add_argument("--report", required=True)
    add_common(p)
    return parser


# derive and uniqueness read --tol only to certify a --gen file
_TOL_NEEDS_GEN = ("derive", "uniqueness")
_TOL_UNREAD = ("vtransform", "random", "verify")


def _check_tol(args) -> None:
    """Reject a --tol that is not finite and > 0, or that nothing reads."""
    tol = args.tol
    if tol is None:
        return
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"--tol must be finite and > 0, got {tol!r}")
    if args.command in _TOL_UNREAD:
        raise ValueError(f"{args.command} reads no --tol")
    if args.command in _TOL_NEEDS_GEN and not args.gen:
        raise ValueError(f"{args.command} reads --tol only with --gen")


def _load_context(args, serialize):
    """Density context from --rho when given, else None (seeded draw).
    Raises ValueError when --n is given and differs from its dimension."""
    if getattr(args, "rho", None):
        ctx = serialize.density_from_json(serialize.load_json(args.rho), args.rho)
        if getattr(args, "n", None) not in (None, ctx.dim):
            raise ValueError(f"--n {args.n} contradicts --rho {args.rho} of dimension {ctx.dim}")
        return ctx
    return None


def _load_superop(path, dim, level, against, serialize):
    """The superoperator JSON file ``path``; a SchemaError when ``dim`` is
    given and differs from its dimension (``against`` names where ``dim``
    came from), or when ``level`` is given and differs from its level."""
    s = serialize.superop_from_json(serialize.load_json(path), path)
    if dim is not None and s.dim != dim:
        raise serialize.SchemaError(
            f"{path}: dimension {s.dim} differs from {against} of dimension {dim}"
        )
    if level is not None and s.level != level:
        raise serialize.SchemaError(f"{path}: level {s.level!r}, where {level!r} is needed")
    return s


def _seeded_generator(args, serialize, report):
    """(generator, Psi or None) from --gen or the seeded ensemble, with
    --psi when given; records the dimension that ran as the report's n."""
    from . import generator as generator_mod
    from . import instances
    from .superop import ALGEBRA

    ctx = _load_context(args, serialize)
    psi = None
    if getattr(args, "gen", None):
        if ctx is None:
            raise serialize.SchemaError("--gen requires --rho")
        lgen = _load_superop(args.gen, ctx.dim, ALGEBRA, f"--rho {args.rho}", serialize)
        gen = generator_mod.certify_generator(lgen, ctx, tol=args.tol)
    else:
        n = ctx.dim if ctx is not None else (2 if args.n is None else args.n)
        gen, psi = instances.random_generator(
            n, args.seed, kraus_rank=args.kraus_rank,
            cond_bound=args.cond_bound, ctx=ctx,
        )
    report["n"] = gen.dim
    if getattr(args, "psi", None):
        psi = _load_superop(args.psi, gen.dim, ALGEBRA, "the generator", serialize)
    return gen, psi


def _emit(report: dict, out_path, serialize) -> None:
    text = serialize.dump_json(report, out_path)
    print(text)


def _report_skeleton(args) -> dict:
    rep = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "results": {},
        "timings_s": {},
    }
    for key in ("seed", "n"):
        if getattr(args, key, None) is not None:
            rep[key] = getattr(args, key)
    return rep


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from . import serialize
    from .errors import (
        CertificationFailed,
        Infeasible,
        KmsflowError,
        PreconditionFailed,
        SchemaError,
    )

    report = _report_skeleton(args)
    t0 = time.perf_counter()
    try:
        code = _dispatch(args, report, serialize)
    except SchemaError as exc:
        report["error"] = {"type": "schema", "message": str(exc)}
        _emit(report, args.out, serialize)
        return EXIT_SCHEMA
    except ValueError as exc:
        report["error"] = {"type": "usage", "message": str(exc)}
        _emit(report, args.out, serialize)
        return EXIT_SCHEMA
    except Infeasible as exc:
        report["error"] = {"type": "infeasible", "message": str(exc)}
        if exc.report is not None:
            report["results"]["recover_cp"] = exc.report.to_json_dict()
        _emit(report, args.out, serialize)
        return EXIT_INFEASIBLE
    except (PreconditionFailed, CertificationFailed) as exc:
        report["error"] = {"type": "certification", "message": str(exc)}
        if exc.report is not None:
            report["results"][exc.report.name] = exc.report.to_json_dict()
        report["pass"] = False
        _emit(report, args.out, serialize)
        return EXIT_FAIL
    except KmsflowError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        for key in ("value", "bound"):
            if getattr(exc, key, None) is not None:
                report["error"][key] = getattr(exc, key)
        report["pass"] = False
        _emit(report, args.out, serialize)
        return EXIT_FAIL
    report["timings_s"]["total"] = time.perf_counter() - t0
    passed = all(
        r.get("pass", True) for r in report["results"].values() if isinstance(r, dict)
    )
    report["pass"] = passed
    _emit(report, args.out, serialize)
    return EXIT_PASS if passed else EXIT_FAIL


def _dispatch(args, report: dict, serialize) -> int:
    import numpy as np

    from . import derivation, generator as generator_mod, instances, superop, vtransform

    _check_tol(args)
    if args.tol is not None:  # echoed only once accepted: a report is strict JSON
        report["tol"] = args.tol
    results = report["results"]
    timings = report["timings_s"]

    def timed(name, fn):
        t = time.perf_counter()
        out = fn()
        timings[name] = time.perf_counter() - t
        return out

    tol = args.tol

    if args.command == "check":
        ctx = _load_context(args, serialize)
        dim = None if ctx is None else ctx.dim
        # KMS symmetry and the generator certificates read an algebra-level map
        level = superop.ALGEBRA if ctx is not None or args.generator else None
        s = _load_superop(args.superop, dim, level, f"--rho {args.rho}", serialize)
        map_tol = 1e-9 if tol is None else tol
        if args.generator:  # a nonzero generator is never CP
            rep = superop.unital_kernel_report(s, map_tol)
        else:
            rep = superop.is_cp(s, tol=map_tol)
        results[rep.name] = rep.to_json_dict()
        # a generator is certified in certify_generator's order, up to the
        # first certificate that fails
        if ctx is not None and (rep.passed or not args.generator):
            rep = superop.is_kms_symmetric(s, ctx, tol=ctx.tol if tol is None else tol)
            results[rep.name] = rep.to_json_dict()
        if args.generator and rep.passed:
            results["ccn"] = superop.is_ccn(s, tol=map_tol).to_json_dict()
        return EXIT_PASS

    if args.command == "vtransform":
        if not getattr(args, "rho", None):
            raise serialize.SchemaError("vtransform requires --rho")
        ctx = _load_context(args, serialize)
        s = _load_superop(args.superop, ctx.dim, None, f"--rho {args.rho}", serialize)
        transformed = timed("v_transform", lambda: vtransform.v_transform(s, ctx))
        results["transformed"] = serialize.superop_to_json(transformed)
        inverse = vtransform.w_transform(transformed, ctx)
        results["inverse_residual"] = float(np.linalg.norm(inverse.mat - s.mat, 2))
        if args.quadrature:
            quad, info = vtransform.v_transform_quadrature(s, ctx, steps=args.quadrature)
            info["closed_form_distance"] = float(
                np.linalg.norm(quad.mat - transformed.mat, 2)
            )
            results["quadrature"] = info
        return EXIT_PASS

    if args.command == "gen-from-cp":
        if not getattr(args, "rho", None):
            raise serialize.SchemaError("gen-from-cp requires --rho")
        ctx = _load_context(args, serialize)
        psi = _load_superop(args.psi, ctx.dim, superop.ALGEBRA, f"--rho {args.rho}", serialize)
        gen = timed("generator", lambda: generator_mod.generator_from_cp(psi, ctx, tol=tol))
        for name, rep in gen.certificates.items():
            results[name] = rep.to_json_dict()
        results["generator"] = serialize.superop_to_json(gen.L)
        results["generator_l2"] = serialize.superop_to_json(gen.L2)
        return EXIT_PASS

    if args.command == "recover-cp":
        gen, _ = _seeded_generator(args, serialize, report)
        psi, rep = timed(
            "recover",
            lambda: generator_mod.recover_cp_from_generator(gen, tol=1e-8 if tol is None else tol),
        )
        results["recover_cp"] = rep.to_json_dict()
        results["psi"] = serialize.superop_to_json(psi)
        results["cp"] = superop.is_cp(psi, tol=gen.ctx.tol).to_json_dict()
        results["kms_symmetric"] = superop.is_kms_symmetric(psi, gen.ctx).to_json_dict()
        return EXIT_PASS

    if args.command in ("derive", "uniqueness"):  # uniqueness is derive --method both
        method = getattr(args, "method", "both")
        dump_path = getattr(args, "dump", None)
        gen, psi = _seeded_generator(args, serialize, report)
        dims = results["dims"] = {"n": gen.dim}
        dump = {}
        if method in ("gns", "both"):
            calc = timed("gns_calculus", lambda: derivation.gns_calculus(gen))
            dims["gns"] = {"dim_h": calc.dim_h, "m": calc.m}
            results["calculus_invariants"] = timed(
                "calculus_invariants", lambda: derivation.calculus_invariants_report(calc, gen)
            ).to_json_dict()
            fam = timed(
                "extract_commutators_gns", lambda: derivation.extract_commutators_gns(calc, gen)
            )
            dims["gns"]["family_size"] = len(fam)
            results["gns_form"] = timed(
                "gns_form", lambda: derivation.verify_commutator_form(fam, gen)
            ).to_json_dict()
            if dump_path:
                dump["gns_calculus"] = serialize.calculus_to_json(calc)
                dump["gns_family"] = serialize.family_to_json(fam)
        if method in ("kraus", "both"):
            fam_k = timed(
                "kraus_route", lambda: derivation.extract_commutators_kraus(gen, psi)
            )
            dims["kraus"] = {"family_size": len(fam_k)}
            results["kraus_form"] = timed(
                "kraus_form", lambda: derivation.verify_commutator_form(fam_k, gen)
            ).to_json_dict()
            if dump_path:
                dump["kraus_family"] = serialize.family_to_json(fam_k)
        if method == "both":
            calc_k = timed(
                "commutator_calculus", lambda: derivation.commutator_calculus(fam_k, gen)
            )
            dims["kraus"].update(dim_h=calc_k.dim_h, m=calc_k.m)
            _, wit = timed(
                "uniqueness_witness", lambda: derivation.uniqueness_witness(calc, calc_k, gen)
            )
            results["uniqueness"] = wit.to_json_dict()
        if dump_path:
            serialize.dump_json(dump, dump_path)
        return EXIT_PASS

    if args.command == "simulate":
        gen, _ = _seeded_generator(args, serialize, report)
        for t in (0.1, 1.0, 10.0):
            rep = superop.is_markov_l2(generator_mod.evolve(gen, t), gen.ctx,
                                       tol=1e-8 if tol is None else tol)
            results[f"markov_t={t:g}"] = rep.to_json_dict()
        residuals = {}
        for steps in args.steps:
            residuals[str(steps)] = generator_mod.chernoff_residual(gen, args.t, steps)
        results["chernoff_residuals"] = residuals
        return EXIT_PASS

    if args.command == "dirichlet-check":
        gen, _ = _seeded_generator(args, serialize, report)
        tol = 1e-8 if tol is None else tol
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
        results["cyclic_energy"] = float(
            generator_mod.dirichlet_energy(gen, gen.ctx.sqrt_rho)
        )
        return EXIT_PASS

    if args.command == "random":
        cfg, ctx0 = {}, None
        if args.config:
            cfg = serialize.load_json(args.config)
            if not isinstance(cfg, dict):
                raise serialize.SchemaError(f"{args.config}: expected an object")
            for key in ("n", "seed", "kraus_rank"):
                value = cfg.get(key, 0)  # an absent key keeps its default
                full_rank = value is None and key == "kraus_rank"
                if not full_rank and (isinstance(value, bool) or not isinstance(value, int)):
                    raise serialize.SchemaError(f"{args.config}: {key!r} must be an integer")
                flag = getattr(args, key)
                if key in cfg and flag not in (None, value):
                    raise ValueError(
                        f"--{key.replace('_', '-')} {flag} contradicts {key!r} = {value!r}"
                        f" in --config {args.config}"
                    )
            rho_spec = cfg.get("rho", "random")
            if rho_spec != "random":
                ctx0 = serialize.density_from_json(rho_spec, f"{args.config}:rho")
        n = cfg.get("n", 2 if args.n is None else args.n)
        seed = cfg.get("seed", 0 if args.seed is None else args.seed)
        ctx, psi = instances.random_instance(
            n, seed, kraus_rank=cfg.get("kraus_rank", args.kraus_rank),
            cond_bound=args.cond_bound, ctx=ctx0,
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
        return EXIT_PASS

    if args.command == "verify":
        from .reports import Report

        doc = serialize.load_json(args.report)
        mismatches = []

        def walk(node, path):
            if isinstance(node, dict):
                if "checks" in node and "pass" in node:
                    try:
                        rep = Report.from_json_dict(node)
                    except serialize.SchemaError as exc:
                        raise serialize.SchemaError(
                            f"{args.report}: report at {path or '/'}: {exc}"
                        ) from exc
                    if bool(rep.passed) != bool(node["pass"]):
                        mismatches.append(path)
                    results[path or rep.name] = {
                        "stored_pass": bool(node["pass"]),
                        "recomputed_pass": bool(rep.passed),
                        "pass": bool(rep.passed) == bool(node["pass"]),
                    }
                else:
                    for k, v in node.items():
                        walk(v, f"{path}/{k}" if path else str(k))

        walk(doc, "")
        results["idempotent"] = {"pass": not mismatches, "mismatches": mismatches}
        return EXIT_PASS

    raise serialize.SchemaError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
