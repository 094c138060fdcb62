"""JSON schemas for matrices, density contexts, superoperators and reports.

Matrix object: {"n": int, "re": [[float]], "im": [[float]]} (row-major),
"re" and "im" each n x n.
Density context adds {"tol": float}.  Superoperator:
{"n": int, "level": "algebra"|"l2", "re": [[float]], "im": [[float]]} with
the n^2 x n^2 matrix over the column-stacking vectorization.  Numbers are
emitted through Python's repr, which round-trips doubles exactly.  Readers
reject non-finite entries (``NaN``, ``Infinity``), which Python's json
parser accepts, and a density ``tol`` that is not a finite number > 0
(booleans included).

:func:`dump_json` writes every document and report as single-line JSON:
keys, their order and every value are those of the object; there are no
newlines or indentation between tokens.  ``python -m json.tool report.json``
prints one indented.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DimensionMismatch, NotHermitian, SchemaError
from .matrix_core import DensityContext
from .superop import ALGEBRA, L2, Superoperator


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise SchemaError(f"{where}: missing key {key!r}")
    return d[key]


def _array(d: dict, n_rows: int, where: str) -> np.ndarray:
    re = _require(d, "re", where)
    im = _require(d, "im", where)
    try:
        re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: entries are not numeric ({exc})") from exc
    for key, part in (("re", re), ("im", im)):
        if part.shape != (n_rows, n_rows):
            raise SchemaError(
                f"{where}: expected {key!r} of shape {(n_rows, n_rows)}, got {part.shape}"
            )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise SchemaError(f"{where}: entries must be finite (NaN or Infinity found)")
    return re + 1j * im


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"n": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json(d: dict, where: str = "matrix") -> np.ndarray:
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object")
    n = _require(d, "n", where)
    if not isinstance(n, int) or n < 1:
        raise SchemaError(f"{where}: 'n' must be a positive integer")
    return _array(d, n, where)


def density_to_json(ctx: DensityContext) -> dict:
    d = matrix_to_json(ctx.rho)
    d["tol"] = ctx.tol
    return d


def density_from_json(d: dict, where: str = "density") -> DensityContext:
    rho = matrix_from_json(d, where)
    tol = d.get("tol", 1e-9)
    if not isinstance(tol, (int, float)):
        raise SchemaError(f"{where}: 'tol' must be a number")
    try:
        return DensityContext.from_rho(rho, tol=tol)
    except (ValueError, NotHermitian, DimensionMismatch) as exc:
        raise SchemaError(f"{where}: not a valid density context ({exc})") from exc


def superop_to_json(s: Superoperator) -> dict:
    return {
        "n": s.dim,
        "level": s.level,
        "re": s.mat.real.tolist(),
        "im": s.mat.imag.tolist(),
    }


def superop_from_json(d: dict, where: str = "superoperator") -> Superoperator:
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object")
    n = _require(d, "n", where)
    if not isinstance(n, int) or n < 1:
        raise SchemaError(f"{where}: 'n' must be a positive integer")
    level = d.get("level", ALGEBRA)
    if level not in (ALGEBRA, L2):
        raise SchemaError(f"{where}: 'level' must be 'algebra' or 'l2'")
    return Superoperator(_array(d, n * n, where), n, level)


def family_to_json(family) -> dict:
    return {"V": [matrix_to_json(v) for v in family.ops]}


def calculus_to_json(calc) -> dict:
    """Dump of a calculus as its standard-form data: dim H, the inner vector
    X as an (m, n, n) array and the m x m block K_J of the involution, from
    which ``FirstOrderCalculus`` rebuilds it."""

    def cvec(v):
        return {"re": v.real.tolist(), "im": v.imag.tolist()}

    return {"dimH": calc.dim_h, "X": cvec(calc.x), "K_J": cvec(calc.k_j)}


def load_json(path: str):
    """The JSON document at ``path``; a path that cannot be read (missing, a
    directory, unreadable), text that is not UTF-8 and invalid JSON each
    raise SchemaError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc


def dump_json(obj, path: str | None = None) -> str:
    """The JSON text of ``obj``, on one line, also written to ``path`` with a
    trailing newline when given; a path that cannot be written raises
    ValueError naming it.  It passes no ``indent``, which would make json
    fall back from its C encoder to the pure-Python one."""
    text = json.dumps(obj)
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
                fh.write("\n")
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    return text
