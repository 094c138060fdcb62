"""Machine-readable certification reports.

Every certification routine returns a :class:`Report`: a named bundle of
scalar metrics together with the individual threshold comparisons ("checks")
that determine the verdict.  The verdict is a pure function of the checks, so
a serialized report can be re-verified without recomputing any linear algebra
(the CLI ``verify`` command does exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SchemaError


@dataclass(frozen=True)
class Check:
    """A single threshold comparison.

    kind "le" passes iff value <= bound, kind "ge" iff value >= bound.
    """

    name: str
    value: float
    bound: float
    kind: str  # "le" | "ge"

    def passed(self) -> bool:
        if self.kind == "le":
            return bool(self.value <= self.bound)
        if self.kind == "ge":
            return bool(self.value >= self.bound)
        raise ValueError(f"unknown check kind {self.kind!r}")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": float(self.value),
            "bound": float(self.bound),
            "kind": self.kind,
        }


@dataclass
class Report:
    """Outcome of one certification.

    ``passed`` is ``all(c.passed() for c in checks)``; ``metrics`` carries
    additional diagnostics that never enter the verdict.  The JSON form
    records each check's value once, in ``checks``.
    """

    name: str
    tol: float
    checks: list[Check] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed() for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "tol": float(self.tol),
            "checks": [c.to_json_dict() for c in self.checks],
            "metrics": _jsonable(self.metrics),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Report":
        """The report of a JSON object written by ``to_json_dict``.  Raises
        SchemaError when ``checks`` is not a list of objects, a check lacks a
        string name, a numeric value or bound, or a kind "le" or "ge",
        ``tol`` is not a number, or a stored ``pass`` is not a boolean."""
        if not isinstance(d.get("pass", False), bool):
            raise SchemaError(f"'pass' must be a boolean, got {d['pass']!r}")
        checks = d.get("checks", [])
        if not isinstance(checks, list):
            raise SchemaError("'checks' must be a list of check objects")
        tol = d.get("tol", 0.0)
        if not _is_number(tol):
            raise SchemaError("'tol' must be a number")
        parsed = []
        for i, c in enumerate(checks):
            if not isinstance(c, dict):
                raise SchemaError(f"check {i} is not an object")
            if not isinstance(c.get("name"), str):
                raise SchemaError(f"check {i}: 'name' must be a string")
            for key in ("value", "bound"):
                if not _is_number(c.get(key)):
                    raise SchemaError(f"check {i} ({c['name']!r}): {key!r} must be a number")
            if c.get("kind") not in ("le", "ge"):
                raise SchemaError(f"check {i} ({c['name']!r}): 'kind' must be 'le' or 'ge'")
            parsed.append(Check(c["name"], float(c["value"]), float(c["bound"]), c["kind"]))
        return Report(name=d.get("name", ""), tol=float(tol),
                      checks=parsed, metrics=d.get("metrics", {}))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _jsonable(obj):
    """Recursively convert metrics to plain JSON types."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
        return obj.tolist()
    return obj
