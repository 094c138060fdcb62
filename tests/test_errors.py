"""Every exception class in ``kmsflow.errors`` has a use: a leaf class is
raised somewhere in ``src/kmsflow``, and a class that is never raised is the
base of another."""

import ast
from pathlib import Path

import kmsflow

SRC = Path(kmsflow.__file__).resolve().parent


def _raised_names(sources) -> set:
    """Names of the classes raised in ``sources``, as ``raise X(...)``,
    ``raise X``, ``raise mod.X(...)`` or ``raise mod.X``."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def _unraised_leaves(errors_source: str, sources) -> list:
    """Classes of ``errors_source`` that no other class there derives from
    and that no ``raise`` in ``sources`` names."""
    classes = [n for n in ast.parse(errors_source).body if isinstance(n, ast.ClassDef)]
    bases = {b.id for cls in classes for b in cls.bases if isinstance(b, ast.Name)}
    raised = _raised_names(sources)
    return [cls.name for cls in classes if cls.name not in bases | raised]


def test_every_leaf_exception_is_raised():
    errors_source = (SRC / "errors.py").read_text()
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert _unraised_leaves(errors_source, sources) == []


def test_guard_finds_a_dead_class():
    errors_source = (
        "class Base(Exception):\n    pass\n\n"
        "class Used(Base):\n    pass\n\n"
        "class Dead(Base):\n    pass\n\n"
        "class Unused(Exception):\n    pass\n"
    )
    sources = ["def f():\n    raise errors.Used('x')\n"]
    assert _unraised_leaves(errors_source, sources) == ["Dead", "Unused"]
