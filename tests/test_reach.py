"""Nothing in ``src/kmsflow`` is reached only by the tests.

Every top-level function, class and constant of a module of the package,
and every name ``kmsflow`` exports, is read somewhere in ``src/`` or
``tools/`` outside its own definition and ``__init__.py``.  The names in
BENCH_ONLY are the exception: only the benchmark's workloads in
``perfbench/`` reach them.  The README's Quick start runs as written, so
the documentation names no removed function."""

import ast
import contextlib
import io
import re
from pathlib import Path

import kmsflow

ROOT = Path(kmsflow.__file__).resolve().parents[2]
BENCH_ONLY = {"inner_vector", "markov_preservation_check"}


def _sources(directory: Path) -> dict:
    return {p.name: p.read_text() for p in sorted(directory.glob("*.py"))}


def _definitions(tree: ast.Module) -> dict:
    """Top-level statement -> the names it defines: a function, a class, or
    the plain-name targets of an assignment, dunder names left out."""
    defs = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defs[stmt] = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defs[stmt] = {n for n in names if not n.startswith("__")}
    return defs


def _reads(node: ast.AST) -> set:
    """The names read in ``node``: loaded names and attribute names."""
    reads = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            reads.add(sub.attr)
    return reads


def _unreached(package: dict, readers: dict) -> set:
    """The names defined at the top level of the ``package`` modules (file
    name -> source), and the names ``__init__.py`` imports, that no live
    top-level statement of a package module other than ``__init__.py``, and
    no statement of a ``readers`` file, reads.  A statement is dead when
    every name it defines is unreached; its reads are dropped and the names
    recounted until nothing changes, so a name read only by dead code is
    unreached too, however long the chain."""
    exported, statements, outside = set(), [], set()
    for name, source in package.items():
        tree = ast.parse(source)
        if name == "__init__.py":
            exported |= {
                alias.asname or alias.name
                for stmt in tree.body if isinstance(stmt, ast.ImportFrom)
                for alias in stmt.names
            }
            continue
        defs = _definitions(tree)
        for stmt in tree.body:
            own = defs.get(stmt, set())
            statements.append((own, _reads(stmt) - own))
    for source in readers.values():
        outside |= _reads(ast.parse(source))
    candidates = exported.union(*(own for own, _ in statements))
    unreached = set()
    while True:
        live = [reads for own, reads in statements if not own or own - unreached]
        recount = candidates - outside.union(*live)
        if recount == unreached:
            return unreached
        unreached = recount


def test_every_name_is_reached_outside_the_tests():
    package = _sources(ROOT / "src" / "kmsflow")
    assert _unreached(package, _sources(ROOT / "tools")) == BENCH_ONLY


def test_bench_only_names_are_reached_by_perfbench():
    # so BENCH_ONLY cannot go stale: perfbench reaches each of its names
    package = _sources(ROOT / "src" / "kmsflow")
    readers = {**_sources(ROOT / "tools"), **_sources(ROOT / "perfbench")}
    assert _unreached(package, readers) == set()


def test_guard_flags_planted_names():
    package = {
        "__init__.py": "from .mod import dead, used\nfrom .other import Exported\n__version__ = '0'\n",
        "mod.py": (
            "LIMIT = 1\n"
            "SPARE = 2\n"
            "__all__ = ['used']\n"
            "def used(x):\n"
            "    return x < LIMIT\n"
            "def dead(x):\n"
            "    return dead(x - 1)\n"
            "class Lonely:\n"
            "    default = Lonely\n"
            "def _helper():\n"
            "    return 0\n"
            "def caller():\n"
            "    return _helper()\n"
            "def orphan():\n"
            "    return _link()\n"
            "def _link():\n"
            "    return 1\n"
        ),
        "other.py": "class Exported:\n    pass\n",
    }
    tools = {"tool.py": "from kmsflow import caller, used\nused(caller())\n"}
    # orphan is unreached, so _link, which only orphan reads, is too
    dead = {"SPARE", "dead", "Lonely", "orphan", "_link"}
    assert _unreached(package, tools) == dead | {"Exported"}
    assert _unreached(package, {**tools, "bench.py": "m.Exported\n"}) == dead


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md:Quick start", "exec"), {})
    assert out.getvalue().count("\n") >= 5
