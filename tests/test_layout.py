"""The column-stacking layout of ``Superoperator.mat`` is ``superop``'s
decision: outside ``superop.py`` and ``DensityContext.superop_log_spectrum``
(the modular log-spectrum in the column order of ``superop_basis``), no
module in ``src/kmsflow`` calls ``vec`` or ``unvec``, passes an ``order=``
keyword other than "C" (numpy's default; column stacking is "F"), or
subscripts, reshapes, ravels or flattens a ``.mat`` attribute.  Other
modules read a map through ``apply`` or ``superop.unit_images``.  Two take
``mat`` whole: ``vtransform`` multiplies it in the coordinates of
``superop_basis``, and ``serialize`` writes it as the on-disk format."""

import ast
from pathlib import Path

import kmsflow

SRC = Path(kmsflow.__file__).resolve().parent
# module -> the functions in it that may read the layout
LAYOUT_OWNERS = {"matrix_core.py": {"superop_log_spectrum"}}


def _is_mat(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "mat"


def _layout_reads(source: str, exempt=()) -> list:
    """Line numbers of the reads of the storage layout in ``source``,
    outside the functions named in ``exempt``."""
    lines = []
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name in exempt:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.keyword) and node.arg == "order":
            if not (isinstance(node.value, ast.Constant) and node.value.value == "C"):
                lines.append(node.value.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("vec", "unvec"):
                lines.append(node.lineno)
        elif isinstance(node, ast.Subscript) and _is_mat(node.value):
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ("reshape", "ravel", "flatten")
            and _is_mat(node.value)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_layout_reads_outside_superop():
    reads = {
        p.name: _layout_reads(p.read_text(), LAYOUT_OWNERS.get(p.name, ()))
        for p in sorted(SRC.glob("*.py"))
        if p.name != "superop.py"
    }
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_guard_flags_a_planted_read():
    snippet = (
        "def f(s, x):\n"
        "    a = s.mat[:, 0]\n"
        "    b = s.mat.reshape(2, 2, 2, 2)\n"
        "    c = x.ravel(order='F')\n"
        "    d = superop.vec(x) + unvec(x)\n"
        "    e = gen.L.mat.ravel()\n"
        "    g = np.array(x, order='C')\n"
        "    return s.mat @ x, s.apply(x), unit_images(s)[0, 1], x.reshape(4)\n"
    )
    assert _layout_reads(snippet) == [2, 3, 4, 5, 5, 6]


def test_only_the_named_functions_are_exempt():
    snippet = (
        "class C:\n"
        "    def superop_log_spectrum(self):\n"
        "        return self.log_ratio.ravel(order='F')\n"
        "    def other(self):\n"
        "        return self.log_ratio.ravel(order='F')\n"
    )
    assert _layout_reads(snippet, LAYOUT_OWNERS["matrix_core.py"]) == [5]
