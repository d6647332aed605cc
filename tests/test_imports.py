"""Module boundaries: a name with a leading underscore stays in its module,
a Hermitian part (M + M*) / 2 is formed in linalg only, and so is every SVD,
every Hermitian eigensolve and the margin of the cheap accept of a 2-norm
contract."""

import ast
import glob
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "projdiff")


def _private_imports(source):
    """(module, name) of every ``from .module import _name`` (or from
    ``projdiff.module``) in ``source``."""
    return [(node.module or ".", alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "projdiff")
            for alias in node.names if alias.name.startswith("_")]


def _hand_hermitian_parts(source):
    """Line numbers of ``source`` that write (M + M*) / 2 by hand: a line
    holding ``0.5 * (`` together with ``.conj()`` or ``_ct(``."""
    return [i for i, line in enumerate(source.splitlines(), 1)
            if "0.5 * (" in line and (".conj()" in line or "_ct(" in line)]


def _calls(source, functions):
    """(function, enclosing function, call node) of every call in ``source``
    of one of ``functions``, named as written (``np.linalg.svd``)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func) in functions:
            found.append((ast.unparse(node.func), scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def _svd_calls(source):
    """(numpy function, enclosing function) of every call in ``source`` of
    ``np.linalg.svd``, of ``np.linalg.cond`` and of ``np.linalg.norm`` with
    ord 2 (positional or keyword), each an SVD."""
    found = []
    for name, scope, node in _calls(source, ("np.linalg.svd", "np.linalg.cond",
                                             "np.linalg.norm")):
        ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
        if name != "np.linalg.norm" or any(ast.unparse(o) == "2" for o in ords):
            found.append((name, scope))
    return found


def _eigensolve_calls(source):
    """(numpy function, enclosing function) of every call in ``source`` of
    ``np.linalg.eigh`` or ``np.linalg.eigvalsh``."""
    return [(name, scope) for name, scope, _ in
            _calls(source, ("np.linalg.eigh", "np.linalg.eigvalsh"))]


def test_no_module_imports_a_siblings_private_name():
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert len(paths) >= 12
    offenders = []
    for path in paths:
        with open(path) as fh:
            offenders += [(os.path.basename(path), *found) for found in _private_imports(fh.read())]
    assert offenders == []


def test_only_linalg_forms_a_hermitian_part():
    # linalg.hermitian_part is the one home of (M + M*) / 2
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert os.path.join(PACKAGE, "linalg.py") in paths
    offenders = []
    for path in paths:
        with open(path) as fh:
            found = _hand_hermitian_parts(fh.read())
        if found and os.path.basename(path) != "linalg.py":
            offenders.append((os.path.basename(path), found))
    assert offenders == []


def test_linalg_svd_is_the_one_svd():
    # linalg.svd is the one call of LAPACK's SVD; every 2-norm reads it
    # (linalg.norm2), or is Hermitian and an eigvalsh (linalg.hermitian_norm)
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            found += [(os.path.basename(path), *call) for call in _svd_calls(fh.read())]
    assert found == [("linalg.py", "np.linalg.svd", "svd")]


def test_linalg_is_the_one_home_of_hermitian_eigensolves():
    # linalg.hermitian_eigh and linalg.hermitian_eigvalsh diagonalize the
    # Hermitian part of every matrix; the Rayleigh-Ritz step of the band
    # solver keeps its own eigh, of a pencil symmetric only to roundoff,
    # whose symmetrization would move every banded eigenpair
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            found += [(os.path.basename(path), *call) for call in _eigensolve_calls(fh.read())]
    assert sorted(found) == [("linalg.py", "np.linalg.eigh", "_ritz"),
                             ("linalg.py", "np.linalg.eigh", "hermitian_eigh"),
                             ("linalg.py", "np.linalg.eigvalsh", "hermitian_eigvalsh")]


def _cheap_accept_margins(source):
    """The enclosing function of every expression ``1.0 - 1e-8`` in ``source``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and [getattr(side, "value", None) for side in (node.left, node.right)]
                == [1.0, 1e-8]):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_linalg_residual_within_is_the_one_cheap_accept():
    # the margin of the O(size) accept of a 2-norm contract is written once
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            found += [(os.path.basename(path), f) for f in _cheap_accept_margins(fh.read())]
    assert found == [("linalg.py", "residual_within")]


def test_cheap_accept_margins_are_found():
    source = ("def f(a):\n    return a <= (1.0 - 1e-8) * b\n"
              "c = 1 - 1e-8\n"
              "d = 1.0 - 1e-9\n")
    assert _cheap_accept_margins(source) == ["f", None]


def test_svd_calls_are_found():
    source = ("def f(m):\n    return np.linalg.svd(m, compute_uv=False)\n"
              "c = np.linalg.cond(m)\n"
              "def g(m):\n"
              "    return np.linalg.norm(m, 2), np.linalg.norm(m, ord=2, axis=(-2, -1))\n"
              "x = np.linalg.norm(m), np.linalg.norm(m, axis=0), np.linalg.norm(m, 'fro')\n")
    assert _svd_calls(source) == [("np.linalg.svd", "f"), ("np.linalg.cond", None),
                                  ("np.linalg.norm", "g"), ("np.linalg.norm", "g")]


def test_eigensolve_calls_are_found():
    source = ("def f(m):\n    return np.linalg.eigh(m)[1], np.linalg.eigvalsh(m)\n"
              "w = np.linalg.eigvalsh(m)\n"
              "x = np.linalg.eig(m), np.linalg.eigvals(m), sla.eigh(m)\n")
    assert _eigensolve_calls(source) == [("np.linalg.eigh", "f"), ("np.linalg.eigvalsh", "f"),
                                         ("np.linalg.eigvalsh", None)]


def test_hand_hermitian_parts_are_found():
    source = ("h = 0.5 * (m + m.conj().T)\n"
              "a = 0.5 * (a + _ct(a))\n"
              "s = (m - _ct(m)) / 2j\n"
              "x = 0.5 * (a + b)\n")
    assert _hand_hermitian_parts(source) == [1, 2]


def test_private_imports_are_found():
    # the scan itself, on relative, absolute and nested imports
    source = ("from .linalg import herm_eig, _check_range\n"
              "from projdiff.scattering import _bundle_stack\n"
              "from numpy import _pytesttester\n"
              "def f():\n    from . import _x\n")
    assert _private_imports(source) == [("linalg", "_check_range"),
                                        ("projdiff.scattering", "_bundle_stack"), (".", "_x")]
