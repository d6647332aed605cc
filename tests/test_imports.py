"""Module boundaries: a name with a leading underscore stays in its module,
and a Hermitian part (M + M*) / 2 is formed in linalg only."""

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
