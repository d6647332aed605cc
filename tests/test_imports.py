"""Module boundaries: a name with a leading underscore stays in its module."""

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


def test_no_module_imports_a_siblings_private_name():
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert len(paths) >= 12
    offenders = []
    for path in paths:
        with open(path) as fh:
            offenders += [(os.path.basename(path), *found) for found in _private_imports(fh.read())]
    assert offenders == []


def test_private_imports_are_found():
    # the scan itself, on relative, absolute and nested imports
    source = ("from .linalg import herm_eig, _check_range\n"
              "from projdiff.scattering import _bundle_stack\n"
              "from numpy import _pytesttester\n"
              "def f():\n    from . import _x\n")
    assert _private_imports(source) == [("linalg", "_check_range"),
                                        ("projdiff.scattering", "_bundle_stack"), (".", "_x")]
