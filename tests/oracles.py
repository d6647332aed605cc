"""Dense oracles and spies shared by the tests."""

import sys

import numpy as np

from projdiff import linalg
from projdiff.linalg import herm_eig


def dense_eigensystems(pair):
    """Dense eigendecompositions of a pair's h0 and h, solved afresh from
    its dense matrices: the oracle the pair's own paths are held to."""
    return herm_eig(pair.h0), herm_eig(pair.h)


def spy_svd(monkeypatch):
    """The shapes of the operands of every call of ``linalg.svd``, the
    package's one SVD, from here on: it is wrapped on every projdiff module
    that binds it, as the benchmark tracer wraps it."""
    original, shapes = linalg.svd, []

    def spy(matrix):
        shapes.append(np.shape(matrix))
        return original(matrix)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "projdiff" and getattr(module, "svd", None) is original:
            monkeypatch.setattr(module, "svd", spy)
    return shapes
