"""Dense oracles shared by the tests."""

from projdiff.linalg import herm_eig


def dense_eigensystems(pair):
    """Dense eigendecompositions of a pair's h0 and h, solved afresh from
    its dense matrices: the oracle the pair's own paths are held to."""
    return herm_eig(pair.h0), herm_eig(pair.h)
