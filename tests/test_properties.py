"""Property tests: the exact identities on seeded random gapped pairs.

Each example draws a pair with ``random_gapped_pair(dim, kdim, seed,
probes=(p,))`` and checks one identity at probe p, at the tolerance its
acceptance clause or contract test applies.  The draws are derandomized
and no example database is written, so a run is reproducible.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from projdiff.acceptance import projection_identity_residual
from projdiff.models import random_gapped_pair, resolvent_transform, shift_pair
from projdiff.projections import dsquared_block_check, projection_difference
from projdiff.scattering import scattering_bundle
from projdiff.zops import product_representation_check

# hypothesis caches the literals of the modules under test in its storage
# directory, ./.hypothesis unless set, while pytest collects this module
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "projdiff-hypothesis")

SETTINGS = settings(database=None, deadline=None, derandomize=True, max_examples=40)

pairs = st.builds(
    lambda dim, kdim, seed, probe: (random_gapped_pair(dim, kdim, seed, probes=(probe,)), probe),
    dim=st.integers(2, 24), kdim=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
    probe=st.floats(-0.9, 0.9))


@SETTINGS
@given(pairs)
def test_difference_spectrum_pairs_plus_and_minus(case):
    pair, probe = case
    # criterion 7
    assert projection_difference(pair, probe).pairing_defect <= 1e-6


@SETTINGS
@given(pairs)
def test_dsquared_blocks(case):
    pair, probe = case
    # criterion 1, per dimension
    assert dsquared_block_check(pair, probe) / pair.dim <= 1e-10


@SETTINGS
@given(pairs, st.sampled_from([1e-1, 1e-2]))
def test_smoothed_smatrix_is_unitary_and_factorizes(case, eps):
    pair, probe = case
    b = scattering_bundle(pair, probe, eps)
    # the bound test_harness applies to reported rungs
    assert b.unitarity_defect <= 1e-10
    # criterion 1
    assert b.factor_residual <= 1e-9
    assert b.identity_residual <= 1e-9


@SETTINGS
@given(pairs)
def test_invariance_principle_projection_identity(case):
    pair, probe = case
    # the spectra lie in about [-1.5, 1.5], so the shift -3 is below both;
    # criterion 8
    residual = projection_identity_residual(pair, resolvent_transform(pair, -3.0), probe)
    assert residual <= 1e-12


@SETTINGS
@given(pairs)
def test_product_identity_matches_the_shifted_pair(case):
    pair, probe = case
    chk = product_representation_check(pair, probe)
    ref = product_representation_check(shift_pair(pair, probe), 0.0)
    # eigenvalues of the translated matrices agree to O(eps ||H||)
    assert abs(chk.gap - ref.gap) <= 1e-13
    # criterion 1, per dimension, on both routes
    assert chk.residual_oracle / pair.dim <= 1e-8
    assert ref.residual_oracle / pair.dim <= 1e-8
