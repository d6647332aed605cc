"""Numerical laboratory for the spectra of spectral-projection differences
D = E(probe) - E0(probe) and the stationary scattering matrix of a pair
H0, H = H0 + G* V0 G.

The library side is organized by machinery:

* :mod:`projdiff.linalg`, :mod:`projdiff.quadrature` -- dense substrate,
* :mod:`projdiff.models` -- operator-pair constructors and presets,
* :mod:`projdiff.projections` -- D, its spectrum, blocks and corners,
* :mod:`projdiff.scattering` -- resolvent sandwiches, smoothed densities,
  the stationary scattering matrix (at eps = 0 from open leads for band
  pairs, along an eps ladder for dense ones), the transfer-matrix oracle,
* :mod:`projdiff.hankel` -- half-line Hankel/Carleman discretizations,
* :mod:`projdiff.zops` -- semigroup-smeared operators and the product
  representation of cross projections,
* :mod:`projdiff.harness`, :mod:`projdiff.acceptance`, :mod:`projdiff.cli`
  -- experiment driver and the verification suite.
"""

from .linalg import SpectralDecomposition, expm_apply, herm_eig, svd, sylvester_solve
from .models import (OperatorPair, PotentialSpec, build_finite_pair, build_krein,
                     build_schrodinger_1d, preset_names, preset_pair,
                     random_gapped_pair, resolvent_transform, sech2_spec,
                     shift_pair, square_well_spec, thresholds)
from .projections import (DifferenceReport, corner_spectrum, dsquared_block_check,
                          projection_difference, spectral_projection)
from .quadrature import QuadratureRule, make_quadrature
from .scattering import (ChannelSMatrix, ScatteringBundle, TransferMatrixResult,
                         birman_krein_check, birman_krein_extrapolated,
                         channel_smatrix, extrapolated_phases, resolvent_sandwich,
                         scattering_bundle, smoothed_density,
                         transfer_matrix_smatrix)
from .hankel import (HankelDiscretization, build_hankel, kernel_bound_suite,
                     laplace_factorizations, model_hankel_pair, nuclear_bound_check)
from .zops import ZOperators, build_z_ops, product_representation_check, zop_model_comparison
from .harness import ExperimentConfig, Report, convergence_study, run_experiment

__version__ = "0.1.0"
