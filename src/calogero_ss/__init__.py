"""Scattering observables of the PT-deformed inverse-square N-particle model.

Library layout mirrors the problem: ``specialfn`` (self-contained Bessel
kernels), ``model`` (coupling/exponent algebra and PT checks),
``polynomials`` (exact generalized-Laplace nullspaces), ``wavefunction``
(eigenfunction assembly and the FD eigen residual), ``scattering`` (Jost
Wronskians, boundary matching, spectral-singularity scan), ``cli`` (the
``calogero-ss`` executable).
"""

from .errors import (AsymptoticRangeError, CalogeroError, CouplingRangeError,
                     DegenerateEnvelopeError, DomainError,
                     InternalConsistencyError, NoRealExponentError,
                     NumericalFailureError, ResourceLimitError,
                     SingularConfigurationError)
from .model import (CouplingParams, ExponentRoots, RadialIndices, Validity,
                    classify_validity, coupling_from_exponent,
                    pt_invariance_residual, radial_indices, solve_nu_prime)
from .polynomials import (LaplaceSystem, SymPolynomial, evaluate_poly,
                          solve_generalized_laplace, ti_symmetric_basis)
from .scattering import (JostPair, ScanSummary, ScatteringMatch,
                         TransmissionSweep, TrendSummary, WronskianReport,
                         m22_status, match_n_body, match_two_body,
                         momentum_sampler, pair_factors, sample_momenta,
                         ss_scan, transmission_sweep, transmission_trend,
                         wronskian, wronskian_product_form, wronskian_report)
from .specialfn import bessel_eval, bessel_j
from .wavefunction import (MomentumSet, asymptotic_wave, ground_state,
                           make_general_state, make_scattering_state,
                           radial_coordinate, radial_solution,
                           reference_momentum_set, residual_convergence,
                           state_energy)

__version__ = "0.1.0"
