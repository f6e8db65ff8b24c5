"""Scattering observables of the PT-deformed inverse-square N-particle model.

Library layout mirrors the problem: ``specialfn`` (self-contained Bessel
kernels), ``model`` (coupling/exponent algebra and the FD stencil of the
Hamiltonian terms), ``polynomials`` (exact generalized-Laplace
nullspaces), ``wavefunction`` (eigenfunction assembly and the FD eigen
residual), ``scattering`` (spectral-singularity scan, boundary matching,
sweeps), ``cli`` (the ``calogero-ss`` executable).
"""

from .errors import (CalogeroError, CouplingRangeError,
                     DegenerateEnvelopeError, DomainError, NoRealExponentError,
                     NumericalFailureError, ResourceLimitError,
                     SingularConfigurationError)
from .model import (CouplingParams, ExponentRoots, RadialIndices, Validity,
                    classify_validity, coupling_from_exponent,
                    radial_indices, solve_nu_prime)
from .polynomials import (SymPolynomial, solve_generalized_laplace,
                          ti_symmetric_basis)
from .scattering import (ScanSummary, ScatteringMatch, TransmissionSweep,
                         TrendSummary, WronskianReport, m22_status,
                         match_n_body, match_two_body, sample_momenta,
                         ss_scan, transmission_sweep, transmission_trend,
                         wronskian_report)
from .specialfn import bessel_eval, bessel_j
from .wavefunction import (MomentumSet, ground_state, make_scattering_state,
                           radial_coordinate, radial_solution,
                           residual_convergence, state_energy)

__version__ = "0.1.0"
