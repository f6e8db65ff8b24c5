"""Parameter algebra of the PT-deformed inverse-square model.

Couples the long-range coupling g, the deformation coupling delta and the
ground-state exponent nu' through the quadratic

    g = nu'^2 - nu' (1 + 2 delta),

derives the radial indices (b', A', n', c) used by the wavefunction and
scattering modules, and holds the finite-difference stencil of the
Hamiltonian terms that the eigen residual applies.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple, Sequence

from ._sums import lsum
from .errors import CouplingRangeError, DomainError, NoRealExponentError

DISCRIMINANT_TOL = 1e-14
ROUNDTRIP_TOL = 1e-12


class Validity(enum.Enum):
    """Coupling-range classification for a non-negative exponent."""
    RANGE_I = "RangeI"      # delta >= -1/2 and 0 > g >= -(delta + 1/2)^2
    RANGE_II = "RangeII"    # g >= 0, any delta
    INVALID = "Invalid"


def classify_validity(g: float, delta: float) -> Validity:
    if g >= 0.0:
        return Validity.RANGE_II
    if delta >= -0.5 and g >= -((delta + 0.5) ** 2):
        return Validity.RANGE_I
    return Validity.INVALID


class ExponentRoots(NamedTuple):
    """Both roots of the exponent quadratic plus the selection."""
    roots: tuple[float, float]   # ascending
    selected: float              # largest non-negative root
    validity: Validity


def solve_nu_prime(g: float, delta: float) -> ExponentRoots:
    """Solve nu'^2 - (1 + 2 delta) nu' - g = 0 and select an exponent.

    Both roots are reported; the default policy selects the largest
    non-negative one.  A negative discriminant (beyond clamping tolerance)
    or the absence of a non-negative root is an error: the ground state
    would be singular at particle coincidences.
    """
    if not (math.isfinite(g) and math.isfinite(delta)):
        raise DomainError("solve_nu_prime: non-finite couplings")
    s = 1.0 + 2.0 * delta
    disc = s * s + 4.0 * g
    if disc < -DISCRIMINANT_TOL:
        raise NoRealExponentError(
            f"no real exponent: discriminant {disc:.3e} < 0 for g={g}, "
            f"delta={delta}")
    disc = max(disc, 0.0)
    root = math.sqrt(disc)
    lo, hi = (s - root) / 2.0, (s + root) / 2.0
    if hi < 0.0:
        raise CouplingRangeError(
            f"both exponent roots negative for g={g}, delta={delta}; "
            "a non-negative exponent is required")
    return ExponentRoots((lo, hi), hi, classify_validity(g, delta))


def coupling_from_exponent(nu_prime: float, delta: float) -> float:
    """g = nu'^2 - nu' (1 + 2 delta); inverse of solve_nu_prime."""
    if nu_prime < 0.0:
        raise DomainError(f"exponent must be >= 0, got {nu_prime}")
    return nu_prime * nu_prime - nu_prime * (1.0 + 2.0 * delta)


class _CouplingFields(NamedTuple):
    n_particles: int
    g: float
    delta: float
    nu_prime: float


class CouplingParams(_CouplingFields):
    """Model parameters with the derived exponent and validity class."""
    __slots__ = ()

    def __new__(cls, n_particles: int, g: float, delta: float,
                nu_prime: float):
        if n_particles < 2:
            raise DomainError("need at least 2 particles")
        if nu_prime < 0.0:
            raise DomainError("nu_prime must be >= 0")
        expected = coupling_from_exponent(nu_prime, delta)
        if abs(g - expected) > ROUNDTRIP_TOL * max(1.0, abs(g)):
            raise DomainError(
                f"inconsistent couplings: g={g} vs "
                f"nu'^2 - nu'(1+2 delta) = {expected}")
        return super().__new__(cls, n_particles, g, delta, nu_prime)

    @property
    def validity_class(self) -> Validity:
        """classify_validity of (g, delta), so it cannot disagree with them."""
        return classify_validity(self.g, self.delta)

    @classmethod
    def from_coupling(cls, n_particles: int, g: float,
                      delta: float) -> "CouplingParams":
        sol = solve_nu_prime(g, delta)
        if sol.validity is Validity.INVALID:
            raise CouplingRangeError(
                f"couplings g={g}, delta={delta} outside both validity ranges")
        return cls(n_particles, g, delta, sol.selected)

    @classmethod
    def from_exponent(cls, n_particles: int, nu_prime: float,
                      delta: float) -> "CouplingParams":
        return cls(n_particles, coupling_from_exponent(nu_prime, delta),
                   delta, nu_prime)


class RadialIndices(NamedTuple):
    """Derived indices of the radial problem at polynomial degree k.

    b' fixes the Bessel order, A' = b' - k the asymptotic envelope power,
    n' the momentum scaling and c the two-body exponent nu' - b'.
    """
    k: int
    b_prime: float
    a_prime: float
    n_prime: float
    c: float


def radial_indices(params: CouplingParams, k: int) -> RadialIndices:
    """Indices for degree k."""
    if k < 0:
        raise DomainError("polynomial degree k must be >= 0")
    n = params.n_particles
    pairs = n * (n - 1) / 2.0
    b_prime = (n - 3) / 2.0 + k + (params.nu_prime - params.delta) * pairs
    n_prime = (3 - n) / 2.0 + pairs * params.delta
    return RadialIndices(k=k, b_prime=b_prime, a_prime=b_prime - k,
                         n_prime=n_prime, c=params.nu_prime - b_prime)


# --- finite-difference Hamiltonian stencil -----------------------------------
#
# The Hamiltonian terms are applied by second-order central differences on
# one 2N+1-point stencil.  No ordering of x is assumed; callers keep the
# stencil off the coincidence hyperplanes.

def stencil_values(f: Callable[[tuple], complex], x: Sequence[float],
                   h: float) -> tuple[list[complex], list[complex]]:
    """f at x + h e_j and at x - h e_j for j = 1..N (2N calls)."""
    plus, minus = [], []
    for j in range(len(x)):
        xp = list(x); xp[j] += h
        xm = list(x); xm[j] -= h
        plus.append(complex(f(tuple(xp))))
        minus.append(complex(f(tuple(xm))))
    return plus, minus


def terms_from_stencil(x: Sequence[float], center: complex,
                       plus: Sequence[complex], minus: Sequence[complex],
                       g: float, delta: float, h: float
                       ) -> tuple[complex, complex, complex]:
    """The three term values from f(x) and the stencil values around it."""
    n = len(x)
    kinetic = -0.5 * lsum((plus[j] - 2.0 * center + minus[j]) / (h * h)
                         for j in range(n))
    inv_sq = (g / 2.0) * lsum(
        1.0 / (x[j] - x[m]) ** 2
        for j in range(n) for m in range(n) if j != m) * center
    deform = delta * lsum(
        (plus[j] - minus[j]) / (2.0 * h) / (x[j] - x[m])
        for j in range(n) for m in range(n) if j != m)
    return kinetic, inv_sq, deform
