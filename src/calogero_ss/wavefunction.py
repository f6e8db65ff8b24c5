"""Eigenfunction assembly and finite-difference verification.

States live in the ordered sector x_1 >= x_2 >= ... >= x_N.  A state is a
tuple of channels, one per (degree k, solution index q):

    psi = sum_kq c_kq prod_{i<j} (x_i - x_j)^nu' r^(-b'_k) J_b'_k(p r) P_kq(x),

with r the translation-invariant hyper-radius, b'_k from the model module
and P_kq a generalized-Laplace solution at lambda = nu' - delta.  A channel
record holds k, b'_k, the float evaluator of P_kq (None at k = 0) and c_kq;
single states (c = 1), superpositions (c = p^n' Ct), the large-r waves and
the matcher's ray profile all read these records.

All wavefunction values are returned as complex even when analytically
real, so the deformed phases flow through one code path.  The Hamiltonian
is applied by second-order central differences for verification.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from . import polynomials
from ._sums import lsum
from .errors import (AsymptoticRangeError, DomainError,
                     SingularConfigurationError)
from .model import (CouplingParams, hamiltonian_terms, radial_indices,
                    stencil_values, terms_from_stencil)
from .polynomials import SymPolynomial, float_evaluator
from .specialfn import asymptotic_threshold, bessel_j

NEAR_NODE_GUARD = 1e-8


def _coords_of(x) -> tuple[float, ...]:
    return tuple(map(float, x))


SUM_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class MomentumSet:
    """Sorted sum-zero individual momenta and their radial magnitude p."""
    momenta: tuple[float, ...]
    p: float

    @classmethod
    def from_momenta(cls, momenta: Sequence[float]) -> "MomentumSet":
        ms = tuple(float(v) for v in momenta)
        if len(ms) < 2:
            raise DomainError("need at least two momenta")
        if any(ms[j] > ms[j + 1] for j in range(len(ms) - 1)):
            raise DomainError("momenta must be sorted ascending")
        big = max(abs(v) for v in ms)
        if abs(lsum(ms)) > SUM_ZERO_TOL * len(ms) * max(big, 1.0):
            raise DomainError(f"momenta must sum to zero, got {lsum(ms):.3e}")
        p = math.sqrt(lsum(v * v for v in ms))
        if not math.isfinite(p):  # any nan or inf momentum lands here
            raise DomainError("momenta and their magnitude must be finite, "
                              f"got p = {p}")
        return cls(ms, p)

    @property
    def n(self) -> int:
        return len(self.momenta)

    def reversed_momenta(self) -> tuple[float, ...]:
        """p_{N+1-j} pairing used by the outgoing wave."""
        return tuple(reversed(self.momenta))


def reference_momentum_set(n: int, p: float) -> MomentumSet:
    """Centered arithmetic-sequence momenta rescaled to magnitude p."""
    if n < 2:
        raise DomainError("need at least two particles")
    if p <= 0.0:
        raise DomainError("need p > 0")
    base = [j - (n - 1) / 2.0 for j in range(n)]
    norm = math.sqrt(lsum(b * b for b in base))
    return MomentumSet.from_momenta(tuple(b * p / norm for b in base))


@dataclass(frozen=True)
class SuperpositionCoeffs:
    """Angular coefficients of a degenerate superposition.

    entries maps (degree k, solution index q >= 1) to the angular
    coefficient; the full coefficient is p**scaling_exponent times it.
    """
    entries: Mapping[tuple[int, int], complex]
    scaling_exponent: float

    @classmethod
    def for_params(cls, params: CouplingParams,
                   entries: Mapping[tuple[int, int], complex]
                   ) -> "SuperpositionCoeffs":
        n_prime = radial_indices(params, 0).n_prime
        return cls(dict(entries), n_prime)

    def reconstruct(self, p: float) -> dict[tuple[int, int], complex]:
        scale = p ** self.scaling_exponent
        return {kq: scale * c for kq, c in self.entries.items()}


# --- geometry ----------------------------------------------------------------

def radial_coordinate(x) -> float:
    """Hyper-radius r with r^2 = (1/N) sum_{i<j} (x_i - x_j)^2."""
    c = _coords_of(x)
    return _radius(pair_differences(c), len(c))


def _radius(diffs: Sequence[float], n: int) -> float:
    return math.sqrt(lsum([d ** 2 for d in diffs]) / n)


def pair_differences(x) -> list[float]:
    c = _coords_of(x)
    n = len(c)
    return [c[i] - c[j] for i in range(n) for j in range(i + 1, n)]


def ground_state(x, nu_prime: float, min_gap: float = 1e-12) -> float:
    """Jastrow zero mode prod_{j<k} (x_j - x_k)^nu'.

    Positive in the open sector.  Exact coincidences give 0 for nu' > 0
    and 1 for nu' = 0; for nu' < 0 a gap below min_gap is singular.
    """
    return _jastrow(pair_differences(x), nu_prime, min_gap)


def _jastrow(diffs: Sequence[float], nu_prime: float,
             min_gap: float = 1e-12) -> float:
    if any(d < 0 for d in diffs):
        raise DomainError("configuration must be ordered descending")
    if nu_prime < 0.0 and min(diffs) < min_gap:
        raise SingularConfigurationError(
            f"gap {min(diffs):.3e} below {min_gap:.3e} with negative exponent")
    if nu_prime == 0.0:
        return 1.0
    result = 1.0
    for d in diffs:
        result *= d ** nu_prime
    return result


def radial_solution(r: float, p: float, b_prime: float) -> float:
    """Radial profile r^(-b') J_b'(p r)."""
    if r <= 0.0 or p <= 0.0:
        raise DomainError("radial_solution needs r > 0 and p > 0")
    return r ** (-b_prime) * bessel_j(b_prime, p * r)


# --- polynomial solutions cache ---------------------------------------------

@lru_cache(maxsize=256)
def _laplace_solutions_cached(n_vars: int, degree: int, lam: Fraction
                              ) -> tuple[SymPolynomial, ...]:
    return polynomials.solve_generalized_laplace(n_vars, degree,
                                                 lam).solutions


def laplace_solutions(params: CouplingParams, k: int
                      ) -> tuple[SymPolynomial, ...]:
    """Polynomial factors at degree k for lambda = nu' - delta."""
    lam = Fraction(params.nu_prime - params.delta)
    return _laplace_solutions_cached(params.n_particles, k, lam)


# --- eigenfunctions ----------------------------------------------------------

@dataclass(frozen=True)
class _Channel:
    """Term coeff * Jastrow * r^(-b') J_b'(p r) * poly(x); poly None is 1."""
    k: int
    b_prime: float
    poly: Callable[[Sequence], float] | None
    coeff: complex


def _channels(params: CouplingParams,
              entries: Mapping[tuple[int, int], complex]
              ) -> tuple[_Channel, ...]:
    """One channel per (k, q) entry; zero degeneracy and q are checked."""
    out = []
    for (k, q), coeff in entries.items():
        sols = laplace_solutions(params, k)
        if not sols:
            raise DomainError(f"degree {k} has zero degeneracy at these "
                              "couplings")
        if not 1 <= q <= len(sols):
            raise DomainError(f"solution index q={q} outside 1..{len(sols)} "
                              f"at degree {k}")
        out.append(_Channel(k, radial_indices(params, k).b_prime,
                            float_evaluator(sols[q - 1]) if k else None,
                            coeff))
    return tuple(out)


def make_scattering_state(params: CouplingParams, pset: MomentumSet,
                          k: int, q: int = 1) -> Callable[[tuple], complex]:
    """Callable psi(coords) for the degenerate state (k, q), coefficient 1."""
    return _state_evaluator(params, pset.p, _channels(params, {(k, q): 1.0}))


def make_general_state(params: CouplingParams, pset: MomentumSet,
                       coeffs: SuperpositionCoeffs
                       ) -> Callable[[tuple], complex]:
    """Callable psi(coords) for a superposition, coefficients p^n' * Ct."""
    if pset.p <= 0.0:
        raise DomainError("scattering states need p > 0")
    return _state_evaluator(params, pset.p,
                            _channels(params, coeffs.reconstruct(pset.p)))


def _state_evaluator(params: CouplingParams, p: float,
                     channels: Sequence[_Channel]
                     ) -> Callable[[tuple], complex]:
    """psi(coords) = sum of the channels, with the setup done once.

    Per point the pair differences give the ordering check, the Jastrow
    product and r.  A unit channel's value is bit for bit the composition
    of ground_state, radial_coordinate, radial_solution and evaluate_poly.
    """
    n = params.n_particles
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    nu_prime = params.nu_prime

    def psi(x) -> complex:
        c = _coords_of(x)
        if len(c) != n:
            raise DomainError(f"configuration has {len(c)} coordinates, "
                              f"the state wants {n}")
        diffs = [c[i] - c[j] for i, j in pairs]
        jastrow = _jastrow(diffs, nu_prime)
        r = _radius(diffs, n)
        total = 0j
        for ch in channels:
            value = jastrow * radial_solution(r, p, ch.b_prime)
            if ch.poly is not None:
                value *= ch.poly(c)
            total += ch.coeff * value
        return total
    return psi


def asymptotic_wave(x, pset: MomentumSet, coeffs: SuperpositionCoeffs,
                    params: CouplingParams, sign: int,
                    max_rel_error: float = 1e-3) -> complex:
    """Incoming (+) / outgoing (-) large-r wave of the superposition.

    Literal evaluation of

        (2 pi r)^(-1/2) p^(n'-1/2) Jastrow r^(-A')
          * sum_kq Ct_kq r^(-k) P_kq(x) exp(+-i (b'+1/2) pi/2 -+ i p r);

    psi_+ + psi_- approaches the full superposition as p r grows.  Raises
    AsymptoticRangeError when p r is below the Bessel asymptotic threshold
    at max_rel_error for any participating order.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    coords = _coords_of(x)
    r = radial_coordinate(coords)
    pr = pset.p * r
    channels = _channels(params, coeffs.entries)
    for ch in channels:
        thr = asymptotic_threshold(ch.b_prime, max_rel_error)
        if pr < thr:
            raise AsymptoticRangeError(
                f"p*r = {pr:.6g} below asymptotic threshold {thr:.6g} "
                f"(degree {ch.k})")
    idx0 = radial_indices(params, 0)
    envelope = (2.0 * math.pi * r) ** -0.5 * pset.p ** (idx0.n_prime - 0.5) \
        * ground_state(coords, params.nu_prime) * r ** (-idx0.a_prime)
    total = 0j
    for ch in channels:
        phase = cmath.exp(sign * 1j * (ch.b_prime + 0.5) * math.pi / 2.0
                          - sign * 1j * pr)
        pval = 1.0 if ch.poly is None else ch.poly(coords)
        total += ch.coeff * r ** (-ch.k) * pval * phase
    return envelope * total


# --- finite-difference Hamiltonian -------------------------------------------

def _check_stencil(gaps: Sequence[float], h: float) -> None:
    """The 2h-wide stencil must stay inside the sector."""
    if h <= 0.0:
        raise DomainError("need h > 0")
    if min(gaps) <= 2.0 * h:
        raise SingularConfigurationError(
            f"stencil width 2h={2 * h:.3e} crosses a coincidence hyperplane "
            f"(min gap {min(gaps):.3e})")


def _adjacent_gaps(coords: Sequence[float]) -> list[float]:
    return [coords[j] - coords[j + 1] for j in range(len(coords) - 1)]


def apply_hamiltonian_fd(psi: Callable[[tuple], complex], x,
                         params: CouplingParams, h: float) -> complex:
    """(H psi)(x) with second-order central differences."""
    coords = _coords_of(x)
    _check_stencil(_adjacent_gaps(coords), h)
    return lsum(hamiltonian_terms(psi, coords, params.g, params.delta, h))


def state_energy(pset: MomentumSet) -> float:
    """Eigenvalue of a scattering state at radial momentum p.

    With the kinetic term normalized as -(1/2) sum d^2/dx_j^2, both the
    Bessel-profile states and the plane waves exp(i sum p_j x_j) with
    sum p_j^2 = p^2 carry energy p^2 / 2.
    """
    return pset.p ** 2 / 2.0


def eigen_residual(psi: Callable[[tuple], complex], p_squared: float,
                   samples: Sequence, params: CouplingParams,
                   h_factor: float = 1e-3) -> float:
    """max over samples of |H psi - p^2 psi| / guard.

    Each sample costs 2N+1 psi calls: psi at the sample is both the
    stencil centre and the p^2 psi target.  Every sample is checked (N
    finite coordinates, strictly descending) before psi is called.

    The guard is |p^2 psi| floored at NEAR_NODE_GUARD times the global
    sample scale; for p^2 = 0 (zero modes) the per-sample scale is the
    term-magnitude sum (cancellation quality), floored at the natural
    curvature scale |psi| * sum(1/gap^2) so states annihilated term by
    term do not divide by roundoff.
    """
    points = _residual_samples(samples, params.n_particles)
    centres = [complex(psi(coords)) for coords in points]
    return _residual(psi, p_squared, points, centres, params, h_factor)


def residual_convergence(psi: Callable[[tuple], complex], p_squared: float,
                         samples: Sequence, params: CouplingParams,
                         h_factor: float = 1e-3) -> tuple[float, float, float]:
    """(residual at h, residual at h/2, ratio); ~4 for a second-order stencil.

    psi at each sample is evaluated once and shared by both step sizes,
    so a sample costs 4N+1 psi calls.
    """
    points = _residual_samples(samples, params.n_particles)
    centres = [complex(psi(coords)) for coords in points]
    res_h = _residual(psi, p_squared, points, centres, params, h_factor)
    res_h2 = _residual(psi, p_squared, points, centres, params,
                       h_factor / 2.0)
    return res_h, res_h2, res_h / res_h2 if res_h2 > 0 else math.inf


def _residual_samples(samples: Sequence, n: int) -> list[tuple[float, ...]]:
    """The samples as coordinate tuples, each checked for the sector."""
    points = []
    for i, x in enumerate(samples):
        coords = _coords_of(x)
        if len(coords) != n:
            raise DomainError(f"sample {i} has {len(coords)} coordinates, "
                              f"need {n}")
        if not all(math.isfinite(c) for c in coords):
            raise DomainError(f"sample {i} has a non-finite coordinate")
        gaps = _adjacent_gaps(coords)
        if any(g < 0 for g in gaps):
            raise DomainError(f"sample {i} is not ordered descending "
                              "(x_1 >= ... >= x_N)")
        if min(gaps) == 0.0:
            raise SingularConfigurationError(
                f"sample {i} has coincident coordinates")
        points.append(coords)
    if not points:
        raise DomainError("no samples")
    return points


def _residual(psi: Callable[[tuple], complex], p_squared: float,
              points: Sequence[tuple[float, ...]], centres: Sequence[complex],
              params: CouplingParams, h_factor: float) -> float:
    """eigen_residual at one step factor, given psi at every sample."""
    rows = []
    for coords, psi_val in zip(points, centres):
        gaps = _adjacent_gaps(coords)
        h = h_factor * min(gaps)
        _check_stencil(gaps, h)
        plus, minus = stencil_values(psi, coords, h)
        terms = terms_from_stencil(coords, psi_val, plus, minus, params.g,
                                   params.delta, h)
        hpsi = lsum(terms)
        target = p_squared * psi_val
        term_scale = lsum(abs(t) for t in terms)
        curvature = abs(psi_val) * lsum(1.0 / (g * g) for g in gaps)
        rows.append((abs(hpsi - target), abs(target), term_scale, curvature))
    global_scale = max(t for _, t, _, _ in rows)
    out = 0.0
    for err, target_mag, term_scale, curvature in rows:
        if p_squared == 0.0:
            denom = max(term_scale, curvature, 1e-300)
        else:
            denom = max(target_mag, NEAR_NODE_GUARD * global_scale)
        out = max(out, err / denom)
    return out
