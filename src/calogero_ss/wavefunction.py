"""Eigenfunction assembly and the finite-difference eigen residual.

States live in the ordered sector x_1 >= x_2 >= ... >= x_N.  A state is a
tuple of channels, one per (degree k, solution index q):

    psi = sum_kq c_kq prod_{i<j} (x_i - x_j)^nu' r^(-b'_k) J_b'_k(p r) P_kq(x),

with r the translation-invariant hyper-radius, b'_k from the model module
and P_kq a generalized-Laplace solution at lambda = nu' - delta.  A channel
record holds k, b'_k, the float evaluator of P_kq (None at k = 0) and c_kq;
single states (c = 1) and the matcher's ray profile (c = Ct) read these
records.

All wavefunction values are returned as complex even when analytically
real, so the deformed phases flow through one code path.  The residual
applies the Hamiltonian on the model's central-difference stencil.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from operator import gt, mul
from typing import Callable, Mapping, NamedTuple, Sequence

from . import polynomials
from ._sums import lsum
from .errors import (DomainError, NumericalFailureError,
                     SingularConfigurationError)
from .model import (CouplingParams, radial_indices, stencil_values,
                    terms_from_stencil)
from .polynomials import SymPolynomial, float_evaluator
from .specialfn import bessel_j

NEAR_NODE_GUARD = 1e-8


def _coords_of(x) -> tuple[float, ...]:
    return tuple(map(float, x))


SUM_ZERO_TOL = 1e-12


class MomentumSet(NamedTuple):
    """Sorted sum-zero individual momenta and their radial magnitude p."""
    momenta: tuple[float, ...]
    p: float

    @classmethod
    def from_momenta(cls, momenta: Sequence[float]) -> "MomentumSet":
        ms = tuple(map(float, momenta))
        if len(ms) < 2:
            raise DomainError("need at least two momenta")
        if any(map(gt, ms, ms[1:])):  # False at a nan, like ms[j] > ms[j+1]
            raise DomainError("momenta must be sorted ascending")
        total = lsum(ms)
        big = max(map(abs, ms))
        if abs(total) > SUM_ZERO_TOL * len(ms) * max(big, 1.0):
            raise DomainError(f"momenta must sum to zero, got {total:.3e}")
        # sqrt of the sum of squares at a power-of-two scale that keeps the
        # squares from underflowing or overflowing; the scaling is exact, so
        # p keeps its last bit wherever the unscaled sum neither underflows
        # nor overflows (math.hypot rounds differently and would move it)
        e = max(math.frexp(big)[1], sys.float_info.min_exp)
        scale = math.ldexp(1.0, -e)
        ys = [m * scale for m in ms]
        try:
            p = math.ldexp(math.sqrt(lsum(map(mul, ys, ys))), e)
        except OverflowError:
            p = math.inf
        if not math.isfinite(p):  # any nan or inf momentum lands here
            raise DomainError("momenta and their magnitude must be finite, "
                              f"got p = {p}")
        return cls(ms, p)


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


def ground_state(x, nu_prime: float) -> float:
    """Jastrow zero mode prod_{j<k} (x_j - x_k)^nu', for nu' >= 0.

    Positive in the open sector.  Exact coincidences give 0 for nu' > 0
    and 1 for nu' = 0.
    """
    if nu_prime < 0.0:
        raise DomainError("nu_prime must be >= 0")
    return _jastrow(pair_differences(x), nu_prime)


def _jastrow(diffs: Sequence[float], nu_prime: float) -> float:
    if any(d < 0 for d in diffs):
        raise DomainError("configuration must be ordered descending")
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

class _Channel(NamedTuple):
    """Term coeff * Jastrow * r^(-b') J_b'(p r) * poly(x); poly None is 1."""
    k: int
    b_prime: float
    poly: Callable[[Sequence], float] | None
    coeff: complex


def _channels(params: CouplingParams,
              entries: Mapping[tuple[int, int], complex]
              ) -> tuple[_Channel, ...]:
    """One channel per (k, q) entry; zero degeneracy and q are checked.

    Degree 0 has the one solution 1 at every N and lambda, so it needs no
    solve (and so no size cap).
    """
    out = []
    for (k, q), coeff in entries.items():
        sols = laplace_solutions(params, k) if k else (None,)
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


def make_scattering_state(params: CouplingParams, p: float, k: int,
                          q: int = 1) -> Callable[[tuple], complex]:
    """Callable psi(coords) for the degenerate state (k, q) at radial
    momentum p, coefficient 1."""
    return _state_evaluator(params, p, _channels(params, {(k, q): 1.0}))


def _state_evaluator(params: CouplingParams, p: float,
                     channels: Sequence[_Channel]
                     ) -> Callable[[tuple], complex]:
    """psi(coords) = sum of the channels, with the setup done once.

    Per point the pair differences give the ordering check, the Jastrow
    product and r.  A unit channel's value is bit for bit the composition
    of ground_state, radial_coordinate, radial_solution and float_evaluator.
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


# --- finite-difference eigen residual ----------------------------------------

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


def state_energy(p: float) -> float:
    """Eigenvalue of a scattering state at radial momentum p.

    With the kinetic term normalized as -(1/2) sum d^2/dx_j^2, both the
    Bessel-profile states and the plane waves exp(i sum p_j x_j) with
    sum p_j^2 = p^2 carry energy p^2 / 2.  A p > 0 whose p^2 / 2 is below
    the smallest normal float or overflows is refused: the residual would
    check a zero mode, a target with few digits or an infinite one.
    """
    try:
        energy = p ** 2 / 2.0
    except OverflowError:
        energy = math.inf
    if p > 0.0 and not sys.float_info.min <= energy < math.inf:
        raise NumericalFailureError(
            f"the energy p^2/2 at p = {p} is {energy:.3e}, outside the "
            "normal float range")
    return energy


def residual_convergence(psi: Callable[[tuple], complex], energy: float,
                         samples: Sequence, params: CouplingParams,
                         h_factor: float = 1e-3) -> tuple[float, float, float]:
    """(residual at h, residual at h/2, ratio); ~4 for a second-order stencil.

    The residual is max over samples of |H psi - E psi| / guard at h =
    h_factor * (the sample's smallest gap), with E the state's energy
    (p^2/2 for a scattering state, state_energy).  Every sample is checked
    (N finite coordinates, strictly descending) before psi is called; psi
    at a sample is the stencil centre and the E psi target at both steps,
    so a sample costs 4N+1 psi calls.

    The guard is |E psi| floored at NEAR_NODE_GUARD times the global
    sample scale (a floor below the smallest normal float is a
    NumericalFailureError); for E = 0 (zero modes) the per-sample scale is
    the term-magnitude sum (cancellation quality), floored at the natural
    curvature scale |psi| * sum(1/gap^2) so states annihilated term by
    term do not divide by roundoff.
    """
    points = _residual_samples(samples, params.n_particles)
    centres = [complex(psi(coords)) for coords in points]
    res_h = _residual(psi, energy, points, centres, params, h_factor)
    res_h2 = _residual(psi, energy, points, centres, params, h_factor / 2.0)
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


def _residual(psi: Callable[[tuple], complex], energy: float,
              points: Sequence[tuple[float, ...]], centres: Sequence[complex],
              params: CouplingParams, h_factor: float) -> float:
    """The residual at one step factor, given psi at every sample."""
    rows = []
    for coords, psi_val in zip(points, centres):
        gaps = _adjacent_gaps(coords)
        h = h_factor * min(gaps)
        _check_stencil(gaps, h)
        plus, minus = stencil_values(psi, coords, h)
        terms = terms_from_stencil(coords, psi_val, plus, minus, params.g,
                                   params.delta, h)
        hpsi = lsum(terms)
        target = energy * psi_val
        term_scale = lsum(abs(t) for t in terms)
        curvature = abs(psi_val) * lsum(1.0 / (g * g) for g in gaps)
        rows.append((abs(hpsi - target), abs(target), term_scale, curvature))
    global_scale = max(t for _, t, _, _ in rows)
    guard = NEAR_NODE_GUARD * global_scale
    if energy != 0.0 and guard < sys.float_info.min:
        raise NumericalFailureError(
            f"|E psi| peaks at {global_scale:.3e} over the samples, too "
            "small to scale the residual by")
    out = 0.0
    for err, target_mag, term_scale, curvature in rows:
        if energy == 0.0:
            denom = max(term_scale, curvature, 1e-300)
        else:
            denom = max(target_mag, guard)
        out = max(out, err / denom)
    return out
