"""Reference forms that no subcommand computes, kept as test oracles.

The package holds only what the CLI reaches (tests/test_reachability.py).
These are the literal formulas its results are checked against:

* the Jost plane waves and their Wronskian, direct and factorized, behind
  the scan's verdict |W_i| = |M22| |p_i - p_(N+1-i)|;
* the superposition state {(k, q): Ct} and its large-r incoming/outgoing
  waves, with the Bessel asymptotic threshold that guards them;
* the extensional PT-commutation residual of one Hamiltonian term;
* the exact rational value of a polynomial factor;
* the scan's per-sample path and the Miller pass in their first, plainer
  forms (sampler, momentum-set check, pairing factors and report), which
  the package's forms must match bit for bit.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

from calogero_ss._sums import lsum
from calogero_ss.errors import DomainError, SingularConfigurationError
from calogero_ss.scattering import WronskianReport
from calogero_ss.model import (CouplingParams, radial_indices,
                               stencil_values, terms_from_stencil)
from calogero_ss.polynomials import (SymPolynomial, _centred_sum,
                                     _check_size, _parts_used)
from calogero_ss.wavefunction import (SUM_ZERO_TOL, MomentumSet, _channels,
                                      _coords_of, _state_evaluator,
                                      ground_state, radial_coordinate)


# --- Jost solutions and Wronskian --------------------------------------------

class JostPair(NamedTuple):
    """Asymptotic plane-wave descriptors of the two Jost solutions.

    psi_+ -> exp(i sum p_j x_j) at large positive separations (its
    defining normalization); psi_-, defined by the reversed-momentum
    wave e^(i pi phi) exp(i sum x_j p_{N+1-j}) at large negative
    separations, continues to the positive side as
    m12 psi_+ + m22 e^(i pi phi) exp(i sum x_j p_{N+1-j}).
    """
    pset: MomentumSet
    phi: float
    m12: complex = 0j
    m22: complex = 1.0 + 0j


def reversed_momenta(pset: MomentumSet) -> tuple[float, ...]:
    """p_{N+1-j} pairing used by the outgoing wave."""
    return tuple(reversed(pset.momenta))


def forward_wave(pset: MomentumSet, coords: Sequence[float]) -> complex:
    return cmath.exp(1j * lsum(p * x for p, x in zip(pset.momenta, coords)))


def reversed_wave(pset: MomentumSet, phi: float,
                  coords: Sequence[float]) -> complex:
    return cmath.exp(1j * math.pi * phi) * cmath.exp(
        1j * lsum(x * p for x, p in zip(coords, reversed_momenta(pset))))


def wronskian(jost: JostPair, coords: Sequence[float],
              direction: int) -> complex:
    """W = psi_+ d_i psi_- - psi_- d_i psi_+ from the exponential forms.

    direction is 1-based.  Derivatives of the plane-wave forms are exact
    (i p_i and i p_{N+1-i} factors).
    """
    n = len(jost.pset.momenta)
    if not 1 <= direction <= n:
        raise DomainError(f"direction must be in 1..{n}")
    if len(coords) != n:
        raise DomainError("configuration size mismatch")
    i = direction - 1
    ms = jost.pset.momenta
    e1 = forward_wave(jost.pset, coords)
    e2 = reversed_wave(jost.pset, jost.phi, coords)
    psi_p = e1
    dpsi_p = 1j * ms[i] * e1
    psi_m = jost.m12 * e1 + jost.m22 * e2
    dpsi_m = jost.m12 * 1j * ms[i] * e1 + jost.m22 * 1j * ms[n - 1 - i] * e2
    return psi_p * dpsi_m - psi_m * dpsi_p


def wronskian_product_form(jost: JostPair, coords: Sequence[float],
                           direction: int) -> complex:
    """Factorized form i M22 (p_{N+1-i} - p_i) e^(i pi phi) E2 E1.

    Derived from the defining formula above; note the pairing factor sign
    is (p_{N+1-i} - p_i) for W[psi_+, psi_-] in this order.
    """
    n = len(jost.pset.momenta)
    i = direction - 1
    ms = jost.pset.momenta
    return 1j * jost.m22 * (ms[n - 1 - i] - ms[i]) \
        * reversed_wave(jost.pset, jost.phi, coords) \
        * forward_wave(jost.pset, coords)


# --- superposition states and their large-r waves ----------------------------

class AsymptoticRangeError(DomainError):
    """Argument below the validity threshold of an asymptotic form."""


def asymptotic_threshold(order: float, max_rel_error: float = 1e-6) -> float:
    """Smallest x at which the leading asymptotic term meets max_rel_error.

    The first neglected contribution is the Q term, |4 nu^2 - 1| / (8x) in
    units of the envelope; half-integer orders 1/2 make it vanish exactly.
    """
    lead = abs(4.0 * order * order - 1.0) / 8.0
    if lead == 0.0:
        return 0.0
    return lead / max_rel_error


def make_general_state(params: CouplingParams, p: float,
                       entries: Mapping[tuple[int, int], complex]
                       ) -> Callable[[tuple], complex]:
    """Callable psi(coords) for the superposition {(k, q): Ct} at radial
    momentum p.

    The full coefficients are p^n' * Ct, with n' the k = 0 index.
    """
    if p <= 0.0:
        raise DomainError("scattering states need p > 0")
    scale = p ** radial_indices(params, 0).n_prime
    return _state_evaluator(params, p, _channels(
        params, {kq: scale * c for kq, c in entries.items()}))


def asymptotic_wave(x, p: float,
                    entries: Mapping[tuple[int, int], complex],
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
    pr = p * r
    channels = _channels(params, entries)
    for ch in channels:
        thr = asymptotic_threshold(ch.b_prime, max_rel_error)
        if pr < thr:
            raise AsymptoticRangeError(
                f"p*r = {pr:.6g} below asymptotic threshold {thr:.6g} "
                f"(degree {ch.k})")
    idx0 = radial_indices(params, 0)
    envelope = (2.0 * math.pi * r) ** -0.5 * p ** (idx0.n_prime - 0.5) \
        * ground_state(coords, params.nu_prime) * r ** (-idx0.b_prime)
    total = 0j
    for ch in channels:
        phase = cmath.exp(sign * 1j * (ch.b_prime + 0.5) * math.pi / 2.0
                          - sign * 1j * pr)
        pval = 1.0 if ch.poly is None else ch.poly(coords)
        total += ch.coeff * r ** (-ch.k) * pval * phase
    return envelope * total


# --- PT-commutation checker ---------------------------------------------------
#
# PT acts on functions as (PT f)(x) = conj(f(-x)); the residual
# |PT(T f)(x) - T(PT f)(x)| measures the commutator extensionally, with the
# terms on the eigen residual's own central-difference stencil.

HAMILTONIAN_TERMS = ("kinetic", "inverse_square", "momentum_deformation")


def _min_pair_gap(x: Sequence[float]) -> float:
    n = len(x)
    return min(abs(x[i] - x[j]) for i in range(n) for j in range(i + 1, n))


def pt_invariance_residual(term: str | Callable,
                           testfn: Callable[[tuple], complex],
                           sample: Sequence[float], *,
                           g: float = 1.0, delta: float = 0.5,
                           h: float = 1e-4, min_gap: float = 1e-6) -> float:
    """|PT(T psi)(x) - T(PT psi)(x)| for one term T.

    term names one of HAMILTONIAN_TERMS, evaluated on the stencil, or is
    any (f, x, h) -> value map (a control).  ~0 for every term of the
    extended Hamiltonian.  The sample (and its parity image) must stay off
    the coincidence hyperplanes by at least min_gap and clear of the
    stencil width.
    """
    x = tuple(float(c) for c in sample)
    gap = _min_pair_gap(x)
    if gap < max(min_gap, 4.0 * h):
        raise SingularConfigurationError(
            f"sample gap {gap:.3e} too close to a coincidence hyperplane")
    if isinstance(term, str):
        if term not in HAMILTONIAN_TERMS:
            raise DomainError(f"unknown Hamiltonian term {term!r}")
        i = HAMILTONIAN_TERMS.index(term)

        def op(f, y, step):
            centre = complex(f(y))
            plus, minus = stencil_values(f, y, step)
            return terms_from_stencil(y, centre, plus, minus, g, delta,
                                      step)[i]
    else:
        op = term

    def pt_of(fn):
        return lambda y: complex(fn(tuple(-c for c in y))).conjugate()

    minus_x = tuple(-c for c in x)
    side_apply_then_pt = complex(op(testfn, minus_x, h)).conjugate()
    side_pt_then_apply = complex(op(pt_of(testfn), x, h))
    return abs(side_apply_then_pt - side_pt_then_apply)


# --- exact polynomial values --------------------------------------------------

def evaluate_poly(poly: SymPolynomial, x: Sequence) -> Fraction:
    """Exact value at a configuration of ints or Fractions.

    Same centred power sums as the package's float_evaluator, in rational
    arithmetic.
    """
    _check_size(poly.n_vars, x)
    mean = Fraction(sum(Fraction(c) for c in x), len(x))
    terms = list(poly.power_sums.items())
    return _centred_sum([Fraction(c) - mean for c in x], terms,
                        _parts_used(terms), Fraction(0))


# --- the scan's per-sample path -----------------------------------------------

def from_momenta(momenta: Sequence[float]) -> MomentumSet:
    """MomentumSet.from_momenta with one generator pass per check."""
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
    return MomentumSet(ms, p)


def sample_momenta(n: int, rng: random.Random, p: float) -> MomentumSet:
    """Sorted sum-zero momenta rescaled to radial magnitude p."""
    if p <= 0.0:
        raise DomainError("need p > 0")
    while True:
        draws = [rng.uniform(-1.0, 1.0) for _ in range(n - 1)]
        vec = draws + [-lsum(draws)]
        norm = math.sqrt(lsum(v * v for v in vec))
        if norm > 1e-12:
            break
    vec = sorted(v * (p / norm) for v in vec)
    # exact sum-zero restoration after rescaling rounding
    shift = lsum(vec) / n
    vec = [v - shift for v in vec]
    return from_momenta(sorted(vec))


def pair_factors(pset: MomentumSet) -> tuple[float, ...]:
    """Momentum pairing factors p_i - p_{N+1-i}, one per direction i."""
    ms = pset.momenta
    n = len(ms)
    return tuple(ms[i] - ms[n - 1 - i] for i in range(n))


def wronskian_report(pset: MomentumSet) -> WronskianReport:
    """The report with the live minimum over every non-self-paired i."""
    factors = pair_factors(pset)
    n = len(factors)
    live = [abs(factors[i]) for i in range(n) if i != n - 1 - i]
    return WronskianReport(pset=pset, pair_factors=factors,
                           min_pair_factor=min(live),
                           ss_verdict=factors[0] == 0.0)


# --- Miller's backward recurrence ---------------------------------------------

def miller(nu0: float, top: int, x: float) -> tuple[float, float]:
    """(J_(nu0+top-1), J_(nu0+top)) at x by Miller's backward recurrence.

    The Neumann sum over w_0 = Gamma(nu0 + 1) is nested on the way down:
    f_0 + A_1 with A_j = ((nu0 + 2j) f_2j + (nu0 + j) A_(j+1)) / j.
    """
    bits = 80
    reach = max(top, x)
    m = 2 * math.ceil((reach + 20.0 + 3.0 * math.sqrt(reach)) / 2)
    (vn, vd), (xn, xd) = nu0.as_integer_ratio(), x.as_integer_ratio()
    unit = (2 * xd << bits) // xn  # 2/x
    coef = vn * unit // vd + m * unit  # 2(nu0+k)/x at k = m
    f_up, f, total = 0, 1 << bits, 0
    for k in range(m, 0, -1):
        if k % 2 == 0:
            j = k // 2
            total = ((vn + k * vd) * f + (vn + j * vd) * total) // (j * vd)
        f, f_up = (coef * f >> bits) - f_up, f
        coef -= unit
        if k == top:
            lo, hi = f, f_up
    # one rounding per result: the scale enters as exact float ratios
    pn, pd = ((0.5 * x) ** nu0).as_integer_ratio()
    gn, gd = math.gamma(nu0 + 1.0).as_integer_ratio()
    num, den = pn * gd, pd * gn * (f + total)
    return num * lo / den, num * hi / den
