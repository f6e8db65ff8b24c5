"""Jost asymptotics, Wronskian scan, and boundary-matched coefficients.

The spectral-singularity test: the incoming/outgoing Jost solutions are
pure multi-particle plane waves at large separations, so their Wronskian
along direction i factorizes into a momentum pairing factor
(p_{N+1-i} - p_i) times the transfer-matrix entry M22 and pure phases.
A spectral singularity needs a vanishing Wronskian at positive energy,
which for sorted sum-zero momenta forces every p_j = 0 because M22 is
never zero; M22 is tied to the reflection coefficient, computed here by
matching interior Bessel profiles to plane-wave envelopes at reference
radii.  Reflection comes out identically 1; the transmission trend is
measured, never assumed.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from ._sums import lsum
from .errors import (DegenerateEnvelopeError, DomainError,
                     NumericalFailureError)
from .model import CouplingParams, radial_indices
from .specialfn import bessel_eval
from .wavefunction import (MomentumSet, SuperpositionCoeffs, _channels,
                           ground_state, radial_coordinate,
                           reference_momentum_set)

DIVERGENT_TOL = 1e-12

# Operational reading of "transmission vanishes at large r_-": over the
# sweep the tail upper envelope must fall by a decade with a clearly
# negative fitted slope.  Violations produce a TrendDiscrepancy record.
DECAY_SLOPE_MAX = -0.25
DECAY_DROP_MIN = 10.0

M22_FINITE_NONZERO = "Finite-Nonzero"
M22_DIVERGENT = "Divergent"


# --- Jost solutions and Wronskian --------------------------------------------

@dataclass(frozen=True)
class JostPair:
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


def _forward_wave(pset: MomentumSet, coords: Sequence[float]) -> complex:
    return cmath.exp(1j * lsum(p * x for p, x in zip(pset.momenta, coords)))


def _reversed_wave(pset: MomentumSet, phi: float,
                   coords: Sequence[float]) -> complex:
    return cmath.exp(1j * math.pi * phi) * cmath.exp(
        1j * lsum(x * p for x, p in zip(coords, pset.reversed_momenta())))


def pair_factors(pset: MomentumSet) -> tuple[float, ...]:
    """Momentum pairing factors p_i - p_{N+1-i}, one per direction i."""
    ms = pset.momenta
    n = len(ms)
    return tuple(ms[i] - ms[n - 1 - i] for i in range(n))


def wronskian(jost: JostPair, coords: Sequence[float],
              direction: int) -> complex:
    """W = psi_+ d_i psi_- - psi_- d_i psi_+ from the exponential forms.

    direction is 1-based.  Derivatives of the plane-wave forms are exact
    (i p_i and i p_{N+1-i} factors).
    """
    n = jost.pset.n
    if not 1 <= direction <= n:
        raise DomainError(f"direction must be in 1..{n}")
    if len(coords) != n:
        raise DomainError("configuration size mismatch")
    i = direction - 1
    ms = jost.pset.momenta
    e1 = _forward_wave(jost.pset, coords)
    e2 = _reversed_wave(jost.pset, jost.phi, coords)
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
    n = jost.pset.n
    i = direction - 1
    ms = jost.pset.momenta
    return 1j * jost.m22 * (ms[n - 1 - i] - ms[i]) \
        * _reversed_wave(jost.pset, jost.phi, coords) \
        * _forward_wave(jost.pset, coords)


# --- momentum sampling --------------------------------------------------------

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
    return MomentumSet.from_momenta(sorted(vec))


def momentum_sampler(n: int, p_min: float, p_max: float,
                     seed: int) -> Callable[[], MomentumSet]:
    """Seed-deterministic sampler over the constraint manifold."""
    if not (math.isfinite(p_max) and 0.0 < p_min <= p_max):
        raise DomainError("need 0 < p_min <= p_max < inf")
    rng = random.Random(seed)

    def draw() -> MomentumSet:
        return sample_momenta(n, rng, rng.uniform(p_min, p_max))

    return draw


# --- spectral-singularity scan ------------------------------------------------

@dataclass(frozen=True)
class WronskianReport:
    """Per-sample pairing factors and the singularity verdict.

    The verdict is the theorem, not a threshold.  By the factorization
    above |W_i| = |M22| |p_i - p_{N+1-i}|, and M22 != 0: a = 0 would need
    J_b' and J'_b' to vanish at the same positive argument, and they have
    no common positive zero (DLMF 10.21(i)).  For sorted momenta the
    direction-1 factor is the spread |p_1 - p_N|, the largest of all, so
    W_1 vanishes exactly when the spread is 0, and with sum zero that
    means every momentum is 0.  The verdict is therefore spread == 0.
    Self-paired middle directions of odd N vanish structurally; they are
    reported in pair_factors but are not live.  min_pair_factor is the
    smallest live |factor|.
    """
    pset: MomentumSet
    pair_factors: tuple[float, ...]
    min_pair_factor: float
    m22_status: str
    ss_verdict: bool


def wronskian_report(pset: MomentumSet,
                     m22_status: str = M22_FINITE_NONZERO) -> WronskianReport:
    factors = pair_factors(pset)
    n = len(factors)
    live = [abs(factors[i]) for i in range(n) if i != n - 1 - i]
    return WronskianReport(pset=pset, pair_factors=factors,
                           min_pair_factor=min(live),
                           m22_status=m22_status,
                           ss_verdict=factors[0] == 0.0)


@dataclass(frozen=True)
class ScanSummary:
    reports: tuple[WronskianReport, ...]
    min_pair_factor: float     # min over samples of the report minima
    ss_count: int


def ss_scan(n: int, sampler: Callable[[], MomentumSet], n_samples: int,
            params: CouplingParams | None = None) -> ScanSummary:
    """Seeded nonexistence sweep; one report per sample, in sample order."""
    if n_samples < 0:
        raise DomainError("n_samples must be >= 0")
    if params is None:
        params = CouplingParams.from_exponent(n, 1.0, 0.5)
    if params.n_particles != n:
        raise DomainError("params particle count must match n")
    status = transfer_status(params)
    psets = [sampler() for _ in range(n_samples)]
    for ps in psets:
        if ps.n != n:
            raise DomainError("sampler produced wrong particle count")
    reports = tuple(wronskian_report(ps, status) for ps in psets)
    return ScanSummary(reports=reports,
                       min_pair_factor=min((r.min_pair_factor
                                            for r in reports),
                                           default=math.inf),
                       ss_count=sum(r.ss_verdict for r in reports))


# --- boundary matching --------------------------------------------------------

@dataclass(frozen=True)
class ScatteringMatch:
    """Matched coefficients and derived reflection/transmission.

    Both matchers fill the incoming/outgoing amplitudes (a, b) at r_-;
    only the two-body matcher has a transmitted side, so r_plus, d,
    transmission and derivative_mismatch are None for N-body matches.
    The derivative mismatch is the relative defect of the outgoing-side
    derivative condition, which over-determines the single constant d and
    is therefore surfaced rather than imposed.
    """
    r_minus: float
    r_plus: float | None
    a: complex
    b: complex
    d: complex | None
    reflection: float
    transmission: float | None
    derivative_mismatch: float | None


def _squared_ratio(num: complex, den: complex, p: float,
                   r_minus: float) -> float:
    """|num/den|^2 from the amplitude ratio, so tiny amplitudes whose
    squares underflow still give R and T."""
    if den == 0:
        raise NumericalFailureError(
            f"incoming amplitude underflowed to 0 at p={p}, r_-={r_minus}")
    ratio = abs(num / den)
    return ratio * ratio


def match_two_body(params: CouplingParams, p: float, r_minus: float,
                   r_plus: float) -> ScatteringMatch:
    """Value+derivative continuity at r_-, value continuity at r_+.

    Interior profile r^c p^(n'-1/2) J_b'(p r) against the envelope
    r^(c-1/2) p^(n'-1/2) (A e^{-ipr} + B e^{ipr}) below r_- and the
    transmitted wave D r^(c-1/2) p^(n'-1/2) e^{-ipr} beyond r_+.
    """
    if params.n_particles != 2:
        raise DomainError("two-body matcher needs N = 2 parameters")
    if p <= 0.0 or r_minus <= 0.0 or r_plus <= 0.0:
        raise DomainError("need p > 0 and positive reference radii")
    idx = radial_indices(params, 0)
    b_ord, c = idx.b_prime, idx.c

    inner = bessel_eval(b_ord, p * r_minus)
    jm, jm_d = inner.value, inner.derivative  # d/d(pr)
    em = cmath.exp(-1j * p * r_minus)
    ep = cmath.exp(1j * p * r_minus)
    # rows: value and derivative of the envelope (common power canceled)
    m11, m12 = em, ep
    m21 = ((c - 0.5) / r_minus - 1j * p) * em
    m22 = ((c - 0.5) / r_minus + 1j * p) * ep
    rhs1 = math.sqrt(r_minus) * jm
    rhs2 = c / math.sqrt(r_minus) * jm + math.sqrt(r_minus) * p * jm_d
    det = m11 * m22 - m12 * m21
    if abs(det) < 1e-14 * max(1.0, abs(m11 * m22)):
        raise NumericalFailureError(
            f"singular matching system at p={p}, r_-={r_minus}")
    a = (rhs1 * m22 - m12 * rhs2) / det
    b = (m11 * rhs2 - rhs1 * m21) / det

    # transmitted side: one constant from value continuity
    outer = bessel_eval(b_ord, p * r_plus)
    jp, jp_d = outer.value, outer.derivative
    d = math.sqrt(r_plus) * jp * cmath.exp(1j * p * r_plus)
    # derivative defect of the over-determined outgoing condition
    pref = p ** (idx.n_prime - 0.5)
    psi_d = pref * (c * r_plus ** (c - 1.0) * jp
                    + r_plus ** c * p * jp_d)
    out_d = d * pref * ((c - 0.5) * r_plus ** (c - 1.5)
                        - 1j * p * r_plus ** (c - 0.5)) \
        * cmath.exp(-1j * p * r_plus)
    mismatch = abs(out_d - psi_d) / max(abs(psi_d), 1e-300)

    return ScatteringMatch(r_minus=r_minus, r_plus=r_plus, a=a, b=b, d=d,
                           reflection=_squared_ratio(b, a, p, r_minus),
                           transmission=_squared_ratio(d, a, p, r_minus),
                           derivative_mismatch=mismatch)


def transmitted_coefficient_readings(params: CouplingParams, p: float,
                                     r_plus: float) -> dict[str, complex]:
    """The two readings of the printed transmitted coefficient, as labels.

    The printed closed form is ambiguous between r_+ (J')^2 and
    r_+ d(J^2)/d(pr); the artifact's d is the value-matched
    match_two_body(...).d, and these are reported alongside it for
    comparison only.
    """
    idx = radial_indices(params, 0)
    ev = bessel_eval(idx.b_prime, p * r_plus)
    j, jd = ev.value, ev.derivative
    pref = cmath.exp(1j * p * r_plus) / p ** (idx.n_prime - 0.5)
    return {
        "derivative_squared": r_plus * jd * jd * pref,
        "derivative_of_square": r_plus * 2.0 * j * jd * pref,
    }


def _ray_profile(params: CouplingParams, pset: MomentumSet,
                 coeffs: SuperpositionCoeffs, direction: Sequence[float],
                 r: float) -> tuple[complex, complex, complex, complex]:
    """Closed-form F(r), F'(r), S(r) and S'(r) along a configuration ray.

    Along x = (r / r_hat) * x_hat every polynomial factor is homogeneous,
    so the profile collapses to r-powers times Bessel factors:
        F(r) = J0 r^(G - b0) sum_kq c_kq J_(b0+k)(p r),
        S(r) = (2 pi r)^(-1/2) J0 r^(G - b0) sum_kq c_kq,
    with G the Jastrow growth exponent and b0 = A' the k = 0 Bessel order.
    """
    coords = tuple(float(c) for c in direction)
    if len(coords) != params.n_particles:
        raise DomainError("direction size mismatch")
    r_hat = radial_coordinate(coords)
    if not r_hat > 0.0:
        raise DomainError("direction has all coordinates equal (r_hat = 0)")
    n = params.n_particles
    g_exp = params.nu_prime * n * (n - 1) / 2.0
    b0 = radial_indices(params, 0).b_prime
    j0 = ground_state(coords, params.nu_prime) / r_hat ** g_exp
    # order b0 + k, not the channel's b'_k: the two floats can differ
    terms = [(ch.k, complex(ch.coeff)
              * (1.0 if ch.poly is None else ch.poly(coords)) / r_hat ** ch.k)
             for ch in _channels(params, coeffs.entries)]
    power = g_exp - b0
    evs = [(c, bessel_eval(b0 + k, pset.p * r)) for k, c in terms]
    total = lsum(c * ev.value for c, ev in evs)
    total_d = lsum(c * pset.p * ev.derivative for c, ev in evs)
    envelope_const = lsum(c for _, c in terms) * j0 / math.sqrt(2.0 * math.pi)
    return (j0 * r ** power * total,
            j0 * (power * r ** (power - 1.0) * total + r ** power * total_d),
            envelope_const * r ** (power - 0.5),
            envelope_const * (power - 0.5) * r ** (power - 1.5))


def match_n_body(params: CouplingParams, pset: MomentumSet,
                 coeffs: SuperpositionCoeffs, r_minus: float,
                 direction: Sequence[float] | None = None) -> ScatteringMatch:
    """Value+derivative continuity of the envelope form at r_-.

    a and b follow the closed matching expressions
    [ipFS -+ (F'S - S'F)] e^{+-ipr} / (p^(n'-1/2) 2ip S^2); with real
    profile data the numerators are conjugate, forcing R = 1.
    """
    if pset.p <= 0.0:
        raise DomainError("need p > 0")
    if r_minus <= 0.0:
        raise DomainError("need r_- > 0")
    if direction is None:
        n = params.n_particles
        direction = tuple((n - 1) / 2.0 - j for j in range(n))
    f_v, fd_v, s_v, sd_v = _ray_profile(params, pset, coeffs, direction,
                                        r_minus)
    if abs(s_v) < 1e-300:
        raise DegenerateEnvelopeError(
            f"matching envelope vanishes at r_- = {r_minus}")
    p = pset.p
    n_prime = radial_indices(params, 0).n_prime
    denom = p ** (n_prime - 0.5) * 2j * p * s_v * s_v
    a = (1j * p * f_v * s_v - fd_v * s_v + sd_v * f_v) \
        * cmath.exp(1j * p * r_minus) / denom
    b = (1j * p * f_v * s_v + fd_v * s_v - sd_v * f_v) \
        * cmath.exp(-1j * p * r_minus) / denom
    return ScatteringMatch(r_minus=r_minus, r_plus=None, a=a, b=b, d=None,
                           reflection=_squared_ratio(b, a, p, r_minus),
                           transmission=None, derivative_mismatch=None)


def match_at(params: CouplingParams, p: float, r_minus: float,
             r_plus: float, k: int = 0) -> ScatteringMatch:
    """The matching policy of a sweep point, for every N.

    N = 2 takes the two-body matcher (k is not used).  Above it the
    envelope matcher runs on the (0, 1) + 0.6 (k, 1) superposition
    ((0, 1) alone for k = 0) at the reference momenta of magnitude p;
    r_plus is not used.
    """
    if params.n_particles == 2:
        return match_two_body(params, p, r_minus, r_plus)
    entries = {(0, 1): 1.0 + 0j}
    if k:
        entries[(k, 1)] = 0.6 + 0j
    coeffs = SuperpositionCoeffs.for_params(params, entries)
    pset = reference_momentum_set(params.n_particles, p)
    return match_n_body(params, pset, coeffs, r_minus)


# --- transfer matrix ----------------------------------------------------------

@dataclass(frozen=True)
class TransferData:
    """Transfer-matrix view of a two-body match.

    inv_m22 (the transmission amplitude d/a) is the stored primary
    quantity, always finite here; the matrix itself uses the
    symmetric-barrier completion, which fixes det m = 1.
    """
    m: tuple[tuple[complex, complex], tuple[complex, complex]]
    det_m: complex
    inv_m22: complex
    m22_status: str


def transfer_matrix(match: ScatteringMatch) -> TransferData:
    if match.d is None:
        raise DomainError("transfer matrix needs a two-body match")
    if match.a == 0:
        raise NumericalFailureError(
            f"incoming amplitude is 0 at r_-={match.r_minus}: "
            "transfer matrix undefined")
    t = match.d / match.a
    rho = match.b / match.a
    if abs(t) < DIVERGENT_TOL:
        m = ((complex(math.inf, 0.0), complex(math.inf, 0.0)),
             (complex(math.inf, 0.0), complex(math.inf, 0.0)))
        det = 1.0 + 0j  # limit of the completion below
        status = M22_DIVERGENT
    else:
        m = ((t - rho * rho / t, rho / t), (-rho / t, 1.0 / t))
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        status = M22_FINITE_NONZERO
    return TransferData(m=m, det_m=det, inv_m22=t, m22_status=status)


def transfer_status(params: CouplingParams, p: float = 1.0,
                    r_minus: float = 50.0, r_plus: float = 5.0) -> str:
    """Representative M22 classification at matched radial couplings.

    The scan only reports it; a two-body match at the same exponent and
    deformation stands in for any N.
    """
    two_body = CouplingParams.from_exponent(2, params.nu_prime, params.delta)
    return transfer_matrix(match_two_body(two_body, p, r_minus,
                                          r_plus)).m22_status


# --- transmission trend --------------------------------------------------------

@dataclass(frozen=True)
class TrendDiscrepancy:
    """Structured record of a violated expected trend."""
    claim: str
    fitted_slope: float
    envelope_first: float
    envelope_last: float
    r_first: float
    r_last: float
    note: str


@dataclass(frozen=True)
class TrendSummary:
    fitted_slope: float
    envelope_first: float
    envelope_last: float
    decayed: bool
    discrepancy: TrendDiscrepancy | None


@dataclass(frozen=True)
class TransmissionSweep:
    """(swept value, match) rows; trend is None unless it was checked."""
    rows: tuple[tuple[float, ScatteringMatch], ...]
    trend: TrendSummary | None


def check_r_minus_grid(r_minus_values: Sequence[float]) -> None:
    """Reject an empty or not strictly increasing r_- grid."""
    values = list(r_minus_values)
    if not values:
        raise DomainError("r_minus values must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise DomainError("r_minus values must be strictly increasing")


def transmission_trend(r_minus_values: Sequence[float],
                       transmissions: Sequence[float]) -> TrendSummary:
    """Upper-envelope trend check of the decay claim over T(r_-)."""
    values = list(r_minus_values)
    check_r_minus_grid(values)
    if len(transmissions) != len(values):
        raise DomainError(f"{len(values)} r_minus values but "
                          f"{len(transmissions)} transmissions")
    # upper envelope of the tail: max of T over j >= i
    env = []
    running = 0.0
    for t in reversed(transmissions):
        running = max(running, t)
        env.append(running)
    env.reverse()
    logs = [(math.log(rm), math.log(max(e, 1e-300)))
            for rm, e in zip(values, env)]
    slope = _lsq_slope(logs) if len(logs) >= 2 else 0.0
    first, last = env[0], env[-1]
    decayed = slope <= DECAY_SLOPE_MAX and first >= DECAY_DROP_MIN * last
    discrepancy = None
    if not decayed:
        discrepancy = TrendDiscrepancy(
            claim="transmission_vanishes_at_large_r_minus",
            fitted_slope=slope, envelope_first=first, envelope_last=last,
            r_first=values[0], r_last=values[-1],
            note="upper envelope of T(r_-) does not decay as claimed; "
                 "rows retained for inspection")
    return TrendSummary(slope, first, last, decayed, discrepancy)


def transmission_sweep(params: CouplingParams, param: str,
                       values: Sequence[float], *, p: float = 1.0,
                       r_minus: float = 50.0, r_plus: float = 5.0,
                       k: int = 0) -> TransmissionSweep:
    """match_at over values of param ("p", "r_minus" or "r_plus").

    The other two stay at their given values.  An N = 2 r_- sweep also
    runs the trend check of the decay claim, with the grid checked
    before any matching; every other sweep has trend None.
    """
    fixed = {"p": p, "r_minus": r_minus, "r_plus": r_plus}
    if param not in fixed:
        raise DomainError(f"cannot sweep {param!r}; choose one of "
                          + ", ".join(fixed))
    trend_checked = param == "r_minus" and params.n_particles == 2
    if trend_checked:
        check_r_minus_grid(values)
    rows = tuple((v, match_at(params, k=k, **{**fixed, param: v}))
                 for v in values)
    trend = None
    if trend_checked:
        trend = transmission_trend([v for v, _ in rows],
                                   [m.transmission for _, m in rows])
    return TransmissionSweep(rows=rows, trend=trend)


def _lsq_slope(points: Sequence[tuple[float, float]]) -> float:
    n = len(points)
    mx = lsum(x for x, _ in points) / n
    my = lsum(y for _, y in points) / n
    num = lsum((x - mx) * (y - my) for x, y in points)
    den = lsum((x - mx) ** 2 for x, y in points)
    return num / den if den else 0.0
