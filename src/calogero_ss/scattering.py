"""Spectral-singularity scan, boundary-matched coefficients, sweeps.

The spectral-singularity test: the incoming/outgoing Jost solutions are
pure multi-particle plane waves at large separations, so their Wronskian
along direction i factorizes into a momentum pairing factor
(p_{N+1-i} - p_i) times the transfer-matrix entry M22 and pure phases.
A spectral singularity needs a vanishing Wronskian at positive energy,
which for sorted sum-zero momenta forces every p_j = 0 because M22 is
never zero; the scan therefore reports the pairing factors and decides
the verdict from them.  M22 is tied to the reflection coefficient,
computed here by matching interior Bessel profiles to plane-wave
envelopes at reference radii.  Reflection comes out identically 1; the
transmission trend is measured, never assumed.
"""

from __future__ import annotations

import cmath
import math
import random
from itertools import repeat
from operator import attrgetter, mul, sub
from typing import Mapping, NamedTuple, Sequence

from ._sums import lsum
from .errors import (DegenerateEnvelopeError, DomainError,
                     NumericalFailureError)
from .model import CouplingParams, radial_indices
from .specialfn import bessel_eval
from .wavefunction import (MomentumSet, _channels, ground_state,
                           radial_coordinate)

DIVERGENT_TOL = 1e-12

# Operational reading of "transmission vanishes at large r_-": over the
# sweep the tail upper envelope must fall by a decade with a clearly
# negative fitted slope.  A violation leaves TrendSummary.decayed False,
# which the CLI records as trend_discrepancy and exits 6 on.
DECAY_SLOPE_MAX = -0.25
DECAY_DROP_MIN = 10.0

M22_FINITE_NONZERO = "Finite-Nonzero"
M22_DIVERGENT = "Divergent"


# --- momentum sampling --------------------------------------------------------

def sample_momenta(n: int, rng: random.Random, p: float) -> MomentumSet:
    """Sorted sum-zero momenta rescaled to radial magnitude p."""
    if n < 2:  # with no draw the norm stays 0 and the loop never ends
        raise DomainError("need at least two momenta")
    if p <= 0.0:
        raise DomainError("need p > 0")
    while True:
        # -1 + 2 u is the documented value of rng.uniform(-1.0, 1.0)
        draws = [-1.0 + 2.0 * rng.random() for _ in range(n - 1)]
        vec = draws + [-lsum(draws)]
        norm = math.sqrt(lsum(map(mul, vec, vec)))
        if norm > 1e-12:
            break
    scale = p / norm
    vec = sorted([v * scale for v in vec])
    # exact sum-zero restoration after rescaling rounding; a common shift
    # keeps the order
    shift = lsum(vec) / n
    return MomentumSet.from_momenta([v - shift for v in vec])


# --- spectral-singularity scan ------------------------------------------------

class WronskianReport(NamedTuple):
    """Per-sample pairing factors and the singularity verdict.

    The verdict is the theorem, not a threshold.  By the factorization
    in the module docstring |W_i| = |M22| |p_i - p_{N+1-i}|, and M22 != 0: a = 0 would need
    J_b' and J'_b' to vanish at the same positive argument, and they have
    no common positive zero (DLMF 10.21(i)).  For sorted momenta the
    direction-1 factor is the spread |p_1 - p_N|, the largest of all, so
    W_1 vanishes exactly when the spread is 0, and with sum zero that
    means every momentum is 0.  The verdict is therefore spread == 0.
    Self-paired middle directions of odd N vanish structurally; they are
    reported in pair_factors but are not live.  min_pair_factor is the
    smallest live |factor|, taken over the first floor(N/2), since
    |p_i - p_(N+1-i)| = |p_(N+1-i) - p_i|.
    """
    pset: MomentumSet
    pair_factors: tuple[float, ...]
    min_pair_factor: float
    m22_status: str
    ss_verdict: bool


def wronskian_report(pset: MomentumSet,
                     m22_status: str = M22_FINITE_NONZERO) -> WronskianReport:
    """Pairing factors p_i - p_(N+1-i), one per direction i, and verdict."""
    ms = pset.momenta
    factors = tuple(map(sub, ms, ms[::-1]))
    return WronskianReport(pset, factors,
                           min(map(abs, factors[:len(ms) // 2])),
                           m22_status, factors[0] == 0.0)


class ScanSummary(NamedTuple):
    reports: tuple[WronskianReport, ...]
    min_pair_factor: float     # min over samples of the report minima
    ss_count: int


def ss_scan(params: CouplingParams, p_min: float, p_max: float, seed: int,
            n_samples: int) -> ScanSummary:
    """Seeded nonexistence sweep; one report per sample, in sample order.

    Each sample draws its magnitude uniformly from [p_min, p_max] and then
    its momenta, both from one random.Random(seed).
    """
    if not (math.isfinite(p_max) and 0.0 < p_min <= p_max):
        raise DomainError("need 0 < p_min <= p_max < inf")
    if n_samples < 0:
        raise DomainError("n_samples must be >= 0")
    status = transfer_status(params)
    n, rng = params.n_particles, random.Random(seed)
    psets = [sample_momenta(n, rng, rng.uniform(p_min, p_max))
             for _ in range(n_samples)]
    reports = tuple(map(wronskian_report, psets, repeat(status)))
    return ScanSummary(reports,
                       min(map(attrgetter("min_pair_factor"), reports),
                           default=math.inf),
                       sum(map(attrgetter("ss_verdict"), reports)))


# --- boundary matching --------------------------------------------------------

class ScatteringMatch(NamedTuple):
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
    squares underflow still give R and T; a ratio that is not a finite
    number (an amplitude overflowed) is refused."""
    if den == 0:
        raise NumericalFailureError(
            f"incoming amplitude underflowed to 0 at p={p}, r_-={r_minus}")
    ratio = abs(num / den)
    if not math.isfinite(ratio):
        raise NumericalFailureError(
            f"amplitude ratio is {ratio} at p={p}, r_-={r_minus}")
    return ratio * ratio


def _amplitudes(p: float, r: float, f: complex, fd: complex, s: complex,
                sd: complex, scale: float) -> tuple[complex, complex]:
    """(a, b) of scale S (a e^{-ipr} + b e^{ipr}) with value F and
    r-derivative F' at r: [ipFS -+ (F'S - S'F)] e^{+-ipr} / (scale 2ip S^2).
    With real profile data the numerators are conjugate, forcing R = 1."""
    denom = scale * 2j * p * s * s
    ipfs, fds, sdf = 1j * p * f * s, fd * s, sd * f
    return ((ipfs - fds + sdf) * cmath.exp(1j * p * r) / denom,
            (ipfs + fds - sdf) * cmath.exp(-1j * p * r) / denom)


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

    jm, jm_d = bessel_eval(b_ord, p * r_minus)  # d/d(pr)
    # over r^(c-1/2) p^(n'-1/2): F = sqrt(r) J, S = 1, S' = (c - 1/2)/r
    root = math.sqrt(r_minus)
    a, b = _amplitudes(p, r_minus, root * jm,
                       c / root * jm + root * p * jm_d,
                       1.0, (c - 0.5) / r_minus, 1.0)

    # transmitted side: one constant from value continuity
    jp, jp_d = bessel_eval(b_ord, p * r_plus)
    d = math.sqrt(r_plus) * jp * cmath.exp(1j * p * r_plus)
    # relative defect of the over-determined outgoing derivative condition,
    # both sides over p^(n'-1/2) r_+^(c-1)
    x = p * r_plus
    psi_d = c * jp + x * jp_d
    mismatch = abs((c - 0.5 - 1j * x) * jp - psi_d) / max(abs(psi_d), 1e-300)

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
    j, jd = bessel_eval(idx.b_prime, p * r_plus)
    pref = cmath.exp(1j * p * r_plus) * p ** -(idx.n_prime - 0.5)
    return {
        "derivative_squared": r_plus * jd * jd * pref,
        "derivative_of_square": r_plus * 2.0 * j * jd * pref,
    }


def _ray_profile(params: CouplingParams, p: float,
                 entries: Mapping[tuple[int, int], complex],
                 direction: Sequence[float],
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
             for ch in _channels(params, entries)]
    power = g_exp - b0
    evs = [(c, bessel_eval(b0 + k, p * r)) for k, c in terms]
    total = lsum(c * j for c, (j, _) in evs)
    total_d = lsum(c * p * jd for c, (_, jd) in evs)
    envelope_const = lsum(c for _, c in terms) * j0 / math.sqrt(2.0 * math.pi)
    return (j0 * r ** power * total,
            j0 * (power * r ** (power - 1.0) * total + r ** power * total_d),
            envelope_const * r ** (power - 0.5),
            envelope_const * (power - 0.5) * r ** (power - 1.5))


def match_n_body(params: CouplingParams, p: float,
                 entries: Mapping[tuple[int, int], complex], r_minus: float,
                 direction: Sequence[float] | None = None) -> ScatteringMatch:
    """Value+derivative continuity of the envelope form at r_-.

    a and b are _amplitudes of the ray profile at scale p^(n'-1/2).
    """
    if p <= 0.0:
        raise DomainError("need p > 0")
    if r_minus <= 0.0:
        raise DomainError("need r_- > 0")
    if direction is None:
        n = params.n_particles
        direction = tuple((n - 1) / 2.0 - j for j in range(n))
    f_v, fd_v, s_v, sd_v = _ray_profile(params, p, entries, direction,
                                        r_minus)
    if abs(s_v) < 1e-300:
        raise DegenerateEnvelopeError(
            f"matching envelope vanishes at r_- = {r_minus}")
    a, b = _amplitudes(p, r_minus, f_v, fd_v, s_v, sd_v,
                       p ** (radial_indices(params, 0).n_prime - 0.5))
    return ScatteringMatch(r_minus=r_minus, r_plus=None, a=a, b=b, d=None,
                           reflection=_squared_ratio(b, a, p, r_minus),
                           transmission=None, derivative_mismatch=None)


def match_at(params: CouplingParams, p: float, r_minus: float,
             r_plus: float, k: int = 0) -> ScatteringMatch:
    """The matching policy of a sweep point, for every N.

    N = 2 takes the two-body matcher, which is the k = 0 channel; any
    other k is a DomainError.  Above it the envelope matcher runs on the
    (0, 1) + 0.6 (k, 1) superposition ((0, 1) alone for k = 0) at p;
    r_plus is not used.
    """
    if params.n_particles == 2:
        if k != 0:
            raise DomainError(f"k={k} at N = 2: the two-body matcher is "
                              "the k = 0 channel")
        return match_two_body(params, p, r_minus, r_plus)
    entries = {(0, 1): 1.0 + 0j}
    if k:
        entries[(k, 1)] = 0.6 + 0j
    return match_n_body(params, p, entries, r_minus)


# --- M22 status ---------------------------------------------------------------

def m22_status(match: ScatteringMatch) -> str:
    """M22 of a two-body match: Divergent where the transmission amplitude
    d/a = 1/M22 is below DIVERGENT_TOL in magnitude, else Finite-Nonzero."""
    if match.d is None:
        raise DomainError("M22 needs a two-body match")
    if match.a == 0:
        raise NumericalFailureError(
            f"incoming amplitude is 0 at r_-={match.r_minus}: M22 undefined")
    if abs(match.d / match.a) < DIVERGENT_TOL:
        return M22_DIVERGENT
    return M22_FINITE_NONZERO


def transfer_status(params: CouplingParams) -> str:
    """Representative M22 classification at matched radial couplings.

    The scan only reports it; a two-body match at the same exponent and
    deformation, at p = 1, r_- = 50 and r_+ = 5, stands in for any N.
    """
    two_body = CouplingParams.from_exponent(2, params.nu_prime, params.delta)
    return m22_status(match_two_body(two_body, 1.0, 50.0, 5.0))


# --- transmission trend --------------------------------------------------------

class TrendSummary(NamedTuple):
    """Fitted log-log slope and first/last tail upper envelope of T(r_-)."""
    fitted_slope: float
    envelope_first: float
    envelope_last: float
    decayed: bool


class TransmissionSweep(NamedTuple):
    """(swept value, match) rows; trend is None unless it was checked."""
    rows: tuple[tuple[float, ScatteringMatch], ...]
    trend: TrendSummary | None


def check_r_minus_grid(r_minus_values: Sequence[float]) -> None:
    """Reject an r_- grid a trend cannot be fitted to: fewer than two
    values, or not strictly increasing."""
    values = list(r_minus_values)
    if len(values) < 2:
        raise DomainError(f"the trend check needs at least two r_minus "
                          f"values, got {len(values)}")
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
    slope = _lsq_slope(logs)
    first, last = env[0], env[-1]
    decayed = slope <= DECAY_SLOPE_MAX and first >= DECAY_DROP_MIN * last
    return TrendSummary(slope, first, last, decayed)


def transmission_sweep(params: CouplingParams, param: str,
                       values: Sequence[float], *, p: float = 1.0,
                       r_minus: float = 50.0, r_plus: float = 5.0,
                       k: int = 0) -> TransmissionSweep:
    """match_at over values of param ("p", "r_minus" or "r_plus").

    The other two stay at their given values.  r_plus is swept only at
    N = 2, the one matcher that uses it.  An N = 2 r_- sweep also runs
    the trend check of the decay claim, with the grid checked before any
    matching; every other sweep has trend None.
    """
    fixed = {"p": p, "r_minus": r_minus, "r_plus": r_plus}
    if param not in fixed:
        raise DomainError(f"cannot sweep {param!r}; choose one of "
                          + ", ".join(fixed))
    if param == "r_plus" and params.n_particles != 2:
        raise DomainError(f"cannot sweep r_plus at N = "
                          f"{params.n_particles}: only the two-body "
                          "matcher uses it")
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
