"""Wronskian scan, boundary matching, transfer classification, sweeps."""

import cmath
import math
import random

import mpmath as mp
import oracles
import pytest
from oracles import (JostPair, make_general_state, pair_factors, wronskian,
                     wronskian_product_form)

import calogero_ss.scattering as scattering
import calogero_ss.specialfn as specialfn
from calogero_ss.errors import (DegenerateEnvelopeError, DomainError,
                                NumericalFailureError)
from calogero_ss.model import CouplingParams, radial_indices
from calogero_ss.scattering import (M22_DIVERGENT, M22_FINITE_NONZERO,
                                    ScanSummary, ScatteringMatch,
                                    _ray_profile, m22_status, match_at,
                                    match_n_body, match_two_body,
                                    sample_momenta, ss_scan,
                                    transfer_status, transmission_sweep,
                                    transmission_trend,
                                    transmitted_coefficient_readings,
                                    wronskian_report)
from calogero_ss.wavefunction import (MomentumSet, laplace_solutions,
                                      radial_coordinate)


class TestWronskian:
    def test_two_body_nonzero(self):
        pset = MomentumSet.from_momenta((-1.0, 1.0))
        jost = JostPair(pset, phi=-1.0)
        assert pair_factors(pset) == (-2.0, 2.0)
        w = wronskian(jost, (120.0, 110.0), 1)
        assert abs(w) == pytest.approx(2.0, rel=1e-12)

    def test_zero_momenta_degenerate_point(self):
        pset = MomentumSet.from_momenta((0.0, 0.0, 0.0))
        jost = JostPair(pset, phi=-3.0)
        for i in (1, 2, 3):
            assert wronskian(jost, (130.0, 120.0, 110.0), i) == 0j

    def test_four_body_factors(self):
        pset = MomentumSet.from_momenta((-2.0, -1.0, 1.0, 2.0))
        assert pair_factors(pset) == (-4.0, -2.0, 2.0, 4.0)

    def test_two_body_closed_form(self):
        pset = MomentumSet.from_momenta((-1.0, 1.0))
        phi = -0.75
        jost = JostPair(pset, phi=phi, m12=0.3 + 0.1j, m22=1.2 - 0.4j)
        x = (115.0, 103.0)
        e1 = cmath.exp(1j * (-1.0 * x[0] + 1.0 * x[1]))
        e2 = cmath.exp(1j * (1.0 * x[0] - 1.0 * x[1]))
        expected = 1j * jost.m22 * (1.0 - (-1.0)) \
            * cmath.exp(1j * math.pi * phi) * e2 * e1
        assert wronskian(jost, x, 1) == pytest.approx(expected, rel=1e-12)

    def test_factorization_thousand_samples(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.choice((2, 3, 4))
            pset = sample_momenta(n, rng, rng.uniform(0.01, 10.0))
            jost = JostPair(pset, phi=rng.uniform(-6.0, 0.0),
                            m12=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                            m22=complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)))
            coords = tuple(sorted((rng.uniform(50, 500) for _ in range(n)),
                                  reverse=True))
            i = rng.randint(1, n)
            direct = wronskian(jost, coords, i)
            product = wronskian_product_form(jost, coords, i)
            # normalize by the Wronskian scale across directions so the
            # structurally-zero self-paired direction compares roundoff
            # against the problem scale, not against itself
            scale = abs(jost.m22) * (pset.momenta[-1] - pset.momenta[0])
            assert abs(direct - product) / max(scale, 1e-30) < 1e-10


class TestPairingLemma:
    def test_strict_negativity_random(self):
        rng = random.Random(2024)
        for _ in range(100_000):
            n = rng.choice((2, 3, 4, 5))
            draws = [rng.uniform(-1.0, 1.0) for _ in range(n - 1)]
            vec = sorted(draws + [-sum(draws)])
            if max(abs(v) for v in vec) == 0.0:
                continue
            assert vec[0] - vec[-1] < 0.0

    def test_boundary_case_analytic(self):
        # p_1 = p_N with sorted order forces all equal; sum zero forces 0
        vec = (0.0, 0.0, 0.0, 0.0)
        assert vec[0] - vec[-1] == 0.0
        assert all(v == 0.0 for v in vec)


class TestSampler:
    def test_constraints(self):
        params = CouplingParams.from_exponent(4, 1.0, 0.5)
        for rep in ss_scan(params, 0.01, 10.0, 3, 200).reports:
            ms = rep.pset
            assert 0.009 <= ms.p <= 10.001
            assert abs(sum(ms.momenta)) < 1e-12 * 4 * max(
                1.0, max(abs(v) for v in ms.momenta))
            assert list(ms.momenta) == sorted(ms.momenta)

    def test_seed_determinism(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        a = ss_scan(params, 0.01, 10.0, 7, 50)
        b = ss_scan(params, 0.01, 10.0, 7, 50)
        assert [r.pset.momenta for r in a.reports] == \
            [r.pset.momenta for r in b.reports]

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_draws_follow_the_seeded_stream(self, n):
        # one Random(seed): per sample the magnitude, then the momenta
        params = CouplingParams.from_exponent(n, 1.0, 0.5)
        rng = random.Random(19)
        expected = [sample_momenta(n, rng, rng.uniform(0.5, 4.0))
                    for _ in range(40)]
        summary = ss_scan(params, 0.5, 4.0, 19, 40)
        assert [r.pset for r in summary.reports] == expected

    def test_bad_range(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        with pytest.raises(DomainError):
            ss_scan(params, 0.0, 10.0, 1, 5)

    @pytest.mark.parametrize("p_min,p_max", [
        (0.01, math.inf), (math.inf, math.inf), (0.01, math.nan)])
    def test_non_finite_bound_rejected(self, p_min, p_max):
        # an infinite p_max would draw p = inf and nan momenta
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        with pytest.raises(DomainError):
            ss_scan(params, p_min, p_max, 1, 5)

    def test_range_checked_before_sample_count(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        with pytest.raises(DomainError, match="p_min <= p_max"):
            ss_scan(params, 2.0, 1.0, 1, -1)
        with pytest.raises(DomainError, match="n_samples"):
            ss_scan(params, 1.0, 2.0, 1, -1)

    def test_infinite_magnitude_rejected(self):
        with pytest.raises(DomainError, match="must be finite"):
            sample_momenta(3, random.Random(1), math.inf)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_particles_refused(self, n):
        # refused before any draw: with no draws the norm stays 0, and the
        # redraw loop would never end
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(DomainError, match="at least two momenta"):
            sample_momenta(n, rng, 1.0)
        assert rng.getstate() == state


class TestScan:
    def test_no_verdicts_smoke(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        summary = ss_scan(params, 0.01, 10.0, 11, 500)
        assert isinstance(summary, ScanSummary)
        assert len(summary.reports) == 500
        assert summary.ss_count == 0
        assert summary.min_pair_factor > 0.0
        assert all(r.m22_status == M22_FINITE_NONZERO
                   for r in summary.reports)

    def test_middle_direction_reported_not_decisive(self):
        pset = MomentumSet.from_momenta((-1.0, 0.0, 1.0))
        rep = wronskian_report(pset)
        assert rep.pair_factors == (-2.0, 0.0, 2.0)
        # the zero middle factor is reported but is not the live minimum
        assert rep.min_pair_factor == 2.0
        assert not rep.ss_verdict

    def test_degenerate_point_verdict(self):
        rep = wronskian_report(MomentumSet.from_momenta((0.0, 0.0)))
        assert rep.ss_verdict
        assert all(f == 0.0 for f in rep.pair_factors)
        assert rep.min_pair_factor == 0.0

    @pytest.mark.parametrize("scale", [1e-10, 0.3, 0.8, 1.5])
    def test_verdict_matches_wronskian_rule(self, scale):
        # oracle: the Jost Wronskian itself at a far configuration, with a
        # random nonzero M22; verdict <=> spread == 0 <=> every live W == 0.
        # Radial magnitudes span [0.01, 10] * scale: no tolerance may hide a
        # tiny nonzero spread.
        rng = random.Random(4242)
        psets = [sample_momenta(n, rng, scale * rng.uniform(0.01, 10.0))
                 for n in range(2, 9) for _ in range(160)]
        psets += [MomentumSet.from_momenta((0.0,) * n) for n in range(2, 9)]
        verdicts = 0
        for pset in psets:
            n = len(pset.momenta)
            jost = JostPair(pset, phi=rng.uniform(-6.0, 0.0),
                            m12=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                            m22=complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)))
            coords = tuple(100.0 + 10.0 * (n - j) for j in range(n))
            live = [i for i in range(1, n + 1) if i != n + 1 - i]
            spread = pset.momenta[-1] - pset.momenta[0]
            all_zero = all(wronskian(jost, coords, i) == 0 for i in live)
            rep = wronskian_report(pset)
            assert rep.ss_verdict == (spread == 0.0) == all_zero
            verdicts += rep.ss_verdict
            min_w = min(abs(wronskian_product_form(jost, coords, i))
                        for i in live)
            assert rep.min_pair_factor * abs(jost.m22) == pytest.approx(
                min_w, rel=1e-12, abs=0.0)
        assert verdicts == 7  # exactly the all-zero sets

    def test_empty_scan(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        summary = ss_scan(params, 0.01, 10.0, 5, 0)
        assert summary.reports == ()
        assert summary.ss_count == 0


def _bits(values):
    return [float.hex(v) for v in values]


def _raised(fn, *args):
    with pytest.raises(DomainError) as err:
        fn(*args)
    return str(err.value)


class TestPerSampleReference:
    """The scan's per-sample path against its first forms in oracles.py:
    the same draws, momenta, p, factors, minimum and verdict, bit for bit,
    and the same refusals."""

    def test_seeded_draws_match_bit_for_bit(self):
        pick = random.Random(2409)
        for _ in range(1500):
            n = pick.randint(2, 8)
            p = 10.0 ** pick.uniform(-3.0, 3.0)
            seed = pick.getrandbits(32)
            rng_new, rng_old = random.Random(seed), random.Random(seed)
            new = sample_momenta(n, rng_new, p)
            old = oracles.sample_momenta(n, rng_old, p)
            assert rng_new.getstate() == rng_old.getstate()
            assert _bits(new.momenta) + _bits([new.p]) == \
                _bits(old.momenta) + _bits([old.p])
            rep = wronskian_report(new, M22_DIVERGENT)
            ref = oracles.wronskian_report(old, M22_DIVERGENT)
            assert _bits(rep.pair_factors) == _bits(ref.pair_factors)
            assert _bits([rep.min_pair_factor]) == _bits(
                [ref.min_pair_factor])
            assert (rep.m22_status, rep.ss_verdict) == (
                ref.m22_status, ref.ss_verdict)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_zero_momenta_match(self, n):
        zero = (0.0,) * n
        rep = wronskian_report(MomentumSet.from_momenta(zero))
        assert rep == oracles.wronskian_report(oracles.from_momenta(zero))
        assert rep.ss_verdict and rep.min_pair_factor == 0.0

    @pytest.mark.parametrize("p", [math.inf, 0.0, -1.0, -math.inf])
    def test_sampler_refusals_match(self, p):
        assert _raised(sample_momenta, 3, random.Random(1), p) == _raised(
            oracles.sample_momenta, 3, random.Random(1), p)

    @pytest.mark.parametrize("momenta", [
        (), (1.0,), (1.0, -1.0), (-1.0, 1.5), (-math.inf, 0.0, math.inf),
        (math.nan, 0.0, 1.0), (0.0, math.nan, 1.0),
        (-1.5e308, 0.0, 1.5e308)])
    def test_momentum_set_refusals_match(self, momenta):
        assert _raised(MomentumSet.from_momenta, momenta) == _raised(
            oracles.from_momenta, momenta)


@pytest.fixture
def ladder_passes(monkeypatch):
    """Records every Bessel ladder pass (one per J and J' pair)."""
    passes = []
    ladder = specialfn._ladder_pair

    def counted(*args):
        passes.append(args)
        return ladder(*args)
    monkeypatch.setattr(specialfn, "_ladder_pair", counted)
    return passes


class TestOneLadderPassPerPoint:
    def test_two_body_match(self, ladder_passes):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        match_two_body(params, 1.3, 40.0, 5.0)
        b = radial_indices(params, 0).b_prime
        assert ladder_passes == [(b, 1.3 * 40.0), (b, 1.3 * 5.0)]

    def test_transmitted_readings(self, ladder_passes):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        transmitted_coefficient_readings(params, 1.3, 5.0)
        assert len(ladder_passes) == 1

    @pytest.mark.parametrize("entries", [{(0, 1): 1.0},
                                         {(0, 1): 1.0, (3, 1): 0.6}])
    def test_n_body_match(self, ladder_passes, entries):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        match_n_body(params, 1.3, entries, r_minus=80.0)
        b0 = radial_indices(params, 0).b_prime
        assert ladder_passes == [(b0 + k, 1.3 * 80.0) for k, _ in entries]

    @pytest.mark.parametrize("order", [-40.0, -3.0, -2.0, -1.0, 1.5, 30.5])
    def test_bessel_eval_matches_separate_calls(self, order):
        # both sides of the Miller/forward switchover, and the reflection
        # of negative integer orders
        edge = specialfn.switchover(abs(order))
        for x in (7.3, 0.9 * edge, edge, 1.1 * edge):
            value, _ = specialfn.bessel_eval(order, x)
            assert value == specialfn.bessel_j(order, x), x


class TestTwoBodyMatch:
    @pytest.mark.parametrize("p", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("delta", [-0.4, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("nu_prime", [0.5, 1.0, 2.0])
    def test_reflection_unity(self, p, delta, nu_prime):
        params = CouplingParams.from_exponent(2, nu_prime, delta)
        for r_minus in (20.0, 200.0):
            m = match_two_body(params, p, r_minus, 5.0)
            assert abs(m.reflection - 1.0) < 1e-9

    def test_conjugate_pair_identity(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        m = match_two_body(params, 1.3, 37.0, 4.0)
        assert abs(abs(m.a) - abs(m.b)) < 1e-12 * abs(m.a)

    def test_transmitted_value_match(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.0)
        p, r_plus = 1.0, 5.0
        m = match_two_body(params, p, 50.0, r_plus)
        from calogero_ss.specialfn import bessel_j
        expected = math.sqrt(r_plus) * bessel_j(0.5, p * r_plus) \
            * cmath.exp(1j * p * r_plus)
        assert m.d == pytest.approx(expected, rel=1e-12)

    def test_derivative_mismatch_surfaced(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.0)
        m = match_two_body(params, 1.0, 50.0, 5.0)
        assert m.derivative_mismatch is not None
        assert m.derivative_mismatch > 1e-6  # genuinely over-determined

    def test_hermitian_reduction(self):
        # observables depend on lambda = nu' - delta: the delta = 0 run at
        # the matched exponent reproduces R and T at N = 2, and R and the
        # phase b/a of match_at at N = 3..6, on seeded draws of every
        # degree k <= 8 with a solution
        deformed = CouplingParams.from_exponent(2, 2.0, 0.5)
        hermitian = CouplingParams.from_exponent(2, 1.5, 0.0)
        assert radial_indices(deformed, 0).b_prime == pytest.approx(
            radial_indices(hermitian, 0).b_prime)
        for p in (0.3, 1.0, 4.0):
            md = match_two_body(deformed, p, 60.0, 6.0)
            mh = match_two_body(hermitian, p, 60.0, 6.0)
            assert abs(md.reflection - mh.reflection) < 1e-9
            assert md.transmission == pytest.approx(mh.transmission,
                                                    rel=1e-9)
        rng = random.Random(26)
        draws = 0
        while draws < 240:
            n = rng.randint(3, 6)
            # dyadic values, so that nu' - delta is lambda exactly
            lam = rng.choice((0.25, 0.5, 1.0, 1.5, 2.5))
            delta = rng.choice((-0.5, -0.25, 0.25, 0.5, 0.75, 1.0))
            if lam + delta < 0.0:
                continue
            draws += 1
            deformed = CouplingParams.from_exponent(n, lam + delta, delta)
            hermitian = CouplingParams.from_exponent(n, lam, 0.0)
            k = rng.choice([k for k in range(9)
                            if laplace_solutions(hermitian, k)])
            p = 10.0 ** rng.uniform(-1.0, 1.0)
            r_minus = rng.uniform(5.0, 500.0)
            md = match_at(deformed, p, r_minus, 5.0, k=k)
            mh = match_at(hermitian, p, r_minus, 5.0, k=k)
            assert md.a != mh.a  # the Jastrow factors differ
            assert abs(md.b / md.a - mh.b / mh.a) <= 1e-14, (n, lam, delta, k)
            assert abs(md.reflection - mh.reflection) <= 1e-14

    def test_alt_readings_labeled(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.0)
        readings = transmitted_coefficient_readings(params, 1.0, 5.0)
        assert set(readings) == {"derivative_squared",
                                 "derivative_of_square"}

    def test_domain(self):
        params3 = CouplingParams.from_exponent(3, 1.0, 0.0)
        with pytest.raises(DomainError):
            match_two_body(params3, 1.0, 50.0, 5.0)


def _two_body_draws(count: int, seed: int):
    """Seeded (params, p, r_-, r_+) with nu' >= delta, so that the
    delta = 0 image (nu' - delta, 0) is a valid exponent too."""
    rng = random.Random(seed)
    for _ in range(count):
        delta = rng.uniform(-0.5, 1.0)
        nu_prime = rng.uniform(max(delta, 0.0), 3.0)
        yield (CouplingParams.from_exponent(2, nu_prime, delta),
               10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(5.0, 500.0),
               rng.uniform(0.5, 20.0))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class TestMatcherInvariances:
    """Exact symmetries of the two-body match, over 200 seeded draws."""

    def test_depends_on_momentum_only_through_p_r(self):
        for params, p, r_minus, r_plus in _two_body_draws(200, seed=1):
            m = match_two_body(params, p, r_minus, r_plus)
            unit = match_two_body(params, 1.0, p * r_minus, p * r_plus)
            for field in ("reflection", "transmission",
                          "derivative_mismatch"):
                assert _rel(getattr(unit, field), getattr(m, field)) \
                    <= 1e-12, (field, params, p, r_minus, r_plus)

    def test_r_and_t_depend_on_couplings_only_through_b_prime(self):
        # (nu', delta) -> (nu' - delta, 0) keeps b' and changes c
        changes = []
        for params, p, r_minus, r_plus in _two_body_draws(200, seed=2):
            m = match_two_body(params, p, r_minus, r_plus)
            image = CouplingParams.from_exponent(
                2, params.nu_prime - params.delta, 0.0)
            h = match_two_body(image, p, r_minus, r_plus)
            assert _rel(h.reflection, m.reflection) <= 1e-12
            assert _rel(h.transmission, m.transmission) <= 1e-12
            changes.append(_rel(h.derivative_mismatch,
                                m.derivative_mismatch))
        # c = delta + 1/2 enters the derivative row of the outgoing side,
        # so deriv_mismatch is not a function of b' alone
        assert max(changes) > 1.0


def _two_body_closed_forms(params, p, r_minus, r_plus):
    """a, b, d and the derivative mismatch of a two-body match, from the
    matcher's closed forms in mpmath at the working precision."""
    idx = radial_indices(params, 0)
    b_ord, c, p = mp.mpf(idx.b_prime), mp.mpf(idx.c), mp.mpf(p)
    ip, half = mp.mpc(0, 1) * p, mp.mpf(0.5)
    rm, rp = mp.mpf(r_minus), mp.mpf(r_plus)
    j, jd = mp.besselj(b_ord, p * rm), mp.besselj(b_ord, p * rm, 1)
    f, fd = mp.sqrt(rm) * j, c / mp.sqrt(rm) * j + mp.sqrt(rm) * p * jd
    wronski = fd - (c - half) / rm * f
    a = (ip * f - wronski) * mp.exp(ip * rm) / (2 * ip)
    b = (ip * f + wronski) * mp.exp(-ip * rm) / (2 * ip)
    x = p * rp
    j, jd = mp.besselj(b_ord, x), mp.besselj(b_ord, x, 1)
    psi_d = c * j + x * jd
    mismatch = abs((c - half - mp.mpc(0, 1) * x) * j - psi_d) / abs(psi_d)
    return a, b, mp.sqrt(rp) * j * mp.exp(ip * rp), mismatch


class TestTwoBodyOracle:
    """match_two_body against its closed forms at 40 digits.

    Over 400 seeded draws (p in 10^[-3, 2], r_- in 10^[-1, 3.5], r_+ in
    10^[-1, 1.5]) the measured envelope, with eps = 2^-53, is
        |a - a*|, |b - b*| <= 1.4 eps (100 + p r_-) |a*|,
        |d - d*|           <= 0.9 eps (100 + p r_+) sqrt(r_+) env(p r_+),
        |m - m*|           <= 0.9 eps (100 + p r_+) (1 + m*) m*
    for the derivative mismatch m, env(x) = min(1, sqrt(2 / (pi x))), with
    median relative errors 3.1e-16, 9.9e-17 and 1.1e-16.  The p r terms
    are the rounding of x = p r, which moves the Bessel argument and the
    phase; 1 + m* measures the cancellation in c J + x J', the mismatch's
    denominator.  The asserted constants leave a factor of 2.
    """

    def test_accuracy_envelope(self):
        eps = 2.0 ** -53
        rng = random.Random(27)
        errors = {"a": [], "d": [], "m": []}
        with mp.workdps(40):
            for _ in range(400):
                delta = rng.uniform(-0.5, 1.0)
                params = CouplingParams.from_exponent(
                    2, rng.uniform(max(delta, 0.0), 3.0), delta)
                p, r_minus, r_plus = (10.0 ** rng.uniform(-3.0, 2.0),
                                      10.0 ** rng.uniform(-1.0, 3.5),
                                      10.0 ** rng.uniform(-1.0, 1.5))
                m = match_two_body(params, p, r_minus, r_plus)
                a, b, d, mis = _two_body_closed_forms(params, p, r_minus,
                                                      r_plus)
                x_minus, x_plus = 100.0 + p * r_minus, 100.0 + p * r_plus
                env = math.sqrt(r_plus) * min(
                    1.0, math.sqrt(2.0 / (math.pi * p * r_plus)))
                err_a = float(max(abs(m.a - a), abs(m.b - b)) / abs(a))
                err_d = float(abs(m.d - d)) / env
                err_m = float(abs(m.derivative_mismatch - mis) / mis)
                assert err_a <= 2.8 * eps * x_minus, (params, p, r_minus)
                assert err_d <= 1.8 * eps * x_plus, (params, p, r_plus)
                assert err_m <= 1.8 * eps * x_plus * float(1 + mis), \
                    (params, p, r_plus)
                errors["a"].append(err_a)
                errors["d"].append(err_d)
                errors["m"].append(err_m)
        for name, errs in errors.items():
            assert sorted(errs)[len(errs) // 2] <= 5e-16, name


class TestNBodyMatch:
    @pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (3, 3), (4, 0), (4, 3)])
    def test_reflection_unity(self, n, k):
        params = CouplingParams.from_exponent(n, 1.0, 0.5)
        entries = {(0, 1): 1.0} if k == 0 else {(0, 1): 1.0, (k, 1): 0.6}
        m = match_n_body(params, 1.0, entries, r_minus=80.0)
        assert abs(m.reflection - 1.0) < 1e-9
        assert abs(abs(m.a) - abs(m.b)) < 1e-12 * abs(m.a)
        assert m.d is None and m.transmission is None

    def test_two_body_reduction(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        coeffs = {(0, 1): 1.0}
        mn = match_n_body(params, 1.0, coeffs, r_minus=50.0)
        m2 = match_two_body(params, 1.0, 50.0, 5.0)
        assert abs(mn.reflection - m2.reflection) < 1e-9

    def test_common_phase_keeps_unity(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        phase = cmath.exp(0.7j)
        coeffs = {(0, 1): phase, (3, 1): 0.6 * phase}
        m = match_n_body(params, 1.0, coeffs, r_minus=80.0)
        assert abs(m.reflection - 1.0) < 1e-9

    def test_degenerate_envelope(self):
        from calogero_ss.polynomials import float_evaluator
        from calogero_ss.wavefunction import (laplace_solutions,
                                              radial_coordinate)
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        direction = (1.0, 0.25, -1.25)
        p3 = laplace_solutions(params, 3)[0]
        r_hat = radial_coordinate(direction)
        c3 = float_evaluator(p3)(direction) / r_hat ** 3
        coeffs = {(0, 1): 1.0, (3, 1): -1.0 / c3}
        with pytest.raises(DegenerateEnvelopeError):
            match_n_body(params, 1.0, coeffs, r_minus=80.0,
                         direction=direction)

    def test_coincident_direction_rejected(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        coeffs = {(0, 1): 1.0}
        with pytest.raises(DomainError, match="r_hat"):
            match_n_body(params, 1.0, coeffs, r_minus=80.0,
                         direction=(0.5, 0.5, 0.5))

    @pytest.mark.parametrize("n,nu,delta,entries", [
        (3, 1.0, 0.5, {(0, 1): 1.0, (3, 1): 0.6}),
        (4, 1.5, 0.25, {(0, 1): 0.8j, (3, 1): 0.6, (4, 1): -0.3}),
        (5, 1.0, 0.5, {(3, 1): 1.0, (5, 1): 0.4 - 0.2j})])
    def test_ray_profile_equals_general_state(self, n, nu, delta, entries):
        # along x = r x_hat / r_hat the closed-form profile times p^n' is
        # the superposition itself
        params = CouplingParams.from_exponent(n, nu, delta)
        p = 1.3
        direction = tuple((n - 1) / 2.0 - j + 0.1 * j * j for j in range(n))
        direction = tuple(sorted(direction, reverse=True))
        psi = make_general_state(params, p, entries)
        r_hat = radial_coordinate(direction)
        scale = p ** radial_indices(params, 0).n_prime
        for r in (0.7, 3.0, 11.5, 40.0):
            expected = psi(tuple(r * c / r_hat for c in direction))
            got = _ray_profile(params, p, entries, direction, r)[0] * scale
            assert abs(got - expected) <= 1e-13 * abs(expected)


class TestTransferMatrix:
    def test_finite_nonzero(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        m = match_two_body(params, 1.0, 50.0, 5.0)
        assert m22_status(m) == M22_FINITE_NONZERO
        assert m.d / m.a != 0

    def test_divergent_at_transmission_zero(self):
        # b' = 1/2 makes the transmitted coefficient vanish at p r_+ = pi
        params = CouplingParams.from_exponent(2, 1.0, 0.0)
        m = match_two_body(params, 1.0, 50.0, math.pi)
        assert m.transmission < 1e-25
        assert m22_status(m) == M22_DIVERGENT
        assert abs(m.d / m.a) < 1e-12

    def test_status_helper(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        assert transfer_status(params) == M22_FINITE_NONZERO

    def test_zero_incoming_amplitude_raises(self):
        match = ScatteringMatch(r_minus=50.0, r_plus=5.0, a=0j, b=1.0 + 0j,
                                d=0.5 + 0j, reflection=math.inf,
                                transmission=math.inf,
                                derivative_mismatch=0.0)
        with pytest.raises(NumericalFailureError):
            m22_status(match)

    def test_n_body_match_rejected(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        m = match_n_body(params, 1.0, {(0, 1): 1.0}, 80.0)
        with pytest.raises(DomainError, match="two-body"):
            m22_status(m)


class TestReachableDomain:
    def test_sweep(self):
        # N = 2..6, nu' x delta, every k <= 4 with nonzero degeneracy,
        # p x r_-: 1305 cases.  Each returns R = 1 or, for odd k only,
        # reports a degenerate envelope: P(-x) = -P(x) for odd degree and
        # the default direction is mapped to its negative by reversal, so
        # P vanishes there.  Any other exception fails the test.
        cases = degenerate = 0
        for n in range(2, 7):
            for nu_prime in (0.25, 1.0, 3.0):
                for delta in (-0.5, 0.0, 0.5, 1.0):
                    params = CouplingParams.from_exponent(n, nu_prime, delta)
                    ks = [0] if n == 2 else [
                        k for k in range(5) if laplace_solutions(params, k)]
                    for k, p, r_minus in ((k, p, r) for k in ks
                                          for p in (0.01, 1.0, 10.0)
                                          for r in (1.0, 50.0, 1e4)):
                        cases += 1
                        if n == 2:
                            m = match_two_body(params, p, r_minus, 5.0)
                            assert abs(m.reflection - 1.0) <= 1e-12
                            continue
                        coeffs = {(k, 1): 1.0}
                        try:
                            m = match_n_body(params, p, coeffs, r_minus)
                        except DegenerateEnvelopeError:
                            assert k % 2 == 1, (n, nu_prime, delta, k)
                            degenerate += 1
                            continue
                        assert abs(m.reflection - 1.0) <= 1e-12, (
                            n, nu_prime, delta, k, p, r_minus)
        assert cases == 1305
        assert 0 < degenerate < cases


class TestTransmissionSweep:
    def test_deterministic(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        grid = [10.0, 100.0, 1000.0, 10000.0]
        s1 = transmission_sweep(params, "r_minus", grid, p=1.0, r_plus=5.0)
        s2 = transmission_sweep(params, "r_minus", grid, p=1.0, r_plus=5.0)
        assert s1 == s2

    def test_rows_match_single_calls(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        sweep = transmission_sweep(params, "r_minus", [10.0, 100.0],
                                   p=1.0, r_plus=5.0)
        for rm, match in sweep.rows:
            again = match_two_body(params, 1.0, rm, 5.0)
            assert match.transmission == again.transmission
            assert abs(match.reflection - 1.0) < 1e-9

    def test_trend_discrepancy_recorded(self):
        # at fixed r_+ the transmission oscillates about a constant, so the
        # decay claim fails and must be recorded, never silently passed
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        sweep = transmission_sweep(params, "r_minus",
                                   [10.0, 100.0, 1000.0, 10000.0],
                                   p=1.0, r_plus=5.0)
        assert sweep.trend.decayed is False

    def test_increasing_required(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        with pytest.raises(DomainError):
            transmission_sweep(params, "r_minus", [100.0, 10.0],
                               p=1.0, r_plus=5.0)

    def test_empty_grid_rejected(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        with pytest.raises(DomainError):
            transmission_trend([], [])
        with pytest.raises(DomainError):
            transmission_sweep(params, "r_minus", [], p=1.0, r_plus=5.0)

    def test_one_point_grid_rejected(self, monkeypatch):
        # one point fits no slope: refused before any matching, while an
        # N = 3 sweep, which has no trend check, takes one point
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        three = CouplingParams.from_exponent(3, 1.0, 0.5)
        assert transmission_sweep(three, "r_minus", [40.0],
                                  k=3).trend is None
        with pytest.raises(DomainError, match="got 1"):
            transmission_trend([10.0], [0.5])
        monkeypatch.setattr(scattering, "bessel_eval", None)
        with pytest.raises(DomainError, match="the trend check needs at "
                           "least two r_minus values, got 1"):
            transmission_sweep(params, "r_minus", [10.0], p=1.0, r_plus=5.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError, match="3 r_minus values but 1"):
            transmission_trend([10.0, 100.0, 1000.0], [1.0])

    def test_two_body_is_the_k0_channel(self):
        # a degree-2 solution exists at (0, 1/2), yet the two-body matcher
        # still has no k: every k != 0 is refused before any matching
        two = CouplingParams.from_exponent(2, 0.0, 0.5)
        assert laplace_solutions(two, 2)
        with pytest.raises(DomainError, match="the k = 0 channel"):
            match_at(two, 1.0, 50.0, 5.0, k=2)
        with pytest.raises(DomainError, match="the k = 0 channel"):
            transmission_sweep(two, "r_minus", [10.0, 100.0], k=2)

    def test_unknown_parameter_rejected(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        with pytest.raises(DomainError, match="cannot sweep"):
            transmission_sweep(params, "r-minus", [10.0])

    def test_trend_only_for_two_body_r_minus(self):
        two = CouplingParams.from_exponent(2, 1.0, 0.5)
        assert transmission_sweep(two, "p", [0.5, 1.0],
                                  r_minus=30.0).trend is None
        # no trend check, so a decreasing grid is fine at N = 3
        three = CouplingParams.from_exponent(3, 1.0, 0.5)
        sweep = transmission_sweep(three, "r_minus", [80.0, 40.0], k=3)
        assert sweep.trend is None
        coeffs = {(0, 1): 1.0, (3, 1): 0.6}
        for rm, m in sweep.rows:
            assert m == match_n_body(three, 1.0, coeffs, rm)
