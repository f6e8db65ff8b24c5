"""Wronskian scan, boundary matching, transfer classification, sweeps."""

import cmath
import math
import random

import pytest
from conftest import symmetric_pset

import calogero_ss.specialfn as specialfn
from calogero_ss.errors import (DegenerateEnvelopeError, DomainError,
                                NumericalFailureError)
from calogero_ss.model import CouplingParams, radial_indices
from calogero_ss.scattering import (M22_DIVERGENT, M22_FINITE_NONZERO,
                                    JostPair, ScanSummary, ScatteringMatch,
                                    TrendDiscrepancy, _ray_profile,
                                    match_n_body, match_two_body,
                                    momentum_sampler, pair_factors,
                                    sample_momenta, ss_scan,
                                    transfer_matrix, transfer_status,
                                    transmission_sweep, transmission_trend,
                                    transmitted_coefficient_readings,
                                    wronskian, wronskian_product_form,
                                    wronskian_report)
from calogero_ss.wavefunction import (MomentumSet, SuperpositionCoeffs,
                                      laplace_solutions, make_general_state,
                                      radial_coordinate,
                                      reference_momentum_set)


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
        draw = momentum_sampler(4, 0.01, 10.0, seed=3)
        for _ in range(200):
            ms = draw()
            assert 0.009 <= ms.p <= 10.001
            assert abs(sum(ms.momenta)) < 1e-12 * 4 * max(
                1.0, max(abs(v) for v in ms.momenta))
            assert list(ms.momenta) == sorted(ms.momenta)

    def test_seed_determinism(self):
        a = momentum_sampler(3, 0.01, 10.0, seed=7)
        b = momentum_sampler(3, 0.01, 10.0, seed=7)
        for _ in range(50):
            assert a().momenta == b().momenta

    def test_bad_range(self):
        with pytest.raises(DomainError):
            momentum_sampler(3, 0.0, 10.0, seed=1)

    @pytest.mark.parametrize("p_min,p_max", [
        (0.01, math.inf), (math.inf, math.inf), (0.01, math.nan)])
    def test_non_finite_bound_rejected(self, p_min, p_max):
        # an infinite p_max would draw p = inf and nan momenta
        with pytest.raises(DomainError):
            momentum_sampler(3, p_min, p_max, seed=1)

    def test_infinite_magnitude_rejected(self):
        with pytest.raises(DomainError, match="must be finite"):
            sample_momenta(3, random.Random(1), math.inf)


class TestScan:
    def test_no_verdicts_smoke(self):
        summary = ss_scan(3, momentum_sampler(3, 0.01, 10.0, seed=11), 500)
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
            n = pset.n
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
        summary = ss_scan(2, momentum_sampler(2, 0.01, 10.0, seed=5), 0)
        assert summary.reports == ()
        assert summary.ss_count == 0


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
        coeffs = SuperpositionCoeffs.for_params(params, entries)
        pset = symmetric_pset(3, 1.0)
        match_n_body(params, pset, coeffs, r_minus=80.0)
        b0 = radial_indices(params, 0).b_prime
        assert ladder_passes == [(b0 + k, pset.p * 80.0) for k, _ in entries]

    @pytest.mark.parametrize("order", [-3.0, -2.0, 1.5])
    def test_bessel_eval_matches_separate_calls(self, order):
        ev = specialfn.bessel_eval(order, 7.3)
        assert ev.value == specialfn.bessel_j(order, 7.3)
        assert ev.derivative == specialfn.bessel_j_prime(order, 7.3)


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
        # observables depend on nu' - delta: the delta = 0 run at the
        # matched exponent reproduces R and T
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

    def test_alt_readings_labeled(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.0)
        readings = transmitted_coefficient_readings(params, 1.0, 5.0)
        assert set(readings) == {"derivative_squared",
                                 "derivative_of_square"}

    def test_domain(self):
        params3 = CouplingParams.from_exponent(3, 1.0, 0.0)
        with pytest.raises(DomainError):
            match_two_body(params3, 1.0, 50.0, 5.0)


class TestNBodyMatch:
    @pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (3, 3), (4, 0), (4, 3)])
    def test_reflection_unity(self, n, k):
        params = CouplingParams.from_exponent(n, 1.0, 0.5)
        pset = symmetric_pset(n, 1.0)
        entries = {(0, 1): 1.0} if k == 0 else {(0, 1): 1.0, (k, 1): 0.6}
        coeffs = SuperpositionCoeffs.for_params(params, entries)
        m = match_n_body(params, pset, coeffs, r_minus=80.0)
        assert abs(m.reflection - 1.0) < 1e-9
        assert abs(abs(m.a) - abs(m.b)) < 1e-12 * abs(m.a)
        assert m.d is None and m.transmission is None

    def test_two_body_reduction(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        pset = symmetric_pset(2, 1.0)
        coeffs = SuperpositionCoeffs.for_params(params, {(0, 1): 1.0})
        mn = match_n_body(params, pset, coeffs, r_minus=50.0)
        m2 = match_two_body(params, 1.0, 50.0, 5.0)
        assert abs(mn.reflection - m2.reflection) < 1e-9

    def test_common_phase_keeps_unity(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        pset = symmetric_pset(3, 1.0)
        phase = cmath.exp(0.7j)
        coeffs = SuperpositionCoeffs.for_params(
            params, {(0, 1): phase, (3, 1): 0.6 * phase})
        m = match_n_body(params, pset, coeffs, r_minus=80.0)
        assert abs(m.reflection - 1.0) < 1e-9

    def test_degenerate_envelope(self):
        from calogero_ss.polynomials import evaluate_poly
        from calogero_ss.wavefunction import (laplace_solutions,
                                              radial_coordinate)
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        pset = symmetric_pset(3, 1.0)
        direction = (1.0, 0.25, -1.25)
        p3 = laplace_solutions(params, 3)[0]
        r_hat = radial_coordinate(direction)
        c3 = float(evaluate_poly(p3, direction)) / r_hat ** 3
        coeffs = SuperpositionCoeffs.for_params(
            params, {(0, 1): 1.0, (3, 1): -1.0 / c3})
        with pytest.raises(DegenerateEnvelopeError):
            match_n_body(params, pset, coeffs, r_minus=80.0,
                         direction=direction)

    def test_coincident_direction_rejected(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        coeffs = SuperpositionCoeffs.for_params(params, {(0, 1): 1.0})
        with pytest.raises(DomainError, match="r_hat"):
            match_n_body(params, symmetric_pset(3, 1.0), coeffs,
                         r_minus=80.0, direction=(0.5, 0.5, 0.5))

    @pytest.mark.parametrize("n,nu,delta,entries", [
        (3, 1.0, 0.5, {(0, 1): 1.0, (3, 1): 0.6}),
        (4, 1.5, 0.25, {(0, 1): 0.8j, (3, 1): 0.6, (4, 1): -0.3}),
        (5, 1.0, 0.5, {(3, 1): 1.0, (5, 1): 0.4 - 0.2j})])
    def test_ray_profile_equals_general_state(self, n, nu, delta, entries):
        # along x = r x_hat / r_hat the closed-form profile times p^n' is
        # the superposition itself
        params = CouplingParams.from_exponent(n, nu, delta)
        pset = reference_momentum_set(n, 1.3)
        coeffs = SuperpositionCoeffs.for_params(params, entries)
        direction = tuple((n - 1) / 2.0 - j + 0.1 * j * j for j in range(n))
        direction = tuple(sorted(direction, reverse=True))
        psi = make_general_state(params, pset, coeffs)
        r_hat = radial_coordinate(direction)
        scale = pset.p ** radial_indices(params, 0).n_prime
        for r in (0.7, 3.0, 11.5, 40.0):
            expected = psi(tuple(r * c / r_hat for c in direction))
            got = _ray_profile(params, pset, coeffs, direction, r)[0] * scale
            assert abs(got - expected) <= 1e-13 * abs(expected)


class TestTransferMatrix:
    def test_finite_nonzero(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        td = transfer_matrix(match_two_body(params, 1.0, 50.0, 5.0))
        assert td.m22_status == M22_FINITE_NONZERO
        assert td.inv_m22 != 0

    def test_pair_relation(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        m = match_two_body(params, 1.0, 50.0, 5.0)
        td = transfer_matrix(m)
        a_plus = td.m[0][0] * m.a + td.m[0][1] * m.b
        b_plus = td.m[1][0] * m.a + td.m[1][1] * m.b
        assert a_plus == pytest.approx(m.d, rel=1e-10)
        assert abs(b_plus) < 1e-12 * abs(m.d)

    def test_divergent_at_transmission_zero(self):
        # b' = 1/2 makes the transmitted coefficient vanish at p r_+ = pi
        params = CouplingParams.from_exponent(2, 1.0, 0.0)
        m = match_two_body(params, 1.0, 50.0, math.pi)
        assert m.transmission < 1e-25
        td = transfer_matrix(m)
        assert td.m22_status == M22_DIVERGENT
        assert abs(td.inv_m22) < 1e-12

    def test_det_phase_invariance(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.5)
        m = match_two_body(params, 1.0, 50.0, 5.0)
        td = transfer_matrix(m)
        phase = cmath.exp(1.1j)
        rotated = ScatteringMatch(
            r_minus=m.r_minus, r_plus=m.r_plus, a=m.a * phase, b=m.b * phase,
            d=m.d * phase, reflection=m.reflection,
            transmission=m.transmission,
            derivative_mismatch=m.derivative_mismatch)
        td2 = transfer_matrix(rotated)
        assert td2.det_m == pytest.approx(td.det_m, rel=1e-10)

    def test_status_helper(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        assert transfer_status(params) == M22_FINITE_NONZERO

    def test_zero_incoming_amplitude_raises(self):
        match = ScatteringMatch(r_minus=50.0, r_plus=5.0, a=0j, b=1.0 + 0j,
                                d=0.5 + 0j, reflection=math.inf,
                                transmission=math.inf,
                                derivative_mismatch=0.0)
        with pytest.raises(NumericalFailureError):
            transfer_matrix(match)


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
                        coeffs = SuperpositionCoeffs.for_params(
                            params, {(k, 1): 1.0})
                        pset = reference_momentum_set(n, p)
                        try:
                            m = match_n_body(params, pset, coeffs, r_minus)
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
        assert not sweep.trend.decayed
        assert isinstance(sweep.trend.discrepancy, TrendDiscrepancy)
        assert sweep.trend.discrepancy.claim == \
            "transmission_vanishes_at_large_r_minus"

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

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError, match="3 r_minus values but 1"):
            transmission_trend([10.0, 100.0, 1000.0], [1.0])

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
        pset = reference_momentum_set(3, 1.0)
        coeffs = SuperpositionCoeffs.for_params(three, {(0, 1): 1.0,
                                                        (3, 1): 0.6})
        for rm, m in sweep.rows:
            assert m == match_n_body(three, pset, coeffs, rm)
