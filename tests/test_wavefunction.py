"""Eigenfunction assembly, the FD eigen residual, asymptotic forms."""

import cmath
import math

import pytest
from conftest import gap_band_samples
from oracles import (AsymptoticRangeError, asymptotic_wave, forward_wave,
                     make_general_state, reversed_momenta, reversed_wave)

import calogero_ss.wavefunction as wavefunction
from calogero_ss.errors import DomainError, SingularConfigurationError
from calogero_ss.model import CouplingParams, radial_indices
from calogero_ss.polynomials import float_evaluator
from calogero_ss.specialfn import bessel_j
from calogero_ss.wavefunction import (MomentumSet, ground_state,
                                      laplace_solutions,
                                      make_scattering_state,
                                      radial_coordinate, radial_solution,
                                      residual_convergence, state_energy)


class TestMomentumSet:
    def test_basic(self):
        ms = MomentumSet.from_momenta((-1.0, 0.0, 1.0))
        assert ms.p == pytest.approx(math.sqrt(2.0))
        assert reversed_momenta(ms) == (1.0, 0.0, -1.0)

    def test_sorted_required(self):
        with pytest.raises(DomainError):
            MomentumSet.from_momenta((1.0, -1.0))

    def test_sum_zero_required(self):
        with pytest.raises(DomainError):
            MomentumSet.from_momenta((-1.0, 1.5))

    @pytest.mark.parametrize("momenta", [(-math.inf, 0.0, math.inf),
                                         (math.nan, 0.0, 1.0),
                                         (-1.5e308, 0.0, 1.5e308)],
                             ids=["inf", "nan", "overflowing-p"])
    def test_non_finite_rejected(self, momenta):
        # p = 1.5e308 sqrt(2) is beyond the largest float
        with pytest.raises(DomainError, match="must be finite"):
            MomentumSet.from_momenta(momenta)

    @pytest.mark.parametrize("scale", [1e-320, 1e-200, 1e-160, 1e160,
                                       1e200, 1.2e308])
    def test_magnitude_neither_underflows_nor_overflows(self, scale):
        # the squares of these momenta underflow or overflow, p does not;
        # at 1e-320 the momenta themselves are subnormal
        ms = MomentumSet.from_momenta((-scale, 0.0, scale))
        assert ms.p == pytest.approx(scale * math.sqrt(2.0),
                                     rel=1e-3 if scale < 1e-300 else 1e-15)

    def test_zero_momenta_allowed(self):
        ms = MomentumSet.from_momenta((0.0, 0.0, 0.0))
        assert ms.p == 0.0


class TestGeometry:
    def test_radial_two_particles(self):
        assert radial_coordinate((1.0, -1.0)) == pytest.approx(math.sqrt(2.0))

    def test_radial_three_particles(self):
        assert radial_coordinate((1.0, 0.0, -1.0)) == pytest.approx(
            math.sqrt(2.0))

    def test_radial_translation_invariance(self):
        for shift in (0.0, 5.0, -17.3):
            assert radial_coordinate((1.5 + shift, -0.5 + shift)) == \
                pytest.approx(radial_coordinate((1.5, -0.5)), rel=1e-15)


class TestGroundState:
    def test_two_body(self):
        assert ground_state((2.0, 0.0), 1.0) == pytest.approx(2.0)

    def test_three_body_squared(self):
        assert ground_state((2.0, 1.0, 0.0), 2.0) == pytest.approx(4.0)

    def test_free_limit(self):
        assert ground_state((5.0, 1.0, -2.0), 0.0) == 1.0

    def test_exact_coincidence(self):
        assert ground_state((1.0, 1.0), 1.0) == 0.0
        assert ground_state((1.0, 1.0), 0.0) == 1.0

    def test_negative_exponent_guard(self):
        # no parameters carry nu' < 0, so it is refused at any gap
        for x in ((1.0, 1.0 - 1e-14), (3.0, 0.0, -3.0)):
            with pytest.raises(DomainError, match="nu_prime must be >= 0"):
                ground_state(x, -0.5)

    def test_translation_exact(self):
        # dyadic coordinates and shift: differences are float-exact
        x = (1.75, 0.25, -1.0)
        shifted = tuple(c + 3.5 for c in x)
        assert ground_state(shifted, 1.5) == ground_state(x, 1.5)
        # generic shift: agreement to rounding
        y = (1.7, 0.2, -1.1)
        moved = tuple(c + 3.25 for c in y)
        assert ground_state(moved, 1.5) == pytest.approx(
            ground_state(y, 1.5), rel=1e-14)


class TestRadialSolution:
    def test_half_order_form(self):
        # r^(-1/2) J_{1/2}(p r) is proportional to sin(p r)/r
        p = 1.3
        for r in (0.7, 2.0, 5.5):
            expected = math.sqrt(2.0 / (math.pi * p)) * math.sin(p * r) / r
            assert radial_solution(r, p, 0.5) == pytest.approx(expected,
                                                               rel=1e-12)

    def test_radial_ode_fd(self):
        # -chi'' - (1+2b')/r chi' = p^2 chi at (r=3, p=1, b'=1/2)
        r, p, b = 3.0, 1.0, 0.5
        h = 1e-4
        chi = lambda rr: radial_solution(rr, p, b)
        d2 = (chi(r + h) - 2 * chi(r) + chi(r - h)) / h**2
        d1 = (chi(r + h) - chi(r - h)) / (2 * h)
        resid = -d2 - (1 + 2 * b) / r * d1 - p * p * chi(r)
        assert abs(resid) / abs(p * p * chi(r)) < 1e-6

    def test_scaling_identity(self):
        # (lam r)^b' chi(lam r; p) = J_b'(p lam r)
        b, p = 0.8, 1.1
        for lam, r in [(2.0, 1.5), (0.5, 4.0), (3.0, 2.2)]:
            lhs = (lam * r) ** b * radial_solution(lam * r, p, b)
            assert lhs == pytest.approx(bessel_j(b, p * lam * r), rel=1e-12)


class TestEigenfunctions:
    def test_two_body_composition(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.0)
        p = 1.0
        x = (1.0, -1.0)
        got = make_scattering_state(params, p, 0)(x)
        r = math.sqrt(2.0)
        expected = 2.0 * r ** -0.5 * bessel_j(0.5, r)
        assert got == pytest.approx(complex(expected), rel=1e-12)

    def test_k0_reduces_to_product(self):
        params = CouplingParams.from_exponent(3, 1.5, 0.5)
        p = 1.2
        x = (2.0, 0.1, -1.8)
        idx = radial_indices(params, 0)
        r = radial_coordinate(x)
        expected = ground_state(x, params.nu_prime) * radial_solution(
            r, p, idx.b_prime)
        assert make_scattering_state(params, p, 0)(x) == \
            pytest.approx(complex(expected), rel=1e-12)

    def test_general_single_entry_scaling(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        p = 1.3
        coeffs = {(0, 1): 1.0}
        x = (2.0, 0.1, -1.8)
        single = make_scattering_state(params, p, 0)(x)
        n_prime = radial_indices(params, 0).n_prime
        # one evaluator: a unit coefficient gives p^n' * psi bit for bit
        assert make_general_state(params, p, coeffs)(x) == \
            single * p ** n_prime

    def test_linearity(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.0)
        p = 1.0
        base = {(0, 1): 1.0, (3, 1): 0.5}
        scaled = {(0, 1): 2.5, (3, 1): 1.25}
        x = (2.5, 0.3, -2.0)
        assert make_general_state(params, p, scaled)(x) == \
            pytest.approx(2.5 * make_general_state(params, p, base)(x),
                          rel=1e-12)

    def test_zero_degeneracy_entry_rejected(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.0)
        p = 1.0
        coeffs = {(1, 1): 1.0}
        with pytest.raises(DomainError, match="zero degeneracy"):
            make_general_state(params, p, coeffs)

    @pytest.mark.parametrize("n", [3, 6, 7])
    def test_degree_zero_is_the_constant_without_a_solve(self, monkeypatch,
                                                         n):
        # the solver gives degree 0 one solution at every N it can reach,
        # so the channel takes it as given, also beyond the caps (N = 7)
        params = CouplingParams.from_exponent(n, 1.0, 0.5)
        if n < 7:
            assert len(laplace_solutions(params, 0)) == 1
        monkeypatch.setattr(wavefunction, "laplace_solutions", None)
        (channel,) = wavefunction._channels(params, {(0, 1): 2.0})
        assert (channel.k, channel.poly, channel.coeff) == (0, None, 2.0)
        with pytest.raises(DomainError, match=r"q=2 outside 1\.\.1 at "
                                              "degree 0"):
            wavefunction._channels(params, {(0, 2): 1.0})

    def test_degeneracy_lookup(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.0)
        assert len(laplace_solutions(params, 0)) == 1
        assert len(laplace_solutions(params, 1)) == 0
        assert len(laplace_solutions(params, 3)) == 1


class TestStateEvaluator:
    # the evaluator fuses ground_state, radial_coordinate, radial_solution
    # and float_evaluator; every value must equal their composition exactly
    @pytest.mark.parametrize("n,k,nu,delta", [(2, 0, 1.0, 0.0),
                                              (3, 3, 2.0, 0.25),
                                              (4, 4, 0.5, 0.25),
                                              (5, 4, 1.5, 0.0)])
    def test_equals_composition_bit_for_bit(self, n, k, nu, delta):
        params = CouplingParams.from_exponent(n, nu, delta)
        p = 1.3
        poly = laplace_solutions(params, k)[0] if k else None
        psi = make_scattering_state(params, p, k)
        b_prime = radial_indices(params, k).b_prime
        for x in gap_band_samples(n, 31, 5):
            value = ground_state(x, nu) * radial_solution(
                radial_coordinate(x), p, b_prime)
            if poly is not None:
                value *= float_evaluator(poly)(x)
            assert psi(x) == complex(value)

    @pytest.mark.parametrize("k", [0, 3])
    def test_exception_types(self, k):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        p = 1.2
        coeffs = {(k, 1): 0.5}
        for call in (make_scattering_state(params, p, k),
                     make_general_state(params, p, coeffs)):
            with pytest.raises(DomainError, match="ordered descending"):
                call((0.0, 1.0, 2.0))
            with pytest.raises(DomainError, match="r > 0"):
                call((1.0, 1.0, 1.0))
            with pytest.raises(DomainError, match="coordinates"):
                call((2.0, 1.0))

    @pytest.mark.parametrize("k,q", [(3, 0), (3, 2), (3, -1), (0, 0),
                                     (0, 2), (1, 1)])
    def test_bad_solution_index_rejected(self, k, q):
        # N = 3 at lambda = 1/2 has one solution at k = 0 and k = 3, none
        # at k = 1
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        p = 1.2
        with pytest.raises(DomainError):
            make_scattering_state(params, p, k, q)

    def test_zero_momentum_raises_at_call(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.0)
        psi = make_scattering_state(params, 0.0, 0)
        with pytest.raises(DomainError):
            psi((1.0, -1.0))


class TestHamiltonianFD:
    def test_zero_mode(self):
        params = CouplingParams.from_exponent(3, 2.0, 0.5)
        psi = lambda c: complex(ground_state(c, 2.0))
        samples = gap_band_samples(3, 11, 20)
        assert residual_convergence(psi, 0.0, samples, params)[0] < 1e-6

    def test_eigenstate_residual_and_order(self):
        params = CouplingParams.from_exponent(2, 2.0, 0.5)
        p = 1.0
        psi = make_scattering_state(params, p, 0)
        samples = gap_band_samples(2, 5, 20)
        res, _, ratio = residual_convergence(psi, state_energy(p),
                                             samples, params)
        assert res < 1e-6
        assert 3.8 <= ratio <= 4.2

    def test_three_body_cubic_state(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        p = 1.3
        psi = make_scattering_state(params, p, 3)
        samples = gap_band_samples(3, 9, 20)
        assert residual_convergence(psi, state_energy(p), samples,
                                    params)[0] < 1e-6

    def test_two_term_superposition(self):
        params = CouplingParams.from_exponent(3, 1.0, 0.0)
        p = 1.4
        coeffs = {(0, 1): 1.0, (3, 1): 0.7}
        psi = make_general_state(params, p, coeffs)
        samples = gap_band_samples(3, 13, 20)
        assert residual_convergence(psi, state_energy(p), samples,
                                    params)[0] < 1e-6

    def test_perturbed_state_detected(self):
        params = CouplingParams.from_exponent(2, 1.0, 0.0)
        p = 1.0
        base = make_scattering_state(params, p, 0)
        bad = lambda c: base(c) * (1.0 + 0.1 * c[0] ** 2)
        samples = gap_band_samples(2, 3, 20)
        assert residual_convergence(bad, state_energy(p), samples,
                                    params)[0] > 1e-2

    def test_stencil_guard(self):
        # h = h_factor * gap; at h_factor >= 1/2 the 2h-wide stencil
        # reaches the coincidence hyperplane
        params = CouplingParams.from_exponent(2, 1.0, 0.0)
        psi = lambda c: complex(ground_state(c, 1.0))
        with pytest.raises(SingularConfigurationError):
            residual_convergence(psi, 0.0, [(1.0, 0.999)], params,
                                 h_factor=0.5)

    @staticmethod
    def _counted(psi):
        calls = []

        def counted(x):
            calls.append(x)
            return psi(x)
        return counted, calls

    @pytest.mark.parametrize("n,k", [(2, 0), (3, 3), (4, 4)])
    def test_psi_calls_per_sample(self, n, k):
        # the sample's own value is the stencil centre and the p^2 psi
        # target, shared by h and h/2
        params = CouplingParams.from_exponent(n, 1.0, 0.25)
        p = 1.1
        psi, calls = self._counted(make_scattering_state(params, p, k))
        samples = gap_band_samples(n, 17, 3)
        residual_convergence(psi, state_energy(p), samples, params)
        assert len(calls) == 3 * (4 * n + 1)

    @pytest.mark.parametrize("samples,problem", [
        ([(2.0, 0.0, -2.0), (1.0, -1.0)], "sample 1 has 2 coordinates"),
        ([(2.0, 0.0, -2.0, -4.0)], "sample 0 has 4 coordinates"),
        ([(2.0, 0.0, -2.0), (-2.0, 0.0, 2.0)], "sample 1 is not ordered"),
        ([(2.0, math.nan, -2.0)], "sample 0 has a non-finite coordinate"),
        ([(2.0, 0.0, -2.0), (1.0, 1.0, -2.0)],
         "sample 1 has coincident coordinates"),
        ([], "no samples"),
    ])
    def test_bad_samples_rejected_before_psi(self, samples, problem):
        params = CouplingParams.from_exponent(3, 1.0, 0.5)
        p = 1.2
        psi, calls = self._counted(make_scattering_state(params, p, 0))
        with pytest.raises(DomainError, match=problem):
            residual_convergence(psi, state_energy(p), samples, params)
        assert calls == []

    def test_factorization_identity(self):
        # tau = psi / psi_gr obeys the reduced equation
        # -(1/2) sum tau'' - (nu'-delta) sum (x_j - x_m)^(-1) d_j tau
        #   = E tau with E = p^2/2.
        params = CouplingParams.from_exponent(3, 1.5, 0.5)
        p = 1.2
        psi = make_scattering_state(params, p, 3)
        lam = params.nu_prime - params.delta

        def tau(c):
            return psi(c) / ground_state(c, params.nu_prime)

        for x in gap_band_samples(3, 21, 6):
            h = 1e-3 * min(x[j] - x[j + 1] for j in range(2))
            n = len(x)
            kin = 0j
            drift = 0j
            for j in range(n):
                xp = list(x); xp[j] += h
                xm = list(x); xm[j] -= h
                kin += (tau(tuple(xp)) - 2 * tau(x) + tau(tuple(xm))) / h**2
                d1 = (tau(tuple(xp)) - tau(tuple(xm))) / (2 * h)
                drift += sum(d1 / (x[j] - x[m]) for m in range(n) if m != j)
            lhs = -0.5 * kin - lam * drift
            rhs = state_energy(p) * tau(x)
            assert abs(lhs - rhs) / abs(rhs) < 1e-6


class TestAsymptoticWave:
    def params_half_order(self):
        # b' = nu' - delta - 1/2 = 1/2: leading asymptotics exact
        return CouplingParams.from_exponent(2, 1.0, 0.0)

    def test_sum_matches_general_at_large_r(self):
        params = self.params_half_order()
        p = 1.0
        coeffs = {(0, 1): 1.0}
        r_target = 100.0
        x = (r_target / math.sqrt(2.0), -r_target / math.sqrt(2.0))
        full = make_general_state(params, p, coeffs)(x)
        split = asymptotic_wave(x, p, coeffs, params, +1) + \
            asymptotic_wave(x, p, coeffs, params, -1)
        assert abs(full - split) / abs(full) < 1e-3

    def test_phase_difference(self):
        params = self.params_half_order()
        p = 1.0
        coeffs = {(0, 1): 1.0}
        x = (70.0, -70.0)
        pr = p * radial_coordinate(x)
        b = radial_indices(params, 0).b_prime
        plus = asymptotic_wave(x, p, coeffs, params, +1)
        minus = asymptotic_wave(x, p, coeffs, params, -1)
        got = cmath.phase(plus / minus)
        expected = 2.0 * (b + 0.5) * math.pi / 2.0 - 2.0 * pr
        assert (got - expected) % (2.0 * math.pi) == pytest.approx(
            0.0, abs=1e-9) or (got - expected) % (2.0 * math.pi) == \
            pytest.approx(2.0 * math.pi, abs=1e-9)

    def test_envelope_slope(self):
        # |psi_+| ~ r^(-1/2 - A' - k + nu' N(N-1)/2) along a fixed direction
        params = CouplingParams.from_exponent(2, 2.0, 0.5)
        p = 1.0
        coeffs = {(0, 1): 1.0}
        idx = radial_indices(params, 0)
        expected = -0.5 - idx.a_prime - 0 + params.nu_prime * 1.0
        logs = []
        for r in (500.0, 800.0, 1300.0):
            x = (r / math.sqrt(2.0), -r / math.sqrt(2.0))
            val = abs(asymptotic_wave(x, p, coeffs, params, +1))
            logs.append((math.log(r), math.log(val)))
        slope = (logs[-1][1] - logs[0][1]) / (logs[-1][0] - logs[0][0])
        mid = (logs[1][1] - logs[0][1]) / (logs[1][0] - logs[0][0])
        assert slope == pytest.approx(expected, abs=1e-9)
        assert mid == pytest.approx(expected, abs=1e-9)

    def test_decay_of_split_error(self):
        # relative error of psi_+ + psi_- falls like 1/(p r): fitted, not assumed
        params = CouplingParams.from_exponent(2, 2.0, 0.5)  # b' = 1
        p = 1.0
        coeffs = {(0, 1): 1.0}
        errs = []
        for r in (419.0, 853.0):
            x = (r / math.sqrt(2.0), -r / math.sqrt(2.0))
            full = make_general_state(params, p, coeffs)(x)
            split = asymptotic_wave(x, p, coeffs, params, +1,
                                    max_rel_error=1e-2) + \
                asymptotic_wave(x, p, coeffs, params, -1,
                                max_rel_error=1e-2)
            env = abs(full) + abs(split)
            errs.append((r, abs(full - split) / env))
        c_fit = max(r * e for r, e in errs)
        for r, e in errs:
            assert e <= 1.5 * c_fit / r

    def test_below_threshold(self):
        params = CouplingParams.from_exponent(2, 2.0, 0.5)
        p = 1.0
        coeffs = {(0, 1): 1.0}
        with pytest.raises(AsymptoticRangeError):
            asymptotic_wave((5.0, -5.0), p, coeffs, params, +1,
                            max_rel_error=1e-6)


class TestPlaneWaves:
    # the Jost plane waves exp(i sum p_j x_j) and
    # e^(i pi phi) exp(i sum x_j p_(N+1-j)) of the Wronskian
    def test_zero_phase(self):
        # equal coordinates with opposite momenta: sum p_j x_j = 0 exactly
        pset = MomentumSet.from_momenta((-1.0, 1.0))
        val = forward_wave(pset, (3.0, 3.0))
        assert val == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_outgoing_phase_two_body(self):
        pset = MomentumSet.from_momenta((-1.0, 1.0))
        # the outgoing phase exp(-i pi nu' N(N-1)/2) is phi = -nu' N(N-1)/2;
        # nu' = 1/2, N = 2 gives -i at vanishing exponent sum
        val = reversed_wave(pset, -0.5, (0.0, 0.0))
        assert val == pytest.approx(-1j, abs=1e-12)

    def test_pure_phases(self):
        pset = MomentumSet.from_momenta((-2.0, -1.0, 3.0))
        for x in [(2.0, 0.5, -1.0), (10.0, 3.0, -4.0)]:
            assert abs(forward_wave(pset, x)) == pytest.approx(1.0)
            assert abs(reversed_wave(pset, -1.3 * 3, x)) == \
                pytest.approx(1.0)
