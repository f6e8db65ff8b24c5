"""Exponent algebra, validity ranges, radial indices, PT checker."""

import cmath
import math
import random

import pytest
from conftest import control_ix1, control_x1
from oracles import pt_invariance_residual

from calogero_ss.errors import (CouplingRangeError, DomainError,
                                NoRealExponentError,
                                SingularConfigurationError)
from calogero_ss.model import (CouplingParams, Validity, classify_validity,
                               coupling_from_exponent, radial_indices,
                               solve_nu_prime)


class TestSolveNuPrime:
    def test_free_factorization(self):
        sol = solve_nu_prime(0.0, 0.0)
        assert sol.roots == (0.0, 1.0)
        assert sol.selected == 1.0
        assert sol.validity is Validity.RANGE_II

    def test_integer_factorization(self):
        sol = solve_nu_prime(2.0, 0.0)
        assert sol.roots == (-1.0, 2.0)
        assert sol.selected == 2.0
        assert sol.validity is Validity.RANGE_II

    def test_boundary_double_root(self):
        sol = solve_nu_prime(-0.25, 0.0)
        assert sol.roots[0] == pytest.approx(0.5, abs=1e-12)
        assert sol.roots[1] == pytest.approx(0.5, abs=1e-12)
        assert sol.selected == pytest.approx(0.5, abs=1e-12)
        assert sol.validity is Validity.RANGE_I

    def test_negative_discriminant(self):
        with pytest.raises(NoRealExponentError):
            solve_nu_prime(-5.0, 0.0)

    def test_no_nonnegative_root(self):
        # delta < -1/2 with small negative g: both roots negative.
        with pytest.raises(CouplingRangeError):
            solve_nu_prime(-0.01, -2.0)

    def test_round_trip(self):
        for nu_prime in [0.0, 0.5, 1.0, 1.75, 2.0, 3.30]:
            for delta in [-0.4, 0.0, 0.5, 1.0]:
                if nu_prime < (1.0 + 2.0 * delta) / 2.0:
                    continue  # other branch selected below the vertex
                g = coupling_from_exponent(nu_prime, delta)
                assert solve_nu_prime(g, delta).selected == pytest.approx(
                    nu_prime, abs=1e-12)


class TestValidity:
    def test_examples(self):
        assert classify_validity(-2.0, 1.0) is Validity.RANGE_I
        assert classify_validity(0.0, 0.0) is Validity.RANGE_II
        assert classify_validity(-0.3, -0.6) is Validity.INVALID

    def test_trichotomy_grid(self):
        # Exactly one class on a 1000-point grid.
        for i in range(40):
            for j in range(25):
                g = -3.0 + 6.0 * i / 39
                delta = -1.5 + 3.0 * j / 24
                v = classify_validity(g, delta)
                hits = [v is Validity.RANGE_I, v is Validity.RANGE_II,
                        v is Validity.INVALID]
                assert sum(hits) == 1
                # class membership re-derived independently
                if g >= 0:
                    assert v is Validity.RANGE_II
                elif delta >= -0.5 and g >= -((delta + 0.5) ** 2):
                    assert v is Validity.RANGE_I
                else:
                    assert v is Validity.INVALID


class TestCouplingParams:
    def test_from_exponent_range_i(self):
        p = CouplingParams.from_exponent(2, 2.0, 1.0)
        assert p.g == pytest.approx(-2.0)
        assert p.validity_class is Validity.RANGE_I

    def test_consistency_enforced(self):
        with pytest.raises(DomainError):
            CouplingParams(2, 5.0, 0.0, 1.0)

    @pytest.mark.parametrize("fields,problem", [
        ((1, 0.0, 0.0, 1.0), "need at least 2 particles"),
        ((2, 2.0, 0.0, -1.0), "nu_prime must be >= 0"),
    ])
    def test_bad_fields_rejected(self, fields, problem):
        with pytest.raises(DomainError, match=problem):
            CouplingParams(*fields)

    def test_validity_is_derived(self):
        # seeded draws through both constructors: validity_class is
        # classify_validity of the stored couplings, never a given value
        rng = random.Random(2025)
        params = []
        while len(params) < 500:
            g, delta = rng.uniform(-3.0, 3.0), rng.uniform(-1.5, 1.5)
            try:
                params.append(CouplingParams.from_coupling(2, g, delta))
            except CouplingRangeError:
                continue
        params += [CouplingParams.from_exponent(
            rng.randint(2, 6), rng.uniform(0.0, 3.0), rng.uniform(-1.5, 1.5))
            for _ in range(500)]
        # at nu' = delta + 1/2 the rounded g can fall below -(delta + 1/2)^2
        params.append(CouplingParams.from_exponent(2, 0.6040065076960841,
                                                   0.1040065076960841))
        classes = {p.validity_class for p in params}
        assert classes == set(Validity)
        for p in params:
            assert p.validity_class is classify_validity(p.g, p.delta)

    def test_validity_is_not_a_field(self):
        # (g, delta) = (0, 0) is RangeII; no fifth argument can say otherwise
        assert CouplingParams(2, 0.0, 0.0, 0.0).validity_class \
            is Validity.RANGE_II
        with pytest.raises(TypeError):
            CouplingParams(2, 0.0, 0.0, 0.0, Validity.INVALID)

    def test_hermitian_limit_matches_undeformed(self):
        # delta = 0 reduces the quadratic to g = nu'^2 - nu'.
        p = CouplingParams.from_coupling(2, 6.0, 0.0)
        assert p.nu_prime == pytest.approx(3.0)


class TestRadialIndices:
    def test_two_body_direct(self):
        p = CouplingParams.from_exponent(2, 1.0, 0.0)
        idx = radial_indices(p, 0)
        assert idx.b_prime == pytest.approx(0.5)  # A' = b' - k = b' at k = 0
        assert idx.n_prime == pytest.approx(0.5)
        assert idx.c == pytest.approx(0.5)

    @pytest.mark.parametrize("delta", [-0.4, 0.0, 0.3, 1.0])
    def test_two_body_n_prime(self, delta):
        p = CouplingParams.from_exponent(2, 2.0, delta)
        idx = radial_indices(p, 0)
        assert idx.n_prime == pytest.approx(0.5 + delta)
        assert idx.c == pytest.approx(0.5 + delta)  # nu' - b' at N=2, k=0

    def test_exponent_cancellation(self):
        p = CouplingParams.from_exponent(3, 0.5, 0.5)
        idx = radial_indices(p, 2)
        assert idx.b_prime == pytest.approx(2.0)

    def test_a_prime_plus_k(self):
        p = CouplingParams.from_exponent(4, 1.5, 0.25)
        for k in range(5):
            # A' = b' - k is the same at every k
            assert radial_indices(p, k).b_prime - k == pytest.approx(
                radial_indices(p, 0).b_prime, abs=1e-14)


def gaussian(x):
    return math.exp(-0.5 * sum(c * c for c in x))


def plane_wave_x1(x):
    return cmath.exp(1j * x[0])


class TestPTInvariance:
    def test_kinetic_on_gaussian(self):
        assert pt_invariance_residual("kinetic", gaussian, (1.0, -1.0)) < 1e-8

    def test_inverse_square(self):
        assert pt_invariance_residual("inverse_square", gaussian,
                                      (1.0, -1.0), g=2.0) < 1e-8

    def test_momentum_deformation_on_complex_wave(self):
        res = pt_invariance_residual("momentum_deformation", plane_wave_x1,
                                     (1.0, -1.0), delta=0.7)
        assert res < 1e-6

    def test_breaking_control_magnitude(self):
        # x_1 multiplication anticommutes with PT: residual 2|x_1 psi(x)|.
        res = pt_invariance_residual(control_x1, gaussian, (1.0, -1.0))
        assert res == pytest.approx(2.0 * 1.0 * gaussian((1.0, -1.0)), rel=1e-12)
        assert res > 0.1

    def test_ix1_is_pt_invariant(self):
        # i x_1: parity flips x_1, conjugation flips i; the product commutes
        # with PT even though the term is non-Hermitian.
        assert pt_invariance_residual(control_ix1, gaussian, (1.0, -1.0)) < 1e-12

    def test_three_particles(self):
        res = pt_invariance_residual("momentum_deformation", gaussian,
                                     (2.0, 0.5, -1.5), delta=0.3)
        assert res < 1e-6

    def test_coincidence_guard(self):
        with pytest.raises(SingularConfigurationError):
            pt_invariance_residual("kinetic", gaussian, (1.0, 1.0 + 1e-9))

    def test_unknown_term(self):
        with pytest.raises(DomainError):
            pt_invariance_residual("bogus", gaussian, (1.0, -1.0))

    def test_deterministic_over_random_samples(self):
        rng = random.Random(7)
        for _ in range(10):
            x = sorted((rng.uniform(-3, 3) for _ in range(3)), reverse=True)
            if min(x[i] - x[i + 1] for i in range(2)) < 0.1:
                continue
            assert pt_invariance_residual("momentum_deformation",
                                          plane_wave_x1, x, delta=0.4) < 1e-5
