"""Bessel kernel tests against closed forms and an extended-precision oracle."""

import math
import random

import mpmath as mp
import pytest
from oracles import asymptotic_threshold, miller

from calogero_ss import specialfn
from calogero_ss.errors import DomainError
from calogero_ss.specialfn import (REL_TARGET, _asymptotic_value, _forward,
                                   _miller, bessel_eval, bessel_j,
                                   switchover)

mp.mp.dps = 30


def envelope(x):
    return min(1.0, math.sqrt(2.0 / (math.pi * x))) if x > 0 else 1.0


def oracle_j(order, x):
    return float(mp.besselj(mp.mpf(repr(order)), mp.mpf(repr(x))))


# Frozen values.  J_1(2) from a 40-term ascending series at 40 digits
# (matches mpmath to all shown places); the rest are elementary closed forms.
J1_OF_2 = 0.5767248077568734


class TestBesselJ:
    def test_half_integer_closed_form_point(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x  ->  2/pi at x = pi/2
        assert bessel_j(0.5, math.pi / 2) == pytest.approx(2 / math.pi, rel=1e-14)

    def test_x_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(2.0, 0.0) == 0.0

    def test_series_oracle_point(self):
        assert bessel_j(1.0, 2.0) == pytest.approx(J1_OF_2, rel=1e-12)

    @pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 2.0, 3.7, 5.0, 10.0,
                                       17.9, 25.0, 50.0])
    @pytest.mark.parametrize("x", [0.05, 0.7, 2.0, 7.3, 19.0, 21.5, 50.0,
                                   123.0, 384.5, 1000.0])
    def test_accuracy_grid(self, order, x):
        # Envelope-relative 1e-10 over the documented domain.
        ref = oracle_j(order, x)
        assert abs(bessel_j(order, x) - ref) <= 1e-10 * max(abs(ref),
                                                            envelope(x))

    def test_dense_oracle_grid(self):
        # 30 x 30 over nu in [-0.9, 100], x in [0.01, 1000] (log-spaced):
        # no raise anywhere, envelope-relative error within REL_TARGET.
        for i in range(30):
            order = -0.9 + 100.9 * i / 29
            for j in range(30):
                x = 10.0 ** (-2.0 + 5.0 * j / 29)
                ref = oracle_j(order, x)
                err = abs(bessel_j(order, x) - ref) / max(abs(ref),
                                                          envelope(x))
                assert err <= REL_TARGET, (order, x, err)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.7, 4.0, 9.3, 17.0, 26.0, 50.0])
    def test_half_integer_elementary(self, x):
        j_half = math.sqrt(2 / (math.pi * x)) * math.sin(x)
        j_3half = math.sqrt(2 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
        assert abs(bessel_j(0.5, x) - j_half) < 1e-12 * max(1.0, abs(j_half))
        assert abs(bessel_j(1.5, x) - j_3half) < 1e-12 * max(1.0, abs(j_3half))

    @pytest.mark.parametrize("order", [0.5, 1.0, 1.7, 2.5, 5.0])
    @pytest.mark.parametrize("x", [0.5, 2.0, 8.0, 25.0, 60.0])
    def test_three_term_recurrence(self, order, x):
        a = bessel_j(order - 1.0, x) if order >= 1.0 else oracle_j(order - 1.0, x)
        b = bessel_j(order, x)
        c = bessel_j(order + 1.0, x)
        resid = abs(a + c - (2 * order / x) * b)
        assert resid < 1e-10 * max(abs(a), abs(b), abs(c), 1e-30)

    @pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0,
                                       30.3, 39.0, 54.0, 99.5])
    def test_switchover_band_agreement(self, order):
        # Miller and forward recurrence in a +-10% band around x*; the
        # ladder pairs (J_(order-1), J_order) must agree to 1e-9.
        n = math.floor(order)
        nu0, top = order - n, max(n, 1)
        xs = switchover(order)
        for x in [0.9 * xs, 0.95 * xs, xs, 1.05 * xs, 1.1 * xs]:
            for seed in (nu0, nu0 + 1.0):
                assert _asymptotic_value(seed, x)[1] < 1e-12
            miller = _miller(nu0, top, x)
            forward = _forward(nu0, top, x)
            for m, f in zip(miller, forward):
                assert abs(m - f) < 1e-9 * max(abs(m), envelope(x))

    @pytest.mark.parametrize("order,x", [(0.7, 3.0), (1.3, 6.5), (2.0, 9.1),
                                         (4.2, 8.0), (0.0, 5.5)])
    def test_ode_residual(self, order, x):
        # x^2 J'' + x J' + (x^2 - nu^2) J = 0, with J'' from finite
        # differences of the (identity-based) first derivative.
        h = 5e-6
        jpp = (bessel_eval(order, x + h)[1]
               - bessel_eval(order, x - h)[1]) / (2 * h)
        j, jp = bessel_eval(order, x)
        resid = abs(x * x * jpp + x * jp + (x * x - order * order) * j)
        assert resid / max(1.0, abs(j)) < 1e-8

    def test_former_gap_matches_oracle(self):
        # The old series/Hankel kernel raised AccuracyLossError at these
        # b' = 39..54 corners for x ~ 146..399, and at (50, 600).
        points = [(39.0 + 0.75 * i, 146.0 + 253.0 * j / 19)
                  for i in range(21) for j in range(20)] + [(50.0, 600.0)]
        for order, x in points:
            ref = oracle_j(order, x)
            assert abs(bessel_j(order, x) - ref) <= REL_TARGET * max(
                abs(ref), envelope(x)), (order, x)

    @pytest.mark.parametrize("nu0", [0.0, 0.25, 0.5, 0.75, 1.0 / 3.0,
                                     "random"])
    def test_miller_matches_its_first_form(self, nu0):
        # the paired pass with the split Neumann step computes the same
        # integers as the one-step-at-a-time form, so the same floats
        rng = random.Random(f"miller:{nu0}")
        for top in range(1, 201):
            nu = rng.random() if nu0 == "random" else nu0
            x = rng.uniform(0.0, switchover(nu + top))
            if x == 0.0:
                continue
            got = _miller(nu, top, x)
            assert list(map(float.hex, got)) == list(
                map(float.hex, miller(nu, top, x))), (nu, top, x)

    @pytest.mark.parametrize("order", [0.0, 0.25, 0.5, 1.0, 2.3, 4.5, 6.0,
                                       10.7])
    def test_miller_value_relative_accuracy(self, order):
        # Finite-difference residuals difference J at nearby x, so Miller
        # values must be good to a few ulp relative to the value itself,
        # zeros of J included (a float recurrence reaches ~1e-13 there).
        for i in range(120):
            x = 0.3 + 24.0 * i / 119
            ref = mp.besselj(mp.mpf(order), mp.mpf(x))
            assert abs(mp.mpf(bessel_j(order, x)) - ref) <= 6e-16 * abs(ref)

    @pytest.mark.parametrize("order,x", [(0.5, 1e-300), (-0.9, 1e-300),
                                         (2.0, 1e-50), (54.0, 0.01),
                                         (10.5, 1e-8)])
    def test_tiny_argument(self, order, x):
        # x far below 1: a single recurrence step grows values by ~1/x.
        ref = oracle_j(order, x)
        assert bessel_j(order, x) == pytest.approx(ref, rel=1e-12)

    def test_negative_integer_reflection(self):
        assert bessel_j(-1.0, 2.0) == pytest.approx(-J1_OF_2, rel=1e-12)
        assert bessel_j(-2.0, 3.7) == pytest.approx(bessel_j(2.0, 3.7),
                                                    rel=1e-12)

    @pytest.mark.parametrize("x", [0.3, 1.1, 4.0, 30.0])
    def test_negative_half_order_closed_form(self, x):
        # J_(-1/2)(x) = sqrt(2/(pi x)) cos x
        expected = math.sqrt(2 / (math.pi * x)) * math.cos(x)
        assert bessel_j(-0.5, x) == pytest.approx(expected, rel=1e-11,
                                                  abs=1e-13)

    @pytest.mark.parametrize("order", [-0.5, -0.9, -1.0, -1.5, -3.25])
    @pytest.mark.parametrize("x", [0.5, 2.0, 25.0, 300.0])
    def test_negative_order_vs_oracle(self, order, x):
        ref = oracle_j(order, x)
        assert abs(bessel_j(order, x) - ref) <= 1e-10 * max(abs(ref),
                                                            envelope(x))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j(1.0, -2.0)
        with pytest.raises(DomainError):
            bessel_j(math.nan, 2.0)
        with pytest.raises(DomainError):
            bessel_j(1.0, math.inf)
        with pytest.raises(DomainError):
            bessel_j(-0.5, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_negative_integer_order_at_zero(self, n):
        # J_(-n)(0) = (-1)^n J_n(0): a signed zero, not a divergence
        value = bessel_j(-float(n), 0.0)
        assert value == 0.0
        assert math.copysign(1.0, value) == (-1.0 if n % 2 else 1.0)


class TestBesselJPrime:
    def test_j0_prime_is_minus_j1(self):
        assert bessel_eval(0.0, 2.0)[1] == pytest.approx(-J1_OF_2, rel=1e-12)

    def test_half_order_closed_form(self):
        # d/dx sqrt(2/(pi x)) sin x at pi/2 = -2/pi^2
        got = bessel_eval(0.5, math.pi / 2)[1]
        assert got == pytest.approx(-2 / math.pi**2, rel=1e-12)

    def test_j1_prime_small_x_limit(self):
        assert bessel_eval(1.0, 1e-8)[1] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("order,x", [(0.3, 1.2), (1.0, 7.7), (2.5, 30.0),
                                         (6.0, 14.0), (0.0, 55.5),
                                         (-2.0, 3.0), (-3.25, 5.0),
                                         (40.0, 30.0), (54.0, 200.0)])
    def test_vs_oracle(self, order, x):
        ref = float(mp.diff(lambda t: mp.besselj(mp.mpf(repr(order)), t),
                            mp.mpf(repr(x))))
        assert abs(bessel_eval(order, x)[1] - ref) <= 1e-9 * max(
            abs(ref), envelope(x))

    @pytest.mark.parametrize("order,x", [(0.0, 2.0), (2.5, 3.0), (-0.5, 1.0),
                                         (40.0, 200.0)])
    def test_one_ladder_pass(self, order, x, monkeypatch):
        passes = []
        ladder = specialfn._ladder_pair

        def counted(*args):
            passes.append(args)
            return ladder(*args)
        monkeypatch.setattr(specialfn, "_ladder_pair", counted)
        monkeypatch.setattr(specialfn, "bessel_j", None)
        bessel_eval(order, x)
        assert passes == [(order, x)]


def test_asymptotic_threshold():
    # |4 nu^2 - 1| / (8 max_rel_error): 15/8e-6 at order 2; order 1/2 has
    # no correction terms, so its leading term holds everywhere.
    assert asymptotic_threshold(2.0, 1e-6) == pytest.approx(1.875e6)
    assert asymptotic_threshold(0.5, 1e-6) == 0.0


def test_bessel_eval_record():
    value, derivative = bessel_eval(1.0, 2.0)
    assert value == pytest.approx(J1_OF_2, rel=1e-12)
    assert derivative == pytest.approx(
        bessel_j(0.0, 2.0) - J1_OF_2 / 2.0, rel=1e-12)
