"""The deformed model is the Hermitian Calogero model in disguise.

With Delta = prod_{i<j} (x_i - x_j) and lambda = nu' - delta,

    H(g, delta) Delta^delta f = Delta^delta H_Cal(lambda (lambda - 1)) f

for every smooth f in the ordered sector, where H_Cal is the delta = 0
Hamiltonian: the first-order deformation term cancels the cross term of
the kinetic energy, and g + delta + delta^2 = lambda (lambda - 1).  Both
sides are applied here through the model's own stencil
(``stencil_values`` and ``terms_from_stencil``), so the gap between them
is the central-difference truncation error alone and falls as h^2.  The
eigenfunctions follow the same map: the state at (nu', delta) is
Delta^delta times the state at (lambda, 0).
"""

import math
import random

import pytest
from conftest import gap_band_samples

from calogero_ss._sums import lsum
from calogero_ss.errors import DomainError
from calogero_ss.model import (CouplingParams, coupling_from_exponent,
                               radial_indices, stencil_values,
                               terms_from_stencil)
from calogero_ss.wavefunction import laplace_solutions, make_scattering_state

# (nu', delta) with dyadic values, so that nu' - delta is lambda exactly;
# delta < 0 and lambda < 0 (nu' < delta) are both covered
COUPLINGS = ((2.0, 0.5), (1.0, -0.5), (1.5, -0.25), (0.5, 1.5))


def _vandermonde(x):
    out = 1.0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            out *= x[i] - x[j]
    return out


def _generic_function(rng, n):
    """exp(a.x) cos(b.x) + sum_j c_j x_j^3: no symmetry, no translation
    invariance, no zero of the operators' structure."""
    a = [rng.uniform(-0.4, 0.4) for _ in range(n)]
    b = [rng.uniform(-0.8, 0.8) for _ in range(n)]
    c = [rng.uniform(-0.1, 0.1) for _ in range(n)]

    def f(x):
        return (math.exp(lsum(u * v for u, v in zip(a, x)))
                * math.cos(lsum(u * v for u, v in zip(b, x)))
                + lsum(u * v ** 3 for u, v in zip(c, x)))
    return f


def _hamiltonian(f, x, g, delta, h):
    """The terms of H(g, delta) f at x, from the model's stencil."""
    return terms_from_stencil(x, f(x), *stencil_values(f, x, h), g, delta, h)


def _gap(f, x, nu_prime, delta, h, g_prime=None):
    """|H Delta^delta f - Delta^delta H_Cal f| relative to the summed
    magnitudes of the H_Cal terms, at x and step h."""
    lam = nu_prime - delta
    if g_prime is None:
        g_prime = lam * (lam - 1.0)

    def conjugated(y):
        return _vandermonde(y) ** delta * f(y)
    lhs = lsum(_hamiltonian(conjugated, x, coupling_from_exponent(
        nu_prime, delta), delta, h))
    terms = _hamiltonian(f, x, g_prime, 0.0, h)
    weight = _vandermonde(x) ** delta
    return abs(lhs - weight * lsum(terms)) / (
        weight * lsum(abs(t) for t in terms))


@pytest.mark.parametrize("n", range(2, 7))
def test_operator_identity_h_squared(n):
    # measured: the largest gap over the draws is 8.6e-6 to 3.1e-5 at
    # h = 4e-3 and falls by 4.00 per halving of h at every N, down to
    # h = 5e-4
    rng = random.Random(2800 + n)
    worst = {4e-3: 0.0, 2e-3: 0.0}
    for x in gap_band_samples(n, 2810 + n, 6):
        f = _generic_function(rng, n)
        for nu_prime, delta in COUPLINGS:
            for h in worst:
                gap = _gap(f, x, nu_prime, delta, h)
                assert gap <= 1e-4, (n, x, nu_prime, delta, h, gap)
                worst[h] = max(worst[h], gap)
    assert 3.9 <= worst[4e-3] / worst[2e-3] <= 4.1, worst


@pytest.mark.parametrize("n", range(2, 7))
def test_wrong_coupling_leaves_a_gap(n):
    # the check discriminates: any other g' leaves a gap that does not
    # shrink with h
    rng = random.Random(2820 + n)
    (x,) = gap_band_samples(n, 2830 + n, 1)
    f = _generic_function(rng, n)
    for nu_prime, delta in COUPLINGS:
        lam = nu_prime - delta
        for g_prime in (nu_prime * (nu_prime - 1.0),
                        lam * (lam - 1.0) + 0.05):
            coarse = _gap(f, x, nu_prime, delta, 4e-3, g_prime)
            fine = _gap(f, x, nu_prime, delta, 2e-3, g_prime)
            assert coarse > 1e-3 and fine > 0.9 * coarse, (n, nu_prime,
                                                           delta, g_prime)


def test_eigenfunction_map_every_degree():
    # psi at (nu', delta) is Delta^delta psi at (lambda, 0) for every
    # (N <= 6, k <= 8, q) with a solution, lambda >= 0
    checked = set()
    for n in range(2, 7):
        points = gap_band_samples(n, 2840 + n, 5)
        for nu_prime, delta in COUPLINGS:
            lam = nu_prime - delta
            if lam < 0.0:
                continue
            deformed = CouplingParams.from_exponent(n, nu_prime, delta)
            hermitian = CouplingParams.from_exponent(n, lam, 0.0)
            for k in range(9):
                for q in range(1, len(laplace_solutions(hermitian, k)) + 1):
                    psi_d = make_scattering_state(deformed, 1.3, k, q)
                    psi_h = make_scattering_state(hermitian, 1.3, k, q)
                    for x in points:
                        want = _vandermonde(x) ** delta * psi_h(x)
                        assert abs(psi_d(x) - want) <= 1e-14 * abs(want), (
                            n, nu_prime, delta, k, q, x)
                    checked.add((n, k))
    assert {(2, 0), (3, 3), (6, 8)} <= checked


@pytest.mark.parametrize("nu_prime,delta", [(1.0, 1.5), (0.0, 0.25)])
def test_negative_lambda_is_the_irregular_branch(nu_prime, delta):
    # lambda < 0 maps to the Calogero branch Delta^lambda, singular at
    # coincidences: no non-negative exponent builds it, and at N = 2 it is
    # the region b' = lambda - 1/2 < -1/2
    lam = nu_prime - delta
    assert lam < 0.0
    with pytest.raises(DomainError):
        CouplingParams.from_exponent(2, lam, 0.0)
    deformed = CouplingParams.from_exponent(2, nu_prime, delta)
    assert radial_indices(deformed, 0).b_prime == lam - 0.5 < -0.5
