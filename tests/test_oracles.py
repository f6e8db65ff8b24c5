"""The Jost Wronskian oracle fed the two-body matcher's own M22."""

import random

import pytest
from oracles import JostPair, wronskian, wronskian_product_form

from calogero_ss.model import CouplingParams
from calogero_ss.scattering import match_two_body, sample_momenta

# b' = nu' - delta - 1/2 from -0.75 (the threshold region) to 1
COUPLINGS = ((1.0, 0.5), (2.0, 0.5), (1.5, 1.0), (0.25, 0.5), (1.0, 0.25))


@pytest.mark.parametrize("nu_prime,delta", COUPLINGS)
def test_wronskian_at_the_matched_m22(nu_prime, delta):
    # |M22|^-2 = T = |d/a|^2, so the transfer-matrix entry is M22 = a/d
    params = CouplingParams.from_exponent(2, nu_prime, delta)
    rng = random.Random(2323)
    for _ in range(50):
        p = rng.uniform(0.05, 5.0)
        match = match_two_body(params, p, rng.uniform(20.0, 200.0),
                               rng.uniform(2.0, 10.0))
        m22 = match.a / match.d
        pset = sample_momenta(2, rng, p)
        jost = JostPair(pset, phi=-nu_prime, m22=m22)
        coords = (rng.uniform(100.0, 200.0), rng.uniform(0.0, 99.0))
        spread = pset.momenta[-1] - pset.momenta[0]
        for i in (1, 2):
            direct = wronskian(jost, coords, i)
            product = wronskian_product_form(jost, coords, i)
            assert abs(direct - product) <= 1e-12 * abs(m22) * spread
        w1 = abs(wronskian(jost, coords, 1))
        assert w1 > 0.0
        assert w1 == pytest.approx(abs(m22) * spread, rel=1e-12)
