"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a PASS line on success; a failure shows up as a normal
pytest failure.  Tolerances are pinned here, not configurable.
"""

import math
import time

import mpmath as mp
from conftest import (GENERIC_LAMBDAS, control_ix1, control_x1,
                      gap_band_samples, symmetric_pset)
from expanded_oracle import euler_defect, translation_defect
from oracles import JostPair, pt_invariance_residual, wronskian

import calogero_ss.cli as cli
from calogero_ss.model import (CouplingParams, Validity, classify_validity,
                               coupling_from_exponent, solve_nu_prime)
from calogero_ss.polynomials import solve_generalized_laplace
from calogero_ss.scattering import (match_n_body, match_two_body, ss_scan,
                                    transmission_sweep, wronskian_report)
from calogero_ss.specialfn import _forward, _miller, bessel_j, switchover
from calogero_ss.wavefunction import (MomentumSet, ground_state,
                                      make_scattering_state,
                                      residual_convergence, state_energy)


def report(line):
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_01_reflection_two_body():
    start = time.perf_counter()
    for p in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for delta in (-0.4, 0.0, 0.5, 1.0):
            for nu_prime in (0.5, 1.0, 2.0):
                params = CouplingParams.from_exponent(2, nu_prime, delta)
                for r_minus in (20.0, 200.0):
                    m = match_two_body(params, p, r_minus, 5.0)
                    assert abs(m.reflection - 1.0) < 1e-9, \
                        (p, delta, nu_prime, r_minus, m.reflection)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"grid took {elapsed:.2f}s"
    report("01 two-body reflection identity |R-1| < 1e-9 on full grid")


def test_criterion_02_reflection_n_body():
    for n in (2, 3, 4):
        for k in (0, 3):
            if n == 2 and k == 3:
                continue  # degeneracy zero: no degree-3 factor exists
            params = CouplingParams.from_exponent(n, 1.0, 0.5)
            entries = {(0, 1): 1.0 + 0j}
            if k:
                entries[(k, 1)] = 0.6 + 0j
            m = match_n_body(params, 1.0, entries, r_minus=80.0)
            assert abs(m.reflection - 1.0) < 1e-9, (n, k, m.reflection)
    report("02 N-body reflection identity |R-1| < 1e-9")


def test_criterion_03_ss_nonexistence_sweep():
    for n in (2, 3, 4):
        params = CouplingParams.from_exponent(n, 1.0, 0.5)
        summary = ss_scan(params, 0.01, 10.0, 2026, 10_000)
        assert summary.ss_count == 0, f"N={n}: singular verdicts found"
        assert summary.min_pair_factor > 0.0
    # the unique degenerate point: all momenta zero gives W = 0 exactly
    zero = MomentumSet.from_momenta((0.0,) * 3)
    rep = wronskian_report(zero)
    assert rep.ss_verdict
    jost = JostPair(zero, phi=-3.0)
    for i in (1, 2, 3):
        assert wronskian(jost, (130.0, 120.0, 110.0), i) == 0j
    report("03 no spectral singularity in 3x10^4 seeded samples; "
           "p=0 is the unique degenerate point")


# Eigenvalue convention: with the kinetic term -(1/2) sum d^2/dx^2, the
# Bessel-profile states and the plane waves sharing their momenta carry
# energy p^2/2 (see state_energy).
RESIDUAL_CASES = (
    (2, 2.0, 0.5, 0, 1.0, 5),
    (2, 1.0, 0.0, 0, 1.6, 6),
    (3, 1.0, 0.0, 3, 1.4, 7),
    (3, 2.0, 0.5, 0, 1.0, 8),
)


def test_criterion_04_eigen_residual_and_order():
    for n, nu_prime, delta, k, p, seed in RESIDUAL_CASES:
        params = CouplingParams.from_exponent(n, nu_prime, delta)
        psi = make_scattering_state(params, p, k)
        samples = gap_band_samples(n, seed, 20)
        res, _, ratio = residual_convergence(psi, state_energy(p),
                                             samples, params,
                                             h_factor=1e-3)
        assert res < 1e-6, (n, nu_prime, delta, k, res)
        assert 3.8 <= ratio <= 4.2, (n, nu_prime, delta, k, ratio)
    report("04 FD eigen residual < 1e-6 at h = 1e-3*gap, "
           "halving ratio in [3.8, 4.2]")


def test_criterion_05_zero_mode():
    for n, nu_prime, delta, _k, _p, seed in RESIDUAL_CASES:
        params = CouplingParams.from_exponent(n, nu_prime, delta)
        psi = lambda c, e=nu_prime: complex(ground_state(c, e))
        samples = gap_band_samples(n, seed, 20)
        assert residual_convergence(psi, 0.0, samples, params)[0] < 1e-6
    report("05 Jastrow zero mode: normalized |H psi_gr| < 1e-6")


def test_criterion_06_special_functions():
    xs = [0.1 + 49.9 * i / 99 for i in range(100)]
    for x in xs:
        env = math.sqrt(2.0 / (math.pi * x))
        j_half = env * math.sin(x)
        j_3half = env * (math.sin(x) / x - math.cos(x))
        assert abs(bessel_j(0.5, x) - j_half) < 1e-12 * max(1.0, abs(j_half))
        assert abs(bessel_j(1.5, x) - j_3half) < 1e-12 * max(1.0,
                                                             abs(j_3half))
    for order in (0.5, 1.0, 1.7, 2.5, 5.0):
        for x in (0.5, 2.0, 8.0, 25.0, 60.0):
            a = bessel_j(order - 1.0, x)
            b = bessel_j(order, x)
            c = bessel_j(order + 1.0, x)
            assert abs(a + c - (2 * order / x) * b) < \
                1e-10 * max(abs(a), abs(b), abs(c), 1e-30)
    for order in (0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 39.0, 54.0):
        n = math.floor(order)
        xs_band = [f * switchover(order) for f in (0.9, 1.0, 1.1)]
        for x in xs_band:
            miller = _miller(order - n, max(n, 1), x)
            forward = _forward(order - n, max(n, 1), x)
            for m, f in zip(miller, forward):
                assert abs(m - f) < 1e-9 * max(1.0, abs(m))
    report("06 half-integer closed forms < 1e-12; recurrence < 1e-10; "
           "Miller/forward band agreement < 1e-9")


def test_criterion_07_polynomial_degeneracies():
    for n in (2, 3, 4, 5, 6):
        for lam in GENERIC_LAMBDAS:
            assert solve_generalized_laplace(n, 0, lam).nullspace_dim == 1
            assert solve_generalized_laplace(n, 1, lam).nullspace_dim == 0
    for lam in GENERIC_LAMBDAS:
        system = solve_generalized_laplace(3, 3, lam)
        assert system.nullspace_dim == 1
        for sol in system.solutions:
            assert translation_defect(sol) == {}
            assert euler_defect(sol) == {}
    report("07 exact degeneracies: dim(N,0)=1, dim(N,1)=0 (N<=6), "
           "dim(3,3)=1 at both generic lambdas; identities exact")


def test_criterion_08_exponent_algebra():
    for nu_prime in (0.0, 0.5, 1.0, 1.75, 2.0, 3.3):
        for delta in (-0.4, 0.0, 0.5, 1.0):
            if nu_prime < (1.0 + 2.0 * delta) / 2.0:
                continue
            g = coupling_from_exponent(nu_prime, delta)
            assert abs(solve_nu_prime(g, delta).selected - nu_prime) < 1e-12
    for delta in (-0.5, 0.0, 0.5, 1.0):
        g = -((delta + 0.5) ** 2)
        sol = solve_nu_prime(g, delta)
        assert abs(sol.roots[0] - sol.roots[1]) < 1e-7  # double root
        assert abs(sol.selected - (0.5 + delta)) < 1e-7
    count = 0
    for i in range(40):
        for j in range(25):
            g = -3.0 + 6.0 * i / 39
            delta = -1.5 + 3.0 * j / 24
            v = classify_validity(g, delta)
            assert v in (Validity.RANGE_I, Validity.RANGE_II,
                         Validity.INVALID)
            count += 1
    assert count == 1000
    report("08 exponent round trip < 1e-12; boundary double root; "
           "validity trichotomy on 1000-point grid")


def test_criterion_09_pt_invariance():
    gaussian = lambda x: math.exp(-0.5 * sum(c * c for c in x))
    import cmath
    wave = lambda x: cmath.exp(1j * x[0])
    sample = (1.0, -1.0)
    for term, fn in (("kinetic", gaussian), ("inverse_square", gaussian),
                     ("momentum_deformation", wave)):
        assert pt_invariance_residual(term, fn, sample, g=1.0,
                                      delta=0.7) < 1e-6, term
    # detector non-vacuity: coordinate multiplication is the PT-breaking
    # control (residual 2 |x_1 psi|); the literal i*x_1 term commutes with
    # PT (parity flips x_1, conjugation flips i) and is asserted invariant.
    assert pt_invariance_residual(control_x1, gaussian, sample) > 0.1
    assert pt_invariance_residual(control_ix1, gaussian, sample) < 1e-10
    report("09 PT commutation residual < 1e-6 per Hamiltonian term; "
           "breaking control > 0.1")


def test_criterion_10_hermitian_reduction():
    # observables depend on the combination nu' - delta, so the
    # undeformed comparison run uses exponent nu = nu' - delta
    for nu_prime, delta in ((2.0, 0.5), (1.5, 1.0), (1.0, 0.25)):
        deformed = CouplingParams.from_exponent(2, nu_prime, delta)
        hermitian = CouplingParams.from_exponent(2, nu_prime - delta, 0.0)
        for p in (0.5, 1.0, 5.0):
            md = match_two_body(deformed, p, 60.0, 6.0)
            mh = match_two_body(hermitian, p, 60.0, 6.0)
            assert abs(md.reflection - mh.reflection) < 1e-9
            assert abs(md.transmission - mh.transmission) < \
                1e-9 * max(1.0, mh.transmission)
        pset = symmetric_pset(2, 1.0)
        for i in (1, 2):
            wd = wronskian(JostPair(pset, phi=-nu_prime),
                           (120.0, 110.0), i)
            wh = wronskian(JostPair(pset, phi=-(nu_prime - delta)),
                           (120.0, 110.0), i)
            assert abs(abs(wd) - abs(wh)) < 1e-9
    report("10 Hermitian reduction: matched delta=0 runs reproduce "
           "R, T, |W| to 1e-9")


def _extended_precision_match(nu_prime, delta, p, r_minus, r_plus):
    """Independent re-evaluation of the matching at 50 digits."""
    with mp.workdps(50):
        b = mp.mpf(repr(nu_prime)) - mp.mpf(repr(delta)) - mp.mpf(1) / 2
        c = mp.mpf(repr(nu_prime)) - b
        pp = mp.mpf(repr(p))
        rm = mp.mpf(repr(r_minus))
        rp = mp.mpf(repr(r_plus))
        j = mp.besselj(b, pp * rm)
        jd = mp.besselj(b, pp * rm, derivative=1)
        em = mp.exp(-1j * pp * rm)
        ep = mp.exp(1j * pp * rm)
        m11, m12 = em, ep
        m21 = ((c - mp.mpf(1) / 2) / rm - 1j * pp) * em
        m22 = ((c - mp.mpf(1) / 2) / rm + 1j * pp) * ep
        rhs1 = mp.sqrt(rm) * j
        rhs2 = c / mp.sqrt(rm) * j + mp.sqrt(rm) * pp * jd
        det = m11 * m22 - m12 * m21
        a = (rhs1 * m22 - m12 * rhs2) / det
        bb = (m11 * rhs2 - rhs1 * m21) / det
        d = mp.sqrt(rp) * mp.besselj(b, pp * rp) * mp.exp(1j * pp * rp)
        return (float(abs(bb) ** 2 / abs(a) ** 2),
                float(abs(d) ** 2 / abs(a) ** 2))


def test_criterion_11_transmission_diagnostic(tmp_path, capsys):
    params = CouplingParams.from_exponent(2, 1.0, 0.5)
    grid = [10.0, 100.0, 1000.0, 10000.0]
    sweep = transmission_sweep(params, "r_minus", grid, p=1.0, r_plus=5.0)
    for (rm, m) in sweep.rows:
        r_ref, t_ref = _extended_precision_match(1.0, 0.5, 1.0, rm, 5.0)
        assert abs(m.transmission - t_ref) <= 1e-8 * max(t_ref, 1e-300), rm
        assert abs(m.reflection - r_ref) <= 1e-8
    # the decay claim fails for this model: the summary must say so and the
    # CLI must record it and exit 6, never silently pass
    assert sweep.trend.decayed is False
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--n", "2", "--nu-prime", "1", "--delta",
                     "0.5", "--param", "r-minus", "--from", "10", "--to",
                     "10000", "--steps", "4", "--log", "--p", "1",
                     "--r-plus", "5", "--out", str(out)])
    capsys.readouterr()
    assert code == cli.EXIT_CHECK_FAILED
    assert "# trend_discrepancy=" in out.read_text()
    report("11 transmission rows match 50-digit re-evaluation to 1e-8; "
           "decay-claim violation recorded with exit 6")


def test_criterion_runtime_envelope():
    # the acceptance suite itself must stay desk-scale; spot-check the
    # heaviest kernel path
    start = time.perf_counter()
    bessel_j(2.0, 125.0)
    assert time.perf_counter() - start < 0.5
