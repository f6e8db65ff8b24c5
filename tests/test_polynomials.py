"""Exact polynomial identities, nullspace dimensions, evaluation."""

from fractions import Fraction

import pytest
from expanded_oracle import (_compress_symmetric, apply_laplace_operator,
                             euler_defect, expand, expanded_candidates,
                             translation_defect)

from calogero_ss.errors import DomainError, ResourceLimitError
from calogero_ss.polynomials import (GENERIC_LAMBDAS, _partitions_min2,
                                     degeneracy, evaluate_poly,
                                     generic_degeneracy, partition_order_key,
                                     solve_generalized_laplace,
                                     ti_symmetric_basis)


class TestBasis:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_degree_zero(self, n):
        basis = ti_symmetric_basis(n, 0)
        assert len(basis) == 1
        assert basis[0].coefficients == {(0,) * n: Fraction(1)}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_degree_one_empty(self, n):
        assert ti_symmetric_basis(n, 1) == []

    def test_three_vars_cubic(self):
        # Only p_3(y): one-dimensional.
        basis = ti_symmetric_basis(3, 3)
        assert len(basis) == 1

    def test_two_vars_parity(self):
        # For two particles only even degrees survive.
        assert len(ti_symmetric_basis(2, 4)) == 1
        assert len(ti_symmetric_basis(2, 3)) == 0
        assert len(ti_symmetric_basis(2, 6)) == 1

    def test_exact_identities(self):
        for n, k in [(2, 2), (3, 3), (3, 4), (4, 4), (4, 6), (6, 8)]:
            for b in ti_symmetric_basis(n, k):
                assert translation_defect(b) == {}
                assert euler_defect(b) == {}

    def test_permutation_invariance_structural(self):
        for b in ti_symmetric_basis(4, 6):
            expanded = expand(b)
            for i, j in [(0, 1), (1, 3), (0, 2)]:
                swapped = {}
                for m, c in expanded.items():
                    mm = list(m)
                    mm[i], mm[j] = mm[j], mm[i]
                    swapped[tuple(mm)] = c
                assert swapped == expanded

    def test_caps(self):
        with pytest.raises(ResourceLimitError):
            ti_symmetric_basis(7, 2)
        with pytest.raises(ResourceLimitError):
            ti_symmetric_basis(3, 9)
        assert len(ti_symmetric_basis(7, 2, max_vars=8)) == 1


class TestGeneralizedLaplace:
    def test_degree_zero_always_solution(self):
        for lam in [Fraction(7, 10), Fraction(-3, 2), Fraction(0)]:
            sys = solve_generalized_laplace(4, 0, lam)
            assert sys.nullspace_dim == 1
            assert sys.solutions[0].coefficients == {(0, 0, 0, 0): Fraction(1)}

    def test_two_vars_quadratic_constraint(self):
        # Sole candidate is r^2; constraint 2 + 4 lambda (for p_2(y)).
        sys = solve_generalized_laplace(2, 2, Fraction(7, 10))
        assert sys.nullspace_dim == 0
        # dimension jumps exactly at lambda = -1/2
        assert solve_generalized_laplace(2, 2, Fraction(-1, 2)).nullspace_dim == 1

    def test_three_vars_quadratic(self):
        # constraint 2(N-1)(1 + lambda N) = 4(1 + 3 lambda) != 0 generically
        assert solve_generalized_laplace(3, 2, Fraction(7, 10)).nullspace_dim == 0
        assert solve_generalized_laplace(3, 2, Fraction(-1, 3)).nullspace_dim == 1

    def test_three_vars_cubic_identity_solution(self):
        # p_3(y) is annihilated identically: dimension 1 for every lambda.
        for lam in [Fraction(7, 10), Fraction(13, 9), Fraction(5)]:
            sys = solve_generalized_laplace(3, 3, lam)
            assert sys.nullspace_dim == 1
            sol = sys.solutions[0]
            assert apply_laplace_operator(expand(sol), 3, lam) == {}

    def test_solutions_satisfy_equation_exactly(self):
        for n, k in [(4, 3), (4, 4), (3, 6), (4, 6), (5, 5)]:
            for lam in GENERIC_LAMBDAS:
                sys = solve_generalized_laplace(n, k, lam)
                for sol in sys.solutions:
                    assert apply_laplace_operator(expand(sol), n, lam) == {}
                    assert translation_defect(sol) == {}
                    assert euler_defect(sol) == {}

    def test_radial_square_excluded(self):
        # r^2 = p_2(y) fails the constraint for generic lambda, so
        # multiples of it are absent from every generic nullspace.
        for n in [2, 3, 4]:
            p2 = ti_symmetric_basis(n, 2)[0]
            img = apply_laplace_operator(expand(p2), n, Fraction(7, 10))
            assert img != {}

    def test_float_lambda_exact(self):
        # float lambda is converted to its exact binary rational
        sys = solve_generalized_laplace(3, 3, 1.5)
        assert sys.lam == Fraction(3, 2)
        assert sys.nullspace_dim == 1


class TestDegeneracy:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_k0_k1(self, n):
        assert degeneracy(n, 0) == 1
        assert degeneracy(n, 1) == 0

    def test_examples(self):
        assert degeneracy(3, 2, Fraction(7, 10)) == 0
        assert degeneracy(3, 3, Fraction(7, 10)) == 1
        assert degeneracy(4, 0, Fraction(13, 9)) == 1
        assert degeneracy(4, 1, Fraction(13, 9)) == 0

    def test_generic_policy_agreement(self):
        gen = generic_degeneracy(3, 3)
        assert gen.dimension == 1
        assert gen.samples[0][0] == Fraction(7, 10)
        assert gen.samples[1][0] == Fraction(13, 9)

    def test_counting_rule(self):
        # Generic dimension = partitions(k; parts 2..N) - partitions(k-2),
        # verified independently for a spread of cases.
        # partitions into parts in [2, N]
        def p2n(k, n):
            if k == 0:
                return 1
            total = 0

            def rec(rem, cap):
                nonlocal total
                if rem == 0:
                    total += 1
                    return
                for part in range(min(cap, rem), 1, -1):
                    rec(rem - part, part)

            rec(k, min(k, n))
            return total

        for n, k in [(3, 6), (4, 4), (4, 6), (5, 6), (3, 9 - 3)]:
            expected = p2n(k, n) - p2n(k - 2, n)
            assert degeneracy(n, k) == max(expected, 0)


class TestEvaluate:
    def test_constant(self):
        one = ti_symmetric_basis(3, 0)[0]
        assert evaluate_poly(one, (5.0, 2.0, -1.0)) == 1.0

    def test_cubic_odd_sample(self):
        p3 = solve_generalized_laplace(3, 3, Fraction(7, 10)).solutions[0]
        # y = (1, 0, -1): odd symmetry kills the value
        assert evaluate_poly(p3, (2, 1, 0)) == 0

    def test_cubic_plain_sample(self):
        # y = (2, -1, -1) -> p_3(y) = 8 - 1 - 1 = 6 exactly
        raw_p3 = ti_symmetric_basis(3, 3)[0]
        assert evaluate_poly(raw_p3, (Fraction(3), Fraction(0), Fraction(0))) == 6
        # the normalized nullspace solution is a positive integer multiple
        sol = solve_generalized_laplace(3, 3, Fraction(7, 10)).solutions[0]
        val = evaluate_poly(sol, (Fraction(3), Fraction(0), Fraction(0)))
        assert val > 0 and val % 6 == 0

    def test_translation_invariance_numeric(self):
        p3 = solve_generalized_laplace(3, 3, Fraction(7, 10)).solutions[0]
        a = evaluate_poly(p3, (3.0, 1.0, 0.5))
        b = evaluate_poly(p3, (3.0 + 10.0, 1.0 + 10.0, 0.5 + 10.0))
        assert a == pytest.approx(b, rel=1e-12)

    def test_exact_rational_path(self):
        p3 = solve_generalized_laplace(3, 3, Fraction(7, 10)).solutions[0]
        v = evaluate_poly(p3, (Fraction(1, 3), Fraction(0), Fraction(-1, 3)))
        assert isinstance(v, Fraction)
        assert v == 0  # odd sample again

    def test_dimension_mismatch(self):
        one = ti_symmetric_basis(3, 0)[0]
        with pytest.raises(DomainError):
            evaluate_poly(one, (1.0, 2.0))


class TestExpandedOracle:
    """Power-sum form against the expanded-monomial algebra."""

    @pytest.mark.parametrize("n,k", [(2, 6), (3, 8), (4, 5), (4, 8),
                                     (5, 4), (5, 7), (6, 4)])
    @pytest.mark.parametrize("lam", [Fraction(7, 10), Fraction(0.3)])
    def test_basis_matrix_and_values(self, n, k, lam):
        expected = dict(zip(_partitions_min2(k), expanded_candidates(n, k)))
        system = solve_generalized_laplace(n, k, lam)
        for b in system.basis:
            (partition,) = b.power_sums
            assert b.coefficients == expected[partition]
        images = [_compress_symmetric(
            apply_laplace_operator(expand(b), n, lam), n)
            for b in system.basis]
        rows = sorted({m for img in images for m in img},
                      key=partition_order_key, reverse=True)
        assert system.constraint_matrix == tuple(
            tuple(img.get(m, Fraction(0)) for img in images) for m in rows)
        x = [Fraction(3 * j * j - 7 * j, j + 2) for j in range(n)]
        for sol in system.solutions:
            direct = Fraction(0)
            for mon, c in expand(sol).items():
                term = c
                for base, e in zip(x, mon):
                    term *= base ** e
                direct += term
            assert evaluate_poly(sol, x) == direct
            assert evaluate_poly(sol, [float(v) for v in x]) == \
                pytest.approx(float(direct), rel=1e-9, abs=1e-9)
