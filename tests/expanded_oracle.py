"""Expanded-monomial polynomial algebra, kept as an independent test oracle.

Polynomials here are dicts from N-variable exponent tuples to exact
``Fraction`` coefficients.  The generalized Laplace operator is applied by
plain differentiation and exact division by every coordinate difference,
with no use of power-sum identities, so it checks the closed forms the
library uses.  Slow beyond toy sizes; tests only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping

from calogero_ss.errors import InternalConsistencyError
from calogero_ss.polynomials import SymPolynomial, _partitions_min2

Monomial = tuple[int, ...]
PolyDict = dict[Monomial, Fraction]


# --- raw multivariate polynomial helpers (dict exponent-tuple -> Fraction) --

def _clean(p: PolyDict) -> PolyDict:
    return {m: c for m, c in p.items() if c != 0}

def _add(p: PolyDict, q: PolyDict) -> PolyDict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, Fraction(0)) + c
    return _clean(out)

def _scale(p: PolyDict, s: Fraction) -> PolyDict:
    return {} if s == 0 else {m: c * s for m, c in p.items()}

def _mul(p: PolyDict, q: PolyDict) -> PolyDict:
    out: PolyDict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return _clean(out)

def _diff(p: PolyDict, j: int) -> PolyDict:
    out: PolyDict = {}
    for m, c in p.items():
        if m[j]:
            mm = list(m)
            mm[j] -= 1
            out[tuple(mm)] = out.get(tuple(mm), Fraction(0)) + c * m[j]
    return _clean(out)


def _centered_power_sum(n_vars: int, a: int) -> PolyDict:
    """p_a(y) = sum_j (x_j - mean(x))^a as a polynomial in x."""
    inv_n = Fraction(1, n_vars)
    total: PolyDict = {}
    for j in range(n_vars):
        y_j: PolyDict = {}
        for i in range(n_vars):
            m = [0] * n_vars
            m[i] = 1
            y_j[tuple(m)] = (1 - inv_n) if i == j else -inv_n
        power: PolyDict = {(0,) * n_vars: Fraction(1)}
        for _ in range(a):
            power = _mul(power, y_j)
        total = _add(total, power)
    return total


def _orbit_key(m: Monomial) -> Monomial:
    return tuple(sorted(m, reverse=True))


def _compress_symmetric(p: PolyDict, n_vars: int) -> dict[Monomial, Fraction]:
    """Group an (asserted symmetric) polynomial by exponent partition."""
    out: dict[Monomial, Fraction] = {}
    for m, c in p.items():
        key = _orbit_key(m)
        if key in out and out[key] != c:
            raise InternalConsistencyError(
                f"polynomial not symmetric: orbit {key} has coefficients "
                f"{out[key]} and {c}")
        out[key] = c
    # every orbit member must be present with the same coefficient
    for key, c in out.items():
        for perm in set(itertools.permutations(key)):
            if p.get(perm, Fraction(0)) != c:
                raise InternalConsistencyError(
                    f"polynomial not symmetric on orbit {key}")
    return out


def _expand_partitions(coeffs: Mapping[Monomial, Fraction]) -> PolyDict:
    out: PolyDict = {}
    for key, c in coeffs.items():
        for perm in set(itertools.permutations(key)):
            out[perm] = c
    return out


def expand(poly: SymPolynomial) -> PolyDict:
    """All N-variable monomials of a library polynomial."""
    return _expand_partitions(poly.coefficients)


def expanded_candidates(n_vars: int, degree: int
                        ) -> list[dict[Monomial, Fraction]]:
    """Monomial-symmetric form of every centered power-sum product of the
    degree, built by expanding the products monomial by monomial."""
    candidates = []
    for partition in _partitions_min2(degree):
        poly: PolyDict = {(0,) * n_vars: Fraction(1)}
        for part in partition:
            poly = _mul(poly, _centered_power_sum(n_vars, part))
        candidates.append(_compress_symmetric(poly, n_vars))
    return candidates


def _divide_by_difference(q: PolyDict, i: int, j: int, n_vars: int) -> PolyDict:
    """Exact quotient q / (x_i - x_j); raises if the division has remainder.

    Writing q = sum_d c_d x_i^d, the remainder is q with x_i replaced by
    x_j and the quotient is sum_d c_d sum_{m<d} x_i^m x_j^(d-1-m).
    """
    remainder: PolyDict = {}
    quotient: PolyDict = {}
    for m, c in q.items():
        d = m[i]
        moved = list(m)
        moved[i] = 0
        moved[j] += d
        key = tuple(moved)
        remainder[key] = remainder.get(key, Fraction(0)) + c
        base = list(m)
        base[i] = 0
        for s in range(d):
            mm = list(base)
            mm[i] = s
            mm[j] += d - 1 - s
            key = tuple(mm)
            quotient[key] = quotient.get(key, Fraction(0)) + c
    if _clean(remainder):
        raise InternalConsistencyError(
            f"(d_{i} - d_{j}) result not divisible by (x_{i} - x_{j}); "
            "basis is not symmetric")
    return _clean(quotient)


def apply_laplace_operator(poly: PolyDict, n_vars: int,
                           lam: Fraction) -> PolyDict:
    """L[P] for an expanded polynomial dict (see the library docstring)."""
    out: PolyDict = {}
    for j in range(n_vars):
        out = _add(out, _diff(_diff(poly, j), j))
    # ordered pair sum = twice the unordered one
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            q = _add(_diff(poly, i), _scale(_diff(poly, j), Fraction(-1)))
            out = _add(out, _scale(_divide_by_difference(q, i, j, n_vars),
                                   2 * lam))
    return out


def translation_defect(poly: SymPolynomial) -> PolyDict:
    """sum_j dP/dx_j, exactly; empty dict iff translation invariant."""
    p = expand(poly)
    out: PolyDict = {}
    for j in range(poly.n_vars):
        out = _add(out, _diff(p, j))
    return out


def euler_defect(poly: SymPolynomial) -> PolyDict:
    """sum_j x_j dP/dx_j - k P, exactly; empty dict iff homogeneous."""
    p = expand(poly)
    out = _scale(p, Fraction(-poly.degree))
    for j in range(poly.n_vars):
        d = _diff(p, j)
        xj: PolyDict = {}
        m0 = [0] * poly.n_vars
        m0[j] = 1
        xj[tuple(m0)] = Fraction(1)
        out = _add(out, _mul(xj, d))
    return out
