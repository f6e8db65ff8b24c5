"""Exact construction of the polynomial factors of the scattering states.

The eigenfunction factor P(x) must be symmetric, translation invariant,
homogeneous of degree k, and annihilated by the generalized Laplace
operator

    L[P] = sum_j d^2 P/dx_j^2
         + lambda * sum_{j != m} (x_j - x_m)^(-1) (d_j - d_m) P,

with lambda the coupling combination nu' - delta.  Everything here is done
in rational arithmetic: nullspace dimensions are discrete claims and
floating-point rank decisions are untrustworthy.

A polynomial has two forms.

Power-sum form (stored): exact coefficients on products of the centered
power sums q_a = sum_j (x_j - mean(x))^a, one partition of k into parts
>= 2 per product.  q_0 = N and q_1 = 0, so translation invariance is
structural.  L maps a product of degree k to products of degree k - 2 in
closed form (Macdonald, *Symmetric Functions and Hall Polynomials*, ch. I;
Baker & Forrester, CMP 188 (1997)).  For one factor,

    Laplacian:  sum_j d^2 q_a/dx_j^2 = a(a-1)(1 - 1/N) q_{a-2},
    pair term:  lambda a (sum_{s=0}^{a-2} q_s q_{a-2-s} - (a-1) q_{a-2}),

and each pair of factors q_a q_b adds the gradient cross term
2 grad q_a . grad q_b = 2ab (q_{a+b-2} - q_{a-1} q_{b-1} / N) (the pair
term is a derivation, so the Leibniz rule does the rest).

Monomial form (derived): the descending exponent partition (padded to N
entries) of any monomial of x in a permutation orbit, mapped to the
orbit's common rational coefficient, ordered graded-lexicographically.
It is reached through the plain power sums p_t = sum_j x_j^t, with
q_a = sum_t C(a, t) (-p_1/N)^(a-t) p_t and p_0 = N, and the rule that
p_t m_mu is the sum, over the distinct parts v of mu, of m_nu with one v
raised to v + t, times the multiplicity of v + t in nu.  Rank decisions,
the constraint rows and the printed ``polys`` output use the monomial
form, which is unique; the products are linearly dependent once a part
exceeds N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Callable, Mapping, Sequence

from ._sums import lsum
from .errors import DomainError, InternalConsistencyError, ResourceLimitError

DEFAULT_MAX_DEGREE = 8
DEFAULT_MAX_VARS = 6

# Generic-lambda policy: dimensions agreeing at these two samples are
# reported as the generic degeneracy.
GENERIC_LAMBDAS = (Fraction(7, 10), Fraction(13, 9))

Monomial = tuple[int, ...]
Partition = tuple[int, ...]


def _sorted_parts(parts) -> Partition:
    return tuple(sorted(parts, reverse=True))


def _partitions_min2(k: int) -> list[tuple[int, ...]]:
    """Partitions of k into parts >= 2, descending, in descending lex order."""
    if k == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, acc: tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for part in range(min(cap, remaining), 1, -1):
            if remaining - part != 1:
                rec(remaining - part, part, acc + (part,))

    rec(k, k, ())
    return out


def _monomial_form(power_sums: Mapping[Partition, Fraction],
                   n_vars: int) -> dict[Monomial, Fraction]:
    """Monomial-symmetric coefficients of a power-sum-form polynomial."""
    # centered products -> products of plain power sums p_t, t >= 1;
    # N^a q_a = sum_t C(a, t) (-p_1)^(a-t) N^t p_t keeps the weights integer
    plain: dict[Partition, Fraction] = {}
    for partition, coeff in power_sums.items():
        terms = {(): 1}
        for a in partition:
            step: dict[Partition, int] = {}
            for t in range(a + 1):
                weight = comb(a, t) * (-1) ** (a - t) * n_vars ** t
                if t == 0:
                    weight *= n_vars
                extra = (1,) * (a - t) + ((t,) if t else ())
                for key, c in terms.items():
                    new = _sorted_parts(key + extra)
                    step[new] = step.get(new, 0) + c * weight
            terms = step
        scale = coeff / n_vars ** sum(partition)
        for key, c in terms.items():
            plain[key] = plain.get(key, Fraction(0)) + scale * c
    # plain products -> monomial symmetric functions m_mu (integer weights)
    out: dict[Monomial, Fraction] = {}
    for key, c in plain.items():
        mons = {(0,) * n_vars: 1}
        for t in key:
            step_m: dict[Monomial, int] = {}
            for mu, cm in mons.items():
                for v in set(mu):
                    raised = list(mu)
                    raised[mu.index(v)] = v + t
                    nu = _sorted_parts(raised)
                    step_m[nu] = step_m.get(nu, 0) + cm * nu.count(v + t)
            mons = step_m
        for mu, cm in mons.items():
            out[mu] = out.get(mu, Fraction(0)) + c * cm
    return {m: c for m, c in out.items() if c != 0}


def partition_order_key(partition: Monomial):
    """Graded lexicographic sort key (largest first when reverse-sorted)."""
    return (sum(partition), partition)


@dataclass(frozen=True)
class SymPolynomial:
    """Symmetric translation-invariant homogeneous polynomial, exact.

    ``power_sums`` maps a partition (parts >= 2) to the coefficient of the
    product of centered power sums q_part; ``coefficients`` is the same
    polynomial in monomial-symmetric form (see the module docstring).
    """
    n_vars: int
    degree: int
    power_sums: Mapping[Partition, Fraction]

    @property
    def coefficients(self) -> dict[Monomial, Fraction]:
        return _monomial_form(self.power_sums, self.n_vars)

    def ordered_items(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.coefficients.items(),
                      key=lambda kv: partition_order_key(kv[0]), reverse=True)


def _check_caps(n_vars: int, degree: int, max_vars: int, max_degree: int):
    if n_vars < 2:
        raise DomainError("need at least two variables")
    if degree < 0:
        raise DomainError("degree must be >= 0")
    if n_vars > max_vars or degree > max_degree:
        raise ResourceLimitError(
            f"(n_vars={n_vars}, degree={degree}) beyond caps "
            f"({max_vars}, {max_degree})")


def ti_symmetric_basis(n_vars: int, degree: int, *,
                       max_vars: int = DEFAULT_MAX_VARS,
                       max_degree: int = DEFAULT_MAX_DEGREE
                       ) -> list[SymPolynomial]:
    """Basis of symmetric homogeneous degree-k polynomials in y = x - mean.

    Spanning set: one power-sum product per partition of the degree into
    parts >= 2, reduced to linear independence by exact elimination: the
    pivot columns of the RREF keep each product not spanned by those
    before it.
    """
    _check_caps(n_vars, degree, max_vars, max_degree)
    candidates = [SymPolynomial(n_vars, degree, {partition: Fraction(1)})
                  for partition in _partitions_min2(degree)]
    forms = [c.coefficients for c in candidates]
    keys = {m for form in forms for m in form}
    matrix = [[form.get(m, Fraction(0)) for form in forms] for m in keys]
    _, pivot_cols = _rref(matrix, len(candidates))
    return [candidates[i] for i in pivot_cols]


def _laplace_image(poly: SymPolynomial, lam: Fraction
                   ) -> dict[Partition, Fraction]:
    """Power-sum form of L[P] (closed forms in the module docstring)."""
    n = poly.n_vars
    out: dict[Partition, Fraction] = {}

    def add(coeff: Fraction, parts: tuple[int, ...]):
        # q_1 = 0 and q_0 = N
        if 1 in parts:
            return
        key = _sorted_parts(p for p in parts if p)
        out[key] = out.get(key, Fraction(0)) + coeff * n ** parts.count(0)

    for partition, c in poly.power_sums.items():
        for i, a in enumerate(partition):
            rest = partition[:i] + partition[i + 1:]
            add(c * a * (a - 1) * (1 - Fraction(1, n) - lam), rest + (a - 2,))
            for s in range(a - 1):
                add(c * lam * a, rest + (s, a - 2 - s))
            for j in range(i + 1, len(partition)):
                b = partition[j]
                others = rest[:j - 1] + rest[j:]
                add(2 * c * a * b, others + (a + b - 2,))
                add(Fraction(-2 * a * b, n) * c, others + (a - 1, b - 1))
    return out


def _as_fraction(lam) -> Fraction:
    if isinstance(lam, Fraction):
        return lam
    if isinstance(lam, int):
        return Fraction(lam)
    if isinstance(lam, float):
        return Fraction(lam)  # exact binary-float value
    if isinstance(lam, str):
        return Fraction(lam)
    raise DomainError(f"cannot interpret lambda {lam!r} as a rational")


def _rref(matrix: list[list[Fraction]], ncols: int
          ) -> tuple[list[list[Fraction]], list[int]]:
    """Exact reduced row echelon form: its nonzero rows and pivot columns."""
    rows = [row[:] for row in matrix if any(c != 0 for c in row)]
    pivot_cols: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0),
                     None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [c / rows[r][col] for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivot_cols


def _nullspace(matrix: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Exact right-nullspace basis via RREF (columns = unknowns)."""
    rows, pivot_cols = _rref(matrix, ncols)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -rows[i][free]
        basis.append(vec)
    return basis


def _primitive_normalize(poly: SymPolynomial) -> SymPolynomial:
    """Scale to coprime integer monomial coefficients, positive leading one."""
    coeffs = poly.coefficients
    den_lcm = 1
    for c in coeffs.values():
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    num_gcd = 0
    for c in coeffs.values():
        num_gcd = gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
    scale = Fraction(den_lcm, num_gcd)
    lead = max(coeffs, key=partition_order_key)
    if coeffs[lead] < 0:
        scale = -scale
    return SymPolynomial(poly.n_vars, poly.degree,
                         {m: c * scale for m, c in poly.power_sums.items()})


@dataclass(frozen=True)
class LaplaceSystem:
    """Constraint system of the generalized Laplace equation at (N, k)."""
    n_vars: int
    degree: int
    lam: Fraction
    basis: tuple[SymPolynomial, ...]
    constraint_matrix: tuple[tuple[Fraction, ...], ...]
    nullspace_dim: int
    solutions: tuple[SymPolynomial, ...]


def solve_generalized_laplace(n_vars: int, degree: int, lam, *,
                              max_vars: int = DEFAULT_MAX_VARS,
                              max_degree: int = DEFAULT_MAX_DEGREE
                              ) -> LaplaceSystem:
    """Exact nullspace of L on the degree-k translation-invariant space."""
    lam_f = _as_fraction(lam)
    basis = ti_symmetric_basis(n_vars, degree, max_vars=max_vars,
                               max_degree=max_degree)
    images = [_monomial_form(_laplace_image(b, lam_f), n_vars)
              for b in basis]
    row_keys = sorted({m for img in images for m in img},
                      key=partition_order_key, reverse=True)
    matrix = [[img.get(mk, Fraction(0)) for img in images] for mk in row_keys]
    null = _nullspace(matrix, len(basis))
    solutions = []
    for vec in null:
        combo: dict[Partition, Fraction] = {}
        for coeff, b in zip(vec, basis):
            for m, c in b.power_sums.items():
                combo[m] = combo.get(m, Fraction(0)) + coeff * c
        combo = {m: c for m, c in combo.items() if c != 0}
        solutions.append(_primitive_normalize(
            SymPolynomial(n_vars, degree, combo)))
    return LaplaceSystem(
        n_vars=n_vars, degree=degree, lam=lam_f, basis=tuple(basis),
        constraint_matrix=tuple(tuple(row) for row in matrix),
        nullspace_dim=len(null), solutions=tuple(solutions))


@dataclass(frozen=True)
class GenericDegeneracy:
    """Dimensions at the two generic lambda samples."""
    samples: tuple[tuple[Fraction, int], tuple[Fraction, int]]

    @property
    def dimension(self) -> int | None:
        (_, d1), (_, d2) = self.samples
        return d1 if d1 == d2 else None


def generic_degeneracy(n_vars: int, degree: int, **caps) -> GenericDegeneracy:
    return GenericDegeneracy(tuple(
        (lam, solve_generalized_laplace(n_vars, degree, lam,
                                        **caps).nullspace_dim)
        for lam in GENERIC_LAMBDAS))


def degeneracy(n_vars: int, degree: int, lam=None, **caps) -> int:
    """Number of independent solutions at lam (generic policy when None)."""
    if lam is not None:
        return solve_generalized_laplace(n_vars, degree, lam,
                                         **caps).nullspace_dim
    gen = generic_degeneracy(n_vars, degree, **caps)
    if gen.dimension is None:
        raise InternalConsistencyError(
            "generic lambda samples disagree: "
            + ", ".join(f"dim={d} at lambda={l}" for l, d in gen.samples))
    return gen.dimension


def evaluate_poly(poly: SymPolynomial, x: Sequence):
    """Evaluate at a configuration via centered variables.

    Exact when every coordinate is an int or Fraction; float otherwise.
    The power sums q_a of y = x - mean(x) that the stored products use
    are formed once and the products summed; centering keeps float
    evaluation well conditioned.
    """
    _check_size(poly.n_vars, x)
    if all(isinstance(c, (int, Fraction)) for c in x):
        mean = Fraction(sum(Fraction(c) for c in x), len(x))
        terms = list(poly.power_sums.items())
        return _centred_sum([Fraction(c) - mean for c in x], terms,
                            _parts_used(terms), Fraction(0))
    return float_evaluator(poly)(x)


def float_evaluator(poly: SymPolynomial) -> Callable[[Sequence], float]:
    """evaluate_poly's float path with the coefficients converted once."""
    n_vars = poly.n_vars
    terms = [(part, float(coeff)) for part, coeff in poly.power_sums.items()]
    parts = _parts_used(terms)

    def value(x: Sequence) -> float:
        _check_size(n_vars, x)
        mean = lsum(map(float, x)) / len(x)
        return _centred_sum([float(c) - mean for c in x], terms, parts, 0.0)
    return value


def _check_size(n_vars: int, x: Sequence) -> None:
    if len(x) != n_vars:
        raise DomainError(
            f"configuration has {len(x)} coordinates, polynomial wants "
            f"{n_vars}")


def _parts_used(terms: list) -> set[int]:
    return {a for part, _ in terms for a in part}


def _centred_sum(y: list, terms: list, parts: set[int], total):
    """total + sum of coeff * prod q_part over terms, q_a = sum_j y_j^a."""
    q = {a: lsum([v ** a for v in y]) for a in parts}
    for partition, coeff in terms:
        term = coeff
        for a in partition:
            term = term * q[a]
        total += term
    return total
