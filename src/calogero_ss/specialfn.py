"""Bessel functions of the first kind with real order, self-contained.

Write nu = nu0 + n with nu0 in [0, 1) and n an integer.  Both paths run
the recurrence J_(mu-1) + J_(mu+1) = (2 mu / x) J_mu along the ladder nu0 + k:

* forward, in floats, for x >= x* = max(25, 1.05*nu): the Hankel expansion
  J_nu(x) ~ sqrt(2/(pi x)) [P cos w - Q sin w],  w = x - nu*pi/2 - pi/4,
  truncated at its smallest term, gives J_nu0 and J_(nu0+1); the upward
  recurrence is stable while the order stays below x (DLMF 3.6);
* Miller's backward recurrence below x*, in 80-bit integer fixed point:
  start from (0, 1) at an even index m >= max(n, x) + 20 + 3 sqrt(max(n, x)),
  recur downward (J is the minimal solution, so it comes to dominate), and
  normalise with Neumann's sum (DLMF 10.23(ii))
  (x/2)^nu0 = sum_k (nu0 + 2k) Gamma(nu0 + k) / k! J_(nu0+2k)(x).
  A float recurrence is off by a few ulp, irregularly in x, which the
  finite-difference residuals amplify by 1/h^2; here each value is rounded
  about once.

Negative non-integer orders step down from J_nu0 and J_(nu0+1); negative
integer orders reflect; J' takes J_(nu-1) and J_nu from one pass.  See Gil,
Segura & Temme, *Numerical Methods for Special Functions* (SIAM 2007), ch. 4.
"""

from __future__ import annotations

import math

from .errors import DomainError

# Envelope-relative accuracy target of the evaluator.
REL_TARGET = 1e-10


def switchover(order: float) -> float:
    """Miller/forward-recurrence boundary x* for a given order."""
    return max(25.0, 1.05 * order)


def _asymptotic_value(order: float, x: float) -> tuple[float, float]:
    """Hankel expansion value and its envelope-relative error estimate.

    Terms a_k/x^k with a_k = prod_{m<=k}(4 nu^2 - (2m-1)^2)/(k! 8^k) feed
    the P (even k) and Q (odd k) cosine/sine series; summation stops at the
    smallest term, whose magnitude bounds the truncation error while the
    terms are still decreasing.
    """
    mu = 4.0 * order * order
    p_sum, q_sum = 1.0, 0.0
    term = 1.0
    prev = math.inf
    estimate = 0.0
    k = 0
    while True:
        k += 1
        term *= (mu - (2 * k - 1) ** 2) / (8.0 * x * k)
        if abs(term) >= prev:
            estimate = prev  # expansion started diverging
            break
        if k % 2 == 1:
            q_sum += term if (k // 2) % 2 == 0 else -term
        else:
            p_sum += term if (k // 2) % 2 == 0 else -term
        prev = abs(term)
        if abs(term) < 1e-18:
            estimate = abs(term)
            break
    w = x - order * math.pi / 2.0 - math.pi / 4.0
    amp = math.sqrt(2.0 / (math.pi * x))
    return amp * (p_sum * math.cos(w) - q_sum * math.sin(w)), estimate


def _miller(nu0: float, top: int, x: float) -> tuple[float, float]:
    """(J_(nu0+top-1), J_(nu0+top)) at x by Miller's backward recurrence.

    The Neumann sum over w_0 = Gamma(nu0 + 1) is nested on the way down:
    f_0 + A_1 with A_j = ((nu0 + 2j) f_2j + (nu0 + j) A_(j+1)) / j, which
    equals 2 f_2j + A_(j+1) + nu0 (f_2j + A_(j+1)) / j.  In the scaled
    integers only that last term is floored, so each even step gives the
    same integer as the first form with one big multiply fewer (a multiply
    by 0 at nu0 = 0).  The steps run in even/odd pairs: e holds f at the
    even index k, o at the odd index k - 1.
    """
    bits = 80
    reach = max(top, x)
    m = 2 * math.ceil((reach + 20.0 + 3.0 * math.sqrt(reach)) / 2)
    (vn, vd), (xn, xd) = nu0.as_integer_ratio(), x.as_integer_ratio()
    unit = (2 * xd << bits) // xn  # 2/x
    coef = vn * unit // vd + m * unit  # 2(nu0+k)/x at k = m
    o, e, total = 0, 1 << bits, 0
    for k in range(m, 0, -2):
        s = e + total
        total = s + e + vn * s // (k // 2 * vd)
        o = (coef * e >> bits) - o
        coef -= unit
        if k == top:
            lo, hi = o, e
        e = (coef * o >> bits) - e
        coef -= unit
        if k - 1 == top:
            lo, hi = e, o
    # one rounding per result: the scale enters as exact float ratios
    pn, pd = ((0.5 * x) ** nu0).as_integer_ratio()
    gn, gd = math.gamma(nu0 + 1.0).as_integer_ratio()
    num, den = pn * gd, pd * gn * (e + total)
    return num * lo / den, num * hi / den


def _forward(nu0: float, top: int, x: float) -> tuple[float, float]:
    """(J_(nu0+top-1), J_(nu0+top)) by upward recurrence from Hankel values."""
    lo = _asymptotic_value(nu0, x)[0]
    hi = _asymptotic_value(nu0 + 1.0, x)[0]
    for k in range(1, top):
        lo, hi = hi, 2.0 * (nu0 + k) / x * hi - lo
    return lo, hi


def _ladder_pair(order: float, x: float) -> tuple[float, float]:
    """(J_(order-1)(x), J_order(x)) for x > 0, order not a negative integer."""
    n = math.floor(order)
    nu0 = order - n
    top = max(n, 1)
    path = _miller if x < switchover(order) else _forward
    lo, hi = path(nu0, top, x)
    for k in range(top - 1, n - 1, -1):
        lo, hi = 2.0 * (nu0 + k) / x * lo - hi, lo
    return lo, hi


def bessel_j(order: float, x: float) -> float:
    """Bessel function of the first kind, real order, x >= 0.

    Negative orders are load-bearing (b' goes negative for weak exponents).
    Negative arguments are rejected: for non-integer order they are
    branch-ambiguous and the physics only needs x = p r > 0.
    """
    if not (math.isfinite(order) and math.isfinite(x)):
        raise DomainError(f"bessel_j: non-finite input ({order!r}, {x!r})")
    if x < 0.0:
        raise DomainError("bessel_j: negative argument rejected "
                          "(branch ambiguity for non-integer order)")
    if x == 0.0:
        if order == 0.0:
            return 1.0
        if order > 0.0:
            return 0.0
        if order == math.floor(order):  # J_(-n) = (-1)^n J_n
            return -0.0 if int(-order) % 2 else 0.0
        raise DomainError("bessel_j: negative order diverges at x = 0")
    return bessel_eval(order, x)[0]


def bessel_eval(order: float, x: float) -> tuple[float, float]:
    """(J, dJ/dx) at x > 0 together, from one ladder pass."""
    if not (math.isfinite(order) and math.isfinite(x)) or x <= 0.0:
        raise DomainError("bessel_eval: need finite order and x > 0, "
                          f"got ({order!r}, {x!r})")
    if order < 0.0 and order == math.floor(order):
        n = int(-order)
        value, derivative = bessel_eval(float(n), x)
        return (-value, -derivative) if n % 2 else (value, derivative)
    lo, hi = _ladder_pair(order, x)
    return hi, lo - (order / x) * hi
