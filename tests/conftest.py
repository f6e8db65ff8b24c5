"""Shared test helpers: seeded interior configurations and momentum sets."""

import math
import random
from fractions import Fraction

# Generic lambda samples: a nullspace dimension is generic when it holds at
# both.
GENERIC_LAMBDAS = (Fraction(7, 10), Fraction(13, 9))

# Distinct gap bands keep polynomial eigenfunction factors away from their
# nodes, so FD residuals stay truncation-dominated (ratio ~4 when h halves).
DEFAULT_BANDS = ((1.3, 1.6), (2.6, 3.1))


def gap_band_samples(n, seed, count, bands=DEFAULT_BANDS):
    """Centered descending configurations with banded adjacent gaps."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        gaps = [rng.uniform(*bands[j % len(bands)]) for j in range(n - 1)]
        coords = [rng.uniform(-0.5, 0.5)]
        for g in gaps:
            coords.append(coords[-1] - g)
        mean = sum(coords) / n
        out.append(tuple(c - mean for c in coords))
    return out


def control_x1(f, x, h):
    """Multiplication by x_1: the deliberately PT-breaking control term."""
    return x[0] * f(tuple(x))


def control_ix1(f, x, h):
    """Multiplication by i x_1: non-Hermitian but PT-invariant (parity
    flips x_1, conjugation flips i)."""
    return 1j * x[0] * f(tuple(x))


def symmetric_pset(n, p):
    """A simple sorted sum-zero momentum set with radial magnitude p."""
    from calogero_ss.wavefunction import MomentumSet
    if n == 2:
        v = p / math.sqrt(2.0)
        return MomentumSet.from_momenta((-v, v))
    if n == 3:
        v = p / math.sqrt(2.0)
        return MomentumSet.from_momenta((-v, 0.0, v))
    if n == 4:
        v = p / math.sqrt(10.0)
        return MomentumSet.from_momenta((-2.0 * v, -v, v, 2.0 * v))
    raise ValueError(n)
