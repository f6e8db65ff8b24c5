"""Every record is an immutable named tuple with its fields in order and
a Name(field=value) repr."""

import pytest
from oracles import JostPair

from calogero_ss.model import CouplingParams, ExponentRoots, RadialIndices
from calogero_ss.polynomials import LaplaceSystem, SymPolynomial
from calogero_ss.scattering import (ScanSummary, ScatteringMatch,
                                    TransmissionSweep, TrendSummary,
                                    WronskianReport)
from calogero_ss.wavefunction import MomentumSet, _Channel

RECORDS = [
    (ExponentRoots, ("roots", "selected", "validity")),
    (CouplingParams, ("n_particles", "g", "delta", "nu_prime")),
    (RadialIndices, ("k", "b_prime", "a_prime", "n_prime", "c")),
    (SymPolynomial, ("n_vars", "degree", "power_sums")),
    (LaplaceSystem, ("n_vars", "degree", "lam", "basis", "constraint_matrix",
                     "nullspace_dim", "solutions")),
    (MomentumSet, ("momenta", "p")),
    (_Channel, ("k", "b_prime", "poly", "coeff")),
    (JostPair, ("pset", "phi", "m12", "m22")),
    (WronskianReport, ("pset", "pair_factors", "min_pair_factor",
                       "m22_status", "ss_verdict")),
    (ScanSummary, ("reports", "min_pair_factor", "ss_count")),
    (ScatteringMatch, ("r_minus", "r_plus", "a", "b", "d", "reflection",
                       "transmission", "derivative_mismatch")),
    (TrendSummary, ("fitted_slope", "envelope_first", "envelope_last",
                    "decayed")),
    (TransmissionSweep, ("rows", "trend")),
]


@pytest.mark.parametrize("record,fields", RECORDS,
                         ids=[r.__name__ for r, _ in RECORDS])
def test_record_contract(record, fields):
    assert record._fields == fields
    rec = record._make(range(len(fields)))
    assert repr(rec) == record.__name__ + "(" + ", ".join(
        f"{name}={i}" for i, name in enumerate(fields)) + ")"
    for name in fields + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
