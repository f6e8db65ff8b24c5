"""Seeded argvs over the whole positive momentum range, p in 10^[-300, 300].

Every draw either runs to completion with finite output or is refused
with one named stderr line (exit 1 usage, exit 3 numerical failure): no
traceback, no nan where a number belongs, no silent pass on a scale that
underflowed.
"""

import json
import math
import random
import sys

import pytest

from calogero_ss.cli import (EXIT_CHECK_FAILED, EXIT_NUMERICAL, EXIT_OK,
                             EXIT_USAGE, main)

DRAWS = 60
REFUSALS = {EXIT_USAGE: "usage error: ", EXIT_NUMERICAL: "numerical failure: "}
# columns that the N >= 3 envelope matcher leaves undefined (nan)
N_BODY_NAN = {2, 7, 8, 10, 11}


def _couplings(rng):
    # dyadic values keep g exact, and delta >= -1/2 keeps it in range
    return ("--nu-prime", str(rng.randint(0, 12) / 4),
            "--delta", str(rng.randint(-2, 4) / 4))


def _momentum(rng):
    # half the draws near p = 1, where every subcommand has work to do
    return 10.0 ** rng.uniform(*rng.choice(((-300.0, 300.0), (-1.0, 1.0))))


def _run(capsys, argv):
    try:
        code = main(argv)
    except Exception as err:  # a traceback at the command line
        pytest.fail(f"{' '.join(argv)} raised {err!r}")
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _check_refusal(argv, code, out, err):
    assert code in REFUSALS, (argv, code, err)
    assert out == "", argv
    assert err.startswith(REFUSALS[code]), (argv, err)
    assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)


def test_coeffs(capsys):
    rng = random.Random(2601)
    codes = set()
    for _ in range(DRAWS):
        n = rng.randint(2, 6)
        p = _momentum(rng)
        argv = ["coeffs", "--n", str(n), *_couplings(rng), "--p", repr(p),
                "--r-minus", repr(10.0 ** rng.uniform(-1.0, 3.0)),
                "--r-plus", repr(10.0 ** rng.uniform(-1.0, 1.5))]
        if n > 2:
            argv += ["--k", str(rng.choice((0, 2, 3, 4)))]
        code, out, err = _run(capsys, argv)
        codes.add(code)
        if code != EXIT_OK:
            _check_refusal(argv, code, out, err)
            continue
        row = [float(v) for v in out.splitlines()[-1].split(",")]
        for i, value in enumerate(row):
            if n > 2 and i in N_BODY_NAN:
                assert math.isnan(value), (argv, i)
            else:
                assert math.isfinite(value), (argv, i, value)
        assert row[0] == p
        assert abs(row[9] - 1.0) <= 1e-9, (argv, row[9])
    assert EXIT_OK in codes


def test_residual(capsys):
    rng = random.Random(2602)
    codes = set()
    for _ in range(DRAWS):
        n = rng.randint(2, 6)
        p = _momentum(rng)
        argv = ["residual", "--n", str(n), *_couplings(rng), "--p", repr(p),
                "--k", str(rng.choice((0, 0, 2, 3))),
                "--seed", str(rng.randint(0, 99))]
        code, out, err = _run(capsys, argv)
        codes.add(code)
        if code not in (EXIT_OK, EXIT_CHECK_FAILED):
            _check_refusal(argv, code, out, err)
            continue
        doc = json.loads(out)
        assert doc["passed"] is (code == EXIT_OK), argv
        # a check runs at a normal positive energy p^2/2, never at a zero
        # mode or at a target with few digits
        assert sys.float_info.min <= p * p / 2.0 < math.inf, argv
        if code == EXIT_OK:
            for key in ("max_residual", "max_residual_half_h",
                        "convergence_ratio"):
                assert math.isfinite(doc[key]), (argv, key, doc[key])
    assert EXIT_OK in codes


def test_scan(capsys, tmp_path):
    rng = random.Random(2603)
    out_file = tmp_path / "scan.csv"
    codes = set()
    for _ in range(DRAWS):
        n = rng.randint(2, 6)
        p_min = _momentum(rng)
        p_max = p_min * 10.0 ** rng.uniform(0.0, 2.0)
        argv = ["scan", "--n", str(n), "--samples", "3", "--p-min",
                repr(p_min), "--p-max", repr(p_max),
                "--seed", str(rng.randint(0, 99)), "--out", str(out_file)]
        code, out, err = _run(capsys, argv)
        codes.add(code)
        if code != EXIT_OK:
            _check_refusal(argv, code, out, err)
            continue
        rows = [line.split(",") for line in out_file.read_text().splitlines()
                if not line.startswith(("#", "sample"))]
        assert len(rows) == 3, argv
        for row in rows:
            p, factor = float(row[1]), float(row[2])
            assert p_min * (1 - 1e-12) <= p <= p_max * (1 + 1e-12), (argv, p)
            assert 0.0 < factor < math.inf, (argv, factor)
    assert codes == {EXIT_OK}
