"""CLI contract: schemas, exit codes, determinism, config/env handling."""

import gc
import hashlib
import json
import math
import subprocess
import sys

import pytest

import calogero_ss.cli as cli
import calogero_ss.scattering as scattering
import calogero_ss.wavefunction as wavefunction
from calogero_ss.cli import (COEFFS_HEADER, EXIT_CHECK_FAILED,
                             EXIT_COUPLINGS, EXIT_IO, EXIT_NUMERICAL, EXIT_OK,
                             EXIT_SS_FOUND, EXIT_USAGE, SCAN_HEADER, main)
from calogero_ss.scattering import ScanSummary


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_matching(monkeypatch):
    """Fails the test if any matcher or transmitted reading starts."""
    def never(*args):
        raise AssertionError("matching started")
    monkeypatch.setattr(scattering, "bessel_eval", never)


class TestNuPrime:
    def test_success_json(self, capsys):
        code, out, _ = run(capsys, "nu-prime", "--g", "2", "--delta", "0")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc == {"roots": [-1.0, 2.0], "selected": 2.0,
                       "validity": "RangeII"}

    def test_no_real_exponent(self, capsys):
        code, _, err = run(capsys, "nu-prime", "--g", "-5", "--delta", "0")
        assert code == EXIT_COUPLINGS
        assert "invalid couplings" in err

    def test_missing_delta_usage(self, capsys):
        code, _, _ = run(capsys, "nu-prime", "--g", "0")
        assert code == EXIT_USAGE


class TestScan:
    def test_basic_contract(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, _, err = run(capsys, "scan", "--n", "3", "--samples", "200",
                           "--p-max", "10", "--seed", "7",
                           "--out", str(out_file))
        assert code == EXIT_OK
        assert "min pair factor" in err
        lines = out_file.read_text().splitlines()
        preamble = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == SCAN_HEADER
        assert len(body) == 1 + 200
        assert preamble  # conventions embedded
        assert all(row.endswith(",false") for row in body[1:])

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scan", "--n", "2", "--samples", "50", "--p-max", "5",
                "--seed", "3"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_empty_scan(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--n", "2", "--samples", "0",
                         "--p-max", "10", "--seed", "1",
                         "--out", str(out_file))
        assert code == EXIT_OK
        body = [ln for ln in out_file.read_text().splitlines()
                if not ln.startswith("#")]
        assert body == [SCAN_HEADER]

    def test_ss_finding_exit_code(self, capsys, tmp_path, monkeypatch):
        # the model admits no singular sample; force the reporting path
        real = cli.ss_scan

        def fake(params, p_min, p_max, seed, n_samples):
            summary = real(params, p_min, p_max, seed, n_samples)
            reports = tuple(
                r.__class__(pset=r.pset, pair_factors=r.pair_factors,
                            min_pair_factor=r.min_pair_factor,
                            m22_status=r.m22_status, ss_verdict=True)
                for r in summary.reports)
            return ScanSummary(reports, summary.min_pair_factor,
                               len(reports))

        monkeypatch.setattr(cli, "ss_scan", fake)
        code, _, _ = run(capsys, "scan", "--n", "2", "--samples", "3",
                         "--p-max", "5", "--seed", "1",
                         "--out", str(tmp_path / "s.csv"))
        assert code == EXIT_SS_FOUND

    def test_min_w_magnitude_is_min_pair_factor(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        run(capsys, "scan", "--n", "5", "--samples", "50", "--p-max", "10",
            "--seed", "7", "--out", str(out_file))
        body = [ln.split(",") for ln in out_file.read_text().splitlines()
                if not ln.startswith("#")]
        assert all(row[2] == row[3] for row in body[1:])

    def test_no_tolerance_option(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--n", "3", "--samples", "5",
                         "--p-max", "10", "--seed", "1", "--tol", "1.5",
                         "--out", str(out_file))
        assert code == EXIT_USAGE
        assert not out_file.exists()
        run(capsys, "scan", "--n", "3", "--samples", "5", "--p-max", "10",
            "--seed", "1", "--out", str(out_file))
        assert "ss_tolerance" not in out_file.read_text()

    def test_non_finite_momentum_bound(self, capsys, tmp_path):
        # an infinite bound would draw p = inf and write all-nan rows
        out_file = tmp_path / "scan.csv"
        code, out, err = run(capsys, "scan", "--n", "3", "--samples", "3",
                             "--p-max", "inf", "--seed", "1",
                             "--out", str(out_file))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error: need 0 < p_min <= p_max")
        assert not out_file.exists()

    def test_io_failure(self, capsys):
        code, _, err = run(capsys, "scan", "--n", "2", "--samples", "1",
                           "--p-max", "5", "--seed", "1",
                           "--out", "/nonexistent-dir/x.csv")
        assert code == EXIT_IO
        assert "i/o failure" in err

    def test_output_digest(self, capsys, tmp_path):
        # CSV and stderr of scans at N = 3..6, byte for byte
        digest = hashlib.sha256()
        for n in range(3, 7):
            csv = tmp_path / f"n{n}.csv"
            code, out, err = run(capsys, "scan", "--n", str(n), "--samples",
                                 "40", "--p-min", "0.05", "--p-max", "12",
                                 "--seed", str(10 + n), "--nu-prime", "1.5",
                                 "--delta", "0.25", "--out", str(csv))
            assert code == EXIT_OK and out == ""
            digest.update(f"{code}\n{err}".encode() + csv.read_bytes())
        assert digest.hexdigest() == ("2932e3e3a99d88538f7676777887ff0d"
                                      "a87d1e450911d279fce26e07c4120388")


class TestCoeffs:
    def test_two_body_row(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "2", "--p", "1",
                           "--nu-prime", "1", "--delta", "0.5",
                           "--r-minus", "50", "--r-plus", "5")
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == COEFFS_HEADER
        fields = lines[1].split(",")
        assert abs(float(fields[9]) - 1.0) < 1e-9  # R column
        meta = [ln for ln in out.splitlines() if ln.startswith("#")]
        assert any("alt_d_derivative_squared" in ln for ln in meta)
        assert any("phi_exponent=nu_prime" in ln for ln in meta)

    def test_n_body_row(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "3", "--p", "1",
                           "--nu-prime", "1", "--delta", "0.5",
                           "--r-minus", "80", "--k", "3")
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        fields = lines[1].split(",")
        assert abs(float(fields[9]) - 1.0) < 1e-9
        assert fields[10] == "nan"  # T undefined for the envelope matcher

    @pytest.mark.parametrize("k,nu_prime", [(4, "1"), (2, "0")])
    def test_two_body_nonzero_k_rejected(self, capsys, no_matching, k,
                                         nu_prime):
        # degree 2 has a solution at (nu', delta) = (0, 1/2); the two-body
        # matcher is still only the k = 0 channel
        code, out, err = run(capsys, "coeffs", "--n", "2", "--p", "1",
                             "--nu-prime", nu_prime, "--delta", "0.5",
                             "--k", str(k))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"usage error: k={k} at N = 2: the two-body "
                       "matcher is the k = 0 channel\n")

    def test_no_phi_use_nu_option(self, capsys):
        code, _, _ = run(capsys, "coeffs", "--n", "2", "--p", "1",
                         "--nu-prime", "1", "--delta", "0.5", "--phi-use-nu")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("n,nu_prime,p,expected", [
        ("6", "3", "0.01", EXIT_OK),
        ("2", "30", "1e-5", EXIT_OK),
        ("6", "3", "1e-6", EXIT_NUMERICAL),
    ])
    def test_amplitude_underflow(self, capsys, n, nu_prime, p, expected):
        # |A|^2 underflows to 0 in the first two; A itself in the third
        code, out, err = run(capsys, "coeffs", "--n", n, "--nu-prime",
                             nu_prime, "--delta", "-0.5", "--p", p,
                             "--r-minus", "1")
        assert code == expected
        if expected == EXIT_OK:
            lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
            assert abs(float(lines[1].split(",")[9]) - 1.0) < 1e-12
        else:
            assert "numerical failure" in err

    @pytest.mark.parametrize("argv", [
        ("--nu-prime", "1", "--delta", "0.5", "--p", "1e-15"),
        ("--nu-prime", "1", "--delta", "0.5", "--p", "1e-20"),
        ("--nu-prime", "1", "--delta", "0.5", "--p", "1e-300"),
        # p^(n'-1/2) overflows here; it cancels from the relative defect
        ("--nu-prime", "2.5", "--delta", "0.75",
         "--p", "2.9499891896526597e+268", "--r-minus",
         "21.477692382662195", "--r-plus", "0.14277597047914645")])
    def test_two_body_far_from_unit_p(self, capsys, argv):
        # no refusal at p far from 1: the amplitude denominator 2ip is exact
        code, out, err = run(capsys, "coeffs", "--n", "2", *argv)
        assert (code, err) == (EXIT_OK, "")
        row = [float(v) for v in out.splitlines()[-1].split(",")]
        assert abs(row[9] - 1.0) < 1e-9
        assert math.isfinite(row[10]) and math.isfinite(row[11])

    def test_alt_readings_underflow_to_zero(self, capsys):
        # p^(n'-1/2) = 1e400 would overflow; its reciprocal underflows
        code, out, err = run(capsys, "coeffs", "--n", "2", "--nu-prime", "5",
                             "--delta", "2", "--p", "1e200")
        assert (code, err) == (EXIT_OK, "")
        meta = dict(ln[2:].split("=") for ln in out.splitlines()
                    if ln.startswith("#"))
        assert float(meta["alt_d_derivative_squared"]) == 0.0
        assert float(meta["alt_d_derivative_of_square"]) == 0.0
        row = [float(v) for v in out.splitlines()[-1].split(",")]
        assert abs(row[9] - 1.0) < 1e-9 and 0.0 < row[10] <= 1.0

    def test_invalid_couplings(self, capsys):
        code, _, _ = run(capsys, "coeffs", "--n", "2", "--p", "1",
                         "--g", "-0.3", "--delta", "-0.9")
        assert code == EXIT_COUPLINGS

    def test_rounded_exponent_outside_ranges(self, capsys, tmp_path):
        # g = nu'^2 - nu'(1 + 2 delta) rounds below -(delta + 1/2)^2 here;
        # the scan takes its couplings through the same check
        couplings = ("--nu-prime", "0.6040065076960841",
                     "--delta", "0.1040065076960841")
        code, _, err = run(capsys, "coeffs", "--n", "2", "--p", "1",
                           *couplings)
        assert code == EXIT_COUPLINGS
        assert "outside both validity ranges" in err
        out_file = tmp_path / "s.csv"
        code, out, err = run(capsys, "scan", "--n", "3", "--samples", "2",
                             "--p-max", "2", "--seed", "1",
                             "--out", str(out_file), *couplings)
        assert (code, out) == (EXIT_COUPLINGS, "")
        assert "outside both validity ranges" in err
        assert not out_file.exists()

    def test_exclusive_parameterization(self, capsys):
        code, _, _ = run(capsys, "coeffs", "--n", "2", "--p", "1",
                         "--g", "0", "--nu-prime", "1", "--delta", "0")
        assert code == EXIT_USAGE

    def test_output_digest(self, capsys):
        # two-body rows with their alt_d_* lines, and envelope rows at
        # N = 3 (k = 0 and 3) and N = 4..6, byte for byte
        argvs = [("coeffs", "--n", "2", "--nu-prime", nu, "--delta", delta,
                  "--p", p, "--r-minus", rm, "--r-plus", rp)
                 for nu, delta in (("1", "0.5"), ("2.5", "-0.25"))
                 for p, rm, rp in (("1", "50", "5"), ("0.3", "7", "2.5"),
                                   ("3.7", "400", "11"))]
        argvs += [("coeffs", "--n", "3", "--nu-prime", "1", "--delta", "0.5",
                   "--p", p, "--r-minus", rm, "--k", k)
                  for p, rm in (("1", "80"), ("0.6", "12"))
                  for k in ("0", "3")]
        argvs += [("coeffs", "--n", str(n), "--nu-prime", "3", "--delta",
                   "0.5", "--p", "1.02", "--r-minus", "30")
                  for n in range(4, 7)]
        digest = hashlib.sha256()
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == ("50ec43c2045969c6cac15591d28f2fc0"
                                      "320fc43a867cb668b3f2d0c62b4db7da")


class TestSweep:
    def test_r_minus_trend_check_fails_loudly(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--n", "2", "--nu-prime", "1",
                           "--delta", "0.5", "--param", "r-minus",
                           "--from", "10", "--to", "10000", "--steps", "4",
                           "--log", "--p", "1", "--r-plus", "5",
                           "--out", str(out_file))
        assert code == EXIT_CHECK_FAILED
        assert "expected-trend check failed" in err
        text = out_file.read_text()
        assert "# trend_discrepancy=" in text
        body = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(body) == 1 + 4

    def test_one_match_per_r_minus_point(self, capsys, tmp_path,
                                         monkeypatch):
        calls = []
        real = scattering.match_two_body

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scattering, "match_two_body", counted)
        code, _, _ = run(capsys, "sweep", "--n", "2", "--nu-prime", "1",
                         "--delta", "0.5", "--param", "r-minus",
                         "--from", "10", "--to", "10000", "--steps", "5",
                         "--log", "--p", "1", "--r-plus", "5",
                         "--out", str(tmp_path / "sweep.csv"))
        assert code == EXIT_CHECK_FAILED
        assert len(calls) == 5

    def test_decreasing_grid_rejected_before_matching(self, capsys,
                                                      tmp_path, monkeypatch):
        calls = []
        real = scattering.match_two_body

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scattering, "match_two_body", counted)
        code, _, err = run(capsys, "sweep", "--n", "2", "--nu-prime", "1",
                           "--delta", "0.5", "--param", "r-minus",
                           "--from", "100", "--to", "10", "--steps", "3",
                           "--out", str(tmp_path / "sweep.csv"))
        assert code == EXIT_USAGE
        assert err == ("usage error: r_minus values must be strictly "
                       "increasing\n")
        assert calls == []

    def test_two_body_nonzero_k_writes_nothing(self, capsys, tmp_path,
                                               no_matching):
        out_file = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--n", "2", "--nu-prime", "1",
                             "--delta", "0.5", "--k", "4",
                             "--param", "r-minus", "--from", "10",
                             "--to", "1000", "--steps", "3",
                             "--out", str(out_file))
        assert (code, out) == (EXIT_USAGE, "")
        assert "the two-body matcher is the k = 0 channel" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("n,param,bounds", [
        ("2", "r-minus", ("10", "inf")),
        ("2", "p", ("1", "nan")),
        ("3", "r-plus", ("1", "inf")),
        ("2", "r-minus", ("-inf", "10")),
        ("2", "r-plus", ("-5", "5")),
        ("3", "r-minus", ("0", "10")),
        ("2", "p", ("1", "-1")),
    ])
    def test_non_finite_grid_bound_rejected(self, capsys, tmp_path,
                                            no_matching, n, param, bounds):
        # every swept quantity (p, r_-, r_+) must be finite and > 0
        out_file = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--n", n, "--nu-prime", "1",
                             "--delta", "0.5", "--param", param,
                             f"--from={bounds[0]}", f"--to={bounds[1]}",
                             "--steps", "3", "--out", str(out_file))
        bad = 0 if not 0.0 < float(bounds[0]) < math.inf else 1
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"usage error: argument {('--from', '--to')[bad]}: "
                       f"invalid positive value: {bounds[bad]!r}\n")
        assert not out_file.exists()

    def test_one_point_trend_sweep_rejected(self, capsys, tmp_path,
                                            no_matching):
        # one point cannot reach both --from and --to; the grid is refused
        # before the trend check, which would refuse it too
        out_file = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--n", "2", "--nu-prime", "1",
                             "--delta", "0.5", "--param", "r-minus",
                             "--from", "10", "--to", "100", "--steps", "1",
                             "--out", str(out_file))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "usage error: --steps 1 needs --from equal to --to\n"
        assert not out_file.exists()

    def test_one_point_trend_grid_rejected(self, capsys, tmp_path,
                                           no_matching):
        # a one-point grid that names one point still fits no slope
        out_file = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--n", "2", "--nu-prime", "1",
                             "--delta", "0.5", "--param", "r-minus",
                             "--from", "10", "--to", "10", "--steps", "1",
                             "--out", str(out_file))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("usage error: the trend check needs at least two "
                       "r_minus values, got 1\n")
        assert not out_file.exists()

    def test_one_step_with_equal_ends_runs(self, capsys):
        # a one-point grid is allowed where it names its one point
        code, out, err = run(capsys, "sweep", "--n", "3", "--nu-prime", "1",
                             "--delta", "0.5", "--param", "p", "--from", "1",
                             "--to", "1", "--steps", "1")
        assert (code, err) == (EXIT_OK, "")
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert rows[0] == COEFFS_HEADER and len(rows) == 2
        assert rows[1].startswith("1.00000000000000000e+00,")

    @pytest.mark.parametrize("to_file", [True, False])
    def test_one_point_plot_rejected(self, capsys, tmp_path, no_matching,
                                     to_file):
        # a plot needs two points; refused before any matching or output
        csv, svg = tmp_path / "s.csv", tmp_path / "s.svg"
        out_args = ("--out", str(csv)) if to_file else ()
        code, out, err = run(capsys, "sweep", "--n", "2", "--nu-prime", "1",
                             "--delta", "0.5", "--param", "p", "--from", "1",
                             "--to", "1", "--steps", "1", *out_args,
                             "--plot", str(svg))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("usage error: --plot needs at least two points "
                       "(--steps 2 or more)\n")
        assert not csv.exists() and not svg.exists()

    @pytest.mark.parametrize("n", ["3", "4"])
    def test_unused_r_plus_sweep_rejected(self, capsys, tmp_path,
                                          no_matching, n):
        out_file = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--n", n, "--nu-prime", "1",
                             "--delta", "0.5", "--param", "r-plus",
                             "--from", "1", "--to", "5", "--steps", "3",
                             "--out", str(out_file))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"usage error: cannot sweep r_plus at N = {n}: only "
                       "the two-body matcher uses it\n")
        assert not out_file.exists()

    def test_rows_match_coeffs(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        main(["sweep", "--n", "2", "--nu-prime", "1", "--delta", "0.5",
              "--param", "r-minus", "--from", "10", "--to", "10000",
              "--steps", "4", "--log", "--p", "1", "--r-plus", "5",
              "--out", str(out_file)])
        capsys.readouterr()
        body = [ln for ln in out_file.read_text().splitlines()
                if not ln.startswith("#")]
        for row in body[1:]:
            r_minus = float(row.split(",")[1])
            code, out, _ = run(capsys, "coeffs", "--n", "2",
                               "--nu-prime", "1", "--delta", "0.5",
                               "--p", "1", "--r-minus", repr(r_minus),
                               "--r-plus", "5")
            assert code == EXIT_OK
            single = [ln for ln in out.splitlines()
                      if not ln.startswith("#")][1]
            assert single == row

    def test_p_sweep_exit_ok(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--n", "2", "--nu-prime", "1",
                         "--delta", "0", "--param", "p", "--from", "0.5",
                         "--to", "2.0", "--steps", "3",
                         "--r-minus", "30", "--r-plus", "5",
                         "--out", str(out_file))
        assert code == EXIT_OK

    def test_svg_plot_contract(self, capsys, tmp_path):
        svg_file = tmp_path / "t.svg"
        code, _, _ = run(capsys, "sweep", "--n", "2", "--nu-prime", "1",
                         "--delta", "0.5", "--param", "r-minus",
                         "--from", "10", "--to", "10000", "--steps", "4",
                         "--log", "--p", "1", "--r-plus", "5",
                         "--out", str(tmp_path / "s.csv"),
                         "--plot", str(svg_file))
        assert code == EXIT_CHECK_FAILED  # trend still fails; plot written
        text = svg_file.read_text()
        assert text.splitlines()[1].startswith("<svg")
        assert text.count("<polyline") == 1
        assert "<!--" in text and "trend_claim" in text

    @pytest.mark.parametrize("column", ["T", "deriv_mismatch"])
    def test_undefined_plot_column_writes_nothing(self, capsys, tmp_path,
                                                  column):
        csv, svg = tmp_path / "s.csv", tmp_path / "f.svg"
        code, out, err = run(capsys, "sweep", "--n", "3", "--nu-prime", "1",
                             "--delta", "0.5", "--param", "r-minus",
                             "--from", "10", "--to", "20", "--steps", "2",
                             "--out", str(csv), "--plot", str(svg),
                             "--plot-column", column)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"usage error: column {column} is undefined for "
                       "this sweep\n")
        assert not csv.exists() and not svg.exists()

    def test_svg_deterministic(self, capsys, tmp_path):
        files = []
        for name in ("a.svg", "b.svg"):
            path = tmp_path / name
            main(["sweep", "--n", "2", "--nu-prime", "1", "--delta", "0.5",
                  "--param", "p", "--from", "0.5", "--to", "2.0",
                  "--steps", "5", "--r-minus", "30", "--r-plus", "5",
                  "--out", str(tmp_path / (name + ".csv")),
                  "--plot", str(path)])
            files.append(path.read_bytes())
        capsys.readouterr()
        assert files[0] == files[1]


    def test_output_digest(self, capsys, tmp_path):
        # CSV, SVG and stdout of a plotted two-body sweep and of envelope
        # sweeps at N = 3..6 (b' up to 39 at N = 6), byte for byte
        digest = hashlib.sha256()
        csv, svg = tmp_path / "two.csv", tmp_path / "two.svg"
        code, out, _ = run(capsys, "sweep", "--n", "2", "--nu-prime", "1",
                           "--delta", "0.5", "--param", "r-minus",
                           "--from", "3", "--to", "5000", "--steps", "12",
                           "--log", "--p", "1.2", "--r-plus", "5",
                           "--out", str(csv), "--plot", str(svg))
        assert code == EXIT_CHECK_FAILED
        digest.update(f"{code}\n{out}".encode())
        digest.update(csv.read_bytes() + svg.read_bytes())
        for n in range(3, 7):
            for k in (0, 6):
                csv = tmp_path / f"n{n}k{k}.csv"
                code, out, _ = run(capsys, "sweep", "--n", str(n),
                                   "--nu-prime", "3", "--delta", "0.5",
                                   "--k", str(k), "--param", "r-minus",
                                   "--from", "4", "--to", "60", "--steps",
                                   "6", "--p", "1.02", "--out", str(csv))
                assert code == EXIT_OK
                digest.update(f"{code}\n{out}".encode() + csv.read_bytes())
        assert digest.hexdigest() == ("150265e6c2e5305c44c2e7b0b2c59959"
                                      "0829e66fee48adae4a4be2134af7a5ec")


class TestResidual:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "residual", "--n", "2", "--nu-prime", "1",
                           "--delta", "0", "--p", "1", "--k", "0",
                           "--h", "1e-3")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["max_residual"] < 1e-6
        assert 3.5 < doc["convergence_ratio"] < 4.5
        assert doc["metadata"]["eigenvalue_convention"] == "half_p_squared"

    def test_check_failure_exit(self, capsys):
        code, out, _ = run(capsys, "residual", "--n", "2", "--nu-prime", "1",
                           "--delta", "0", "--p", "1", "--k", "0",
                           "--h", "1e-3", "--tol", "1e-12")
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize("option,value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"),
        ("--tol", "-1e-6"), ("--h", "nan"), ("--h", "-inf"), ("--h", "0"),
        ("--h", "-1e-3")])
    @pytest.mark.parametrize("via_config", [False, True],
                             ids=["flag", "config"])
    def test_bad_tol_or_h_rejected(self, capsys, tmp_path, monkeypatch,
                                   option, value, via_config):
        def never(*args):
            raise AssertionError("state built")
        monkeypatch.setattr(cli, "make_scattering_state", never)
        argv = ["residual", "--n", "2", "--nu-prime", "1", "--delta", "0",
                "--p", "1"]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({option[2:]: value}))
            argv = ["--config", str(cfg)] + argv
        else:
            argv.append(f"{option}={value}")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == bad_option_error(option, value, "positive", via_config)

    def test_configs_file(self, capsys, tmp_path):
        cfg = tmp_path / "configs.json"
        cfg.write_text(json.dumps(
            {"configs": [[2.0, -1.0], [3.0, 0.5], [1.5, -2.0]]}))
        code, out, _ = run(capsys, "residual", "--n", "2", "--nu-prime", "1",
                           "--delta", "0", "--p", "1", "--k", "0",
                           "--h", "1e-3", "--configs", str(cfg))
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True


    def test_output_digest(self, capsys):
        # the benchmark's five (N, k, nu', delta) residual sets at three
        # (seed, p, h) draws, plus the README example, byte for byte
        sets = ((3, 3, "2.0", "0.25"), (4, 2, "0.25", "0.5"),
                (4, 4, "0.5", "0.25"), (5, 3, "2.0", "0.25"),
                (5, 4, "1.5", "0.0"))
        draws = (("1", "0.7", "0.002"), ("2", "1.3", "0.0035"),
                 ("3", "1.9", "0.005"))
        argvs = [("residual", "--n", str(n), "--nu-prime", nu, "--delta",
                  delta, "--k", str(k), "--p", p, "--h", h, "--tol", "1e-3",
                  "--seed", seed)
                 for n, k, nu, delta in sets for seed, p, h in draws]
        argvs.append(("residual", "--n", "2", "--nu-prime", "1", "--delta",
                      "0", "--p", "1", "--k", "0", "--h", "1e-3"))
        digest = hashlib.sha256()
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            assert code in (EXIT_OK, EXIT_CHECK_FAILED)
            digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == ("09eba9b4b0d2833f5f5afd75ec0014df"
                                      "2ace1a027af7d6d7f188ad96a6dfdea2")

    @pytest.mark.parametrize("doc", [{"cfg": []}, [1, 2], {"configs": 3},
                                     {"configs": [[1.0, "x"]]},
                                     {"configs": [[1.0, True]]},
                                     {"configs": [2.0, 1.0]}])
    def test_configs_wrong_shape(self, capsys, tmp_path, doc):
        cfg = tmp_path / "configs.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "residual", "--n", "2", "--nu-prime",
                             "1", "--delta", "0", "--p", "1", "--k", "0",
                             "--configs", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith('usage error: configs file must hold '
                              '{"configs": ')

    @pytest.mark.parametrize("rows,problem", [
        ([[3.0, 0.5], [1.0, 2.0, 3.0]], "sample 1 has 3 coordinates, need 2"),
        ([[1.0]], "sample 0 has 1 coordinates, need 2"),
        ([[3.0, 0.5], [-1.0, 2.0]], "sample 1 is not ordered descending"),
    ])
    def test_configs_bad_rows(self, capsys, tmp_path, rows, problem):
        cfg = tmp_path / "configs.json"
        cfg.write_text(json.dumps({"configs": rows}))
        code, out, err = run(capsys, "residual", "--n", "2", "--nu-prime",
                             "1", "--delta", "0", "--p", "1", "--k", "0",
                             "--configs", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"usage error: {problem}")


def bad_option_error(option, value, type_name, via_config):
    """stderr of a value that the option's argparse type rejects."""
    if via_config:
        return (f"usage error: config key {option[2:]!r}: invalid "
                f"{type_name} value {json.dumps(value)}\n")
    return (f"usage error: argument {option}: invalid {type_name} value: "
            f"{value!r}\n")


# (argv without the couplings, option, non-finite or non-positive value);
# the argv never gives the option itself, so a --config value is not
# overridden
BAD_OPTIONS = [
    ("coeffs --n 2", "--p", "inf"),
    ("coeffs --n 3 --p 1", "--r-plus", "nan"),
    ("coeffs --n 2 --p 1", "--r-minus", "-inf"),
    ("sweep --n 3 --param r-minus --from 10 --to 100 --steps 3",
     "--r-plus", "nan"),
    ("sweep --n 2 --param p --from 1 --to 5 --steps 3", "--p", "nan"),
    ("sweep --n 2 --param r-plus --from 1 --to 5 --steps 3",
     "--r-minus", "inf"),
    ("residual --n 2", "--p", "inf"),
    ("residual --n 3", "--p", "nan"),
    ("coeffs --n 3 --p 1", "--r-plus", "-5"),
    ("coeffs --n 2 --p 1", "--r-minus", "-5"),
    ("coeffs --n 2", "--p", "0"),
    ("sweep --n 2 --param p --from 1 --to 5 --steps 3", "--r-plus", "0"),
    ("sweep --n 3 --param p --from 1 --to 5 --steps 3", "--r-minus", "-1"),
    ("residual --n 2", "--p", "-1"),
]


@pytest.mark.parametrize(
    "argv,option,value", BAD_OPTIONS,
    ids=[f"{a.split()[0]}-n{a.split()[2]}{o}-{v}"
         for a, o, v in BAD_OPTIONS])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_non_finite_option_rejected(capsys, tmp_path, monkeypatch,
                                    no_matching, argv, option, value,
                                    via_config):
    def never(*args):
        raise AssertionError("state built")
    monkeypatch.setattr(cli, "make_scattering_state", never)
    argv = argv.split() + ["--nu-prime", "1", "--delta", "0.5"]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option[2:]: value}))
        argv = ["--config", str(cfg)] + argv
    else:
        argv.append(f"{option}={value}")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == bad_option_error(option, value, "positive", via_config)


SCAN_ARGV = "scan --n 3 --samples 2 --p-max 2 --seed 1 --out {out}"
SWEEP_ARGV = "sweep --n 2 --param p --from 1 --to 5 --steps 3"
# (argv, coupling option); the argv gives the other couplings it needs
COUPLING_OPTIONS = [
    ("nu-prime --delta 0", "--g"),
    ("nu-prime --g 2", "--delta"),
    (SCAN_ARGV, "--nu-prime"),
    (SCAN_ARGV, "--delta"),
    ("coeffs --n 2 --p 1 --delta 0.5", "--g"),
    ("coeffs --n 2 --p 1 --delta 0.5", "--nu-prime"),
    ("coeffs --n 3 --p 1 --nu-prime 1", "--delta"),
    (SWEEP_ARGV + " --delta 0.5", "--g"),
    (SWEEP_ARGV + " --delta 0.5", "--nu-prime"),
    (SWEEP_ARGV + " --nu-prime 1", "--delta"),
    ("residual --n 2 --p 1 --delta 0.5", "--g"),
    ("residual --n 2 --p 1 --delta 0.5", "--nu-prime"),
    ("residual --n 3 --p 1 --nu-prime 1", "--delta"),
]


@pytest.mark.parametrize(
    "argv,option", COUPLING_OPTIONS,
    ids=[f"{a.split()[0]}{o}" for a, o in COUPLING_OPTIONS])
@pytest.mark.parametrize("value", ["nan", "-inf"])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_non_finite_coupling_rejected(capsys, tmp_path, monkeypatch,
                                      no_matching, argv, option, value,
                                      via_config):
    def never(*args):
        raise AssertionError("state built")
    monkeypatch.setattr(cli, "make_scattering_state", never)
    out_file = tmp_path / "out.csv"
    argv = argv.format(out=out_file).split()
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option[2:]: value}))
        argv = ["--config", str(cfg)] + argv
    else:
        argv.append(f"{option}={value}")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == bad_option_error(option, value, "finite", via_config)
    assert not out_file.exists()


class TestPolys:
    def test_cubic(self, capsys):
        code, out, _ = run(capsys, "polys", "--n", "3", "--k", "3",
                           "--lambda", "7/10")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 3 and doc["k"] == 3
        assert doc["lambda"] == "7/10"
        assert doc["dimension"] == 1
        assert len(doc["basis"]) == 1
        assert set(doc["basis"][0]) == {"3", "2+1", "1+1+1"}

    def test_degree_one(self, capsys):
        code, out, _ = run(capsys, "polys", "--n", "3", "--k", "1",
                           "--lambda", "7/10")
        assert code == EXIT_OK
        assert json.loads(out)["dimension"] == 0

    def test_output_digest(self, capsys):
        # every (N, k) <= (6, 8) at three lambdas, byte for byte
        digest = hashlib.sha256()
        for n in range(2, 7):
            for k in range(9):
                for lam in ("7/10", "13/9", "-1/2"):
                    code, out, _ = run(capsys, "polys", "--n", str(n),
                                       "--k", str(k), f"--lambda={lam}")
                    assert code == EXIT_OK
                    digest.update(out.encode())
        assert digest.hexdigest() == ("93a103ea89f9947ad4317caf14946dd8"
                                      "e8f45015928702e061b8a563a0ad2de4")

    def test_bad_lambda(self, capsys):
        code, _, _ = run(capsys, "polys", "--n", "3", "--k", "1",
                         "--lambda", "x")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv,n_vars,degree", [
        ("polys --n 7 --k 3 --lambda 1/2", 7, 3),
        ("residual --n 7 --nu-prime 1 --delta 0.5 --k 2 --p 1", 7, 2),
        ("coeffs --n 3 --nu-prime 1 --delta 0.5 --p 1 --k 9", 3, 9),
    ])
    def test_beyond_caps_is_a_usage_error(self, capsys, argv, n_vars,
                                          degree):
        # a size the solver refuses is a request out of range, not a
        # numerical failure
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"usage error: (n_vars={n_vars}, degree={degree}) "
                       "beyond caps (6, 8)\n")

    @pytest.mark.parametrize("argv", [
        "coeffs --n 7 --nu-prime 1 --delta 0.5 --p 1",
        "sweep --n 7 --nu-prime 1 --delta 0.5 --param p --from 1 --to 5 "
        "--steps 2",
        "residual --n 7 --nu-prime 1 --delta 0.5 --p 1",
    ])
    def test_degree_zero_needs_no_solve(self, capsys, monkeypatch, argv):
        # the k = 0 factor is the constant 1 at every N, so the caps on the
        # solves (polys --n 7 above, residual --n 7 --k 2) do not apply
        monkeypatch.setattr(wavefunction, "laplace_solutions", None)
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (EXIT_OK, "")
        if argv.startswith("residual"):
            doc = json.loads(out)
            assert doc["passed"] and 3.0 < doc["convergence_ratio"] < 4.5
        else:
            rows = [ln.split(",") for ln in out.splitlines()
                    if not ln.startswith("#")][1:]
            assert rows and all(abs(float(row[9]) - 1.0) < 1e-9
                                for row in rows)


class TestConfigAndEnv:
    def test_config_provides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.0, "g": 2.0}))
        code, out, _ = run(capsys, "--config", str(cfg), "nu-prime")
        assert code == EXIT_OK
        assert json.loads(out)["selected"] == 2.0

    @pytest.mark.parametrize("spelling", [("--config", "{}"),
                                          ("--config={}",), ("--conf", "{}")],
                             ids=["separate", "equals", "abbreviated"])
    def test_every_config_spelling_applies_the_file(self, capsys, tmp_path,
                                                    spelling):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": 2.0, "delta": 0.0}))
        argv = [part.format(cfg) for part in spelling]
        code, out, err = run(capsys, *argv, "nu-prime")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["selected"] == 2.0

    def test_config_without_path(self, capsys):
        code, out, err = run(capsys, "--config")
        assert (code, out) == (EXIT_USAGE, "")
        assert "expected one argument" in err

    def test_flags_win_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": 2.0, "delta": 0.0}))
        code, out, _ = run(capsys, "--config", str(cfg), "nu-prime",
                           "--g", "0")
        assert code == EXIT_OK
        assert json.loads(out)["selected"] == 1.0

    def test_removed_option_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phi_use_nu": True}))
        code, _, err = run(capsys, "--config", str(cfg), "nu-prime",
                           "--g", "0", "--delta", "0")
        assert code == EXIT_USAGE
        assert "unknown config key" in err

    @pytest.mark.parametrize("doc,command,problem", [
        ({"tol": [1]}, "residual", "'tol' takes a string or a number, "
                                   "got [1]"),
        ({"h": None}, "residual", "'h' takes a string or a number, "
                                  "got null"),
        ({"plot_column": "X"}, "sweep", "'plot_column': \"X\" is not one "
                                        "of R, T, deriv_mismatch"),
        ({"log": "false"}, "sweep", "'log' takes true or false, "
                                    "got \"false\""),
        ({"k": 1.5}, "residual", "'k': invalid int value 1.5"),
    ], ids=["tol-list", "h-null", "plot-column-choice", "log-string",
            "k-float"])
    def test_config_value_checked_as_option(self, capsys, tmp_path, doc,
                                            command, problem):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        plot = tmp_path / "t.svg"
        argv = ["--config", str(cfg), command, "--n", "2", "--nu-prime", "1",
                "--delta", "0", "--p", "1"]
        if command == "sweep":
            argv += ["--param", "p", "--from", "1", "--to", "2", "--steps",
                     "2", "--plot", str(plot)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == f"usage error: config key {problem}\n"
        assert not plot.exists()

    def test_config_values_parsed_like_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": "2", "delta": 0, "log": True,
                                   "plot_column": "R"}))
        code, out, _ = run(capsys, "--config", str(cfg), "nu-prime")
        assert code == EXIT_OK
        assert json.loads(out)["selected"] == 2.0
        parser = cli.build_parser()
        cli._apply_config(parser, str(cfg))
        ns = parser.parse_args(["sweep", "--n", "2", "--param", "p",
                                "--from", "1", "--to", "2", "--steps", "2"])
        assert (ns.g, ns.delta, ns.log, ns.plot_column) == (2.0, 0.0, True,
                                                            "R")

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, _ = run(capsys, "--config", str(cfg), "nu-prime",
                         "--g", "0", "--delta", "0")
        assert code == EXIT_USAGE



def test_parser_freed_before_command_returns(capsys):
    # argparse parsers are reference cycles; main frees its own, so an
    # in-process caller is left with no cyclic garbage per command.
    gc.collect()
    gc.disable()
    try:
        code, _, _ = run(capsys, "nu-prime", "--g", "2", "--delta", "0")
        leftover = gc.collect()
    finally:
        gc.enable()
    assert code == EXIT_OK
    assert leftover < 40


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "calogero_ss.cli",
                          "nu-prime", "--g", "0", "--delta", "0"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["selected"] == 1.0
