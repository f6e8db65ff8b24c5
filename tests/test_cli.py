"""CLI contract: schemas, exit codes, determinism, config/env handling."""

import gc
import hashlib
import json
import subprocess
import sys

import pytest

import calogero_ss.cli as cli
import calogero_ss.scattering as scattering
from calogero_ss.cli import (COEFFS_HEADER, EXIT_CHECK_FAILED,
                             EXIT_COUPLINGS, EXIT_IO, EXIT_NUMERICAL, EXIT_OK,
                             EXIT_SS_FOUND, EXIT_USAGE, SCAN_HEADER, main)
from calogero_ss.scattering import ScanSummary


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

        def fake(n, sampler, n_samples, params):
            summary = real(n, sampler, n_samples, params=params)
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

    def test_invalid_couplings(self, capsys):
        code, _, _ = run(capsys, "coeffs", "--n", "2", "--p", "1",
                         "--g", "-0.3", "--delta", "-0.9")
        assert code == EXIT_COUPLINGS

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
        assert digest.hexdigest() == ("39507d6f2f5654557a4b024b45760f7f"
                                      "fbd9aecf7ca8b25932dd49a152ee4a94")


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
        assert digest.hexdigest() == ("6650bc63c1116e051a8f0a46836debd6"
                                      "d5f2c449e8fb7a38a0b630db4d85b7e7")


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
        ("--tol", "-1e-6"), ("--h", "nan"), ("--h", "-inf")])
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
        assert err == ("usage error: residual needs a finite --tol > 0 and "
                       "a finite --h\n")

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
        assert digest.hexdigest() == ("78653b312358a26eff5986eff30e60a6"
                                      "df1378a9327470aaa55da91d751a5d03")

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
        ({"k": 1.5}, "residual", "'k': invalid value 1.5"),
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
