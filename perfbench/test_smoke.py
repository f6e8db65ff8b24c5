"""Smoke test of the benchmark harness; no timing assertions.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, timeout=120,
        check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["scan", "match", "laplace", "residual"])
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_match_keeps_the_bessel_hole():
    # the strong-exponent corner stays in the draw and fails with exit 3
    result = _run("match", 1)
    metrics = result["metrics"]
    assert metrics["ops_failed_frac"]["value"] > 0
    assert metrics["specialfn.bessel_j.failed"]["value"] > 0


def test_layers_that_must_stay_idle():
    scan = _run("scan", 1)["metrics"]
    assert scan["polynomials.evaluate_poly.calls"]["value"] == 0
    laplace = _run("laplace", 1)["metrics"]
    for regime in ("series", "large_x"):
        assert laplace[f"specialfn.bessel_j.{regime}.calls"]["value"] == 0


def test_gate_rejects_a_wrong_nullspace():
    sys.path.insert(0, str(HERE))
    import gate
    import workloads
    from fractions import Fraction

    op = workloads._polys_op(4, 4, Fraction(7, 10))
    basis = {"4": "93", "3+1": "-124", "2+2": "-130", "2+1+1": "316",
             "1+1+1+1": "-1896"}
    good = {"n": 4, "k": 4, "lambda": "7/10", "dimension": 1,
            "basis": [basis]}
    assert gate.check(op, 0, json.dumps(good), "", {}).ok
    bad = dict(good, basis=[dict(basis, **{"4": "94"})])
    assert not gate.check(op, 0, json.dumps(bad), "", {}).ok


def test_missing_package_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed",
         "1", "--seconds", "1"], cwd=tmp_path, capture_output=True,
        text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
