"""Seed-to-seed steadiness check of the end-to-end metrics.

    python3 perfbench/check_seeds.py --runs 10 --sets 2 [--workloads scan]

Runs the benchmark (``BENCHMARK.json``: command, run_seconds, bounds) once
per seed, one run at a time, ``--runs`` seeds per set.  For every workload
and end-to-end metric it prints the median and the quartile spread
(Q3 - Q1) / median of each set, as ``statistics.quantiles(n=4)`` gives
them, and with two sets how much worse the second set's median is than
the first's.  A spread must stay within the metric's bound (``setup_s``
is exempt) and the second median may not be worse than the first by more
than the bound; the exit code is 1 when either fails.  The second set uses
seeds the first did not, so a claim checked here also holds on a fresh
seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: gate failed\n"
                         f"{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    status = 0
    report = {}
    for workload in names:
        sets = []
        for s in range(args.sets):
            seeds = range(args.first_seed + s * args.runs,
                          args.first_seed + (s + 1) * args.runs)
            sets.append([run_once(spec, workload, seed) for seed in seeds])
        report[workload] = sets
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            medians = []
            for runs in sets:
                values = [r[name] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, status = " FAIL", 1
                elif name != "setup_s" and spread > bound / 3:
                    flag = " wide"
                cells.append(f"median {med:12.6g} spread {spread:6.3f}{flag}")
            line = f"{workload:<9} {name:<12} bound {bound:4.2f}  " \
                + "  |  ".join(cells)
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    worse = -worse
                line += f"  |  2nd worse by {worse:+.3f}"
                if worse > bound:
                    line += " FAIL"
                    status = 1
            print(line, flush=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "check_seeds.json").write_text(json.dumps(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
