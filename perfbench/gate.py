"""Correctness gate, applied to every op the benchmark runs.

Each check reads only what the CLI printed or wrote and the op's own
parameters; the polynomial check is an exact-rational oracle written here,
independent of ``calogero_ss.polynomials``.

``check`` returns a :class:`Verdict`.  ``ok`` is false when the output
contradicts the paper's claims or the CLI's documented contract.
``known_hole`` marks the one documented failure the draw keeps on purpose:
exit 3 from ``bessel_j`` at the strong-exponent corner (N = 6, b' ~ 39),
where the Bessel kernel has an accuracy hole today.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

R_TOL = 1e-9
RATIO_BAND = (3.5, 4.5)  # h -> h/2 residual ratio of a second-order stencil

SCAN_HEADER = "sample,p,min_pair_factor,min_w_magnitude,m22_status,ss_verdict"
COEFFS_HEADER = ("p,r_minus,r_plus,re_A,im_A,re_B,im_B,re_D,im_D,R,T,"
                 "deriv_mismatch")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    known_hole: bool = False
    detail: str = ""
    rows: int = 0  # coefficient rows emitted


def _fail(detail: str) -> Verdict:
    return Verdict(False, detail=detail)


def _read_csv(text: str) -> tuple[dict[str, str], str, list[list[str]]]:
    lines = text.splitlines()
    meta = {}
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    if not body:
        return meta, "", []
    return meta, body[0], [row.split(",") for row in body[1:]]


def _check_scan(op, rc, out, err, files) -> Verdict:
    samples = op.info["samples"]
    if rc != 0:
        return _fail(f"scan exit {rc}: {err.strip()}")
    if not err.startswith(f"scan: {samples} samples, 0 SS verdicts"):
        return _fail(f"scan summary line: {err.strip()!r}")
    _, header, rows = _read_csv(files["out"])
    if header != SCAN_HEADER or len(rows) != samples:
        return _fail(f"scan CSV: header {header!r}, {len(rows)} rows")
    lo = op.info["p_min"] * (1 - 1e-12)
    hi = op.info["p_max"] * (1 + 1e-12)
    for idx, row in enumerate(rows):
        if (len(row) != 6 or row[0] != str(idx)
                or not lo <= float(row[1]) <= hi
                or not float(row[2]) > 0.0
                or row[4] != "Finite-Nonzero" or row[5] != "false"):
            return _fail(f"scan row {idx}: {row}")
    return Verdict(True)


def _check_coeff_rows(op, header: str, rows: list[list[str]]) -> Verdict:
    steps = op.info["steps"]
    if header != COEFFS_HEADER or len(rows) != steps:
        return _fail(f"sweep CSV: header {header!r}, {len(rows)} rows, "
                     f"want {steps}")
    for row in rows:
        if len(row) != 12 or not abs(float(row[9]) - 1.0) <= R_TOL:
            return _fail(f"reflection off 1: {row}")
    return Verdict(True, rows=len(rows))


def _check_two_body(op, rc, out, err, files) -> Verdict:
    if rc not in (0, 6):
        return _fail(f"two-body sweep exit {rc}: {err.strip()}")
    meta, header, rows = _read_csv(files["out"])
    verdict = _check_coeff_rows(op, header, rows)
    if not verdict.ok:
        return verdict
    # exit 6 is the documented finding: T does not decay with r_-
    finding = "trend_discrepancy" in meta
    if (rc == 6) != finding or meta.get("trend_decayed") != (
            "false" if finding else "true"):
        return _fail(f"exit {rc} disagrees with trend metadata")
    for row in rows:
        t = float(row[10])
        if not (math.isfinite(t) and t >= 0.0):
            return _fail(f"transmission not a finite non-negative: {row}")
    svg = files["plot"]
    if not (svg.startswith("<?xml") and "<polyline" in svg
            and svg.endswith("</svg>\n")):
        return _fail("SVG plot malformed or missing")
    return verdict


def _check_envelope(op, rc, out, err, files) -> Verdict:
    if rc != 0:
        return _fail(f"envelope sweep exit {rc}: {err.strip()}")
    _, header, rows = _read_csv(files["out"])
    return _check_coeff_rows(op, header, rows)


def _check_corner(op, rc, out, err, files) -> Verdict:
    if rc == 3 and err.startswith("numerical failure: bessel_j"):
        return Verdict(True, known_hole=True, detail=err.strip())
    return _check_envelope(op, rc, out, err, files)


def _check_residual(op, rc, out, err, files) -> Verdict:
    if rc not in (0, 6):
        return _fail(f"residual exit {rc}: {err.strip()}")
    doc = json.loads(out)
    ratio = doc["convergence_ratio"]
    res = doc["max_residual"]
    if not (math.isfinite(res) and res >= 0.0):
        return _fail(f"residual not finite: {res}")
    if doc["passed"] != (res < doc["tolerance"]) or (rc == 0) != doc["passed"]:
        return _fail(f"exit {rc} disagrees with passed={doc['passed']}")
    if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
        return _fail(f"convergence ratio {ratio} outside {RATIO_BAND}")
    return Verdict(True)


# --- exact oracle for the generalized-Laplace nullspace ------------------------

def parts_count(k: int, n: int) -> int:
    """Partitions of k into parts in [2, n]."""
    if k < 0:
        return 0
    ways = [1] + [0] * k
    for part in range(2, n + 1):
        for total in range(part, k + 1):
            ways[total] += ways[total - part]
    return ways[k]


def generic_dimension(n: int, k: int) -> int:
    """Degeneracy at generic lambda (the counting rule the tests check)."""
    return parts_count(k, n) - parts_count(k - 2, n)


def _jets(poly: dict[tuple[int, ...], Fraction], x: list[int]):
    """Value, gradient and Laplacian of a symmetric polynomial at x."""
    n = len(x)
    value = Fraction(0)
    grad = [Fraction(0)] * n
    lap = Fraction(0)
    for partition, c in poly.items():
        for mon in set(itertools.permutations(partition)):
            pw = [x[i] ** e for i, e in enumerate(mon)]
            prod = math.prod(pw)
            value += c * prod
            for j, e in enumerate(mon):
                if e:
                    rest = math.prod(pw[:j] + pw[j + 1:])
                    grad[j] += c * e * x[j] ** (e - 1) * rest
                    if e > 1:
                        lap += c * e * (e - 1) * x[j] ** (e - 2) * rest
    return value, grad, lap


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


_KEY = re.compile(r"^(1|[1-9][0-9]*(\+[1-9][0-9]*)*)$")


def _check_polys(op, rc, out, err, files) -> Verdict:
    n, k, lam = op.info["n"], op.info["k"], op.info["lambda"]
    if rc != 0:
        return _fail(f"polys exit {rc}: {err.strip()}")
    doc = json.loads(out)
    dim = generic_dimension(n, k)
    if (doc["n"], doc["k"], doc["lambda"]) != (n, k, str(lam)):
        return _fail(f"polys echo {doc['n']}, {doc['k']}, {doc['lambda']}")
    if doc["dimension"] != dim or len(doc["basis"]) != dim:
        return _fail(f"dimension {doc['dimension']}, want {dim}")
    polys = []
    for entry in doc["basis"]:
        poly = {}
        for key, coeff in entry.items():
            parts = [] if key == "1" else [int(p) for p in key.split("+")]
            if (not _KEY.match(key) or sum(parts) != k or len(parts) > n
                    or parts != sorted(parts, reverse=True)):
                return _fail(f"bad monomial key {key!r}")
            poly[tuple(parts + [0] * (n - len(parts)))] = Fraction(coeff)
        polys.append(poly)
    # A nonzero P of degree k can vanish at a few small integer points
    # (the centred cubic does at any arithmetic progression), so take
    # several points from a wide range before calling the basis dependent.
    rng = random.Random(f"{n}/{k}/{lam}")
    points = [rng.sample(range(-99, 100), n) for _ in range(dim + 3)]
    values = []
    for poly in polys:
        row = []
        for x in points:
            value, grad, lap = _jets(poly, x)
            cross = sum((grad[j] - grad[m]) / (x[j] - x[m])
                        for j in range(n) for m in range(j + 1, n))
            if lap + 2 * lam * cross != 0:
                return _fail(f"L[P] != 0 at {x}")
            if sum(grad) != 0:
                return _fail(f"P not translation invariant at {x}")
            row.append(value)
        values.append(row)
    if dim and _rank(values) != dim:
        return _fail("basis polynomials are linearly dependent")
    return Verdict(True)


_CHECKS = {
    "scan": _check_scan,
    "sweep2": _check_two_body,
    "envelope": _check_envelope,
    "corner": _check_corner,
    "polys": _check_polys,
    "residual": _check_residual,
}


def check(op, rc: int | None, out: str, err: str,
          files: dict[str, str]) -> Verdict:
    """Gate one op; ``rc`` is None when ``cli.main`` raised."""
    if rc is None:
        return _fail(f"exception: {err.strip()}")
    try:
        return _CHECKS[op.kind](op, rc, out, err, files)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return _fail(f"unreadable output: {exc!r}")
