"""Output checks by meaning.

Each check reads what one job returned or wrote and answers two questions:
is this output what the job should produce (``ok``), and did the job
produce its result (``done``)?  A documented failure of the program, such
as the Picard contraction failure at n >= 4, is ``ok`` but not ``done``.
Checks compare numbers against gates and references, never bytes, so a
change that moves integration nodes but keeps the mathematics passes.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

PROFILE_HEADER = ["r", "u", "du", "ddu", "lambda1", "lambda2", "gamma", "tilt", "residual"]

CLOSED_FORM_TOL = 1e-8        # max |du - sqrt(e^{r^2} - 1)| for sigma_2 at n = 2
SOLITON_TOL = 1e-8            # the CLI's default verify tolerance
CYLINDER_TOL = 1e-9
PICARD_RK_TOL = 1e-6          # sup distance of the fixed point to the RK reference
CONTRACTION_FAILURE = "error: difference ratio >= 1"
QUOTIENT_WARNING = "warning: boundary-vanishing not satisfied"
RADIAL_ROUNDOFF_MAX = 1e-6          # see ``props``
RADIAL_ROUNDOFF_MAX_FAILED = 3


@dataclass
class Outcome:
    """What one job returned: the CLI exit code and captured streams, or a
    library call's value; ``error`` holds the traceback of an exception
    that escaped."""

    rc: Optional[int] = None
    stdout: str = ""
    stderr: str = ""
    value: Any = None
    error: Optional[str] = None


@dataclass(frozen=True)
class Verdict:
    ok: bool
    done: bool = True
    reason: str = ""


class Wrong(Exception):
    """Raised inside a check when the output does not mean what it should."""


def judge(check, outcome: Outcome, **params) -> Verdict:
    """Run ``check(outcome, **params)``; a traceback from the job, a
    ``Wrong`` or an unreadable artifact makes the verdict not ok."""
    if outcome.error is not None:
        last = outcome.error.strip().splitlines()[-1]
        return Verdict(False, False, f"traceback: {last}")
    try:
        return check(outcome, **params)
    except Wrong as exc:
        return Verdict(False, False, str(exc))
    except (OSError, ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
        return Verdict(False, False, f"unreadable output: {type(exc).__name__}: {exc}")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def _exit(outcome: Outcome, expected: int) -> None:
    _expect(outcome.rc == expected,
            f"exit code {outcome.rc}, expected {expected}; stderr: {outcome.stderr.strip()[:200]}")


def _report(path: Path) -> dict[str, dict]:
    checks = json.loads(Path(path).read_text())["checks"]
    return {c["name"]: c for c in checks}


def read_profile(csv_path: Path) -> np.ndarray:
    csv_path = Path(csv_path)
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
    _expect(header == PROFILE_HEADER, f"{csv_path.name}: header {header}")
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    _expect(rows.shape[1] == len(PROFILE_HEADER) and rows.shape[0] >= 10,
            f"{csv_path.name}: table shape {rows.shape}")
    return rows


# ---------------------------------------------------------------------------
# profile study
# ---------------------------------------------------------------------------

def solve(outcome: Outcome, csv: Path, r_max: float, closed_form: bool = False) -> Verdict:
    """``solve`` reached r_max with a positive, increasing slope; the
    sigma_2, n = 2 profile also matches its closed form."""
    _exit(outcome, 0)
    _expect("status=completed" in outcome.stdout, f"solve printed {outcome.stdout.strip()!r}")
    meta = json.loads(Path(csv).with_suffix(".meta.json").read_text())
    _expect(meta["status"] == "completed", f"sidecar status {meta['status']!r}")
    rows = read_profile(csv)
    r, du = rows[:, 0], rows[:, 2]
    _expect(bool(np.all(np.diff(r) > 0.0)), "radii not strictly increasing")
    _expect(abs(r[-1] - r_max) <= 1e-9 * r_max, f"last radius {r[-1]!r}, expected {r_max}")
    _expect(bool(np.all(du > 0.0)) and bool(np.all(np.diff(du) > 0.0)),
            "slope not positive and increasing")
    if closed_form:
        err = float(np.max(np.abs(du - np.sqrt(np.expm1(r * r)))))
        _expect(err <= CLOSED_FORM_TOL, f"closed-form slope error {err:.3e} > {CLOSED_FORM_TOL}")
    return Verdict(True)


def soliton(outcome: Outcome, report: Path, harmonic: bool) -> Verdict:
    """Residual within tolerance; the harmonic slope equation is not the
    geometric soliton equation, so its documented O(0.1) residual and exit
    code 1 are accepted as the known outcome."""
    entry = _report(report)["soliton_residual"]
    worst = entry["worst_violation"]
    if outcome.rc == 0:
        _expect(entry["status"] == "pass" and worst <= SOLITON_TOL,
                f"soliton residual {worst!r} with status {entry['status']}")
        return Verdict(True)
    _expect(harmonic, f"soliton residual {worst!r}, exit {outcome.rc}")
    _exit(outcome, 1)
    _expect(entry["status"] == "fail" and 1e-3 <= worst < 1.0,
            f"harmonic residual {worst!r} is not the documented O(0.1) gap")
    return Verdict(True)


def barriers(outcome: Outcome, report: Path, names: tuple[str, ...]) -> Verdict:
    """Every ordering of the barrier family holds or is skipped by rule."""
    _exit(outcome, 0)
    entries = _report(report)
    _expect(set(entries) == set(names), f"barrier checks {sorted(entries)}")
    bad = {n: e["status"] for n, e in entries.items() if e["status"] not in ("pass", "skipped")}
    _expect(not bad, f"barrier orderings failed: {bad}")
    _expect(entries[names[0]]["status"] == "pass", f"{names[0]} not checked")
    return Verdict(True)


def convexity(outcome: Outcome, report: Path) -> Verdict:
    """The convexity estimate holds with fitted constants on at least one
    admissible sample."""
    _exit(outcome, 0)
    entry = _report(report)["convexity_estimate"]
    _expect(entry["status"] == "pass", f"convexity estimate {entry['status']}: {entry['detail']}")
    admissible = int(entry["detail"].split()[1].split("/")[0])
    _expect(admissible >= 1, f"no admissible samples: {entry['detail']}")
    return Verdict(True)


def plot(outcome: Outcome, svg: Path, series: int) -> Verdict:
    """A well-formed SVG with one polyline per series."""
    _exit(outcome, 0)
    root = ET.parse(svg).getroot()
    _expect(root.tag == "{http://www.w3.org/2000/svg}svg", f"root element {root.tag}")
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    _expect(len(lines) == series, f"{len(lines)} polylines, expected {series}")
    return Verdict(True)


def cylinder(outcome: Outcome, report: Path, samples: int) -> Verdict:
    """All heights solved; H < 0, K > 0 and the speed identity hold."""
    _exit(outcome, 0)
    entry = _report(report)["sigma2_cylinder"]
    _expect(entry["status"] == "pass", f"cylinder check {entry['status']}")
    _expect(entry["detail"].startswith(f"checked {samples},"), f"cylinder {entry['detail']!r}")
    _expect(entry["worst_violation"] <= CYLINDER_TOL,
            f"cylinder violation {entry['worst_violation']!r} > {CYLINDER_TOL}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# speed suite
# ---------------------------------------------------------------------------

def props(outcome: Outcome, report: Path, samples: int, seed: int, quotient: bool) -> Verdict:
    """Clean speeds fail no property; quotients fail exactly boundary
    vanishing, with a warning and exit code 0.

    Known defect, accepted as ok but not done: ``check_properties`` tests
    radial degeneracy |lam^T D^2f lam| <= 1e-10 with an absolute tolerance,
    so near the cone boundary, where the Hessian is large, a sample can miss
    it by round-off, and ``props`` exits 1 (a few jobs in a thousand, seen
    for sigma_2, sigma_4 and sigma_5 at n = 6).  A true loss of homogeneity
    fails far more samples, or by far more.
    """
    data = json.loads(Path(report).read_text())
    _expect(data["samples"] == samples and data["seed"] == seed,
            f"report for {data['samples']} samples, seed {data['seed']}")
    checks = data["checks"]
    _expect(len(checks) == 7, f"property checks {sorted(checks)}")
    for name, c in checks.items():
        if name != "boundary_vanishing":
            _expect(c["passed"] + c["failed"] == samples, f"{name} counted {c}")
    failing = sorted(name for name, c in checks.items() if c["failed"] > 0)
    if quotient:
        _exit(outcome, 0)
        _expect(failing == ["boundary_vanishing"], f"quotient failing checks {failing}")
        _expect(QUOTIENT_WARNING in outcome.stderr, "quotient warning missing")
        return Verdict(True)
    radial = checks["radial_degeneracy"]
    if failing == ["radial_degeneracy"] and radial["failed"] <= RADIAL_ROUNDOFF_MAX_FAILED \
            and radial["worst"] <= RADIAL_ROUNDOFF_MAX:
        _exit(outcome, 1)
        return Verdict(True, done=False, reason="radial degeneracy missed by round-off")
    _exit(outcome, 0)
    _expect(failing == [], f"failing checks {failing}")
    return Verdict(True)


def pinching(outcome: Outcome) -> Verdict:
    """Finite gradient pinching >= 1, negative Hessian supremum, and a
    positive separation of the pinching cone."""
    estimate, separation = outcome.value
    g = estimate.gradient_pinching
    _expect(math.isfinite(g) and g >= 1.0, f"gradient pinching {g!r}")
    _expect(estimate.hessian_sup < 0.0, f"hessian sup {estimate.hessian_sup!r}")
    _expect(estimate.samples_used >= 1, "no samples inside the cone")
    _expect(separation > 0.0, f"cone separation {separation!r}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def _fixed_point(out_json: Path) -> tuple[dict, np.ndarray]:
    payload = json.loads(Path(out_json).read_text())
    grid = np.loadtxt(Path(out_json).with_suffix(".csv"), delimiter=",", skiprows=1, ndmin=2)
    _expect(grid.shape == (payload["m"], 2), f"fixed-point table shape {grid.shape}")
    return payload, grid


def picard_default(outcome: Outcome, out_json: Path, may_fail: bool) -> Verdict:
    """Default radius: converges, or, where documented (n >= 4), stops with
    the contraction failure and exit code 1."""
    if outcome.rc == 1 and may_fail:
        _expect(outcome.stderr.startswith(CONTRACTION_FAILURE),
                f"exit 1 without the contraction failure: {outcome.stderr.strip()[:200]}")
        return Verdict(True, done=False, reason="documented contraction failure")
    _exit(outcome, 0)
    payload, grid = _fixed_point(out_json)
    _expect(payload["converged"] is True, "not converged")
    _expect(0.0 < payload["R"] and payload["lipschitz_coefficient"] > 0.0,
            f"radius {payload['R']!r}, coefficient {payload['lipschitz_coefficient']!r}")
    _expect(bool(np.all(np.isfinite(grid))), "non-finite fixed point")
    return Verdict(True)


def picard_explicit(outcome: Outcome, out_json: Path, reference: tuple[np.ndarray, np.ndarray]) -> Verdict:
    """Explicit radius: converged, contracting above the quadrature's
    round-off floor, and within 1e-6 of the RK reference slope."""
    _exit(outcome, 0)
    payload, grid = _fixed_point(out_json)
    _expect(payload["converged"] is True, "not converged")
    its = payload["iterations"]
    # The same floor picard_solve uses: below it, ratios near 1 are round-off.
    floor = 8.0 * payload["m"] * np.finfo(float).eps * max(1.0, float(np.max(np.abs(grid[:, 1]))))
    ratios = [cur["contraction_ratio"] for prev, cur in zip(its, its[1:])
              if prev["sup_change"] > floor and cur["contraction_ratio"] is not None]
    _expect(bool(ratios) and max(ratios) < 1.0,
            f"max contraction ratio {max(ratios, default=None)!r} above the floor")
    r_ref, du_ref = reference
    sup = float(np.max(np.abs(grid[1:, 1] - np.interp(grid[1:, 0], r_ref, du_ref))))
    _expect(sup <= PICARD_RK_TOL, f"sup distance to RK reference {sup:.3e} > {PICARD_RK_TOL}")
    return Verdict(True)
