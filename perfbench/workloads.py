"""The benchmark's three workloads, each a list of jobs built from a seed.

A job is one ``curvsol`` command run in-process through ``curvsol.cli.main``
(or, for the pinching estimates, two library calls), plus the check that
gives its output a meaning.  Calls go through module attributes so that the
tracer's wrappers see them.  Building a workload also computes its
references; that is part of set-up, not of any timed job.
"""

from __future__ import annotations

import contextlib
import io
import random
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from curvsol import cli, cones, profiles, speeds, verifier

import checks
from checks import Outcome, Verdict

PROPS_SAMPLES = 150
# Pinching jobs: a sigma_2 cone 1.5 times wider than the umbilic value of
# alpha, sampled so that the four jobs take about a tenth of a pass.
PINCH_DELTA = 0.1
PINCH_ALPHA_FACTOR = 1.5
PINCH_SAMPLES = 800
CYLINDER_SAMPLES = 100
# Inside the n = 3 contraction radius (about 0.3835 for every seed).
PICARD_R = 0.38
PICARD_GRIDS = (2048, 4095, 8189)


@dataclass
class Job:
    name: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], Verdict]
    outputs: tuple[Path, ...] = field(default=())


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job]


def run_cli(argv: list[str]) -> Outcome:
    """``curvsol <argv>`` in this process, with its streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:       # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            return Outcome(stdout=out.getvalue(), stderr=err.getvalue(),
                           error=traceback.format_exc())
    return Outcome(rc=rc, stdout=out.getvalue(), stderr=err.getvalue())


def run_call(fn: Callable, *args) -> Outcome:
    try:
        return Outcome(value=fn(*args))
    except Exception:
        return Outcome(error=traceback.format_exc())


def _cli_job(name: str, argv: list, check, outputs=(), **params) -> Job:
    return Job(name=name, call=partial(run_cli, [str(a) for a in argv]),
               check=partial(checks.judge, check, **params), outputs=tuple(outputs))


# ---------------------------------------------------------------------------
# speed-suite
# ---------------------------------------------------------------------------

def _speed_flags() -> list[tuple[list, bool]]:
    """(props flags, is quotient) for the 25 speeds of the suite."""
    flags = [(["--speed", "sigma-k", "--n", n, "--k", k], False)
             for n in range(3, 7) for k in range(1, n + 1)]
    flags += [(["--speed", "harmonic", "--n", n], False) for n in range(3, 7)]
    flags += [(["--speed", "quotient", "--k", 2, "--l", 1, "--n", 3], True),
              (["--speed", "quotient", "--k", 3, "--l", 1, "--n", 4], True),
              (["--speed", "product", "--factors", "sigma-k:2,sigma-k:1", "--n", 3], False)]
    return flags


def _pinching(speed, cone, seed: int):
    estimate = verifier.estimate_pinching_constants(speed, cone, PINCH_SAMPLES, seed=seed)
    return estimate, cones.cone_separation(cone, PINCH_SAMPLES, seed=seed + 1)


def speed_suite(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for i, (flags, quotient) in enumerate(_speed_flags()):
        out = workdir / f"props{i}.json"
        s = rng.randrange(2 ** 31)
        jobs.append(_cli_job(f"props {' '.join(map(str, flags[1:]))}",
                             ["props", *flags, "--samples", PROPS_SAMPLES, "--seed", s,
                              "--out", out],
                             checks.props, (out,), report=out, samples=PROPS_SAMPLES,
                             seed=s, quotient=quotient))
    for n in range(3, 7):
        speed = speeds.sigma_k_root(2, n)
        umbilic_alpha = (1.0 + PINCH_DELTA) * n / speeds.eval_speed(speed, np.ones(n))
        cone = cones.gamma_alpha_delta(PINCH_ALPHA_FACTOR * umbilic_alpha, PINCH_DELTA, speed)
        jobs.append(Job(name=f"pinching sigma_2 n={n}",
                        call=partial(run_call, _pinching, speed, cone, rng.randrange(2 ** 31)),
                        check=partial(checks.judge, checks.pinching)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# profile-study
# ---------------------------------------------------------------------------

def _profile_cases() -> list[dict]:
    cases = [dict(speed="sigma-k", n=n, k=k, r_max=2.0, extra=[])
             for n in range(3, 7) for k in range(2, n + 1)]
    cases += [dict(speed="harmonic", n=n, k=None, r_max=r_max, extra=[])
              for n in range(3, 7) for r_max in (3.0, 0.45)]
    cases.append(dict(speed="sigma-k", n=2, k=2, r_max=3.0,
                      extra=["--rtol", "1e-13", "--atol", "1e-15"], closed_form=True))
    return cases


def _barrier_names(case: dict) -> tuple[str, ...]:
    if case["speed"] == "harmonic":
        return ("w1", "w2", "w3", "w4", "w5")
    return ("v1", "v2", "v3") if case["k"] < case["n"] else ("v1", "v3")


def _study(i: int, case: dict, workdir: Path) -> list[Job]:
    """solve -> verify soliton, barriers, convexity -> plot for one case."""
    tag = f"{case['speed']} n={case['n']}" + (f" k={case['k']}" if case["k"] else "") \
        + f" rmax={case['r_max']:g}"
    csv = workdir / f"profile{i}.csv"
    harmonic = case["speed"] == "harmonic"
    solve = ["solve", "--speed", case["speed"], "--n", case["n"], "--rmax", case["r_max"],
             *case["extra"], "--out", csv]
    if case["k"]:
        solve[5:5] = ["--k", case["k"]]
    reports = {w: workdir / f"profile{i}.{w}.json" for w in ("soliton", "barriers", "convexity")}
    bars = _barrier_names(case)
    svg = workdir / f"profile{i}.svg"
    family = ("w1_below_du", "du_below_w2", "du_below_w3", "w5_below_du_near_blowup") \
        if harmonic else ("v1_below_du", "du_below_v2", "du_below_v3")
    return [
        _cli_job(f"solve {tag}", solve, checks.solve, (csv, csv.with_suffix(".meta.json")),
                 csv=csv, r_max=case["r_max"], closed_form=case.get("closed_form", False)),
        _cli_job(f"verify soliton {tag}",
                 ["verify", "soliton", "--profile", csv, "--out", reports["soliton"]],
                 checks.soliton, (reports["soliton"],), report=reports["soliton"],
                 harmonic=harmonic),
        _cli_job(f"verify barriers {tag}",
                 ["verify", "barriers", "--profile", csv, "--out", reports["barriers"]],
                 checks.barriers, (reports["barriers"],), report=reports["barriers"],
                 names=family),
        _cli_job(f"verify convexity {tag}",
                 ["verify", "convexity", "--profile", csv, "--alpha", "auto", "--beta", "auto",
                  "--out", reports["convexity"]],
                 checks.convexity, (reports["convexity"],), report=reports["convexity"]),
        _cli_job(f"plot {tag}",
                 ["plot", "--in", csv, "--barriers", ",".join(bars), "--out", svg],
                 checks.plot, (svg,), svg=svg, series=1 + len(bars)),
    ]


def profile_study(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    studies = [_study(i, case, workdir) for i, case in enumerate(_profile_cases())]
    report = workdir / "cylinder.json"
    studies.append([_cli_job("verify cylinder",
                             ["verify", "cylinder", "--samples", CYLINDER_SAMPLES,
                              "--out", report],
                             checks.cylinder, (report,), report=report,
                             samples=CYLINDER_SAMPLES)])
    rng.shuffle(studies)
    return [job for study in studies for job in study]


# ---------------------------------------------------------------------------
# fixed-point
# ---------------------------------------------------------------------------

def rk_reference(R: float) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive-RK slope of the n = 3 harmonic profile on [0, R]."""
    p = profiles.integrate_profile(speeds.harmonic_pairs(3), startup_radius=1e-6, r_max=R,
                                   rtol=1e-12, atol=1e-15, max_step=1e-3)
    return p.r.copy(), p.du.copy()


def fixed_point(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    reference = rk_reference(PICARD_R)
    jobs = []
    for n in range(3, 7):
        out = workdir / f"picard_n{n}.json"
        jobs.append(_cli_job(f"picard n={n} default radius",
                             ["picard", "--n", n, "--seed", rng.randrange(2 ** 31), "--out", out],
                             checks.picard_default, (out, out.with_suffix(".csv")),
                             out_json=out, may_fail=n >= 4))
    for m in PICARD_GRIDS:
        out = workdir / f"picard_m{m}.json"
        jobs.append(_cli_job(f"picard n=3 R={PICARD_R} grid={m}",
                             ["picard", "--n", 3, "--R", PICARD_R, "--grid", m, "--tol", 1e-13,
                              "--max-iter", 600, "--out", out],
                             checks.picard_explicit, (out, out.with_suffix(".csv")),
                             out_json=out, reference=reference))
    rng.shuffle(jobs)
    return jobs


BUILDERS = {"speed-suite": speed_suite, "profile-study": profile_study,
            "fixed-point": fixed_point}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The seeded job list of workload ``name``, writing under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return Workload(name=name, seed=seed, jobs=BUILDERS[name](seed, workdir))
