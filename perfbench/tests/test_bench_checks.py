"""The checker accepts the seed program's outputs and rejects wrong ones."""

import json

import numpy as np
import pytest

import workloads
from checks import Outcome


@pytest.fixture(scope="module")
def closed_form(tmp_path_factory):
    """The sigma_2, n = 2 study, run once."""
    jobs = workloads.profile_study(0, tmp_path_factory.mktemp("profile"))
    study = [job for job in jobs if "n=2 k=2" in job.name]
    assert len(study) == 5
    return [(job, job.call()) for job in study]


def test_closed_form_study_accepted(closed_form):
    for job, outcome in closed_form:
        verdict = job.check(outcome)
        assert verdict.ok and verdict.done, (job.name, verdict.reason)


def test_perturbed_slope_rejected(closed_form):
    job, outcome = closed_form[0]
    csv = job.outputs[0]
    original = csv.read_text()
    try:
        lines = original.splitlines()
        fields = lines[200].split(",")
        fields[2] = repr(float(fields[2]) * (1 + 1e-6))
        lines[200] = ",".join(fields)
        csv.write_text("\n".join(lines) + "\n")
        verdict = job.check(outcome)
        assert not verdict.ok and "closed-form slope error" in verdict.reason
    finally:
        csv.write_text(original)
    assert job.check(outcome).ok


def test_wrong_exit_code_rejected(closed_form):
    for job, outcome in closed_form:
        wrong = Outcome(rc=1 if outcome.rc == 0 else 0, stdout=outcome.stdout,
                        stderr=outcome.stderr)
        assert not job.check(wrong).ok, job.name


def test_traceback_rejected(closed_form):
    job, _ = closed_form[0]
    verdict = job.check(Outcome(error="Traceback ...\nIndexError: list index out of range"))
    assert not verdict.ok and "IndexError" in verdict.reason


def test_plot_must_be_well_formed(closed_form):
    job, outcome = closed_form[-1]
    svg = job.outputs[0]
    original = svg.read_text()
    try:
        svg.write_text(original.replace("</svg>", ""))
        assert not job.check(outcome).ok
    finally:
        svg.write_text(original)


@pytest.fixture(scope="module")
def speed_jobs(tmp_path_factory):
    jobs = workloads.speed_suite(3, tmp_path_factory.mktemp("speed"))
    return {job.name: job for job in jobs}


def test_props_clean_and_quotient_accepted(speed_jobs):
    for name in ("props harmonic --n 3", "props quotient --k 2 --l 1 --n 3"):
        job = speed_jobs[name]
        verdict = job.check(job.call())
        assert verdict.ok and verdict.done, (name, verdict.reason)


def test_props_failing_check_rejected(speed_jobs):
    job = speed_jobs["props harmonic --n 3"]
    outcome = job.call()
    report = job.outputs[0]
    data = json.loads(report.read_text())
    data["checks"]["euler"].update(passed=149, failed=1, worst=1e-3)
    report.write_text(json.dumps(data))
    assert not job.check(outcome).ok
    # round-off misses of radial degeneracy are the known defect: ok, not done
    data["checks"]["euler"].update(passed=150, failed=0, worst=0.0)
    data["checks"]["radial_degeneracy"].update(passed=149, failed=1, worst=3.6e-9)
    report.write_text(json.dumps(data))
    assert not job.check(outcome).ok          # props exits 1 on a failing check
    outcome.rc = 1
    verdict = job.check(outcome)
    assert verdict.ok and not verdict.done
    data["checks"]["radial_degeneracy"].update(passed=100, failed=50, worst=0.2)
    report.write_text(json.dumps(data))
    assert not job.check(outcome).ok


def test_pinching_accepted_and_gated(speed_jobs):
    job = speed_jobs["pinching sigma_2 n=3"]
    outcome = job.call()
    assert job.check(outcome).ok
    estimate, _ = outcome.value
    assert not job.check(Outcome(value=(estimate, 0.0))).ok


@pytest.fixture(scope="module")
def picard_jobs(tmp_path_factory):
    jobs = workloads.fixed_point(5, tmp_path_factory.mktemp("picard"))
    return {job.name: job for job in jobs}


def test_documented_contraction_failure_is_ok_not_done(picard_jobs):
    job = picard_jobs["picard n=4 default radius"]
    outcome = job.call()
    assert outcome.rc == 1
    verdict = job.check(outcome)
    assert verdict.ok and not verdict.done
    other = Outcome(rc=1, stderr="error: something else\n")
    assert not job.check(other).ok


def test_explicit_radius_against_reference(picard_jobs):
    job = picard_jobs["picard n=3 R=0.38 grid=2048"]
    outcome = job.call()
    assert job.check(outcome).ok
    csv = job.outputs[1]
    grid = np.loadtxt(csv, delimiter=",", skiprows=1)
    grid[1:, 1] += 1e-5
    csv.write_text("r,w\n" + "\n".join(f"{float(r)!r},{float(w)!r}" for r, w in grid) + "\n")
    verdict = job.check(outcome)
    assert not verdict.ok and "RK reference" in verdict.reason
