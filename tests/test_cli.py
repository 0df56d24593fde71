"""End-to-end tests of the command-line interface and its exit-code
contract (0 pass, 1 verification failure, 2 usage/input error)."""

import argparse
import functools
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvsol
from curvsol import SpeedSpec, barrier, harmonic_pairs, sigma_k_root
from curvsol import cli, rotgeom, verifier
from curvsol.cli import _speed_from_flags, main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def sigma2_csv(tmp_path):
    out = tmp_path / "sigma2.csv"
    code = run(["solve", "--speed", "sigma-k", "--k", 2, "--n", 2, "--rmax", 3,
                "--rtol", 1e-13, "--atol", 1e-15, "--out", out])
    assert code == 0
    return out


class TestSolve:
    def test_writes_csv_and_sidecar(self, sigma2_csv, tmp_path):
        assert sigma2_csv.exists()
        meta = json.loads((tmp_path / "sigma2.meta.json").read_text())
        assert meta["status"] == "completed"
        assert meta["speed"]["kind"] == "sigma_k_root"

    def test_invalid_combination_usage_error(self, tmp_path):
        code = run(["solve", "--speed", "sigma-k", "--k", 5, "--n", 3,
                    "--out", tmp_path / "x.csv"])
        assert code == 2

    def test_sweep(self, tmp_path):
        out = tmp_path / "hm.csv"
        code = run(["solve", "--speed", "harmonic", "--n", 3, "--sweep", "n=3..4",
                    "--rmax", 0.4, "--out", out])
        assert code == 0
        assert (tmp_path / "hm_n3.csv").exists()
        assert (tmp_path / "hm_n4.csv").exists()

    @pytest.mark.parametrize("sweep, bad", [("n=3", ""), ("n=a..b", "a"), ("n=3..2", "3..2"),
                                            ("k=3..4", "k=3..4")])
    def test_bad_sweep_is_usage_error(self, sweep, bad, tmp_path, capsys):
        assert run(["solve", "--speed", "harmonic", "--n", 3, "--sweep", sweep,
                    "--out", tmp_path / "x.csv"]) == 2
        expected = ("n=LO..HI or LO..HI" if "=" in bad else "a nonempty range" if ".." in bad
                    else "int")
        assert capsys.readouterr().err == f"error: --sweep: expected {expected}, got {bad!r}\n"
        assert not list(tmp_path.iterdir())

    def test_sweep_with_a_bad_n_writes_nothing(self, tmp_path, capsys):
        # n = 5 and 6 integrate; n = 7 does not, so no profile of the sweep is written
        assert run(["solve", "--speed", "harmonic", "--n", 5, "--sweep", "n=5..7",
                    "--rmax", 0.3, "--out", tmp_path / "h.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: harmonic profiles require n in 3..6\n"
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_startup_radius_is_usage_error(self, tmp_path, capsys):
        assert run(["solve", "--speed", "sigma-k", "--k", 2, "--n", 3, "--eps", 1e160,
                    "--rmax", 1e161, "--out", tmp_path / "o.csv"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: startup_radius=1e+160 is too large")
        assert not list(tmp_path.iterdir())

    def test_infinite_rmax_is_usage_error(self, tmp_path, capsys):
        assert run(["solve", "--speed", "sigma-k", "--k", 2, "--n", 3, "--rmax", "inf",
                    "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err.startswith("error: r_max must be finite")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value", [
        ("--rtol", "nan"), ("--rtol", "inf"), ("--atol", "nan"), ("--atol", -1),
        ("--blowup-threshold", "nan"), ("--blowup-threshold", 0), ("--blowup-threshold", -1)])
    def test_bad_tolerance_is_usage_error(self, flag, value, tmp_path, capsys):
        assert run(["solve", "--speed", "sigma-k", "--k", 2, "--n", 3, "--rmax", 1, flag, value,
                    "--out", tmp_path / "x.csv"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag[2:].replace('-', '_')} must")
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    def test_overflowing_slope_ends_in_step_failure_silently(self, tmp_path, capsys):
        # near r = 21.8 the right-hand side overflows, so the profile ends in
        # step_failure at its last row; there u'^3 is past the floats, and the
        # radial curvature of the table reads 0 without a numpy warning
        out = tmp_path / "o.csv"
        assert run(["solve", "--speed", "sigma-k", "--k", 2, "--n", 2, "--rmax", 30,
                    "--blowup-threshold", 1e104, "--out", out]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "status=step_failure" in captured.out
        assert json.loads((tmp_path / "o.meta.json").read_text())["blowup_radius"] is None
        assert run(["verify", "convexity", "--profile", out, "--out", tmp_path / "c.json"]) == 0
        assert capsys.readouterr().err == ""


class TestVerify:
    def test_soliton_pass(self, sigma2_csv, tmp_path):
        rep = tmp_path / "rep.json"
        code = run(["verify", "soliton", "--profile", sigma2_csv, "--tol", 1e-8,
                    "--out", rep])
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["checks"][0]["status"] == "pass"

    def test_corrupted_csv_is_input_error(self, tmp_path):
        bad = tmp_path / "corrupted.csv"
        bad.write_text("r,u,du,ddu\n0.1,nope,0.2,0.3\n")
        assert run(["verify", "soliton", "--profile", bad]) == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert run(["verify", "soliton", "--profile", tmp_path / "none.csv"]) == 2

    def test_short_csv_row_is_input_error(self, sigma2_csv, tmp_path, capsys):
        lines = sigma2_csv.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:3])
        sigma2_csv.write_text("\n".join(lines) + "\n")
        assert run(["verify", "soliton", "--profile", sigma2_csv]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_convexity_auto(self, tmp_path):
        out = tmp_path / "hm3.csv"
        assert run(["solve", "--speed", "harmonic", "--n", 3, "--rmax", 0.45,
                    "--out", out]) == 0
        code = run(["verify", "convexity", "--profile", out, "--alpha", "auto",
                    "--delta", 0.05, "--beta", "auto", "--out", tmp_path / "c.json"])
        assert code == 0

    @pytest.mark.parametrize("hypotheses", [["--alpha", "auto", "--beta", "auto"],
                                            ["--alpha", "auto", "--beta", "0.5"],
                                            ["--alpha", "50", "--beta", "0.5"]])
    def test_convexity_builds_one_curvature_table(self, hypotheses, sigma2_csv, tmp_path,
                                                  monkeypatch):
        calls = []
        build = rotgeom.profile_geometry
        for layer in (rotgeom, curvsol.io, verifier, cli):
            monkeypatch.setattr(layer, "profile_geometry",
                                lambda profile: calls.append(profile) or build(profile),
                                raising=False)
        assert run(["verify", "convexity", "--profile", sigma2_csv, *hypotheses,
                    "--out", tmp_path / "c.json"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("which", ["soliton", "convexity", "barriers"])
    def test_missing_profile_is_usage_error(self, which, capsys):
        assert run(["verify", which]) == 2
        assert capsys.readouterr().err == f"error: verify {which} requires --profile\n"

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_unparsable_hypothesis_is_usage_error(self, flag, sigma2_csv, capsys):
        assert run(["verify", "convexity", "--profile", sigma2_csv, flag, "foo"]) == 2
        assert capsys.readouterr().err == f"error: {flag}: expected float, got 'foo'\n"

    # --alpha defaults to auto, so the --delta cases fit alpha from the profile
    @pytest.mark.parametrize("flag, value", [("--alpha", "-1"), ("--beta", "1.5"),
                                             ("--delta", "0"), ("--delta", "-1"),
                                             ("--delta", "-2"), ("--beta", "-0.2"),
                                             ("--delta", "inf"), ("--alpha", "inf")])
    def test_hypothesis_outside_the_papers_range_is_usage_error(self, flag, value,
                                                                sigma2_csv, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run(["verify", "convexity", "--profile", sigma2_csv, flag, value,
                    "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and flag[2:] in err[0]
        if flag != "--beta":
            assert err[0] == "error: alpha and delta must be finite and > 0"
        assert not out.exists()

    # --alpha and --beta default to auto, and the fit of --alpha overflows;
    # a numpy warning that leaks fails the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extra", [[], ["--alpha", "5"]])
    def test_overflowing_delta_is_usage_error(self, extra, sigma2_csv, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run(["verify", "convexity", "--profile", sigma2_csv, "--delta", "1e308",
                    *extra, "--out", out]) == 2
        assert capsys.readouterr().err == ("error: delta = 1e+308 is too large: "
                                           "the fitted alpha is not finite\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_pinching_side_classifies_silently(self, sigma2_csv, tmp_path, capsys):
        # (delta+1)H overflows to inf, so no sample lies in the pinching cone
        out = tmp_path / "c.json"
        assert run(["verify", "convexity", "--profile", sigma2_csv, "--delta", "1e308",
                    "--alpha", "5", "--beta", "0.5", "--out", out]) == 0
        assert capsys.readouterr().err == ""
        check, = json.loads(out.read_text())["checks"]
        assert check["status"] == "skipped"

    def test_harmonic_soliton_residual_is_reported_as_failure(self, tmp_path):
        # the harmonic slope equation is not the geometric soliton equation
        # for the harmonic speed; verify reports that honestly with exit 1
        out = tmp_path / "hm3.csv"
        assert run(["solve", "--speed", "harmonic", "--n", 3, "--rmax", 0.45,
                    "--out", out]) == 0
        code = run(["verify", "soliton", "--profile", out, "--tol", 1e-7,
                    "--out", tmp_path / "s.json"])
        assert code == 1

    def test_cylinder(self, tmp_path):
        code = run(["verify", "cylinder", "--zmin", -0.5, "--zmax", 3, "--samples", 50,
                    "--tol", 1e-9, "--out", tmp_path / "cyl.json"])
        assert code == 0

    def test_cylinder_far_heights_are_checked(self, tmp_path):
        out = tmp_path / "cyl.json"
        assert run(["verify", "cylinder", "--zmin", 0, "--zmax", 1e55, "--samples", 3,
                    "--out", out]) == 0
        check, = json.loads(out.read_text())["checks"]
        assert (check["status"], check["detail"]) == ("pass", "checked 3, skipped 0")

    def test_cylinder_heights_past_the_overflow_end_are_skipped(self, tmp_path):
        # e^{r^2} overflows a float past z of about 5.0e152
        out = tmp_path / "cyl.json"
        assert run(["verify", "cylinder", "--zmin", 0, "--zmax", 1e300, "--samples", 3,
                    "--out", out]) == 0
        check, = json.loads(out.read_text())["checks"]
        assert (check["status"], check["detail"]) == ("pass", "checked 1, skipped 2")

    @pytest.mark.parametrize("flag, value", [("--zmin", "nan"), ("--zmax", "inf")])
    def test_cylinder_non_finite_height_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "cyl.json"
        assert run(["verify", "cylinder", flag, value, "--samples", 3, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --zmin and --zmax must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("samples", [0, -2])
    def test_cylinder_samples_below_one_is_usage_error(self, tmp_path, capsys, samples):
        out = tmp_path / "cyl.json"
        assert run(["verify", "cylinder", "--samples", samples, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --samples")
        assert not out.exists()

    @pytest.mark.parametrize("which, tol", [("cylinder", "nan"), ("cylinder", "inf"),
                                            ("soliton", -1), ("soliton", "nan"),
                                            ("convexity", "nan"), ("barriers", -5)])
    def test_bad_tol_is_usage_error(self, which, tol, sigma2_csv, tmp_path, capsys):
        out = tmp_path / "v.json"
        assert run(["verify", which, "--profile", sigma2_csv, "--samples", 3, "--tol", tol,
                    "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: tol must be finite and >= 0")
        assert not out.exists()

    def test_barriers(self, sigma2_csv, tmp_path):
        code = run(["verify", "barriers", "--profile", sigma2_csv,
                    "--out", tmp_path / "b.json"])
        assert code == 0

    def test_barrier_with_no_sample_in_its_domain_is_reported_skipped(self, tmp_path):
        # the profile starts at r = 0.7, past the ends of w2's and w3's domains
        csv, report = tmp_path / "late.csv", tmp_path / "b.json"
        assert run(["solve", "--speed", "harmonic", "--n", 3, "--eps", 0.7, "--rmax", 1,
                    "--out", csv]) == 0
        assert run(["verify", "barriers", "--profile", csv, "--out", report]) == 0
        entries = {e["name"]: e for e in json.loads(report.read_text())["checks"]}
        assert list(entries) == ["w1_below_du", "du_below_w2", "du_below_w3",
                                 "w5_below_du_near_blowup"]
        assert entries["du_below_w2"]["status"] == "skipped"
        assert entries["du_below_w2"]["detail"] == "no sample in w2's domain [0, 0.461538461538]"

    def test_w5_entry_is_skipped_as_refuted_after_a_blowup_stop(self, tmp_path):
        # a low threshold stops the harmonic profile early with a blow-up radius;
        # w5 lies above w3 >= u' there too, so its lower-bound entry is skipped
        csv, report = tmp_path / "hm3.csv", tmp_path / "b.json"
        assert run(["solve", "--speed", "harmonic", "--n", 3, "--rmax", 3,
                    "--blowup-threshold", 0.8, "--out", csv]) == 0
        assert json.loads((tmp_path / "hm3.meta.json").read_text())["blowup_radius"] is not None
        assert run(["verify", "barriers", "--profile", csv, "--out", report]) == 0
        entries = {e["name"]: e for e in json.loads(report.read_text())["checks"]}
        w5 = entries["w5_below_du_near_blowup"]
        assert w5["status"] == "skipped" and w5["detail"].startswith("refuted")


class TestProps:
    def test_harmonic_clean(self, tmp_path):
        rep = tmp_path / "props.json"
        code = run(["props", "--speed", "harmonic", "--n", 4, "--samples", 200,
                    "--seed", 42, "--out", rep])
        assert code == 0
        payload = json.loads(rep.read_text())
        assert all(c["failed"] == 0 for c in payload["checks"].values())

    def test_quotient_warns_but_exits_zero(self, tmp_path, capsys):
        rep = tmp_path / "props.json"
        code = run(["props", "--speed", "quotient", "--k", 2, "--l", 1, "--n", 3,
                    "--samples", 200, "--seed", 42, "--out", rep])
        assert code == 0
        assert "boundary-vanishing" in capsys.readouterr().err
        payload = json.loads(rep.read_text())
        assert payload["checks"]["boundary_vanishing"]["failed"] > 0

    @pytest.mark.parametrize("flags, failing, code, warns", [
        (["--speed", "sigma-k", "--k", 2], ["euler"], 1, False),
        (["--speed", "quotient", "--k", 2, "--l", 1], ["boundary_vanishing"], 0, True),
        (["--speed", "quotient", "--k", 2, "--l", 1], ["boundary_vanishing", "euler"], 1, False),
    ])
    def test_exit_code_from_the_failing_checks(self, flags, failing, code, warns, monkeypatch,
                                               tmp_path, capsys):
        # only a quotient whose sole failure is boundary_vanishing passes
        from curvsol import cli
        from curvsol.speeds import CheckStat
        names = ("euler", "boundary_vanishing", "positivity")
        checks = {name: CheckStat(passed=5, failed=int(name in failing)) for name in names}
        monkeypatch.setattr(cli, "check_properties", lambda spec, sample_count, seed: checks)
        assert run(["props", *flags, "--n", 3, "--out", tmp_path / "p.json"]) == code
        err = capsys.readouterr().err
        assert ("warning: boundary-vanishing not satisfied" in err) == warns

    def test_product(self, tmp_path):
        code = run(["props", "--speed", "product", "--n", 3,
                    "--factors", "sigma-k:2,sigma-k:1", "--weights", "0.5,0.5",
                    "--samples", 150, "--seed", 1, "--out", tmp_path / "p.json"])
        assert code == 0

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run(["props", "--speed", "sigma-k", "--n", 3, "--k", 2, "--seed", -1,
                    "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: seed must be >= 0, got -1"]
        assert not out.exists()

    def test_cone_too_thin_to_sample_is_usage_error(self, tmp_path, capsys):
        # Gamma_10 at n = 20 holds too little of the half-sphere sum lambda > 0
        out = tmp_path / "p.json"
        assert run(["props", "--speed", "sigma-k", "--n", 20, "--k", 10, "--samples", 5,
                    "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: no interior sample found for sigma_10^(1/10) at n=20 after ")
        assert not out.exists()

    @pytest.mark.parametrize("n", [12, 16])
    def test_positive_cone_samples_at_any_n(self, n, tmp_path):
        # Gamma_n holds 2^-n of the unit sphere, all of its positive orthant
        out = tmp_path / "p.json"
        assert run(["props", "--speed", "sigma-k", "--n", n, "--k", n, "--samples", 5,
                    "--seed", 0, "--out", out]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert [name for name, c in checks.items() if c["failed"]] == []

    @pytest.mark.parametrize("flags", [["--speed", "harmonic", "--n", 16],
                                       ["--speed", "harmonic", "--n", 20],
                                       ["--speed", "sigma-k", "--n", 20, "--k", 19]],
                             ids=["harmonic-16", "harmonic-20", "sigma-19-20"])
    def test_pair_cone_samples_at_large_n(self, flags, tmp_path):
        # the pair fold fills the 2-convex cone, which holds Gamma_{n-1}; the
        # half-space fold found none of these cones' rows in 20,000 draws
        out = tmp_path / "p.json"
        assert run(["props", *flags, "--samples", 5, "--seed", 0, "--out", out]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert [name for name, c in checks.items() if c["failed"]] == []

    @pytest.mark.parametrize("factors, weights", [
        pytest.param("sigma-k", None, id="sigma-k"),
        pytest.param("sigma-k:2,mean", None, id="sigma-k:2,mean"),
        pytest.param("sigma-k:x", None, id="sigma-k:x"),
        pytest.param("sigma-k:2,sigma-k:1", "a,b", id="sigma-k:2,sigma-k:1-weights-a,b"),
        pytest.param("sigma-k:2", "nan", id="sigma-k:2-weights-nan"),
    ])
    def test_bad_product_factor_is_usage_error(self, factors, weights, tmp_path, capsys):
        extra = ["--weights", weights] if weights else []
        assert run(["props", "--speed", "product", "--n", 3, "--factors", factors, *extra,
                    "--out", tmp_path / "p.json"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


# the 25 speeds of the speed suite: 18 k-th roots, 4 harmonic, 2 quotients, 1 product
_SUITE_FLAGS = (
    [(dict(name="sigma-k", n=n, k=k), sigma_k_root(k, n))
     for n in range(3, 7) for k in range(1, n + 1)]
    + [(dict(name="harmonic", n=n), harmonic_pairs(n)) for n in range(3, 7)]
    + [(dict(name="quotient", n=3, k=2, l=1), SpeedSpec("quotient", 3, 2, 1)),
       (dict(name="quotient", n=4, k=3, l=1), SpeedSpec("quotient", 4, 3, 1)),
       (dict(name="product", n=3, factors="sigma-k:2,sigma-k:1"),
        SpeedSpec("product", 3, factors=(sigma_k_root(2, 3), sigma_k_root(1, 3)),
                  weights=(0.5, 0.5)))])
# flags the named kind does not read are ignored
_STRAY_FLAGS = [
    (dict(name="harmonic", n=4, k=3), harmonic_pairs(4)),
    (dict(name="sigma-k", n=4, k=2, l=1), sigma_k_root(2, 4)),
    (dict(name="quotient", n=4, k=3, l=1, factors="sigma-k:x", weights="a"),
     SpeedSpec("quotient", 4, 3, 1)),
    (dict(name="harmonic", n=3, factors="sigma-k:2", weights="1"), harmonic_pairs(3)),
    (dict(name="product", n=4, k=2, l=1, factors="harmonic:3, sigma-k:2", weights="0.25,0.75"),
     SpeedSpec("product", 4, factors=(harmonic_pairs(4), sigma_k_root(2, 4)),
               weights=(0.25, 0.75))),
]


@pytest.mark.parametrize("flags, expected", _SUITE_FLAGS + _STRAY_FLAGS)
def test_flags_build_the_factory_speed(flags, expected):
    assert _speed_from_flags(**flags) == expected


@pytest.mark.parametrize("argv", [
    ["props", "--speed", "sigma-k", "--n", 3, "--k", 2, "--samples", 10, "--out"],
    ["solve", "--speed", "sigma-k", "--k", 2, "--n", 3, "--rmax", 0.3, "--out"],
    ["verify", "soliton", "--profile"],
], ids=["props-out", "solve-out", "verify-profile"])
def test_directory_path_is_input_error(argv, tmp_path, capsys):
    assert run(argv + [tmp_path]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--speed", "sigma-k", "--k", 2, "--n", 3, "--rmax", 0.3, "--out", ""], "--out"),
    (["verify", "cylinder", "--samples", 3, "--out", ""], "--out"),
    (["props", "--speed", "sigma-k", "--n", 3, "--k", 2, "--samples", 10, "--out", ""], "--out"),
    (["barriers", "--names", "w3", "--n", 3, "--count", 3, "--out", ""], "--out"),
    (["picard", "--n", 3, "--R", 0.1, "--grid", 65, "--out", ""], "--out"),
    (["picard", "--n", 3, "--R", 0.1, "--grid", 65, "--fixed-point-csv", ""],
     "--fixed-point-csv"),
    (["plot", "--in", "p.csv", "--out", ""], "--out"),
], ids=["solve", "verify", "props", "barriers", "picard-out", "picard-fixed-point-csv", "plot"])
def test_empty_out_is_usage_error(argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {flag} must not be empty\n")
    assert not any(tmp_path.iterdir())


def test_import_leaves_scipy_unloaded():
    # in a fresh interpreter: pytest's filterwarnings setting imports scipy.integrate here
    code = ("import sys, curvsol.cli; "
            "print(sorted({'scipy.integrate', 'scipy.optimize'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(curvsol.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


@pytest.mark.parametrize("which", ["soliton", "barriers", "convexity", "plot"])
def test_sidecar_n_disagreeing_with_its_speed_is_input_error(which, tmp_path, capsys):
    csv, fig = tmp_path / "hm3.csv", tmp_path / "fig.svg"
    assert run(["solve", "--speed", "harmonic", "--n", 3, "--rmax", 0.45, "--out", csv]) == 0
    side = tmp_path / "hm3.meta.json"
    side.write_text(json.dumps({**json.loads(side.read_text()), "n": 5}))
    capsys.readouterr()
    argv = (["plot", "--in", csv, "--barriers", "w1,w3", "--out", fig] if which == "plot"
            else ["verify", which, "--profile", csv])
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and not fig.exists()
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(side) in err[0]
    assert err[0].count("metadata sidecar") == 1


@pytest.mark.parametrize("key", ["n", "speed", "k", "startup_slope", "startup_radius",
                                 "blowup_radius", "status", "tolerances"])
def test_sidecar_missing_a_key_is_input_error(key, tmp_path, capsys):
    csv = tmp_path / "hm3.csv"
    assert run(["solve", "--speed", "harmonic", "--n", 3, "--rmax", 0.45, "--out", csv]) == 0
    side = tmp_path / "hm3.meta.json"
    metadata = json.loads(side.read_text())
    del metadata[key]
    side.write_text(json.dumps(metadata))
    capsys.readouterr()
    assert run(["verify", "soliton", "--profile", csv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: metadata sidecar {side}: missing key {key!r}\n"


@pytest.mark.parametrize("changes, key", [
    ({"k": 7}, "k"), ({"startup_slope": 9.0}, "startup_slope"),
    ({"startup_radius": 0.5}, "startup_radius"), ({"blowup_radius": 0.5}, "blowup_radius"),
    ({"status": "blew_up"}, "blowup_radius")],
    ids=["k", "startup_slope", "startup_radius", "blowup_radius", "status"])
def test_sidecar_value_differing_from_the_profile_is_input_error(changes, key, tmp_path, capsys):
    # a blown-up profile ends at its blow-up radius, so status blew_up needs one
    csv = tmp_path / "s3.csv"
    assert run(["solve", "--speed", "sigma-k", "--k", 2, "--n", 3, "--rmax", 0.5,
                "--out", csv]) == 0
    side = tmp_path / "s3.meta.json"
    side.write_text(json.dumps({**json.loads(side.read_text()), **changes}))
    capsys.readouterr()
    assert run(["verify", "soliton", "--profile", csv]) == 2
    out, err = capsys.readouterr()
    err = err.splitlines()
    assert out == "" and len(err) == 1
    assert err[0].startswith(f"error: metadata sidecar {side}: {key} = ")


@pytest.mark.parametrize("which", ["soliton", "plot"])
@pytest.mark.parametrize("column, value", [("du", "nan"), ("r", "inf")])
def test_non_finite_profile_value_is_input_error(which, column, value, tmp_path, capsys):
    csv, fig = tmp_path / "s3.csv", tmp_path / "fig.svg"
    assert run(["solve", "--speed", "sigma-k", "--k", 2, "--n", 3, "--rmax", 0.5,
                "--out", csv]) == 0
    lines = csv.read_text().splitlines(keepends=True)
    fields = lines[3].split(",")
    fields[lines[0].split(",").index(column)] = value
    lines[3] = ",".join(fields)
    csv.write_text("".join(lines))
    capsys.readouterr()
    argv = (["plot", "--in", csv, "--barriers", "v1,v3", "--out", fig] if which == "plot"
            else ["verify", which, "--profile", csv])
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and not fig.exists()
    assert err == f"error: {csv}: line 4: {column} is not finite\n"


@pytest.mark.parametrize("key, value", [
    ("startup_slope", "x"), ("blowup_radius", "y"), ("speed.k", "2"), ("speed.k", 2.5),
    ("speed.n", "abc"), ("speed.n", 3.7), ("speed", "sigma"), ("tolerances", [1, 2]),
    ("", [1, 2])])
def test_sidecar_value_of_the_wrong_type_is_input_error(key, value, tmp_path, capsys):
    csv = tmp_path / "s3.csv"
    assert run(["solve", "--speed", "sigma-k", "--k", 2, "--n", 3, "--rmax", 0.5,
                "--out", csv]) == 0
    side = tmp_path / "s3.meta.json"
    metadata = json.loads(side.read_text())
    if not key:
        metadata = value
    elif key.startswith("speed."):
        metadata["speed"][key[6:]] = value
    else:
        metadata[key] = value
    side.write_text(json.dumps(metadata))
    capsys.readouterr()
    assert run(["verify", "soliton", "--profile", csv]) == 2
    out, err = capsys.readouterr()
    err = err.splitlines()
    assert out == "" and len(err) == 1
    assert err[0].startswith(f"error: metadata sidecar {side}: ")


def test_sidecar_product_weight_that_is_not_a_number_is_input_error(tmp_path, capsys):
    csv = tmp_path / "s3.csv"
    assert run(["solve", "--speed", "sigma-k", "--k", 2, "--n", 3, "--rmax", 0.5,
                "--out", csv]) == 0
    side = tmp_path / "s3.meta.json"
    metadata = json.loads(side.read_text())
    metadata["speed"] = {"kind": "product", "n": 3, "weights": ["1"],
                         "factors": [{"kind": "sigma_k_root", "n": 3, "k": 1}]}
    side.write_text(json.dumps(metadata))
    capsys.readouterr()
    assert run(["verify", "soliton", "--profile", csv]) == 2
    out, err = capsys.readouterr()
    err = err.splitlines()
    assert out == "" and len(err) == 1
    assert err[0].startswith(f"error: metadata sidecar {side}: product weights must be real")


def test_sidecar_that_is_not_json_is_input_error(tmp_path, capsys):
    csv = tmp_path / "hm3.csv"
    assert run(["solve", "--speed", "harmonic", "--n", 3, "--rmax", 0.45, "--out", csv]) == 0
    side = tmp_path / "hm3.meta.json"
    side.write_text('{"n": 3,\n')
    capsys.readouterr()
    assert run(["verify", "soliton", "--profile", csv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: metadata sidecar {side}: ")


@pytest.mark.parametrize("which, line", [("soliton", 1), ("plot", 5)])
def test_profile_csv_byte_that_is_not_utf8_is_input_error(which, line, tmp_path, capsys):
    csv, fig = tmp_path / "s3.csv", tmp_path / "fig.svg"
    assert run(["solve", "--speed", "sigma-k", "--k", 2, "--n", 3, "--rmax", 0.5,
                "--out", csv]) == 0
    lines = csv.read_bytes().split(b"\n")
    lines[line - 1] += b"\xff"            # the header, or a body row
    csv.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    argv = (["plot", "--in", csv, "--out", fig] if which == "plot"
            else ["verify", which, "--profile", csv])
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and not fig.exists()
    assert err == f"error: {csv}: line {line}: byte 0xff is not UTF-8\n"


def test_sidecar_byte_that_is_not_utf8_is_input_error(tmp_path, capsys):
    csv = tmp_path / "hm3.csv"
    assert run(["solve", "--speed", "harmonic", "--n", 3, "--rmax", 0.45, "--out", csv]) == 0
    side = tmp_path / "hm3.meta.json"
    side.write_bytes(side.read_bytes().replace(b'"n"', b'"n\xff"'))
    capsys.readouterr()
    assert run(["verify", "soliton", "--profile", csv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: metadata sidecar {side}: ")


class TestBarriersCmd:
    def test_table(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run(["barriers", "--names", "w3,w5", "--n", 3, "--rmax", 0.5,
                    "--count", 50, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,w3,w5"
        assert len(lines) == 51

    def test_nan_radius_is_usage_error(self, tmp_path, capsys):
        # the flag is blamed, not the barrier evaluated at r=nan
        out = tmp_path / "w.csv"
        assert run(["barriers", "--names", "w3", "--n", 3, "--rmin", "nan", "--count", 3,
                    "--out", out]) == 2
        assert capsys.readouterr().err == "error: --rmin must be finite, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("names", ["w1", "w3"])
    def test_nan_rmax_is_usage_error(self, names, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert run(["barriers", "--names", names, "--n", 3, "--rmax", "nan", "--count", 3,
                    "--out", out]) == 2
        assert capsys.readouterr().err == "error: --rmax must not be nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--rmax", "inf"), ("--rmin", "-inf")])
    def test_infinite_range_end_is_usage_error(self, flag, value, tmp_path, capsys):
        # w1 has no right end, so neither end of the range is finite
        out = tmp_path / "w.csv"
        assert run(["barriers", "--names", "w1", "--n", 3, f"{flag}={value}", "--count", 3,
                    "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} must be finite")
        assert not out.exists()

    def test_infinite_rmax_is_capped_by_a_bounded_barrier(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["barriers", "--names", "w1,w3", "--n", 3, "--rmax", "inf", "--count", 3,
                    "--out", out]) == 0
        assert float(out.read_text().splitlines()[-1].split(",")[0]) < barrier("w3", 3).r_end

    @pytest.mark.parametrize("a", ["1e-200", "1e200"])
    def test_w5_a_out_of_float_range_is_usage_error(self, a, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert run(["barriers", "--names", "w5", "--n", 3, "--a", a, "--count", 3,
                    "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: barrier w5 requires a finite a > 0")
        assert not out.exists()

    def test_rmin_above_rmax_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert run(["barriers", "--names", "w3", "--n", 3, "--rmin", 0.5, "--rmax", 0.1,
                    "--count", 3, "--out", out]) == 2
        assert capsys.readouterr().err == "error: --rmin must not exceed --rmax, got 0.5 > 0.1\n"
        assert not out.exists()

    def test_negative_rmin_is_usage_error(self, tmp_path, capsys):
        # the flag is blamed, not the barrier that the range would leave
        out = tmp_path / "w.csv"
        assert run(["barriers", "--names", "w3", "--n", 3, "--rmin", -0.1, "--count", 3,
                    "--out", out]) == 2
        assert capsys.readouterr().err == "error: --rmin must be >= 0, got -0.1\n"
        assert not out.exists()

    def test_rmin_past_a_barrier_end_is_usage_error(self, tmp_path, capsys):
        # w3 ends at 1/c = 0.5714 for n = 3, left of both --rmin and --rmax
        out = tmp_path / "w.csv"
        assert run(["barriers", "--names", "w1,w3", "--n", 3, "--rmin", 0.7, "--rmax", 1,
                    "--count", 3, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: --rmin must lie below the end of w3's domain, 0.571428571429, got 0.7\n")
        assert not out.exists()

    @pytest.mark.parametrize("n", [2, 7])
    def test_harmonic_barrier_outside_n_3_to_6_is_usage_error(self, n, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert run(["barriers", "--names", "w3", "--n", n, "--out", out]) == 2
        assert "n in 3..6" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_table_equals_pointwise_evaluation(self, n, tmp_path, capsys):
        # the table evaluates each barrier on the whole radius array; every
        # entry must equal the barrier evaluated at that radius alone
        cases = [(name, k) for name in ("v1", "v2", "v3") for k in range(1, n + 1)
                 if name != "v2" or k < n]
        cases += [(name, None) for name in ("w1", "w2", "w3", "w4", "w5") if n >= 3]
        for name, k in cases:
            b = barrier(name, n, k=k)
            r = np.linspace(0.0, min(1.0, b.r_end * (1.0 - 1e-9)), 200)
            expected = f"r,{name}\n" + "".join(
                f'{format(ri, ".17g")},{format(b(float(ri)), ".17g")}\n' for ri in r)
            flags = ["barriers", "--names", name, "--n", n] + (["--k", k] if k else [])
            out = tmp_path / f"{name}_{k}.csv"
            assert run([*flags, "--out", out]) == 0
            assert out.read_text() == expected, (name, k)
            capsys.readouterr()
            assert run(flags) == 0
            assert capsys.readouterr().out == expected, (name, k)

    def test_unknown_name_is_usage_error(self, tmp_path, capsys):
        assert run(["barriers", "--names", "w3,w9", "--n", 3, "--out", tmp_path / "w.csv"]) == 2
        assert "w9" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_is_usage_error(self, count, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert run(["barriers", "--names", "w3", "--n", 3, "--count", count, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: --count must be >= 1, got {count}\n"
        assert not out.exists()

    def test_overflowing_barrier_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert run(["barriers", "--names", "w1", "--n", 6, "--rmax", 1e308, "--count", 3,
                    "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: barrier w1 overflows")
        assert not out.exists()

    @pytest.mark.parametrize("names", ["v1", "w1,v3"])
    def test_sigma_k_barrier_without_k_is_usage_error(self, names, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert run(["barriers", "--names", names, "--n", 3, "--count", 3, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --k is required by barriers v1, v2, v3, got --names {names}"]
        assert not out.exists()

    def test_count_one_is_the_left_end(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["barriers", "--names", "w3", "--n", 3, "--rmin", 0.25, "--count", 1,
                    "--out", out]) == 0
        assert out.read_text() == "r,w3\n0.25,%.17g\n" % barrier("w3", 3)(0.25)


class TestPicardCmd:
    def test_converged_log(self, tmp_path):
        out = tmp_path / "picard.json"
        code = run(["picard", "--n", 3, "--grid", 256, "--tol", 1e-10, "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["converged"]
        assert payload["fixed_point_csv_path"].endswith(".csv")
        assert all(it["contraction_ratio"] is None or it["contraction_ratio"] < 1.0
                   for it in payload["iterations"])

    def test_converges_for_n_4_to_6(self, tmp_path):
        # Newton's method converges where the undamped iteration cycled
        # near the axis
        for n in (4, 5, 6):
            out = tmp_path / f"picard{n}.json"
            assert run(["picard", "--n", n, "--grid", 256, "--out", out]) == 0
            payload = json.loads(out.read_text())
            assert payload["converged"]
            ratios = [it["contraction_ratio"] for it in payload["iterations"][1:]]
            assert ratios and max(ratios) < 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag, value", [
        ("--max-iter", 0), ("--max-iter", -3), ("--tol", -1), ("--tol", 0),
        ("--tol", "nan"), ("--tol", "inf"), ("--seed", -1), ("--R", "5e-324")])
    def test_bad_limits_are_usage_errors(self, tmp_path, capsys, flag, value):
        out = tmp_path / "picard.json"
        assert run(["picard", "--n", 3, "--grid", 256, flag, value, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert flag[2:].replace("-", "_") in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("n, radius", [(7, []), (7, ["--R", 0.1]), (2, ["--R", 0.1])],
                             ids=["default-radius", "explicit-radius", "below"])
    def test_n_out_of_range_names_the_flag(self, tmp_path, capsys, n, radius):
        # the default radius fails first in lipschitz_radius, an explicit one
        # in picard_solve: one message, naming the flag and its value
        out = tmp_path / "picard.json"
        assert run(["picard", "--n", n, *radius, "--out", out]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: --n must lie in 3..6, got {n}"]
        assert not out.exists()

    def test_max_iter_without_convergence_says_so(self, tmp_path, capsys):
        out = tmp_path / "picard.json"
        assert run(["picard", "--n", 3, "--R", 0.1, "--grid", 64, "--tol", 1e-300,
                    "--max-iter", 2, "--out", out]) == 1
        payload = json.loads(out.read_text())
        assert not payload["converged"] and len(payload["iterations"]) == 2
        last = payload["iterations"][-1]["sup_change"]
        assert capsys.readouterr().err.splitlines() == [
            f"error: not converged after 2 iterations, last sup_change {last:.6g}"]


class TestPlot:
    def test_barrier_overlay(self, tmp_path):
        hm = tmp_path / "hm3.csv"
        assert run(["solve", "--speed", "harmonic", "--n", 3, "--rmax", 0.45,
                    "--out", hm]) == 0
        fig = tmp_path / "fig3.svg"
        assert run(["plot", "--in", hm, "--barriers", "w3,w5", "--out", fig]) == 0
        text = fig.read_text()
        assert text.startswith("<svg")
        assert "w5" in text

    def test_revolve(self, sigma2_csv, tmp_path):
        fig = tmp_path / "fig1.svg"
        assert run(["plot", "--in", sigma2_csv, "--revolve", "--out", fig]) == 0
        assert fig.read_text().startswith("<svg")

    def test_barriers_with_revolve_is_usage_error(self, sigma2_csv, tmp_path, capsys):
        # barriers are slopes and the silhouette plots u, so nothing could be overlaid
        fig = tmp_path / "rv.svg"
        assert run(["plot", "--in", sigma2_csv, "--barriers", "v1,v2", "--revolve",
                    "--out", fig]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "--barriers" in err[0] and "--revolve" in err[0]
        assert not fig.exists()

    @pytest.mark.parametrize("speed, barriers, family", [
        (["sigma-k", "--k", 2], "w4", "sigma_k_root profile are v1, v2, v3"),
        (["harmonic"], "w1,v1", "harmonic_pairs profile are w1, w2, w3, w4, w5"),
    ], ids=["w-on-sigma-k", "v-on-harmonic"])
    def test_barrier_of_another_family_is_usage_error(self, speed, barriers, family,
                                                       tmp_path, capsys):
        csv, fig = tmp_path / "p.csv", tmp_path / "p.svg"
        assert run(["solve", "--speed", *speed, "--n", 3, "--rmax", 1, "--out", csv]) == 0
        capsys.readouterr()
        assert run(["plot", "--in", csv, "--barriers", barriers, "--out", fig]) == 2
        stray = barriers.split(",")[-1]
        assert capsys.readouterr().err.splitlines() == [
            f"error: --barriers {stray}: the barriers of a {family}"]
        assert not fig.exists()

    def test_deterministic_bytes(self, sigma2_csv, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(["plot", "--in", sigma2_csv, "--barriers", "v1", "--out", a])
        run(["plot", "--in", sigma2_csv, "--barriers", "v1", "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_barrier_missing_every_row_is_left_out(self, tmp_path):
        # the profile starts at r = 2, past the end sqrt(3) of v3's domain,
        # so v3 draws nothing and only du and v1 are drawn
        csv, fig = tmp_path / "s.csv", tmp_path / "fig.svg"
        assert run(["solve", "--speed", "sigma-k", "--n", 3, "--k", 2, "--eps", 2,
                    "--rmax", 3, "--out", csv]) == 0
        assert barrier("v3", 3, k=2).r_end < 2.0
        assert run(["plot", "--in", csv, "--barriers", "v1,v3", "--out", fig]) == 0
        text = fig.read_text()
        assert text.count("<polyline") == 2
        assert "v1" in text and "v3" not in text

    def test_empty_csv_is_input_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("r,u,du,ddu,lambda1,lambda2,gamma,tilt,residual\n")
        assert run(["plot", "--in", empty, "--out", tmp_path / "x.svg"]) == 2


class TestConfig:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rmax": 0.4, "n": 3}))
        out = tmp_path / "a.csv"
        code = run(["--config", cfg, "solve", "--speed", "harmonic", "--n", 4,
                    "--out", out])
        assert code == 0
        meta = json.loads((tmp_path / "a.meta.json").read_text())
        assert meta["n"] == 4                       # flag wins
        back = meta["tolerances"]
        assert back["rtol"] == 1e-10                # untouched default
        import numpy as np
        from curvsol.io import read_profile_csv
        prof = read_profile_csv(out)
        assert prof.r[-1] == pytest.approx(0.4)     # config-supplied rmax

    def test_config_equals_form(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rmax": 0.4}))
        out = tmp_path / "c.csv"
        assert run([f"--config={cfg}", "solve", "--speed", "harmonic", "--n", 3,
                    "--out", out]) == 0
        assert out.read_text().splitlines()[-1].split(",")[0] == "0.40000000000000002"

    def test_config_without_value_is_usage_error(self, capsys):
        assert run(["props", "--speed", "harmonic", "--n", 3, "--config"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rmax": 0.4, "r_maximum": 3}))
        assert run(["--config", cfg, "solve", "--speed", "harmonic", "--n", 3,
                    "--out", tmp_path / "a.csv"]) == 2
        assert "r_maximum" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("key, value, argv", [
        ("rmax", [1], ["solve", "--speed", "harmonic", "--n", 3]),
        ("rmax", None, ["solve", "--speed", "harmonic", "--n", 3]),
        ("rmax", True, ["solve", "--speed", "harmonic", "--n", 3]),
        ("samples", 2.5, ["props", "--speed", "harmonic", "--n", 3]),
        ("grid", 100.5, ["picard", "--n", 3, "--R", 0.3])])
    def test_config_value_of_the_wrong_type_is_usage_error(self, key, value, argv, tmp_path,
                                                           capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "a.out"
        cfg.write_text(json.dumps({key: value}))
        assert run(["--config", cfg, *argv, "--out", out]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_config_bool_sets_an_on_off_flag(self, sigma2_csv, tmp_path):
        cfg, on, off = tmp_path / "cfg.json", tmp_path / "on.svg", tmp_path / "off.svg"
        cfg.write_text(json.dumps({"revolve": True}))
        assert run(["--config", cfg, "plot", "--in", sigma2_csv, "--out", on]) == 0
        assert run(["plot", "--in", sigma2_csv, "--revolve", "--out", off]) == 0
        assert on.read_bytes() == off.read_bytes()
        cfg.write_text(json.dumps({"revolve": "yes"}))
        assert run(["--config", cfg, "plot", "--in", sigma2_csv, "--out", off]) == 2

    @pytest.mark.parametrize("content", [None, "[1]"])
    def test_missing_or_non_object_config_is_usage_error(self, content, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "a.csv"
        if content is not None:
            cfg.write_text(content)
        assert run(["--config", cfg, "solve", "--speed", "harmonic", "--n", 3,
                    "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert ("expected a JSON object" if content else "cannot read config") in err[0]
        assert not out.exists()

    def test_config_byte_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "a.csv"
        cfg.write_bytes(b'{"rmax": 0.4}\xff')
        assert run(["--config", cfg, "solve", "--speed", "harmonic", "--n", 3,
                    "--out", out]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1
        assert err[0].startswith(f"error: cannot read config {cfg}: ")
        assert not out.exists()

    def test_key_of_another_command_is_accepted(self, tmp_path):
        # samples is a verify and props flag: the config is checked against every command
        cfg, out = tmp_path / "cfg.json", tmp_path / "a.csv"
        cfg.write_text(json.dumps({"rmax": 0.4, "samples": 5}))
        assert run(["--config", cfg, "solve", "--speed", "harmonic", "--n", 3, "--out", out]) == 0
        assert out.read_text().splitlines()[-1].split(",")[0] == "0.40000000000000002"

    @pytest.mark.parametrize("form", ["--conf", "--conf="])
    def test_abbreviated_option(self, form, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "a.csv"
        cfg.write_text(json.dumps({"rmax": 0.4}))
        flag = [f"{form}{cfg}"] if form.endswith("=") else [form, cfg]
        assert run([*flag, "solve", "--speed", "harmonic", "--n", 3, "--out", out]) == 0
        assert out.read_text().splitlines()[-1].split(",")[0] == "0.40000000000000002"


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["curvsol", "barriers", "--names", "w1", "--n", "3",
                                      "--rmax", "0.5", "--count", "2"])
    assert main() == 0
    assert capsys.readouterr().out == "r,w1\n0,0\n0.5,%.17g\n" % barrier("w1", 3)(0.5)


# stdout, stderr and exit code of the help and the usage errors, recorded when one
# parser held every command: building one command's parser must not change them
_USAGE_GOLDEN = json.loads((Path(__file__).parent / "cli_usage_golden.json").read_text())


@pytest.mark.parametrize("case", _USAGE_GOLDEN,
                         ids=[" ".join(c["argv"]) or "(none)" for c in _USAGE_GOLDEN])
def test_help_and_usage_errors_are_byte_identical(case, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert main(list(case["argv"])) == case["code"]
    assert capsys.readouterr() == (case["out"], case["err"])
    assert not list(tmp_path.iterdir())


def _parsers_and_queries(argv):
    """Exit code of ``main(argv)``, the argparse parsers it built and the
    terminal-size queries it made."""
    counts = {"parsers": 0, "queries": 0}
    init, query = argparse.ArgumentParser.__init__, shutil.get_terminal_size

    def counting_init(self, *args, **kwargs):
        counts["parsers"] += 1
        init(self, *args, **kwargs)

    def counting_query(*args, **kwargs):
        counts["queries"] += 1
        return query(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(argparse.ArgumentParser, "__init__", counting_init)
        mp.setattr(shutil, "get_terminal_size", counting_query)
        return run(argv), counts["parsers"], counts["queries"]


class TestParsers:
    @pytest.mark.parametrize("argv", [
        ["solve", "--speed", "harmonic", "--n", 3, "--rmax", 0.4, "--out", "s.csv"],
        ["verify", "barriers", "--profile", "p.csv", "--out", "v.json"],
        ["props", "--speed", "harmonic", "--n", 3, "--samples", 10, "--out", "q.json"],
        ["barriers", "--names", "w3", "--n", 3, "--count", 3, "--out", "w.csv"],
        ["picard", "--n", 3, "--R", 0.3, "--grid", 64, "--out", "f.json"],
        ["plot", "--in", "p.csv", "--barriers", "w3", "--out", "p.svg"]],
        ids=lambda argv: argv[0])
    def test_a_command_builds_its_parser_on_its_first_call_only(self, argv, tmp_path,
                                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["solve", "--speed", "harmonic", "--n", 3, "--rmax", 0.4,
                    "--out", "p.csv"]) == 0
        cli._command_parser.cache_clear()
        assert _parsers_and_queries(argv)[:2] == (0, 1)
        # a warm call builds nothing and, printing no help, asks nothing of the terminal
        assert _parsers_and_queries(argv) == (0, 0, 0)

    @pytest.mark.parametrize("argv, code, parsers", [
        ([], 2, 7),
        (["--config", "cfg.json", "solve", "--speed", "harmonic", "--n", 3, "--out", "c.csv"],
         0, 7),
        (["-h"], 0, 7),
        (["solve", "--speed", "harmonic", "--n", 3, "--out", "x.csv", "--bogus", 1], 2, 7)],
        ids=["none", "config", "help", "leftover"])
    def test_anything_else_reaches_the_full_parser(self, argv, code, parsers, tmp_path,
                                                   monkeypatch, capsys):
        # the full parser is the top-level one plus one subparser per command;
        # the leftover call's command parser is warm, so only the full one is built
        monkeypatch.chdir(tmp_path)
        cli._command_parser("solve")
        (tmp_path / "cfg.json").write_text(json.dumps({"rmax": 0.4}))
        assert _parsers_and_queries(argv) == (code, parsers, 1)
        assert not (tmp_path / "x.csv").exists()

    def test_a_config_does_not_outlive_its_call(self, tmp_path):
        cfg, a, b = tmp_path / "cfg.json", tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.write_text(json.dumps({"rmax": 0.4}))
        assert run(["--config", cfg, "solve", "--speed", "harmonic", "--n", 3,
                    "--out", a]) == 0
        assert run(["solve", "--speed", "harmonic", "--n", 3, "--out", b]) == 0
        assert a.read_text().splitlines()[-1].split(",")[0] == "0.40000000000000002"
        assert b.read_text().splitlines()[-1].split(",")[0] == "3"

    def test_a_config_does_not_reach_a_warm_command_parser(self, tmp_path):
        cfg, a, b, c = (tmp_path / name for name in ("cfg.json", "a.csv", "b.csv", "c.csv"))
        cfg.write_text(json.dumps({"rmax": 0.4}))
        assert run(["solve", "--speed", "harmonic", "--n", 3, "--out", a]) == 0
        assert run(["--config", cfg, "solve", "--speed", "harmonic", "--n", 3,
                    "--out", b]) == 0
        assert run(["solve", "--speed", "harmonic", "--n", 3, "--out", c]) == 0
        assert b.read_text().splitlines()[-1].split(",")[0] == "0.40000000000000002"
        assert a.read_bytes() == c.read_bytes()
        assert c.read_text().splitlines()[-1].split(",")[0] == "3"

    def test_a_flag_does_not_outlive_its_call(self, sigma2_csv, tmp_path):
        out = tmp_path / "v.json"
        tolerance = []
        for extra in (["--tol", 1e-3], []):
            assert run(["verify", "soliton", "--profile", sigma2_csv, "--out", out, *extra]) == 0
            tolerance.append(json.loads(out.read_text())["checks"][0]["tolerance"])
        assert tolerance == [1e-3, 1e-8]

    def test_a_usage_error_leaves_the_parser_as_a_cold_call_finds_it(self, tmp_path,
                                                                    monkeypatch, capsys):
        argv = ["solve", "--speed", "harmonic", "--n", 3, "--rmax", 0.4, "--out", "s.csv"]
        written = []
        for name, warm_up in (("cold", False), ("warm", True)):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            cli._command_parser.cache_clear()
            if warm_up:
                assert run(["solve", "--speed", "harmonic", "--n", "x", "--out", "s.csv"]) == 2
                capsys.readouterr()
            assert run(argv) == 0
            written.append((capsys.readouterr(), (tmp_path / name / "s.csv").read_bytes(),
                            (tmp_path / name / "s.meta.json").read_bytes()))
        assert written[0] == written[1]

    def test_importing_the_cli_builds_no_parser(self):
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counting_init(self, *args, **kwargs):\n"
                "    built.append(kwargs.get('prog'))\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counting_init\n"
                "import curvsol.cli\n"
                "print(built)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(curvsol.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr

    def test_help_wraps_to_the_columns_of_each_call(self, monkeypatch, capsys):
        # a width fixed at import would give both calls the same line count
        lines = {}
        for columns in (50, 120):
            monkeypatch.setenv("COLUMNS", str(columns))
            assert main(["verify", "-h"]) == 0
            lines[columns] = len(capsys.readouterr().out.splitlines())
        assert lines == {50: 27, 120: 18}


# The exit-code contract under fuzzing.  Each call starts from valid flags,
# every optional one given or not, then one flag (or verify's positional
# word, keyed "") takes an edge value or junk, or is left out.
_EDGE = ("0", "-1", "nan", "inf", "-inf", "1e308", "1e-300", "5e-324")
_JUNK = ("x", "")
# the valid values of each command's flags; () marks an on/off flag.  The
# profiles hm.csv and s2.csv are in the directory the calls run in.
_VALID = {
    "solve": {"--speed": ("sigma-k", "harmonic"), "--n": ("3", "4"), "--k": ("2", "3"),
              "--rmax": ("0.3", "1"), "--eps": ("1e-4", "1e-3"), "--rtol": ("1e-8",),
              "--atol": ("1e-12",), "--blowup-threshold": ("1e8", "10"),
              "--sweep": ("n=3..4",), "--out": ("s.csv",)},
    "verify": {"": ("soliton", "convexity", "barriers", "cylinder"),
               "--profile": ("hm.csv", "s2.csv"), "--tol": ("1e-8", "1e-3"),
               "--alpha": ("auto", "0.5"), "--delta": ("0.05",), "--beta": ("auto", "0.5"),
               "--zmin": ("-0.5", "0"), "--zmax": ("3", "1"), "--samples": ("20",),
               "--out": ("v.json",)},
    "props": {"--speed": ("sigma-k", "harmonic", "quotient", "product"), "--n": ("3", "4"),
              "--k": ("2", "3"), "--l": ("1",), "--factors": ("sigma-k:2,sigma-k:1",),
              "--weights": ("0.5,0.5",), "--samples": ("5", "50"), "--seed": ("0", "7"),
              "--out": ("p.json",)},
    "barriers": {"--names": ("w3", "w3,w5", "v1"), "--n": ("3", "4"), "--k": ("2",),
                 "--a": ("1",), "--rmin": ("0", "0.1"), "--rmax": ("0.3", "1"),
                 "--count": ("5", "50"), "--out": ("b.csv",)},
    "picard": {"--n": ("3", "4"), "--R": ("0.1", "0.2"), "--grid": ("65", "256"),
               "--tol": ("1e-10",), "--max-iter": ("50",), "--seed": ("0", "3"),
               "--fixed-point-csv": ("fp.csv",), "--out": ("pic.json",)},
    "plot": {"--in": ("hm.csv", "s2.csv"), "--barriers": ("w3", "w3,w5", "v1"),
             "--revolve": (), "--out": ("f.svg",)},
}


@functools.cache
def _flag_actions(command):
    """The argparse action of each of ``command``'s flags, keyed by the flag."""
    parser = argparse.ArgumentParser()
    cli._COMMANDS[command][1](parser)
    return {(a.option_strings or [""])[0]: a for a in parser._actions if a.dest != "help"}


@st.composite
def fuzzed_calls(draw, command):
    actions = _flag_actions(command)
    bad = draw(st.sampled_from(sorted(actions)))
    present = draw(st.integers(0, 2 ** len(actions) - 1))   # bit i: flag i is given
    argv = [command]
    for i, (flag, action) in enumerate(actions.items()):
        if flag == bad:
            value = draw(st.sampled_from((None,) + _EDGE + _JUNK))   # None leaves it out
        elif action.required or present >> i & 1:
            valid = _VALID[command][flag] or (True,)
            value = valid[0] if len(valid) == 1 else draw(st.sampled_from(valid))
        else:
            continue
        if value is not None:
            argv.append(flag if value is True else value if not flag else f"{flag}={value}")
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for argv in (["--speed", "harmonic", "--n", 3, "--rmax", 0.3, "--out", path / "hm.csv"],
                 ["--speed", "sigma-k", "--k", 2, "--n", 3, "--rmax", 1, "--out", path / "s2.csv"]):
        assert run(["solve", *argv]) == 0
    return path


class TestExitCodeContract:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_flag_has_valid_values(self, command):
        assert set(_flag_actions(command)) == set(_VALID[command])

    @settings(max_examples=1200, deadline=None, derandomize=True)
    @given(argv=st.sampled_from(list(cli._COMMANDS)).flatmap(fuzzed_calls))
    def test_every_call_ends_in_a_documented_exit(self, fuzz_dir, argv):
        before = set(os.listdir(fuzz_dir))
        cwd, out, err = os.getcwd(), io.StringIO(), io.StringIO()
        try:
            os.chdir(fuzz_dir)
            with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
                    redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv)
        finally:
            os.chdir(cwd)
            written = set(os.listdir(fuzz_dir)) - before
            for name in written:
                (fuzz_dir / name).unlink()
        assert code in (0, 1, 2)
        assert [str(w.message) for w in caught] == []
        lines = err.getvalue().splitlines()
        assert not any(line.startswith("Traceback") for line in lines)
        if code == 2:
            if lines[0].startswith("usage:"):      # argparse: the usage, then one error line
                assert [line for line in lines if ": error: " in line] == lines[-1:]
            else:
                assert len(lines) == 1 and lines[0].startswith("error: ")
            assert not written
