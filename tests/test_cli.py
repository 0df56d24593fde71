"""End-to-end tests of the command-line interface and its exit-code
contract (0 pass, 1 verification failure, 2 usage/input error)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvsol
from curvsol import harmonic_pairs, product, quotient, sigma_k_root
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

    @pytest.mark.parametrize("sweep, bad", [("n=3", ""), ("n=a..b", "a")])
    def test_bad_sweep_is_usage_error(self, sweep, bad, tmp_path, capsys):
        assert run(["solve", "--speed", "harmonic", "--n", 3, "--sweep", sweep,
                    "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err == f"error: --sweep: expected int, got {bad!r}\n"
        assert not list(tmp_path.iterdir())


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

    def test_barriers(self, sigma2_csv, tmp_path):
        code = run(["verify", "barriers", "--profile", sigma2_csv,
                    "--out", tmp_path / "b.json"])
        assert code == 0


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

    def test_product(self, tmp_path):
        code = run(["props", "--speed", "product", "--n", 3,
                    "--factors", "sigma-k:2,sigma-k:1", "--weights", "0.5,0.5",
                    "--samples", 150, "--seed", 1, "--out", tmp_path / "p.json"])
        assert code == 0

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
    + [(dict(name="quotient", n=3, k=2, l=1), quotient(2, 1, 3)),
       (dict(name="quotient", n=4, k=3, l=1), quotient(3, 1, 4)),
       (dict(name="product", n=3, factors="sigma-k:2,sigma-k:1"),
        product([sigma_k_root(2, 3), sigma_k_root(1, 3)], [0.5, 0.5]))])
# flags the named kind does not read are ignored
_STRAY_FLAGS = [
    (dict(name="harmonic", n=4, k=3), harmonic_pairs(4)),
    (dict(name="sigma-k", n=4, k=2, l=1), sigma_k_root(2, 4)),
    (dict(name="quotient", n=4, k=3, l=1, factors="sigma-k:x", weights="a"), quotient(3, 1, 4)),
    (dict(name="harmonic", n=3, factors="sigma-k:2", weights="1"), harmonic_pairs(3)),
    (dict(name="product", n=4, k=2, l=1, factors="harmonic:3, sigma-k:2", weights="0.25,0.75"),
     product([harmonic_pairs(4), sigma_k_root(2, 4)], [0.25, 0.75])),
]


@pytest.mark.parametrize("flags, expected", _SUITE_FLAGS + _STRAY_FLAGS)
def test_flags_build_the_factory_speed(flags, expected):
    assert _speed_from_flags(**flags) == expected


def test_import_leaves_scipy_unloaded():
    # in a fresh interpreter: pytest's filterwarnings setting imports scipy.integrate here
    code = ("import sys, curvsol.cli; "
            "print(sorted({'scipy.integrate', 'scipy.optimize'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(curvsol.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


class TestBarriersCmd:
    def test_table(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run(["barriers", "--names", "w3,w5", "--n", 3, "--rmax", 0.5,
                    "--count", 50, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,w3,w5"
        assert len(lines) == 51

    def test_unknown_name_is_usage_error(self, tmp_path, capsys):
        assert run(["barriers", "--names", "w3,w9", "--n", 3, "--out", tmp_path / "w.csv"]) == 2
        assert "w9" in capsys.readouterr().err


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

    def test_deterministic_bytes(self, sigma2_csv, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(["plot", "--in", sigma2_csv, "--barriers", "v1", "--out", a])
        run(["plot", "--in", sigma2_csv, "--barriers", "v1", "--out", b])
        assert a.read_bytes() == b.read_bytes()

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
