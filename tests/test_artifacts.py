"""Every artifact of a fixed list of CLI runs against ``artifacts_golden.json``:
the exit code and the sha256 of stdout, stderr and each file written.

Each case runs its commands in order in one empty working directory, with
relative paths, in this process.  The bytes depend on the numpy and scipy
builds (LSODA, ``eigvals``, the Generator streams), so they are compared
only when both versions equal the manifest's.  Otherwise the comparison is
structural: the text with every number replaced by a placeholder must hash
equal, and the count, min, max and sum of |x| of its numbers must agree to
1e-9 relative.  A failure names the mode.

A change that alters an artifact on purpose records the manifest again::

    PYTHONPATH=src python tests/test_artifacts.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
import scipy

from curvsol.cli import main

MANIFEST = Path(__file__).parent / "artifacts_golden.json"
VERSIONS = {"numpy": np.__version__, "scipy": scipy.__version__}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_REL = 1e-9


def _suite_flags():
    """props flags of the 25 speeds of the benchmark's speed suite."""
    flags = [f"--speed sigma-k --n {n} --k {k}" for n in range(3, 7) for k in range(1, n + 1)]
    flags += [f"--speed harmonic --n {n}" for n in range(3, 7)]
    flags += ["--speed quotient --k 2 --l 1 --n 3", "--speed quotient --k 3 --l 1 --n 4",
              "--speed product --factors sigma-k:2,sigma-k:1 --n 3"]
    return flags


def _profile_runs(solve, barriers):
    return [f"solve {solve} --out p.csv",
            "verify soliton --profile p.csv --out soliton.json",
            "verify convexity --profile p.csv",
            "verify barriers --profile p.csv --out barriers.json",
            "plot --in p.csv --out slope.svg",
            f"plot --in p.csv --barriers {barriers} --out overlay.svg",
            "plot --in p.csv --revolve --out silhouette.svg"]


def cases() -> dict[str, list[str]]:
    """Case name -> the argv strings it runs, in order, in one directory."""
    out = {f"props {flags} --seed {seed}": [f"props {flags} --samples 150 --seed {seed} "
                                            "--out p.json"]
           for seed in (0, 7) for flags in _suite_flags()}
    out["props quotient 2,1 stdout"] = ["props --speed quotient --k 2 --l 1 --n 3 "
                                        "--samples 1000 --seed 42"]
    out["sigma_2 n=4"] = _profile_runs("--speed sigma-k --n 4 --k 2", "v1,v2,v3")
    out["harmonic n=5 rmax=0.45"] = _profile_runs("--speed harmonic --n 5 --rmax 0.45",
                                                  "w1,w2,w3,w4,w5")
    out["sigma_2 n=2 closed form"] = _profile_runs(
        "--speed sigma-k --k 2 --n 2 --rmax 3 --rtol 1e-13 --atol 1e-15", "v1,v3")
    out["verify cylinder"] = ["verify cylinder --out cylinder.json"]
    for n in range(3, 7):
        out[f"picard n={n}"] = [f"picard --n {n} --out picard.json"]
    out["picard R=0.38 grid=2048"] = ["picard --n 3 --R 0.38 --grid 2048 --out picard.json"]
    out["barriers w n=3"] = ["barriers --names w1,w2,w3,w4,w5 --n 3 --rmax 0.4 --count 50 "
                             "--out w.csv"]
    out["barriers v n=4 k=2"] = ["barriers --names v1,v2,v3 --n 4 --k 2 --count 50 --out v.csv"]
    out["barriers w3,w5 stdout"] = ["barriers --names w3,w5 --n 3 --count 5"]
    out["blow-up"] = ["solve --speed harmonic --n 3 --rmax 3 --blowup-threshold 0.8 --out b.csv"]
    return out


def _numbers(text: str) -> list:
    """count, min, max and sum of |x| of the numbers in ``text``."""
    x = np.array([float(t) for t in _NUMBER.findall(text)])
    if not x.size:
        return [0, None, None, None]
    return [int(x.size), float(np.min(x)), float(np.max(x)), float(np.sum(np.abs(x)))]


def record(data: bytes) -> dict:
    text = data.decode()
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "skeleton": hashlib.sha256(_NUMBER.sub("#", text).encode()).hexdigest(),
            "numbers": _numbers(text)}


def _snapshot(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in root.iterdir()}


def run_case(argvs: list[str], workdir: Path) -> list[dict]:
    """Run ``argvs`` in ``workdir`` and record each run: its exit code, its
    streams and every file it wrote or changed."""
    runs, before, cwd = [], {}, os.getcwd()
    os.chdir(workdir)
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv.split())
            after = _snapshot(workdir)
            runs.append({"argv": argv, "code": code,
                         "stdout": record(out.getvalue().encode()),
                         "stderr": record(err.getvalue().encode()),
                         "files": {name: record(data) for name, data in sorted(after.items())
                                   if before.get(name) != data}})
            before = after
    finally:
        os.chdir(cwd)
    return runs


def same_structure(got: dict, want: dict) -> bool:
    if got["skeleton"] != want["skeleton"] or got["numbers"][0] != want["numbers"][0]:
        return False
    return all(g == w or math.isclose(g, w, rel_tol=_REL)
               for g, w in zip(got["numbers"][1:], want["numbers"][1:]))


def differences(got: list[dict], want: list[dict], exact: bool) -> list[str]:
    """What differs between two recorded runs of a case, one line each."""
    same = (lambda g, w: g["sha256"] == w["sha256"]) if exact else same_structure
    diffs = []
    for g, w in zip(got, want):
        if g["code"] != w["code"]:
            diffs.append(f"{w['argv']}: exit code {g['code']}, recorded {w['code']}")
        for stream in ("stdout", "stderr"):
            if not same(g[stream], w[stream]):
                diffs.append(f"{w['argv']}: {stream} differs")
        if sorted(g["files"]) != sorted(w["files"]):
            diffs.append(f"{w['argv']}: wrote {sorted(g['files'])}, recorded {sorted(w['files'])}")
        diffs += [f"{w['argv']}: {name} differs" for name in sorted(set(g["files"]) & set(w["files"]))
                  if not same(g["files"][name], w["files"][name])]
    if [g["argv"] for g in got] != [w["argv"] for w in want]:
        diffs.append("the case's runs differ from the recorded ones")
    return diffs


_GOLDEN = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {"versions": {}, "cases": {}}


def test_the_manifest_covers_every_case():
    assert {name: [r["argv"] for r in runs] for name, runs in _GOLDEN["cases"].items()} == cases()


@pytest.mark.parametrize("name", sorted(cases()))
def test_artifacts_match_the_manifest(name, tmp_path):
    exact = _GOLDEN["versions"] == VERSIONS
    mode = ("bytes mode: numpy and scipy match the manifest" if exact else
            f"structural mode: versions {VERSIONS} differ from the manifest's "
            f"{_GOLDEN['versions']}")
    diffs = differences(run_case(cases()[name], tmp_path), _GOLDEN["cases"][name], exact)
    assert not diffs, f"{mode}\n" + "\n".join(diffs)


def test_structural_mode_sees_the_text_and_the_numbers_but_not_the_last_digits():
    base = record(b'{"a": 1.0, "b": [0.25, -3e-05]}\n')
    assert same_structure(record(b'{"a": 1.0000000000000002, "b": [0.25, -3e-05]}\n'), base)
    assert not same_structure(record(b'{"b": 1.0, "a": [0.25, -3e-05]}\n'), base)
    assert not same_structure(record(b'{"a": 1.0, "b": [0.25, -3.1e-05]}\n'), base)
    assert not same_structure(record(b'{"a": 1.0, "b": [0.25, -3e-05, 0]}\n'), base)
    assert record(b"")["numbers"] == [0, None, None, None]


if __name__ == "__main__":
    import tempfile

    manifest = {"versions": VERSIONS, "cases": {}}
    for case, argvs in cases().items():
        with tempfile.TemporaryDirectory() as tmp:
            manifest["cases"][case] = run_case(argvs, Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
