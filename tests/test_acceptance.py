"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 3 and 4c test the harmonic slope equation
w' = (w/r)(1+w^2) g(w/r), g(m) = (n - m)/(m - q), q = (n^2-3n+2)/4, at the
radius R = 8/(n^2+n+2) = 1/c1, c1 = (n^2+n+2)/8.  Both assert what that
equation proves there, which refutes a blow-up at R and a lower bound by w5:

* Criterion 3 (no blow-up).  g(c1) = 1, so the right-hand side at w = c1*r
  is c1*(1 + c1^2 r^2) >= c1 and c1*r is a sub-solution; g(n) = 0, so the
  right-hand side vanishes on w = n*r and n*r is a super-solution.  Every
  profile stays in the wedge c1*r <= u' <= n*r for all r and reaches r_max
  with no blow-up.  The test asserts the wedge, a completed run past R, and
  u' <= w3 on r < R.
* Criterion 4c (final window [0.9R, R)).  With x = c1*r in (0, 1),
  w3 = c1 r/sqrt(1 - x^2) and w5 = sqrt(c1 r)/sqrt(1 - x) (a^2 = c1) give
  w5^2/w3^2 = (1 + x)/x > 1, so w5 > w3 on all of (0, R): w5 is no lower
  bound.  (Also w5/r >= 2*c1 > n for n >= 3, so g < 0 on w5 and w5 is a
  super-solution.)  The test asserts u' <= w3 < w5 on the window.
"""

import time

import numpy as np
import pytest

import curvsol as cs
from curvsol.cli import main as cli_main
from curvsol.speeds import speed_derivatives
from test_speeds import interior_rows

SIGMA_CASES = [(n, k) for n in (3, 4, 5, 6) for k in range(2, n)]
HARMONIC_NS = (3, 4, 5, 6)


def line(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {tag}{suffix}")


def _timed(build):
    """(what ``build`` returns, seconds it took), so that the time bounds of
    criteria 1 and 3 cover the integrations they check."""
    t0 = time.perf_counter()
    built = build()
    return built, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sigma22_run():
    return _timed(lambda: cs.integrate_profile(
        cs.sigma_k_root(2, 2), startup_radius=1e-4, r_max=3.0, rtol=1e-13, atol=1e-15))


@pytest.fixture(scope="module")
def sigma22_profile(sigma22_run):
    return sigma22_run[0]


@pytest.fixture(scope="module")
def sigma_profiles():
    return {(n, k): cs.integrate_profile(cs.sigma_k_root(k, n), r_max=2.0)
            for n, k in SIGMA_CASES}


@pytest.fixture(scope="module")
def harmonic_run():
    return _timed(lambda: {n: cs.integrate_profile(cs.harmonic_pairs(n), r_max=3.0)
                           for n in HARMONIC_NS})


@pytest.fixture(scope="module")
def harmonic_profiles(harmonic_run):
    return harmonic_run[0]


def test_criterion_1_closed_form_soliton(sigma22_run):
    t0 = time.perf_counter()
    p, integration_s = sigma22_run
    exact = np.sqrt(np.exp(p.r ** 2) - 1.0)
    slope_err = float(np.max(np.abs(p.du - exact)))
    entry = cs.check_soliton(p, tol=1e-8)
    elapsed = time.perf_counter() - t0 + integration_s
    ok = slope_err <= 1e-8 and entry.status == "pass" and elapsed < 1.0
    line(1, "closed-form slope and soliton residual", ok,
         f"slope err {slope_err:.2e}, residual {entry.worst_violation:.2e}, {elapsed:.2f}s")
    assert slope_err <= 1e-8
    assert entry.worst_violation <= 1e-8
    assert elapsed < 1.0


def test_criterion_2_cylindrical_sign_conditions():
    t0 = time.perf_counter()
    entry = cs.check_sigma2_cylinder(np.linspace(-0.5, 3.0, 100), tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = entry.status == "pass" and "checked 100" in entry.detail and elapsed < 1.0
    line(2, "cylindrical-type H<0, K>0, speed identity", ok,
         f"worst {entry.worst_violation:.2e}, {elapsed:.2f}s")
    assert entry.status == "pass"
    assert "checked 100" in entry.detail
    assert elapsed < 1.0


def test_criterion_3_blowup_radius(harmonic_run):
    t0 = time.perf_counter()
    harmonic_profiles, integration_s = harmonic_run
    worst = 0.0
    results = {}
    for n in HARMONIC_NS:
        p = harmonic_profiles[n]
        c1 = (n * n + n + 2) / 8.0
        radius = 1.0 / c1
        scale = np.maximum(1.0, np.abs(p.du))
        before = p.r < radius
        w3 = cs.barrier("w3", n)
        worst = max(worst,
                    float(np.max((c1 * p.r - p.du) / scale)),
                    float(np.max((p.du - n * p.r) / scale)),
                    float(np.max((p.du[before] - w3(p.r[before])) / scale[before])))
        results[n] = (p.status, p.blowup_radius, float(p.r[-1]), radius,
                      float(np.max(p.du / p.r)))
    elapsed = time.perf_counter() - t0 + integration_s
    finite = all(status == "completed" and br is None and r_last == 3.0 > radius
                 for status, br, r_last, radius, _mx in results.values())
    ok = finite and worst <= 1e-9 and elapsed < 10.0
    detail = "; ".join(
        f"n={n}: {status} at r={r_last:g}, R={radius:.4f}, max du/r {mx:.3f} vs n={n}"
        for n, (status, _br, r_last, radius, mx) in results.items())
    line(3, "no blow-up at 8/(n^2+n+2): c1*r <= du <= n*r, du <= w3 before it", ok,
         f"{detail}; worst excess {worst:.2e}, {elapsed:.2f}s")
    for n, (status, br, r_last, radius, _mx) in results.items():
        assert status == "completed", (n, status)
        assert br is None, (n, br)
        assert r_last == 3.0 > radius, (n, r_last, radius)
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_4a_sigma_barrier_ordering(sigma_profiles):
    worst = 0.0
    for (n, k), p in sigma_profiles.items():
        v1 = cs.barrier("v1", n, k=k)(p.r)
        v2 = cs.barrier("v2", n, k=k)(p.r)
        scale = np.maximum(1.0, np.abs(p.du))
        worst = max(worst, float(np.max((v1 - p.du) / scale)),
                    float(np.max((p.du - v2) / scale)))
    ok = worst <= 1e-9
    line("4a", "v1 <= du <= v2 for k-th-root profiles", ok, f"worst excess {worst:.2e}")
    assert ok


def test_criterion_4b_harmonic_linear_barriers(harmonic_profiles):
    worst = 0.0
    for n, p in harmonic_profiles.items():
        w1 = cs.barrier("w1", n)
        w2 = cs.barrier("w2", n)
        scale = np.maximum(1.0, np.abs(p.du))
        worst = max(worst, float(np.max((w1(p.r) - p.du) / scale)))
        mask = p.r <= w2.r_end
        worst = max(worst, float(np.max((p.du[mask] - w2(p.r[mask])) / scale[mask])))
    ok = worst <= 1e-9
    line("4b", "w1 <= du everywhere, du <= w2 on its interval", ok,
         f"worst excess {worst:.2e}")
    assert ok


def test_criterion_4c_blowup_window_bounds(harmonic_profiles):
    worst = 0.0
    nodes, ordered, gaps = {}, {}, {}
    for n in HARMONIC_NS:
        p = harmonic_profiles[n]
        radius = 8.0 / (n * n + n + 2)
        window = (p.r >= 0.9 * radius) & (p.r < radius)
        nodes[n] = int(np.count_nonzero(window))
        if not nodes[n]:
            continue
        r, du = p.r[window], p.du[window]
        w3 = cs.barrier("w3", n)(r)
        w5 = cs.barrier("w5", n)(r)
        worst = max(worst, float(np.max((du - w3) / np.maximum(1.0, np.abs(du)))))
        ordered[n] = bool(np.all(w3 < w5))
        gaps[n] = float(np.min(w5 - du))
    ok = (all(nodes.values()) and worst <= 1e-9 and all(ordered.values())
          and all(g > 0.0 for g in gaps.values()))
    line("4c", "du <= w3 < w5 on [0.9R, R), R = 8/(n^2+n+2)", ok,
         f"window nodes {nodes}; worst excess over w3 {worst:.2e}; min(w5 - du) = "
         + ", ".join(f"n={n}: {g:.3f}" for n, g in gaps.items()))
    assert all(nodes.values()), nodes
    assert worst <= 1e-9
    assert all(ordered.values()), ordered
    assert all(g > 0.0 for g in gaps.values()), gaps


def test_criterion_5_profile_convexity(sigma22_profile, sigma_profiles, harmonic_profiles):
    worst = min(
        [float(np.min(p.ddu)) for p in sigma_profiles.values()]
        + [float(np.min(p.ddu)) for p in harmonic_profiles.values()]
        + [float(np.min(sigma22_profile.ddu))])
    ok = worst >= -1e-12
    line(5, "u'' >= -1e-12 at every sample of every profile", ok, f"min u'' {worst:.2e}")
    assert ok


def test_criterion_6_picard_rk_equivalence():
    t0 = time.perf_counter()
    n = 3
    _c, r2 = cs.lipschitz_radius(n, samples=4000, seed=0)
    R = min(cs.domain_radius(n), r2)
    res = cs.picard_solve(n, R, 2048, tol=1e-12)
    ratios = [it["contraction_ratio"] for it in res.iterations
              if it["contraction_ratio"] is not None]
    p = cs.integrate_profile(cs.harmonic_pairs(n), startup_radius=1e-6, r_max=R,
                             rtol=1e-12, atol=1e-15, max_step=1e-3)
    rk = np.interp(res.nodes[1:], p.r, p.du)
    sup = float(np.max(np.abs(res.values[1:] - rk)))
    # step-halving refinements share node coordinates with the m-grid
    fp1 = cs.picard_solve(n, R, 2048, tol=1e-13, max_iter=600).values
    fp2 = cs.picard_solve(n, R, 4095, tol=1e-13, max_iter=600).values
    fp3 = cs.picard_solve(n, R, 8189, tol=1e-13, max_iter=600).values
    d1 = float(np.max(np.abs(fp2[::2] - fp1)))
    d2 = float(np.max(np.abs(fp3[::2] - fp2)))
    elapsed = time.perf_counter() - t0
    ok = (res.converged and sup <= 1e-6 and ratios and max(ratios) < 1.0
          and d1 / d2 >= 3.0 and elapsed < 5.0)
    line(6, "fixed point vs adaptive integration", ok,
         f"sup {sup:.2e}, max ratio {max(ratios):.3f}, halving gain {d1 / d2:.2f}, "
         f"{elapsed:.2f}s")
    assert res.converged
    assert sup <= 1e-6
    assert max(ratios) < 1.0
    assert d1 / d2 >= 3.0
    assert elapsed < 5.0


def _fd_gradient_agrees(spec, rng, samples=40, rel=1e-6):
    L = interior_rows(spec, rng, samples)
    for lam, grad in zip(L, speed_derivatives(spec, L)[1]):
        h = 1e-6 * float(np.linalg.norm(lam))
        for i in range(spec.n):
            e = np.zeros(spec.n)
            e[i] = h
            fd = (cs.eval_speed(spec, lam + e) - cs.eval_speed(spec, lam - e)) / (2 * h)
            if abs(grad[i] - fd) > rel * max(abs(fd), 1e-3):
                return False, lam
    return True, None


def _failing(checks):
    return [name for name, c in checks.items() if c.failed > 0]


def test_criterion_7_speed_property_suite():
    t0 = time.perf_counter()
    clean_specs = ([cs.sigma_k_root(k, n) for n in (2, 3, 4, 5) for k in range(1, n + 1)]
                   + [cs.harmonic_pairs(n) for n in HARMONIC_NS]
                   + [cs.SpeedSpec("product", 3,
                                   factors=(cs.sigma_k_root(2, 3), cs.sigma_k_root(1, 3)),
                                   weights=(0.5, 0.5))])
    failures = {}
    for spec in clean_specs:
        failing = _failing(cs.check_properties(spec, sample_count=1000, seed=42))
        if failing:
            failures[spec.label()] = failing
        fd_ok, witness = _fd_gradient_agrees(spec, np.random.default_rng(7))
        if not fd_ok:
            failures.setdefault(spec.label(), []).append(f"gradient_fd at {witness}")
    quotient_ok = True
    for spec in (cs.SpeedSpec("quotient", 3, 2, 1), cs.SpeedSpec("quotient", 4, 3, 1)):
        failing = _failing(cs.check_properties(spec, sample_count=1000, seed=42))
        if failing != ["boundary_vanishing"]:
            quotient_ok = False
            failures[spec.label()] = failing
        fd_ok, witness = _fd_gradient_agrees(spec, np.random.default_rng(7))
        if not fd_ok:
            quotient_ok = False
            failures.setdefault(spec.label(), []).append(f"gradient_fd at {witness}")
    elapsed = time.perf_counter() - t0
    ok = not failures and quotient_ok and elapsed < 30.0
    line(7, "speed property suite", ok,
         f"{len(clean_specs)} clean speeds + 2 quotients, {elapsed:.1f}s"
         + (f"; failures: {failures}" if failures else ""))
    assert not failures, failures
    assert quotient_ok
    assert elapsed < 30.0


def test_criterion_8_convexity_estimate(harmonic_profiles):
    worst_entry = None
    statuses = {}
    for n, p in harmonic_profiles.items():
        geo = cs.profile_geometry(p)
        alpha, beta = cs.fit_convexity_params(p, geo, delta=0.05)
        entry = cs.check_convexity_estimate(p, geo, alpha, 0.05, beta)
        statuses[n] = entry.status
        if worst_entry is None or entry.worst_violation > worst_entry[1].worst_violation:
            worst_entry = (n, entry)
    ok = all(s == "pass" for s in statuses.values())
    n, e = worst_entry
    line(8, "lambda_1 >= H - alpha*gamma on admissible samples", ok,
         f"worst at n={n}: violation {e.worst_violation:.2e} ({e.detail})")
    assert ok, statuses


def _artifact_run(tmpdir):
    tmpdir.mkdir(exist_ok=True)
    csv = tmpdir / "sigma2.csv"
    assert cli_main(["solve", "--speed", "sigma-k", "--k", "2", "--n", "2",
                     "--rmax", "1.5", "--out", str(csv)]) == 0
    assert cli_main(["props", "--speed", "harmonic", "--n", "3", "--samples", "120",
                     "--seed", "7", "--out", str(tmpdir / "props.json")]) == 0
    assert cli_main(["picard", "--n", "3", "--grid", "256", "--tol", "1e-10",
                     "--out", str(tmpdir / "picard.json")]) == 0
    assert cli_main(["plot", "--in", str(csv), "--barriers", "v1",
                     "--out", str(tmpdir / "fig.svg")]) == 0
    names = ["sigma2.csv", "sigma2.meta.json", "props.json", "picard.json",
             "picard.csv", "fig.svg"]
    return {name: (tmpdir / name).read_bytes() for name in names}


def test_criterion_9_determinism(tmp_path):
    a = _artifact_run(tmp_path / "run_a")
    b = _artifact_run(tmp_path / "run_b")
    differing = [name for name in a if a[name] != b[name]]
    ok = not differing
    line(9, "byte-identical artifacts under identical seeds", ok,
         f"{len(a)} artifacts compared" + (f"; differ: {differing}" if differing else ""))
    assert ok, differing
