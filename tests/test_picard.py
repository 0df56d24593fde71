"""Tests for the integral-operator fixed point: quadrature, clamping,
convergence, the axis multiplier that makes the plain iteration stall,
and the slope-sensitivity estimate."""

import dataclasses
import json

import numpy as np
import pytest

from curvsol import (
    DomainError,
    ParameterError,
    barrier,
    domain_radius,
    harmonic_pairs,
    integrate_profile,
    lipschitz_radius,
    picard_solve,
    sigma_k_root,
    slope_equation,
)
from curvsol.cli import main as cli_main
from curvsol.picard import _newton_correction, _quadrature


def contraction_ratios(result) -> list[float]:
    """The logged contraction ratios, without the first iteration's None."""
    return [it["contraction_ratio"] for it in result.iterations
            if it["contraction_ratio"] is not None]


def harmonic_rhs(n: int, r, w):
    return slope_equation(harmonic_pairs(n)).rhs(r, w)


def harmonic_rhs_dw(n: int, r, w):
    return slope_equation(harmonic_pairs(n)).rhs_dw(r, w)


def barrier_grid(name: str, n: int, R: float, m: int) -> np.ndarray:
    """Barrier ``name`` at m uniform nodes on [0, R], pinned to 0 at the axis."""
    r = np.linspace(0.0, R, m)
    return np.concatenate(([0.0], barrier(name, n)(r[1:])))


def initial_iterate(n: int, R: float, m: int) -> np.ndarray:
    """Reference: the midpoint of the admissible band [w4, min(w3, w2)] at
    each of m uniform nodes on [0, R], where ``picard_solve`` starts."""
    r = np.linspace(0.0, R, m)
    w4, w3, w2 = (barrier(name, n) for name in ("w4", "w3", "w2"))
    return 0.5 * (w4(r) + np.minimum(w3(r), w2(r)))


def band(n: int, R: float, m: int):
    """What ``picard_solve`` builds once per solve: the harmonic slope
    equation, the m uniform nodes on [0, R], the band edges w4 and w3 on
    them and the band's slope range."""
    r = np.linspace(0.0, R, m)
    w4, w3 = barrier("w4", n), barrier("w3", n)
    return slope_equation(harmonic_pairs(n)), r, w4(r), w3(r), (w4.slope, w3.slope)


def operator_T(n: int, R: float, w: np.ndarray) -> tuple[np.ndarray, int]:
    """The paper's operator T as ``picard_solve`` applies it: ``_quadrature``
    on ``w.size`` uniform nodes on [0, R], clamped nodewise into the band.
    Returns T(w) and the number of clamped nodes."""
    eq, r, lo, hi, slopes = band(n, R, w.size)
    q, _terms = _quadrature(eq, r, w, slopes)
    t = np.clip(q, lo, hi)
    return t, int(np.count_nonzero(t != q))


class TestOperatorT:
    def test_closed_form_on_sub_solution_line(self):
        # along the linear sub-solution the integrand is c (1 + c^2 s^2), so
        # the operator returns c r + c^3 r^3 / 3 exactly up to trapezoid error
        n, R, m = 3, 0.1, 4097
        out, _events = operator_T(n, R, barrier_grid("w1", n, R, m))
        c = 7.0 / 4.0
        r = np.linspace(0.0, R, m)
        exact = c * r + c ** 3 * r ** 3 / 3.0
        assert np.max(np.abs(out - exact)) <= 1e-10
        assert out[-1] == pytest.approx(0.175 + 343.0 / 192.0 * 1e-3, rel=1e-7)

    def test_degenerate_two_node_grid(self):
        R = 1e-8
        w = barrier_grid("w1", 4, R, 2)
        out, _ = operator_T(4, R, w)
        assert out[1] == pytest.approx(w[1], rel=1e-6)

    def test_maps_lower_barrier_up(self):
        # the unclamped image of the lower edge exceeds the edge everywhere
        # (it overshoots the band's top near the axis, which the clamp absorbs)
        n, R, m = 3, 0.3, 513
        w4_grid = barrier_grid("w4", n, R, m)
        eq, r, _lo, _hi, slopes = band(n, R, m)
        raw, _terms = _quadrature(eq, r, w4_grid, slopes)
        assert np.all(raw[1:] >= w4_grid[1:])
        _out, events = operator_T(n, R, w4_grid)
        assert events > 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_domain_radius_grid_is_admissible(self, n):
        # the band's radius is the end of w2's domain, so a grid that reaches
        # it evaluates every barrier inside its domain
        R = domain_radius(n)
        assert R == barrier("w2", n).r_end
        out, _events = operator_T(n, R, initial_iterate(n, R, 64))
        assert np.all(np.isfinite(out))

    def test_x_violation_error(self):
        eq, r, _lo, _hi, slopes = band(3, 0.3, 65)
        with pytest.raises(DomainError, match="admissible cone"):
            _quadrature(eq, r, 0.4 * r, slopes)


@pytest.fixture()
def alternating_quadrature(monkeypatch):
    """A non-contracting map for the solve at n = 3, R = 0.3, m = 64: its
    quadrature alternates between two fixed grids b, a, b, ..., whatever the
    iterate, beside the iterate's own slope terms.  Returns (a, b)."""
    import curvsol.picard as pic
    a = initial_iterate(3, 0.3, 64)
    b = a + np.concatenate(([0.0], np.full(63, 1e-3)))
    state = {"flip": False}

    def fake_quadrature(eq, r, w, slopes):
        state["flip"] = not state["flip"]
        return (b if state["flip"] else a), _quadrature(eq, r, w, slopes)[1]

    monkeypatch.setattr(pic, "_quadrature", fake_quadrature)
    return a, b


@pytest.fixture(scope="module")
def solution():
    return picard_solve(3, 0.3, 2048, tol=1e-12)


class TestPicardSolve:
    def test_converges_with_contracting_ratios(self, solution):
        assert solution.converged
        ratios = contraction_ratios(solution)
        assert ratios
        assert max(ratios) < 1.0

    def test_startup_slope_recovered(self, solution):
        assert solution.values[1] / solution.nodes[1] == pytest.approx(1.75, abs=1e-3)

    def test_fixed_point_strictly_inside_bands(self, solution):
        r, w = solution.nodes[1:], solution.values[1:]
        w4, w3 = barrier("w4", 3), barrier("w3", 3)
        w1, w2 = barrier("w1", 3), barrier("w2", 3)
        assert np.all(w > w4(r))
        assert np.all(w < w3(r))
        assert np.all(w >= w1(r) - 1e-9)
        mask = r <= w2.r_end
        assert np.all(w[mask] <= w2(r[mask]) + 1e-9)

    def test_matches_adaptive_integration(self, solution):
        p = integrate_profile(harmonic_pairs(3), startup_radius=1e-6, r_max=0.3,
                              rtol=1e-12, atol=1e-15, max_step=1e-3)
        rk = np.interp(solution.nodes[1:], p.r, p.du)
        assert np.max(np.abs(solution.values[1:] - rk)) <= 1e-6

    def test_quadrature_order(self):
        # node coordinates of an m-grid embed in the (2m-1)-grid, so the
        # fixed-point change under step halving is measured exactly
        R = 0.3
        fp = {m: picard_solve(3, R, m, tol=1e-13, max_iter=600).values
              for m in (513, 1025, 2049)}
        d1 = np.max(np.abs(fp[1025][::2] - fp[513]))
        d2 = np.max(np.abs(fp[2049][::2] - fp[1025]))
        assert d1 / d2 >= 3.0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            picard_solve(7, 0.1, 256)
        with pytest.raises(ParameterError):
            picard_solve(3, 0.1, 32)
        with pytest.raises(ParameterError):
            picard_solve(3, 0.5, 256)   # beyond the band interval
        for kwargs in ({"max_iter": 0}, {"max_iter": -3}, {"tol": -1.0}, {"tol": 0.0},
                       {"tol": float("nan")}, {"tol": float("inf")}):
            with pytest.raises(ParameterError, match=next(iter(kwargs))):
                picard_solve(3, 0.3, 256, **kwargs)

    def test_model_range_checked_by_the_slope_equation(self):
        # the harmonic model's own check rejects an n outside 3..6
        with pytest.raises(ParameterError, match=r"n in 3\.\.6"):
            picard_solve(7, 0.1, 64)
        with pytest.raises(ParameterError, match=r"n in 3\.\.6"):
            lipschitz_radius(7)

    def test_contraction_failure_reported(self, alternating_quadrature):
        # a non-contracting map stops the solve unconverged once sup_change
        # has set no new minimum for 3 iterations above the floor
        result = picard_solve(3, 0.3, 64, tol=1e-15, max_iter=50)
        assert not result.converged
        changes = [it["sup_change"] for it in result.iterations]
        assert len(changes) == 5
        floor = 8.0 * 64 * np.finfo(float).eps
        best = min(changes[:2])
        assert all(c >= best and c > floor for c in changes[2:]), changes

    def test_stall_ends_like_max_iter_in_the_cli(self, alternating_quadrature, tmp_path,
                                                 capsys):
        # the same stall through ``picard``: one error line, the JSON and the
        # CSV written, exit 1
        out = tmp_path / "stall.json"
        assert cli_main(["picard", "--n", "3", "--R", "0.3", "--grid", "64",
                         "--tol", "1e-15", "--max-iter", "50", "--out", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert not payload["converged"] and len(payload["iterations"]) == 5
        last = payload["iterations"][-1]["sup_change"]
        assert capsys.readouterr().err.splitlines() == [
            f"error: not converged after 5 iterations, last sup_change {last:.6g}"]
        r, w = np.loadtxt(tmp_path / "stall.csv", delimiter=",", skiprows=1, unpack=True)
        np.testing.assert_array_equal(r, np.linspace(0.0, 0.3, 64))
        _eq, _r, lo, hi, _slopes = band(3, 0.3, 64)
        b = alternating_quadrature[1]
        np.testing.assert_array_equal(w, np.clip(b, lo, hi))     # the 5th T(w)

    def test_converges_at_the_round_off_floor(self):
        # with tol below every reachable change the solve ends through the
        # floor rule: a change at or below 8 m eps max(1, max|w|) that sets no
        # new minimum counts as convergence
        m = 512
        res = picard_solve(3, 0.2, m, tol=1e-300, max_iter=30)
        assert res.converged
        changes = [it["sup_change"] for it in res.iterations]
        assert len(changes) < 30
        assert np.max(np.abs(res.values)) < 1.0        # so max(1, max|w|) = 1
        assert changes[-1] <= 8.0 * m * np.finfo(float).eps
        assert changes[-1] >= min(changes[:-1])


def _forward_substitution(n: int, R: float, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Reference: (I - J) u = q - v solved row by row on the lower-triangular
    Jacobian of the trapezoidal sum on ``v.size`` nodes on [0, R], one node
    at a time."""
    eq = slope_equation(harmonic_pairs(n))
    r = np.linspace(0.0, R, v.size)
    h = r[1] - r[0]
    s = v[1] / r[1]
    a = 0.0
    if barrier("w4", n).slope <= s <= barrier("w3", n).slope:
        a = (eq.psi(1.0 / s) - eq.dpsi(1.0 / s) / s) / r[1]
    F = q - v
    u = np.zeros(v.size)
    u[1] = F[1] / (1.0 - 0.5 * h * (a + eq.rhs_dw(r[1], v[1])))
    below = 0.5 * h * a * u[1]     # the axis column's share of every row below
    for i in range(2, v.size):
        below += h * eq.rhs_dw(r[i - 1], v[i - 1]) * u[i - 1]
        u[i] = (F[i] + below) / (1.0 - 0.5 * h * eq.rhs_dw(r[i], v[i]))
    return u


def _newton_iterates(n: int, R: float, m: int) -> list[np.ndarray]:
    """The initial iterate, the second one and the converged values."""
    eq, r, lo, hi, slopes = band(n, R, m)
    w0 = initial_iterate(n, R, m)
    q0, terms0 = _quadrature(eq, r, w0, slopes)
    w1 = np.clip(w0 + _newton_correction(eq, r, w0, q0, terms0, slopes), lo, hi)
    return [w0, w1, picard_solve(n, R, m).values]


def _default_radius(n: int) -> float:
    return min(domain_radius(n), lipschitz_radius(n)[1])


class TestNewton:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_recurrence_matches_forward_substitution(self, n):
        R = _default_radius(n)
        for m in (64, 2049, 8189):
            eq, r, _lo, _hi, slopes = band(n, R, m)
            for w in _newton_iterates(n, R, m):
                q, terms = _quadrature(eq, r, w, slopes)
                u = _newton_correction(eq, r, w, q, terms, slopes)
                ref = _forward_substitution(n, R, w, q)
                assert u[0] == 0.0
                # relative to the larger of u and the residual it solves for:
                # at the fixed point the residual is round-off whose
                # signs cancel in u, so u alone is too small a scale
                scale = max(np.max(np.abs(ref)), np.max(np.abs(q - w)))
                assert np.max(np.abs(u - ref)) <= 1e-13 * scale, (m, w[1])

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_jacobian_matches_finite_differences(self, n):
        # (I - J) u = q - w with J the central-difference Jacobian of the
        # unclamped quadrature
        eq, r, _lo, _hi, slopes = band(n, _default_radius(n), 64)
        for w in _newton_iterates(n, _default_radius(n), 64)[::2]:
            q, terms = _quadrature(eq, r, w, slopes)
            u = _newton_correction(eq, r, w, q, terms, slopes)
            J = np.zeros((w.size, w.size))
            for j in range(1, w.size):
                e = np.zeros(w.size)
                e[j] = 1e-6 * w[j]
                J[:, j] = (_quadrature(eq, r, w + e, slopes)[0]
                           - _quadrature(eq, r, w - e, slopes)[0]) / (2.0 * e[j])
            F = q - w
            assert np.max(np.abs(u - J @ u - F)) <= 1e-6 * np.max(np.abs(u))

    def test_fixed_point_matches_the_picard_iteration(self):
        n, R, m = 3, 0.3, 513
        # the undamped iteration contracts at n = 3 and settles at round-off
        # (a 2-cycle of amplitude 1.6e-13 here) after about 200 steps; it
        # starts where the solve starts, so their first changes agree
        w = initial_iterate(n, R, m)
        first = np.max(np.abs(operator_T(n, R, w)[0] - w))
        assert picard_solve(n, R, m, max_iter=1).iterations[0]["sup_change"] == first
        for _ in range(400):
            w_next, _events = operator_T(n, R, w)
            change = np.max(np.abs(w_next - w))
            w = w_next
        assert change < 1e-12
        newton = picard_solve(n, R, m, tol=1e-13).values
        assert np.max(np.abs(newton - w)) <= 1e-11

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("radius", [_default_radius, domain_radius])
    def test_converges_in_few_iterations_near_rk(self, n, radius):
        R = radius(n)
        res = picard_solve(n, R, 2049)
        assert res.converged
        assert len(res.iterations) <= 8
        assert max(contraction_ratios(res)) < 1.0
        p = integrate_profile(harmonic_pairs(n), startup_radius=1e-6, r_max=R,
                              rtol=1e-12, atol=1e-15, max_step=1e-3)
        assert np.max(np.abs(res.values[1:] - np.interp(res.nodes[1:], p.r, p.du))) <= 1e-6


def axis_K(speed) -> float:
    """K = psi'(1/c)/c: near the axis the slope equation's w-derivative is
    about (1 - K)/r."""
    eq = slope_equation(speed)
    return eq.dpsi(1.0 / eq.c) / eq.c


class TestAxisMultiplier:
    """Why ``picard_solve`` takes Newton steps: T maps eps r^p to
    (1 - K) eps r^p / p near the axis, the clamp pins the slope (p = 1), and
    the r^3 mode's multiplier mu_3 = (1 - K)/3 has |mu_3| > 1 exactly for
    n >= 4, at every radius since r^3 is scale-free."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_K_is_n_for_every_sigma_k(self, n):
        for k in range(2, n + 1):
            assert axis_K(sigma_k_root(k, n)) == pytest.approx(n, abs=1e-12)

    @pytest.mark.parametrize("n, K, mu3", [(3, 2.8, -0.6), (4, 4.4, -17.0 / 15.0),
                                           (5, 8.0, -7.0 / 3.0), (6, 22.0, -7.0)])
    def test_harmonic_axis_multiplier(self, n, K, mu3):
        got = axis_K(harmonic_pairs(n))
        assert got == pytest.approx(K, rel=1e-12)
        assert (1.0 - got) / 3.0 == pytest.approx(mu3, rel=1e-12)

    @pytest.mark.parametrize("n, last_change", [(3, None), (4, 1.056), (5, 1.635), (6, 3.120)])
    def test_plain_iteration_converges_only_for_n3(self, n, last_change):
        # w <- T(w) from the band midpoint at domain_radius(n): the r^3 mode
        # decays for n = 3 and keeps the iterates apart by order one for n >= 4
        R, m = domain_radius(n), 257
        w = initial_iterate(n, R, m)
        for _ in range(300):
            w_next, _events = operator_T(n, R, w)
            change = np.max(np.abs(w_next - w))
            w = w_next
        if last_change is None:
            assert change < 1e-13
        else:
            assert change == pytest.approx(last_change, abs=1e-3)

    @pytest.mark.parametrize("n, iterations", [(3, 32), (4, 47), (5, 82), (6, 208)])
    def test_relaxed_iteration_converges_to_the_newton_values(self, n, iterations):
        # w <- w + theta (T(w) - w) with theta = 1/(1 - mu_3) damps the r^3 mode
        theta = 1.0 / (1.0 - (1.0 - axis_K(harmonic_pairs(n))) / 3.0)
        R, m = domain_radius(n), 257
        w = initial_iterate(n, R, m)
        for count in range(1, 1000):
            t, _events = operator_T(n, R, w)
            if np.max(np.abs(t - w)) <= 1e-13:
                break
            w = w + theta * (t - w)
        assert abs(count - iterations) <= 1
        assert np.max(np.abs(w - picard_solve(n, R, m, tol=1e-13).values)) <= 2e-13


class TestResult:
    @pytest.mark.parametrize("m", [64, 2049])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("radius", [_default_radius, domain_radius])
    def test_nodes_values_and_fixed_point_csv(self, radius, n, m, tmp_path):
        # the values are a clip into [w4, w3] on the nodes, so the band holds
        # exactly and no value can be NaN
        R = radius(n)
        res = picard_solve(n, R, m)
        np.testing.assert_array_equal(res.nodes, np.linspace(0.0, R, m))
        assert res.values[0] == 0.0
        assert np.all(np.isfinite(res.values))
        assert np.all(barrier("w4", n)(res.nodes) <= res.values)
        assert np.all(res.values <= barrier("w3", n)(res.nodes))
        csv = tmp_path / "fp.csv"
        assert cli_main(["picard", "--n", str(n), "--R", repr(R), "--grid", str(m),
                         "--fixed-point-csv", str(csv)]) == 0
        assert csv.read_text().splitlines()[0] == "r,w"
        r, w = np.loadtxt(csv, delimiter=",", skiprows=1, unpack=True)
        np.testing.assert_array_equal(r, res.nodes)
        np.testing.assert_array_equal(w, res.values)


def _operator_T_fresh(n: int, R: float, w: np.ndarray) -> tuple[np.ndarray, int]:
    """Reference: one operator step whose nodes, band edges, slope range and
    slope equation come from fresh ``np.linspace``, ``barrier`` and
    ``slope_equation`` calls."""
    eq = slope_equation(harmonic_pairs(n))
    r = np.linspace(0.0, R, w.size)
    h = r[1] - r[0]
    w4, w3 = barrier("w4", n), barrier("w3", n)
    m = min(max(w[1] / r[1], w4.slope), w3.slope)
    g = np.empty(w.size)
    g[0] = m * eq.psi(1.0 / m)
    g[1:] = eq.rhs(r[1:], w[1:])
    out = np.concatenate(([0.0], np.cumsum(0.5 * h * (g[:-1] + g[1:]))))
    lo = np.concatenate(([0.0], w4(r[1:])))
    hi = np.concatenate(([0.0], w3(r[1:])))
    clamped = np.clip(out, lo, hi)
    return clamped, int(np.count_nonzero(clamped != out))


class TestGridConstantsOncePerSolve:
    @staticmethod
    def _count_barrier_calls(monkeypatch):
        import curvsol.picard as pic
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return barrier(*args, **kwargs)

        monkeypatch.setattr(pic, "barrier", counting)
        return calls

    def test_barrier_calls_do_not_grow_with_iterations(self, monkeypatch):
        calls = self._count_barrier_calls(monkeypatch)
        counts = {}
        for max_iter in (1, 2, 400):
            calls.clear()
            result = picard_solve(3, 0.3, 256, max_iter=max_iter)
            counts[len(result.iterations)] = len(calls)
        assert sorted(counts)[:2] == [1, 2] and max(counts) > 2
        assert len(set(counts.values())) == 1, counts

    def test_identical_solves_make_identical_calls(self, monkeypatch):
        calls = self._count_barrier_calls(monkeypatch)
        first = picard_solve(3, 0.3, 256)
        made = list(calls)
        calls.clear()
        second = picard_solve(3, 0.3, 256)
        assert calls == made
        assert first.iterations == second.iterations
        np.testing.assert_array_equal(first.values, second.values)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_operator_equals_fresh_constants_bitwise(self, n):
        R = min(domain_radius(n), lipschitz_radius(n)[1])
        w = initial_iterate(n, R, 257)
        for _ in range(3):
            ref, ref_events = _operator_T_fresh(n, R, w)
            out, events = operator_T(n, R, w)
            assert events == ref_events
            np.testing.assert_array_equal(out, ref)
            w = out


class TestSlopeTermsOncePerIteration:
    @staticmethod
    def _count_array_calls(monkeypatch):
        """Patch the solve's slope equation to count psi and dpsi calls on
        arrays; the axis terms call them on floats."""
        import curvsol.picard as pic
        calls = {"psi": 0, "dpsi": 0}

        def counting(spec):
            eq = slope_equation(spec)

            def psi(y):
                calls["psi"] += isinstance(y, np.ndarray)
                return eq.psi(y)

            def dpsi(y):
                calls["dpsi"] += isinstance(y, np.ndarray)
                return eq.dpsi(y)

            return dataclasses.replace(eq, psi=psi, dpsi=dpsi)

        monkeypatch.setattr(pic, "slope_equation", counting)
        return calls

    @pytest.mark.parametrize("n, R, m", [(3, 0.3, 256), (4, 0.2, 2049), (6, 0.1, 64)])
    def test_psi_on_arrays_once_per_iteration(self, monkeypatch, n, R, m):
        reference = picard_solve(n, R, m)
        calls = self._count_array_calls(monkeypatch)
        result = picard_solve(n, R, m)
        assert result.converged and len(result.iterations) > 2
        assert calls["psi"] == len(result.iterations)
        assert calls["dpsi"] == len(result.iterations) - 1     # no step after the last
        assert result.iterations == reference.iterations
        np.testing.assert_array_equal(result.values, reference.values)

    def test_a_step_after_every_iteration_that_max_iter_cuts(self, monkeypatch):
        calls = self._count_array_calls(monkeypatch)
        result = picard_solve(3, 0.3, 256, max_iter=2)
        assert not result.converged and len(result.iterations) == 2
        assert calls == {"psi": 2, "dpsi": 2}


def _lipschitz_radius_loop(n: int, samples: int, seed: int) -> tuple[float, float]:
    """Reference: ``lipschitz_radius`` one sample at a time on Python floats."""
    rng = np.random.default_rng(seed)
    w4, w3 = barrier("w4", n), barrier("w3", n)
    worst = 0.0
    for _ in range(samples):
        r = domain_radius(n) * rng.uniform(1e-6, 1.0)
        w = rng.uniform(w4(r), w3(r))
        worst = max(worst, abs(harmonic_rhs_dw(n, r, w)) * r)
    return worst, float(np.sqrt(2.0 * 0.99 / worst))


class TestLipschitzRadius:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_per_sample_loop(self, n):
        for seed in range(4):
            assert lipschitz_radius(n, samples=1500, seed=seed) == \
                _lipschitz_radius_loop(n, 1500, seed)

    def test_derivative_elementwise_on_arrays(self):
        rng = np.random.default_rng(8)
        for n in (3, 4, 5, 6):
            w4, w3 = barrier("w4", n), barrier("w3", n)
            r = rng.uniform(1e-6, domain_radius(n), 500)
            w = w4(r) + (w3(r) - w4(r)) * rng.random(500)
            scalar = [harmonic_rhs_dw(n, float(ri), float(wi)) for ri, wi in zip(r, w)]
            np.testing.assert_array_equal(harmonic_rhs_dw(n, r, w), scalar)
            w[17] = 0.0          # w - q*r < 0: one entry outside the cone
            with pytest.raises(DomainError, match="admissible cone"):
                harmonic_rhs_dw(n, r, w)

    def test_finite_positive(self):
        for n in (3, 6):
            c_n, r2 = lipschitz_radius(n, samples=1500, seed=1)
            assert 0.0 < c_n < 1e3
            assert 0.0 < r2

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_band_lies_in_the_cone(self, n):
        # every draw has w >= w4(r) = m4 r, and m4 > q = 1/y_max puts it in the
        # cone r/w < y_max, where rhs_dw is finite (5.16 against 5 at n = 6)
        assert barrier("w4", n).slope > 1.0 / slope_equation(harmonic_pairs(n)).y_max

    def test_no_samples_rejected(self):
        with pytest.raises(ParameterError, match="samples must be >= 1"):
            lipschitz_radius(3, samples=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            lipschitz_radius(3, samples=10, seed=-1)

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        w4, w3 = barrier("w4", 3), barrier("w3", 3)
        for _ in range(25):
            r = float(rng.uniform(0.02, domain_radius(3)))
            w = float(rng.uniform(w4(r), w3(r)))
            h = 1e-7
            fd = (harmonic_rhs(3, r, w + h) - harmonic_rhs(3, r, w - h)) / (2 * h)
            assert harmonic_rhs_dw(3, r, w) == pytest.approx(fd, rel=1e-6)

    def test_slope_sensitivity_negative_on_band(self):
        # the right-hand side is decreasing in the slope throughout the band,
        # so the one-sided bound dG/dw <= C(n) r holds with room to spare
        rng = np.random.default_rng(6)
        for n in (3, 4, 5, 6):
            w4, w3 = barrier("w4", n), barrier("w3", n)
            # the band's lower edge m4 r stays above the cone edge q r, so
            # every band point has w - q r > 0
            assert w4.slope > (n * n - 3 * n + 2) / 4.0
            for _ in range(50):
                r = float(rng.uniform(1e-3, domain_radius(n)))
                w = float(rng.uniform(w4(r), w3(r)))
                assert harmonic_rhs_dw(n, r, w) < 0.0

    def test_annihilating_combination(self):
        # the lower-edge slope is calibrated so the order-r^2 part of the
        # numerator, bounded with the upper linear barrier in the cross term,
        # cancels exactly: -w4^2 - n q r^2 + 2 q r w2 = 0
        for n in (3, 4, 5, 6):
            q = (n * n - 3 * n + 2) / 4.0
            w4, w2 = barrier("w4", n), barrier("w2", n)
            for r in (0.01, 0.1):
                expr = -w4(r) ** 2 - n * q * r * r + 2.0 * q * r * w2(r)
                assert abs(expr) <= 1e-12 * r * r
