"""Tests for the integral-operator fixed point: quadrature, clamping,
convergence, and the slope-sensitivity estimate."""

import numpy as np
import pytest

from curvsol import (
    ContractionFailureError,
    DomainError,
    GridFunction,
    ParameterError,
    barrier,
    domain_radius,
    harmonic_pairs,
    initial_iterate,
    integrate_profile,
    lipschitz_radius,
    operator_T,
    picard_solve,
)
from curvsol.picard import _quadrature
from curvsol.profiles import harmonic_rhs, harmonic_rhs_dw


def barrier_grid(name: str, n: int, R: float, m: int) -> GridFunction:
    b = barrier(name, n)
    r = np.linspace(0.0, R, m)
    vals = np.concatenate(([0.0], b(r[1:])))
    return GridFunction(n=n, R=R, values=vals)


class TestGridFunction:
    def test_requires_zero_at_axis(self):
        with pytest.raises(ParameterError):
            GridFunction(n=3, R=0.3, values=np.array([0.1, 0.2, 0.3]))

    def test_requires_band_membership(self):
        r = np.linspace(0.0, 0.3, 8)
        vals = 3.0 * r   # above w3 near the axis
        with pytest.raises(ParameterError, match="band"):
            GridFunction(n=3, R=0.3, values=vals)

    def test_accepts_band_interior(self):
        g = initial_iterate(3, 0.3, 64)
        assert g.values[0] == 0.0
        assert g.m == 64


class TestOperatorT:
    def test_closed_form_on_sub_solution_line(self):
        # along the linear sub-solution the integrand is c (1 + c^2 s^2), so
        # the operator returns c r + c^3 r^3 / 3 exactly up to trapezoid error
        n, R, m = 3, 0.1, 4097
        w = barrier_grid("w1", n, R, m)
        out, _events = operator_T(n, w)
        c = 7.0 / 4.0
        r = w.nodes
        exact = c * r + c ** 3 * r ** 3 / 3.0
        assert np.max(np.abs(out.values - exact)) <= 1e-10
        assert out.values[-1] == pytest.approx(0.175 + 343.0 / 192.0 * 1e-3, rel=1e-7)

    def test_degenerate_two_node_grid(self):
        R = 1e-8
        w = barrier_grid("w1", 4, R, 2)
        out, _ = operator_T(4, w)
        assert out.values[1] == pytest.approx(w.values[1], rel=1e-6)

    def test_maps_lower_barrier_up(self):
        # the unclamped image of the lower edge exceeds the edge everywhere
        # (it overshoots the band's top near the axis, which the clamp absorbs)
        n, R, m = 3, 0.3, 513
        w4_grid = barrier_grid("w4", n, R, m)
        raw = _quadrature(n, w4_grid)
        w4 = barrier("w4", n)
        assert np.all(raw[1:] >= w4(w4_grid.nodes[1:]))
        _out, events = operator_T(n, w4_grid)
        assert events > 0

    def test_x_violation_error(self):
        r = np.linspace(0.0, 0.3, 65)
        vals = np.concatenate(([0.0], barrier("w4", 3)(r[1:])))
        grid = GridFunction(n=3, R=0.3, values=vals)
        object.__setattr__(grid, "values", np.concatenate(([0.0], 0.4 * r[1:])))
        with pytest.raises(Exception, match="denominator"):
            _quadrature(3, grid)


@pytest.fixture(scope="module")
def solution():
    return picard_solve(3, 0.3, 2048, tol=1e-12)


class TestPicardSolve:
    def test_converges_with_contracting_ratios(self, solution):
        assert solution.converged
        ratios = solution.contraction_ratios
        assert ratios
        assert max(ratios) < 1.0

    def test_startup_slope_recovered(self, solution):
        g = solution.grid
        assert g.values[1] / g.nodes[1] == pytest.approx(1.75, abs=1e-3)

    def test_fixed_point_strictly_inside_bands(self, solution):
        g = solution.grid
        r = g.nodes[1:]
        w4, w3 = barrier("w4", 3), barrier("w3", 3)
        w1, w2 = barrier("w1", 3), barrier("w2", 3)
        assert np.all(g.values[1:] > w4(r))
        assert np.all(g.values[1:] < w3(r))
        assert np.all(g.values[1:] >= w1(r) - 1e-9)
        mask = r <= w2.r_end
        assert np.all(g.values[1:][mask] <= w2(r[mask]) + 1e-9)

    def test_matches_adaptive_integration(self, solution):
        p = integrate_profile(harmonic_pairs(3), startup_radius=1e-6, r_max=0.3,
                              rtol=1e-12, atol=1e-15, max_step=1e-3)
        g = solution.grid
        rk = np.interp(g.nodes[1:], p.r, p.du)
        assert np.max(np.abs(g.values[1:] - rk)) <= 1e-6

    def test_quadrature_order(self):
        # node coordinates of an m-grid embed in the (2m-1)-grid, so the
        # fixed-point change under step halving is measured exactly
        R = 0.3
        fp = {m: picard_solve(3, R, m, tol=1e-13, max_iter=600).grid.values
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

    def test_contraction_failure_reported(self, monkeypatch):
        # force a non-contracting map: alternate between two fixed grids
        import curvsol.picard as pic
        a = initial_iterate(3, 0.3, 64)
        bump = np.concatenate(([0.0], np.full(63, 1e-3)))
        b = GridFunction(n=3, R=0.3, values=a.values + bump)
        state = {"flip": False}

        def fake_T(n, w):
            state["flip"] = not state["flip"]
            return (b if state["flip"] else a), 0

        monkeypatch.setattr(pic, "operator_T", fake_T)
        with pytest.raises(ContractionFailureError):
            pic.picard_solve(3, 0.3, 64, tol=1e-15, max_iter=50)


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
