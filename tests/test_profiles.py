"""Tests for profile right-hand sides, closed forms, barriers, and the
RK45 profile integrator."""

import math
from math import comb, exp, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvsol import (
    DomainError,
    ParameterError,
    barrier,
    check_soliton,
    closed_form_cyl,
    closed_form_v,
    cyl_height,
    harmonic_pairs,
    harmonic_rhs,
    integrate_profile,
    profiles,
    sigma_k_root,
    sigma_rhs,
    solve_cyl_profile,
    startup_slope,
)
from curvsol.profiles import BARRIER_NAMES


def _sigma_rhs_expanded(k: int, n: int, r: float, v: float) -> float:
    """Algebraically equivalent expanded form of ``sigma_rhs``, the reference
    for the cross-check that both printed forms agree."""
    return (1.0 + v * v) / k * (k / comb(n - 1, k - 1) * (r / v) ** (k - 1)
                                - (n - k) * (v / r))

RNG = np.random.default_rng(5150)


class TestSigmaRhs:
    def test_closed_form_slope(self):
        v = sqrt(math.e - 1.0)
        assert sigma_rhs(2, 2, 1.0, v) == pytest.approx(math.e / v, rel=1e-14)

    def test_super_solution_slope_zeroes_bracket(self):
        # at v = r the bracket (1/2)(r/v)^2 - 1/2 vanishes for k=2, n=3
        for r in (0.2, 1.0, 2.5):
            assert sigma_rhs(2, 3, r, r) == pytest.approx(0.0, abs=1e-14)

    def test_startup_tangency(self):
        # along v = c r the right-hand side approaches c as r -> 0
        for k, n in [(2, 3), (3, 4), (2, 2), (4, 5)]:
            c = startup_slope(sigma_k_root(k, n))
            for r in (1e-5, 1e-6):
                assert sigma_rhs(k, n, r, c * r) / c == pytest.approx(1.0, abs=1e-9)

    def test_two_printed_forms_agree(self):
        for _ in range(50):
            n = int(RNG.integers(2, 7))
            k = int(RNG.integers(2, n + 1))
            r = float(RNG.uniform(0.01, 3.0))
            v = float(RNG.uniform(0.01, 3.0))
            a = sigma_rhs(k, n, r, v)
            b = _sigma_rhs_expanded(k, n, r, v)
            assert a == pytest.approx(b, rel=1e-12)

    def test_odd_symmetry_of_expanded_form(self):
        # the negative branch solves the same equation with v -> -v
        for r, v in [(0.5, 0.3), (1.0, 1.2)]:
            assert _sigma_rhs_expanded(2, 2, r, -v) == pytest.approx(
                -_sigma_rhs_expanded(2, 2, r, v), rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sigma_rhs(2, 3, -1.0, 1.0)
        with pytest.raises(DomainError):
            sigma_rhs(2, 3, 1.0, 0.0)
        with pytest.raises(ParameterError):
            sigma_rhs(1, 3, 1.0, 1.0)


class TestHarmonicRhs:
    def test_sub_solution_line(self):
        # along w = (7/4) r at n=3 the band ratio equals 1
        got = harmonic_rhs(3, 0.1, 0.175)
        assert got == pytest.approx(1.75 * (1.0 + 0.175 ** 2), rel=1e-14)
        assert got == pytest.approx(1.80359375, rel=1e-12)

    def test_numerator_zero(self):
        assert harmonic_rhs(3, 0.1, 0.3) == pytest.approx(0.0, abs=1e-14)

    def test_denominator_zero_rejected(self):
        with pytest.raises(DomainError, match="admissible cone"):
            harmonic_rhs(3, 0.1, 0.05)

    def test_harmonic_startup_tangency(self):
        # along w = c r the band ratio is exactly 1 and the right-hand side
        # is c (1 + c^2 r^2), tangent to slope c at the axis
        for n in (3, 4, 5, 6):
            c = startup_slope(harmonic_pairs(n))
            for r in (1e-3, 1e-5):
                w = c * r
                assert harmonic_rhs(n, r, w) == pytest.approx(c * (1.0 + w * w), rel=1e-12)


class TestClosedForms:
    def test_v_at_zero(self):
        assert closed_form_v(0.0, 0.0) == 0.0

    def test_v_at_one(self):
        assert closed_form_v(0.0, 1.0) == pytest.approx(sqrt(math.e - 1.0), rel=1e-15)

    def test_v_negative_branch(self):
        assert closed_form_v(0.5, 1.3, sign=-1) == -closed_form_v(0.5, 1.3, sign=+1)

    def test_v_solves_equation_five_point(self):
        # five-point finite-difference derivative against the right-hand side
        h = 1e-4
        for r in (0.5, 1.0, 2.0):
            vals = [closed_form_v(0.0, r + i * h) for i in (-2, -1, 1, 2)]
            dv = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
            assert dv == pytest.approx(sigma_rhs(2, 2, r, closed_form_v(0.0, r)), rel=1e-8)

    def test_cyl_slope_values(self):
        assert closed_form_cyl(0.0, 1.0) == pytest.approx(1.0 / sqrt(math.e - 1.0), rel=1e-15)
        assert closed_form_cyl(0.0, 1.2) == pytest.approx(1.0 / sqrt(exp(1.44) - 1.0), rel=1e-14)

    def test_cyl_slope_flattens(self):
        assert closed_form_cyl(0.0, 8.0) < 1e-13

    def test_cyl_below_waist(self):
        with pytest.raises(DomainError):
            closed_form_cyl(0.5, 0.9)

    def test_cyl_profile_ode_identity(self):
        # r'' computed from dz-differentiation of the closed-form slope
        # agrees with -(1+r'^2) r r'^2
        h = 1e-5
        for r in (0.8, 1.0, 1.7):
            f = closed_form_cyl(0.0, r)
            df_dr = (closed_form_cyl(0.0, r + h) - closed_form_cyl(0.0, r - h)) / (2 * h)
            assert df_dr * f == pytest.approx(-(1 + f * f) * r * f * f, rel=1e-8)


class TestCylProfileInversion:
    def test_anchor(self):
        assert solve_cyl_profile(0.0, 0.0) == 1.0

    def test_round_trip(self):
        z2 = cyl_height(0.0, 2.0)
        assert abs(solve_cyl_profile(0.0, z2) - 2.0) <= 1e-10

    def test_unsolvable_height(self):
        with pytest.raises(DomainError):
            solve_cyl_profile(0.0, -1.0)

    def test_monotone(self):
        rs = [solve_cyl_profile(0.0, z) for z in (-0.5, -0.2, 0.0, 0.5, 2.0)]
        assert all(a < b for a, b in zip(rs, rs[1:]))


class TestBarriers:
    def test_v1_slope(self):
        assert barrier("v1", 3, k=2).slope == pytest.approx(sqrt(1.0 / 3.0), rel=1e-15)

    def test_w4_slope_n3(self):
        # n^4-4n^3+7n^2-8n+4 = 16 at n = 3
        assert barrier("w4", 3).slope == pytest.approx(2.0 / sqrt(6.0), rel=1e-15)

    def test_w3_asymptote(self):
        w3 = barrier("w3", 3)
        with pytest.raises(DomainError, match="0.571428"):
            w3(8.0 / 14.0)

    def test_w2_closed_domain(self):
        w2 = barrier("w2", 3)
        end = 12.0 / 26.0
        assert w2(end) == pytest.approx(1.0, rel=1e-14)  # slope * end = 1 by design
        with pytest.raises(DomainError):
            w2(end + 1e-12)

    def test_v2_requires_k_below_n(self):
        with pytest.raises(ParameterError):
            barrier("v2", 2, k=2)
        assert barrier("v2", 3, k=2).slope == pytest.approx(comb(2, 2) ** -0.5, rel=1e-15)

    def test_v3_satisfies_its_ode(self):
        v3 = barrier("v3", 3, k=2)
        h = 1e-6
        for r in (0.3, 0.9):
            dv = (v3(r + h) - v3(r - h)) / (2 * h)
            assert dv == pytest.approx(v3(r) / r * (1 + v3(r) ** 2), rel=1e-8)

    def test_w5_satisfies_half_ode(self):
        w5 = barrier("w5", 3)
        h = 1e-7
        for r in (0.1, 0.3):
            dw = (w5(r + h) - w5(r - h)) / (2 * h)
            assert dw == pytest.approx(w5(r) / (2 * r) * (1 + w5(r) ** 2), rel=1e-6)

    def test_w5_is_a_super_solution_above_w3(self):
        # w5/r >= 2a^2 = 2*c1 > n puts the harmonic right-hand side below 0 on w5,
        # and w5^2/w3^2 = (1+x)/x with x = c1*r
        for n in (3, 4, 5, 6):
            w3, w5 = barrier("w3", n), barrier("w5", n)
            assert w5.role == "super"
            assert w5.r_end == pytest.approx(w3.r_end, rel=1e-15)
            r = np.linspace(1e-4, 0.999, 400) * w3.r_end
            assert np.all(w5(r) / r >= 2 * w3.slope * (1 - 1e-12))
            assert np.all(w5(r) > w3(r))
            x = w3.slope * r
            assert np.allclose((w5(r) / w3(r)) ** 2, (1 + x) / x, rtol=1e-12)
        assert barrier("w5", 3, a=1.0).role == "comparison"

    def test_barrier_ordering_slopes(self):
        # sub-solution slopes sit below super-solution slopes
        for n in (3, 4, 5, 6):
            assert barrier("w4", n).slope < barrier("w1", n).slope < barrier("w2", n).slope
            for k in range(2, n):
                assert barrier("v1", n, k=k).slope <= barrier("v2", n, k=k).slope + 1e-15

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            barrier("v9", 3)


@st.composite
def admitted_barriers(draw):
    """Every barrier name with an (n, k) its factory admits."""
    name = draw(st.sampled_from(BARRIER_NAMES))
    if name.startswith("w"):
        return barrier(name, draw(st.integers(3, 6)))
    n = draw(st.integers(3 if name == "v2" else 2, 6))
    k = draw(st.integers(2, n - 1) if name == "v2" else st.integers(1, n))
    return barrier(name, n, k=k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(admitted_barriers(), st.floats(0.0, 1.0), st.floats(1e-300, 1e6))
def test_barrier_domain_edges(b, t, d):
    with pytest.raises(DomainError):
        b(-d)
    if np.isfinite(b.r_end):
        with pytest.raises(DomainError):
            b(np.nextafter(b.r_end * (1.0 + t), np.inf))
    if b.closed_end:
        assert np.isfinite(b(b.r_end)) and b(b.r_end) >= 0.0
    else:
        with pytest.raises(DomainError):
            b(b.r_end)
    top = b.r_end if np.isfinite(b.r_end) else 1e6
    r = min(t * top, float(np.nextafter(b.r_end, 0.0)))
    value = b(r)
    assert np.isfinite(value) and value >= 0.0


class TestIntegrateProfile:
    def test_closed_form_oracle(self):
        p = integrate_profile(sigma_k_root(2, 2), startup_radius=1e-4, r_max=3.0,
                              rtol=1e-13, atol=1e-15)
        assert p.status == "completed"
        exact = np.sqrt(np.exp(p.r ** 2) - 1.0)
        assert np.max(np.abs(p.du - exact)) <= 1e-8

    def test_sigma_profile_between_barriers(self):
        p = integrate_profile(sigma_k_root(2, 3), r_max=2.5)
        v1, v2 = barrier("v1", 3, k=2), barrier("v2", 3, k=2)
        assert np.all(p.du >= v1(p.r) - 1e-12)
        assert np.all(p.du <= v2(p.r) + 1e-12)
        # strictly inside away from the startup
        inner = p.r > 0.1
        assert np.all(p.du[inner] > v1(p.r[inner]))
        assert np.all(p.du[inner] < v2(p.r[inner]))

    def test_sigma_bracket_in_unit_interval(self):
        p = integrate_profile(sigma_k_root(3, 4), r_max=2.0)
        bracket = (p.r / p.du) ** 3 / comb(3, 2) - (4 - 3) / 3.0
        assert np.all(bracket >= -1e-12)
        assert np.all(bracket <= 1.0 + 1e-12)
        assert np.all(p.ddu >= 0.0)

    def test_harmonic_profile_band(self):
        p = integrate_profile(harmonic_pairs(3), r_max=1.0)
        assert p.status == "completed"
        w1, w2 = barrier("w1", 3), barrier("w2", 3)
        assert np.all(p.du >= w1(p.r) - 1e-12)
        mask = p.r <= w2.r_end
        assert np.all(p.du[mask] <= w2(p.r[mask]) + 1e-12)
        ratio = (3.0 - p.du / p.r) / (p.du / p.r - 0.5)
        assert np.all(ratio[mask] >= 0.5 - 1e-9)
        assert np.all(ratio[mask] <= 1.0 + 1e-9)

    def test_harmonic_slope_saturates_below_n(self):
        # solutions of the harmonic slope equation approach slope n from
        # below and never blow up (the numerator vanishes at w = n r)
        p = integrate_profile(harmonic_pairs(4), r_max=5.0)
        assert p.status == "completed"
        assert p.blowup_radius is None
        m = p.du / p.r
        assert np.all(m < 4.0)
        assert m[-1] > 3.9

    def test_samples_strictly_increasing_and_convex(self):
        p = integrate_profile(harmonic_pairs(5), r_max=1.0)
        assert np.all(np.diff(p.r) > 0.0)
        assert np.all(np.diff(p.du) > 0.0)
        assert np.all(p.ddu >= 0.0)

    def test_startup_consistency(self):
        p = integrate_profile(sigma_k_root(2, 3), startup_radius=1e-4, r_max=0.5)
        c = p.startup_slope
        assert p.r[0] == p.startup_radius
        assert p.u[0] == pytest.approx(0.5 * c * p.startup_radius ** 2, rel=1e-6)
        assert p.du[0] == pytest.approx(c * p.startup_radius, rel=1e-12)

    def test_ddu_is_rhs_exactly(self):
        p = integrate_profile(sigma_k_root(2, 3), r_max=1.0)
        for r, _u, du, ddu in p.samples[::10]:
            assert ddu == sigma_rhs(2, 3, r, du)

    def test_tolerance_halving(self):
        tol = 1e-8
        a = integrate_profile(sigma_k_root(2, 3), r_max=1.5, rtol=tol)
        b = integrate_profile(sigma_k_root(2, 3), r_max=1.5, rtol=tol / 2.0)
        assert abs(a.du[-1] - b.du[-1]) / abs(b.du[-1]) < 10.0 * tol

    def test_startup_radius_insensitivity(self):
        vals = []
        for eps in (1e-3, 1e-4, 1e-5):
            p = integrate_profile(sigma_k_root(2, 3), startup_radius=eps, r_max=1.0,
                                  rtol=1e-12, atol=1e-15)
            vals.append(np.interp(1.0, p.r, p.du))
        assert max(vals) - min(vals) < 1e-7

    def test_blowup_threshold_semantics(self):
        # the k = n = 2 profile grows like e^{r^2/2}: the slope threshold
        # fires once it is exceeded and the last accepted node is reported
        p = integrate_profile(sigma_k_root(2, 2), r_max=8.0, blowup_threshold=1e6)
        assert p.status == "blew_up"
        assert p.blowup_radius == p.r[-1]
        assert p.du[-1] > 1e6

    def test_mean_curvature_excluded(self):
        with pytest.raises(ParameterError):
            integrate_profile(sigma_k_root(1, 3), r_max=1.0)

    def test_harmonic_n_range(self):
        with pytest.raises(ParameterError):
            integrate_profile(harmonic_pairs(7), r_max=1.0)

    def test_recorded_rtol_is_the_one_used(self):
        with pytest.warns(UserWarning, match="rtol"):
            p = integrate_profile(sigma_k_root(2, 2), r_max=1.0, rtol=1e-15)
        assert p.tolerances["rtol"] == 100 * np.finfo(float).eps
        assert integrate_profile(sigma_k_root(2, 2), r_max=1.0).tolerances["rtol"] == 1e-10

    def test_step_budget_exhausted(self):
        p = integrate_profile(sigma_k_root(2, 3), r_max=1.0, max_steps=3)
        assert p.status == "step_failure"
        assert p.blowup_radius is None
        assert p.samples.shape[0] == 4 and p.r[-1] < 1.0
        with pytest.raises(ParameterError):
            check_soliton(p, 1e-8)

    def test_rhs_domain_error_shrinks_the_step(self, monkeypatch):
        reference = integrate_profile(sigma_k_root(2, 3), r_max=1.0)
        original = profiles.sigma_rhs
        raised = []

        def flaky(k, n, r, v):
            if 0.5 < r < 0.53 and len(raised) < 5:
                raised.append(r)
                raise DomainError("injected")
            return original(k, n, r, v)

        monkeypatch.setattr(profiles, "sigma_rhs", flaky)
        p = integrate_profile(sigma_k_root(2, 3), r_max=1.0)
        assert len(raised) == 5
        assert p.status == "completed" and p.r[-1] == 1.0
        assert p.du[-1] == pytest.approx(reference.du[-1], rel=1e-10, abs=0.0)
