"""Tests for the slope equation, closed forms, barriers, and the profile
integrator: LSODA with the exact Jacobian, restarted from the last node with
half the step whenever a step reaches a NaN."""

import math
import warnings
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
    cyl_profile,
    harmonic_pairs,
    integrate_profile,
    profiles,
    sigma_k_root,
    slope_equation,
    speeds,
)
from curvsol.profiles import BARRIER_NAMES


def sigma_rhs(k: int, n: int, r: float, v: float) -> float:
    return slope_equation(sigma_k_root(k, n)).rhs(r, v)


def harmonic_rhs(n: int, r: float, w: float) -> float:
    return slope_equation(harmonic_pairs(n)).rhs(r, w)


def _sigma_rhs_expanded(k: int, n: int, r: float, v: float) -> float:
    """Algebraically equivalent expanded form of the k-th-root ``rhs``, the reference
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
            c = slope_equation(sigma_k_root(k, n)).c
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
        # k = 1 is the mean-curvature equation, psi(y) = y - (n-1)
        assert sigma_rhs(1, 3, 1.0, 1.0) == -2.0


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
            c = slope_equation(harmonic_pairs(n)).c
            for r in (1e-3, 1e-5):
                w = c * r
                assert harmonic_rhs(n, r, w) == pytest.approx(c * (1.0 + w * w), rel=1e-12)


class TestSlopeEquation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_psi_inverts_the_speed_kernel(self, n):
        # gamma(psi(y), 1, ..., 1) = y, so the kernel stays the one definition
        # of each speed.  Below y = 1/2 the kernel's sigma_k, C(n-1,k-1) x +
        # C(n-1,k) with x near -(n-k)/k, loses digits to cancellation.
        for k in range(2, n + 1):
            spec = sigma_k_root(k, n)
            eq = slope_equation(spec)
            y = np.append(np.linspace(0.5, 4.0, 36), 1.0 / eq.c)
            rows = np.ones((y.size, n))
            rows[:, 0] = eq.psi(y)
            assert np.all(np.abs(speeds.speed_values(spec, rows) - y) <= 1e-14 * y)
            assert eq.psi(1.0 / eq.c) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_harmonic_model_is_not_the_speed(self, n):
        # the paper's harmonic psi is not the inverse of the harmonic-pairs
        # speed: the axis slope misses 1/gamma(1, ..., 1) by 0.167, 0.083,
        # 0.200 and 0.267 for n = 3..6, the O(0.1) soliton residual
        spec = harmonic_pairs(n)
        eq = slope_equation(spec)
        assert eq.psi(1.0 / eq.c) == pytest.approx(1.0, rel=1e-14)
        assert abs(eq.c * speeds.speed_values(spec, [np.ones(n)])[0] - 1.0) >= 0.05

    @pytest.mark.parametrize("spec", [sigma_k_root(3, 5), harmonic_pairs(4)])
    def test_rhs_dw_matches_finite_differences(self, spec):
        eq = slope_equation(spec)
        for r, w in [(0.05, 0.2), (0.2, 0.7), (1.0, 4.0)]:
            h = 1e-6 * w
            fd = (eq.rhs(r, w + h) - eq.rhs(r, w - h)) / (2.0 * h)
            assert eq.rhs_dw(r, w) == pytest.approx(fd, rel=1e-7)


class TestClosedForms:
    def test_v_at_zero(self):
        assert closed_form_v(0.0, 0.0) == 0.0

    def test_v_at_one(self):
        assert closed_form_v(0.0, 1.0) == pytest.approx(sqrt(math.e - 1.0), rel=1e-15)

    def test_v_negative_a_rejected(self):
        with pytest.raises(ParameterError, match="a must be >= 0, got -1"):
            closed_form_v(-1, 0)

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


def quad_height(r: float) -> float:
    """Oracle: the signed height z(r) of the cylindrical-type profile (a = 0),
    the quadrature of sqrt(e^{s^2} - 1) from 1 to r."""
    from scipy.integrate import quad
    return quad(lambda s: sqrt(math.expm1(s * s)), 1.0, r, epsabs=1e-12, epsrel=1e-13)[0]


class TestCylProfile:
    def test_anchor(self):
        r, dr = cyl_profile([0.0])
        assert r[0] == 1.0 and dr[0] == closed_form_cyl(0.0, 1.0)

    def test_round_trip(self):
        r, _ = cyl_profile([quad_height(2.0)])
        assert abs(r[0] - 2.0) <= 1e-10

    def test_default_heights_match_the_quadrature(self):
        z = np.linspace(-0.5, 3.0, 100)
        r, dr = cyl_profile(z)
        heights = np.array([quad_height(x) for x in r])
        # to first order the radius is off by the height's error times dr/dz
        assert np.max(np.abs(heights - z) * dr / r) <= 1e-12
        assert np.all(np.abs(dr - [closed_form_cyl(0.0, x) for x in r]) <= 1e-15 * dr)

    def test_monotone(self):
        r, dr = cyl_profile([-0.5, -0.2, 0.0, 0.5, 2.0])
        assert np.all(np.diff(r) > 0.0) and np.all(dr > 0.0)

    @pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf])
    def test_non_finite_height_is_nan(self, z):
        r, dr = cyl_profile([z, 1.0])
        assert np.isnan(r[0]) and np.isnan(dr[0]) and r[1] > 1.0

    def test_heights_below_the_waist_are_nan(self):
        z_waist = quad_height(0.0)
        r, _ = cyl_profile([-1.0, 0.999 * z_waist, 1.001 * z_waist, 0.5])
        assert np.isnan(r[0]) and r[1] > 0.0 and np.isnan(r[2]) and r[3] > 1.0

    def test_side_with_every_height_below_the_waist(self):
        r, dr = cyl_profile([-2.0, -1.0, 0.0])
        assert np.isnan(r[:2]).all() and np.isnan(dr[:2]).all() and r[2] == 1.0

    def test_unsorted_and_duplicate_heights(self):
        z = np.array([2.0, -0.3, 0.7, 2.0, -0.3, 0.0, 0.7])
        r, dr = cyl_profile(z)
        order = np.argsort(z)
        assert np.array_equal(r[order], np.sort(r))
        assert r[0] == r[3] and r[1] == r[4] and r[2] == r[6]
        r_one = np.array([cyl_profile([x])[0][0] for x in z])
        assert np.allclose(r, r_one, rtol=1e-12, atol=0.0)

    def test_far_heights_are_solved(self):
        # beyond r = 16 the old bracket overflowed; a double still solves them
        r, dr = cyl_profile([5e54, 1e55])
        assert r == pytest.approx([16.04497, 16.08828], abs=1e-5)
        assert np.all((dr > 0.0) & (dr < 1e-55))

    def test_heights_past_the_overflow_end_are_nan(self):
        # e^{r^2} overflows past r^2 = log(float max) = 709.78, near z = 5.0e152
        r, _ = cyl_profile([1e150, 1e200, 1e300])
        assert 26.0 < r[0] < np.sqrt(np.log(np.finfo(float).max))
        assert np.isnan(r[1:]).all()


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
            assert w5.r_end == pytest.approx(w3.r_end, rel=1e-15)
            r = np.linspace(1e-4, 0.999, 400) * w3.r_end
            assert np.all(w5(r) / r >= 2 * w3.slope * (1 - 1e-12))
            assert np.all(w5(r) > w3(r))
            x = w3.slope * r
            assert np.allclose((w5(r) / w3(r)) ** 2, (1 + x) / x, rtol=1e-12)

    def test_barrier_ordering_slopes(self):
        # sub-solution slopes sit below super-solution slopes
        for n in (3, 4, 5, 6):
            assert barrier("w4", n).slope < barrier("w1", n).slope < barrier("w2", n).slope
            for k in range(2, n):
                assert barrier("v1", n, k=k).slope <= barrier("v2", n, k=k).slope + 1e-15

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            barrier("v9", 3)

    @pytest.mark.parametrize("name", ["v1", "v3"])
    def test_sigma_axis_slope_is_the_slope_equations(self, name):
        for n in range(2, 7):
            for k in range(2, n + 1):
                c = slope_equation(sigma_k_root(k, n)).c
                assert barrier(name, n, k=k).slope == c, (n, k)

    @pytest.mark.parametrize("name", ["w1", "w3"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_harmonic_axis_slope_is_the_slope_equations(self, name, n):
        assert barrier(name, n).slope == slope_equation(harmonic_pairs(n)).c

    @pytest.mark.parametrize("name", ["w1", "w2", "w3", "w4", "w5"])
    @pytest.mark.parametrize("n", [2, 7])
    def test_harmonic_family_requires_n_3_to_6(self, name, n):
        # the model's axis slope leaves its own cone at n = 7:
        # 1/c = 8/58 > y_max = 1/q = 4/30
        with pytest.raises(ParameterError, match="n in 3..6"):
            barrier(name, n)

    # a^2 is 0 at 1e-200 and its end 1/a^2 inf at 1e-160; a^2 is inf at 1e160 and 1e200
    @pytest.mark.parametrize("a", [0.0, -1.0, np.inf, np.nan, 1e-200, 1e-160, 1e160, 1e200])
    def test_w5_requires_finite_positive_a(self, a):
        with pytest.raises(ParameterError, match="finite a > 0"):
            barrier("w5", 3, a=a)


def _exact_slope_equation(spec):
    """psi as an expression in y, with its slopes c (psi(1/c) = 1) and a0
    (psi(1/a0) = 0, None for k = n) exact, and for the harmonic model w2's
    slope c2 (psi(1/c2) = 1/2) and q (the cone is y < 1/q)."""
    import sympy as sp
    n, k, y = spec.n, spec.k, sp.Symbol("y", positive=True)
    if spec.kind == "sigma_k_root":
        psi = y ** k / comb(n - 1, k - 1) - sp.Rational(n - k, k)
        c = sp.Rational(1, comb(n, k)) ** sp.Rational(1, k)
        a0 = sp.Rational(1, comb(n - 1, k)) ** sp.Rational(1, k) if k < n else None
        return y, psi, c, a0, None, None
    q = sp.Rational(n * n - 3 * n + 2, 4)
    return (y, (n * y - 1) / (1 - q * y), (n + q) / 2, sp.Integer(n),
            sp.Rational(n * n + 5 * n + 2, 12), q)


EXACT_CASES = ([sigma_k_root(k, n) for n in range(2, 7) for k in range(1, n + 1)]
               + [harmonic_pairs(n) for n in range(3, 7)])


@pytest.mark.parametrize("spec", EXACT_CASES, ids=[f"{s.kind}-n{s.n}-k{s.k}" for s in EXACT_CASES])
def test_barrier_family_proof(spec):
    """The barrier inequalities hold exactly, with the slopes the code uses:
    c r is a sub-solution, a0 r a solution, and the asymptote
    W = c r/sqrt(1 - c^2 r^2) a super-solution on [0, 1/c), since
    W' - rhs(r, W) = W'(1 - psi(sqrt(1 - c^2 r^2)/c)) with psi increasing."""
    import sympy as sp
    Y, psi, c, a0, c2, q = _exact_slope_equation(spec)
    R, T = sp.symbols("r t", positive=True)
    eq = slope_equation(spec)
    assert eq.c == pytest.approx(float(c), rel=1e-15)
    assert eq.a0 == (np.inf if a0 is None else pytest.approx(float(a0), rel=1e-15))
    for y in (0.05, 0.1, 0.13):
        assert eq.psi(y) == pytest.approx(float(psi.subs(Y, y)), rel=1e-13, abs=1e-14)

    def rhs(r, w):
        return (w / r) * (1 + w ** 2) * psi.subs(Y, r / w)

    def is_zero(expr):            # exact: the expanded numerator of one fraction
        return sp.expand(sp.numer(sp.together(expr))) == 0

    assert is_zero(rhs(R, c * R) - c - c ** 3 * R ** 2)
    assert a0 is None or is_zero(rhs(R, a0 * R))
    if spec.kind == "sigma_k_root" and a0 is not None:
        assert barrier("v2", spec.n, k=spec.k).slope == eq.a0
    # r = 2t/(c(1+t^2)) with 0 < t < 1 covers (0, 1/c) and makes
    # sqrt(1 - c^2 r^2) = (1-t^2)/(1+t^2) rational in t
    r = 2 * T / (c * (1 + T * T))
    root = (1 - T * T) / (1 + T * T)
    assert is_zero(root ** 2 - (1 - c ** 2 * r ** 2))
    W = c * r / root
    dW = sp.diff(W, T) / sp.diff(r, T)
    assert is_zero(dW - rhs(r, W) - dW * (1 - psi.subs(Y, root / c)))
    dpsi = sp.diff(psi, Y)
    if q is None:
        assert dpsi.is_positive
    else:                         # on the cone 0 < y < 1/q, where 1/c lies
        assert sp.cancel(dpsi * (1 - q * Y) ** 2) == spec.n - q > 0
        assert 1 / c < 1 / q
        assert sp.cancel(psi.subs(Y, 1 / c2)) == sp.Rational(1, 2)
        assert barrier("w2", spec.n).slope == pytest.approx(float(c2), rel=1e-15)


@st.composite
def admitted_barriers(draw):
    """Every barrier name with an (n, k) its factory admits."""
    name = draw(st.sampled_from(BARRIER_NAMES))
    if name.startswith("w"):
        return barrier(name, draw(st.integers(3, 6)))
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n - 1) if name == "v2" else st.integers(1, n))
    return barrier(name, n, k=k)


def _evaluates(b, r) -> bool:
    try:
        b(r)
    except DomainError:
        return False
    return True


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
    # the domain test says exactly where the barrier evaluates
    xs = np.array([-d, 0.0, r, b.r_end, np.nextafter(b.r_end * (1.0 + t), np.inf), np.nan])
    assert [bool(b.domain(x)) for x in xs] == [_evaluates(b, x) for x in xs]
    assert b.domain(xs).tolist() == [_evaluates(b, x) for x in xs]


@pytest.mark.parametrize("name", BARRIER_NAMES)
def test_barrier_rejects_nan(name):
    b = barrier(name, 3, k=2) if name.startswith("v") else barrier(name, 3)
    for r in (float("nan"), np.array([0.0, np.nan])):
        with pytest.raises(DomainError, match="r=nan"):
            b(r)


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
        # the k = n = 2 profile has u'^2 = e^{r^2} - 1: the slope threshold
        # fires once it is exceeded, and the profile ends at the crossing
        # r = sqrt(ln(1 + threshold^2)), not at the next node
        p = integrate_profile(sigma_k_root(2, 2), r_max=8.0, blowup_threshold=1e6)
        assert p.status == "blew_up"
        assert p.blowup_radius == p.r[-1]
        assert abs(p.blowup_radius - math.sqrt(math.log1p(1e12))) <= 1e-8
        assert p.du[-1] == pytest.approx(1e6, rel=1e-12)
        assert p.du[-2] < 1e6

    @pytest.mark.parametrize("threshold, status", [(1e104, "step_failure"), (1e300, "step_failure")])
    def test_step_underflow_ends_by_the_slope_against_the_threshold(self, threshold, status):
        # near r = 21.8 the right-hand side (w/r)(1 + w^2)psi overflows at
        # w ~ 1.6e103, so every retried step halves down to underflow; the
        # profile ends at its last node, a step failure whatever the slope
        # there, since the exact u' = sqrt(e^{r^2} - 1) stays finite
        p = integrate_profile(sigma_k_root(2, 2), r_max=30.0, blowup_threshold=threshold)
        assert p.status == status
        assert p.r[-1] == pytest.approx(21.8, abs=1e-2)
        assert p.blowup_radius == (p.r[-1] if status == "blew_up" else None)

    def test_a_threshold_below_the_startup_slope_ends_at_the_first_node(self):
        # the slope starts above the threshold, so there is no crossing to find
        p = integrate_profile(harmonic_pairs(3), r_max=3.0, blowup_threshold=1e-9)
        assert p.status == "blew_up"
        assert p.samples.shape[0] == 2
        assert p.du[0] > 1e-9

    def test_mean_curvature_excluded(self):
        with pytest.raises(ParameterError):
            integrate_profile(sigma_k_root(1, 3), r_max=1.0)

    def test_harmonic_n_range(self):
        with pytest.raises(ParameterError):
            integrate_profile(harmonic_pairs(7), r_max=1.0)

    def test_infinite_r_max_is_parameter_error(self):
        # an unbounded interval would only end when the step budget runs out
        with pytest.raises(ParameterError, match="r_max must be finite"):
            integrate_profile(sigma_k_root(2, 3), r_max=np.inf)

    @pytest.mark.parametrize("spec, eps", [(sigma_k_root(2, 3), 1e160),
                                           (harmonic_pairs(6), 1e154)])
    def test_startup_height_overflow_is_parameter_error(self, spec, eps):
        # 1e160^2 overflows; at 1e154 only c r^2/2 does (c = 5.5 for harmonic n = 6)
        with pytest.raises(ParameterError, match="startup height"):
            integrate_profile(spec, startup_radius=eps, r_max=10 * eps)

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, 5e-324, 1e-323, 4e-323, 1e-312])
    def test_startup_radius_without_a_first_step_is_parameter_error(self, eps):
        # the first step is eps/8: scipy would raise its own ValueError where it
        # underflows, and LSODA may run to the step budget where it is subnormal
        with pytest.raises(ParameterError, match="startup_radius/8 must be positive"):
            integrate_profile(sigma_k_root(2, 3), startup_radius=eps, r_max=1.0)

    def test_a_normal_first_step_is_accepted(self):
        p = integrate_profile(harmonic_pairs(3), startup_radius=8 * np.finfo(float).tiny, r_max=0.3)
        assert p.r[0] == 8 * np.finfo(float).tiny and p.status == "completed"

    @pytest.mark.parametrize("name, value", [
        ("rtol", np.nan), ("rtol", np.inf), ("rtol", 0.0), ("atol", np.nan), ("atol", -1.0),
        ("atol", np.inf), ("blowup_threshold", np.nan), ("blowup_threshold", 0.0),
        ("blowup_threshold", -1.0), ("blowup_threshold", np.inf)])
    def test_bad_tolerance_is_parameter_error(self, name, value):
        # scipy would fail every step (nan), stop only at r_max (inf) or raise
        # its own ValueError; a nan threshold would switch the blow-up stop off
        with pytest.raises(ParameterError, match=f"{name} must be finite and > 0"):
            integrate_profile(sigma_k_root(2, 3), r_max=1.0, **{name: value})

    def test_recorded_rtol_is_the_one_used(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")           # raised to the floor before scipy warns
            p = integrate_profile(sigma_k_root(2, 2), r_max=1.0, rtol=1e-15)
        assert p.tolerances["rtol"] == 100 * np.finfo(float).eps
        assert integrate_profile(sigma_k_root(2, 2), r_max=1.0).tolerances["rtol"] == 1e-10

    def test_step_budget_exhausted(self, monkeypatch):
        import curvsol.profiles as prof
        monkeypatch.setattr(prof, "_MAX_STEPS", 3)
        p = integrate_profile(sigma_k_root(2, 3), r_max=1.0)
        assert p.status == "step_failure"
        assert p.blowup_radius is None
        assert p.samples.shape[0] == 4 and p.r[-1] < 1.0
        with pytest.raises(ParameterError):
            check_soliton(p, 1e-8)

    @staticmethod
    def _solve_through_faults(monkeypatch, name, spec, r_max, lo, hi):
        """The first 5 calls of ``SlopeEquation.<name>`` at lo < r < hi raise
        DomainError; the solve must still complete, finite, within 1e-10."""
        reference = integrate_profile(spec, r_max=r_max)
        original = getattr(profiles.SlopeEquation, name)
        raised = []

        def flaky(eq, r, v):
            if lo < r < hi and len(raised) < 5:
                raised.append(r)
                raise DomainError("injected")
            return original(eq, r, v)

        monkeypatch.setattr(profiles.SlopeEquation, name, flaky)
        p = integrate_profile(spec, r_max=r_max)
        assert len(raised) == 5
        assert p.status == "completed" and p.r[-1] == r_max
        assert p.du[-1] == pytest.approx(reference.du[-1], rel=1e-10, abs=0.0)
        assert np.isfinite(p.samples).all()

    def test_rhs_domain_error_shrinks_the_step(self, monkeypatch):
        self._solve_through_faults(monkeypatch, "rhs", sigma_k_root(2, 3), 1.0, 0.5, 0.53)

    def test_jacobian_domain_error_restarts_the_step(self, monkeypatch):
        # the stiff n = 6 wedge is where LSODA switches to BDF and calls the Jacobian
        self._solve_through_faults(monkeypatch, "rhs_dw", harmonic_pairs(6), 3.0, 0.5, np.inf)

    @pytest.mark.parametrize("spec, r_max", [
        *((sigma_k_root(k, n), 2.0) for n in range(3, 7) for k in range(2, n + 1)),
        *((harmonic_pairs(n), r_max) for n in range(3, 7) for r_max in (3.0, 0.45)),
        (harmonic_pairs(3), 1.0)])
    def test_slope_matches_a_tight_solve(self, spec, r_max):
        # rtol is per step: harmonic n = 3 to r_max = 1 ends 1.7e-10 relative off
        rel = 5e-10 if (spec, r_max) == (harmonic_pairs(3), 1.0) else 1e-10
        p = integrate_profile(spec, r_max=r_max)
        tight = integrate_profile(spec, r_max=r_max, rtol=1e-13, atol=1e-16)
        assert p.status == tight.status == "completed"
        assert p.du[-1] == pytest.approx(tight.du[-1], rel=rel, abs=0.0)

    def test_stiff_far_field_takes_few_steps(self):
        # u' ~ 6 r makes rhs_dw ~ -216 r: an explicit method needs ~30,000 steps to r = 30
        p = integrate_profile(harmonic_pairs(6), r_max=30.0)
        assert p.status == "completed" and p.r[-1] == 30.0
        assert p.samples.shape[0] < 2000
