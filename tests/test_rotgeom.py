"""Tests for rotational curvature formulas, tilt, and the soliton residual."""

import math

import numpy as np
import pytest

from curvsol import (
    DomainError,
    ParameterError,
    closed_form_cyl,
    closed_form_v,
    cylinder_curvatures,
    eval_speed,
    graph_curvatures,
    harmonic_pairs,
    sigma_k_root,
    slope_equation,
    tilt,
)


class TestGraphCurvatures:
    def test_generic_jet(self):
        lam = graph_curvatures(1.0, 1.0, 1.0, 3)
        assert lam == pytest.approx([2 ** -1.5, 2 ** -0.5, 2 ** -0.5], rel=1e-14)

    def test_flat_disk(self):
        lam = graph_curvatures(0.5, 0.0, 0.0, 4)
        assert np.all(lam == 0.0)

    def test_pure_profile_curvature(self):
        lam = graph_curvatures(2.0, 0.0, 3.0, 2)
        assert lam == pytest.approx([3.0, 0.0], abs=1e-15)

    def test_axis_rejected(self):
        with pytest.raises(DomainError, match=r"^graph_curvatures requires r > 0, got r=0.0$"):
            graph_curvatures(0.0, 0.0, 0.0, 3)

    def test_n_below_two_rejected(self):
        with pytest.raises(ParameterError, match="^graph curvatures require n >= 2$"):
            graph_curvatures(1.0, 1.0, 1.0, 1)

    def test_overflowing_slope_cube_reads_zero_silently(self):
        # (1 + u'^2)^1.5 overflows for u' = 1e103; the radial curvature is then
        # 0, the rotational one finite, and a finite row keeps its bits
        r, du, ddu = np.array([21.8, 1.0]), np.array([1e103, 1.0]), np.array([2e104, 1.0])
        with np.errstate(all="raise"):
            lam = graph_curvatures(r, du, ddu, 2)
        assert lam[0, 0] == 0.0 and np.isfinite(lam[0, 1])
        np.testing.assert_array_equal(lam[1], graph_curvatures(1.0, 1.0, 1.0, 2))

    @pytest.mark.parametrize("r", [1e-2, 1e-3])
    def test_umbilic_limit_near_axis(self, r):
        # quadratic cap u = c r^2/2 approaches the umbilic vector (c,...,c)
        c = 0.8
        lam = graph_curvatures(r, c * r, c, 3)
        assert np.max(np.abs(lam - c)) <= 2.0 * c * r * r


class TestCylinderCurvatures:
    def test_round_cylinder(self):
        lam = cylinder_curvatures(1.0, 0.0, 0.0)
        assert lam == pytest.approx([0.0, -1.0], abs=1e-15)

    def test_closed_form_jet(self):
        # direct substitution at r = 1: f = 1/sqrt(e-1), r'' = -(1+f^2) r f^2
        f = closed_form_cyl(0.0, 1.0)
        assert f == pytest.approx(0.7628739783668902, rel=1e-14)
        ddr = -(1.0 + f * f) * 1.0 * f * f
        assert ddr == pytest.approx(-0.9206735942077924, rel=1e-14)
        lam = cylinder_curvatures(1.0, f, ddr)
        assert lam == pytest.approx([-0.4627064573764711, -0.7950600976206501], rel=1e-13)
        assert lam[1] < 0.0

    def test_generic_jet(self):
        lam = cylinder_curvatures(2.0, 0.0, 1.0)
        assert lam == pytest.approx([1.0, -0.5], rel=1e-15)

    def test_array_jet_stacks_the_scalar_jets(self):
        r, dr, ddr = np.array([[0.5, 1.0, 2.0], [0.0, 0.3, -1.0], [1.0, -0.2, 0.4]])
        lam = cylinder_curvatures(r, dr, ddr)
        assert lam.shape == (3, 2)
        for i in range(3):
            row = cylinder_curvatures(float(r[i]), float(dr[i]), float(ddr[i]))
            assert row.shape == (2,)
            assert lam[i] == pytest.approx(row, rel=1e-15)

    @pytest.mark.parametrize("r", [0.0, np.array([1.0, 0.0, 2.0]), np.nan])
    def test_axis_rejected(self, r):
        with pytest.raises(DomainError, match=r"^cylinder_curvatures requires r > 0, got r="):
            cylinder_curvatures(r, np.zeros_like(r), np.zeros_like(r))


class TestTilt:
    @pytest.mark.parametrize("du,expect", [(0.0, 1.0), (1.0, 2 ** -0.5), (math.sqrt(3.0), 0.5)])
    def test_values(self, du, expect):
        assert tilt(du) == pytest.approx(expect, rel=1e-15)

    def test_unit_normal_decomposition(self):
        for du in np.linspace(-5.0, 5.0, 41):
            t = tilt(du)
            assert t * t + (du * t) ** 2 == pytest.approx(1.0, abs=1e-14)


class TestSolitonResidual:
    def test_closed_form_profile(self):
        # exact k = n = 2 profile: residual vanishes at machine precision
        r = 1.0
        v = closed_form_v(0.0, r)
        ddu = slope_equation(sigma_k_root(2, 2)).rhs(r, v)
        lam = graph_curvatures(r, v, ddu, 2)
        res = eval_speed(sigma_k_root(2, 2), lam) - tilt(v)
        assert abs(res) <= 1e-10

    def test_round_cylinder_outside_cone(self):
        lam = cylinder_curvatures(1.0, 0.0, 0.0)
        with pytest.raises(DomainError, match="pair sum"):
            eval_speed(harmonic_pairs(2), lam)

    def test_cylindrical_closed_form_identity(self):
        # sqrt(K) equals the horizontal normal component |<nu, e_3>|; the
        # curvatures have H < 0 so this is checked directly, outside the
        # Garding cone where eval_speed applies
        f = closed_form_cyl(0.0, 1.0)
        ddr = -(1.0 + f * f) * f * f
        lam = cylinder_curvatures(1.0, f, ddr)
        K = lam[0] * lam[1]
        assert math.sqrt(K) == pytest.approx(f / math.sqrt(1 + f * f), abs=1e-12)
        assert math.sqrt(K) == pytest.approx(0.60653, abs=1e-5)

    def test_perturbed_profile_has_residual(self):
        # scale the slope but keep the original curvature datum, so the jet
        # no longer solves the soliton equation
        r = 1.0
        v = closed_form_v(0.0, r)
        ddu = slope_equation(sigma_k_root(2, 2)).rhs(r, v)
        lam = graph_curvatures(r, 1.01 * v, ddu, 2)
        res = eval_speed(sigma_k_root(2, 2), lam) - tilt(1.01 * v)
        assert 1e-4 < abs(res) < 1e-1
