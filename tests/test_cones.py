"""Tests for cone membership, the distance to the cylindrical rays, and the
sampled separation estimate."""

import itertools
import math

import numpy as np
import pytest

from curvsol import (
    ConeSpec,
    DomainError,
    ParameterError,
    cone_mask,
    cone_separation,
    eval_speed,
    gamma_alpha_delta,
    harmonic_pairs,
    product,
    quotient,
    sigma_k_root,
    uniform_two_convex,
)
from curvsol.cones import _distance_to_cyl_rays
from curvsol.speeds import speed_values

RNG = np.random.default_rng(11)


def inside(cone, lam) -> bool:
    """``cone_mask`` of the one vector ``lam``."""
    return bool(cone_mask(cone, np.asarray(lam, dtype=float)[None])[0])


class TestContains:
    def test_gamma_k_boundary_excluded(self):
        # S_2 = 0
        assert not inside(ConeSpec(kind="support", speed=sigma_k_root(2, 3)), [1.0, 1.0, -0.5])

    def test_two_convex_umbilic(self):
        assert inside(ConeSpec(kind="support", speed=harmonic_pairs(3)), [1.0, 1.0, 1.0])

    def test_uniform_two_convex_example(self):
        assert inside(uniform_two_convex(0.1, 3), [-0.1, 1.0, 1.0])  # min pair sum 0.9 >= 0.1 * 1.9

    def test_uniform_two_convex_needs_positive_H(self):
        assert not inside(uniform_two_convex(0.1, 3), [-1.0, -1.0, 1.0])

    def test_gamma_alpha_delta(self):
        assert inside(gamma_alpha_delta(100.0, 0.1, harmonic_pairs(3)), [1.0, 1.0, 1.0])
        # (delta+1)H = 3.3 > alpha*gamma = 2/3
        assert not inside(gamma_alpha_delta(1.0, 0.1, harmonic_pairs(3)), [1.0, 1.0, 1.0])

    def test_dimension_mismatch(self):
        # one vector is one row of an (m, n) array, not a bare (n,) vector
        with pytest.raises(ParameterError):
            cone_mask(ConeSpec(kind="support", speed=sigma_k_root(2, 3)), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("cone", [
        ConeSpec(kind="support", speed=sigma_k_root(2, 4)),
        ConeSpec(kind="support", speed=harmonic_pairs(4)), uniform_two_convex(0.3, 4),
        gamma_alpha_delta(50.0, 0.2, harmonic_pairs(4)),
    ])
    @pytest.mark.parametrize("c", [0.25, 1.0, 7.5])
    def test_scale_invariance(self, cone, c):
        L = RNG.normal(size=(20, 4))
        assert np.array_equal(cone_mask(cone, c * L), cone_mask(cone, L))

    def test_monotone_nesting(self):
        L = RNG.normal(size=(200, 4))
        masks = [cone_mask(ConeSpec(kind="support", speed=sigma_k_root(k, 4)), L)
                 for k in range(4, 0, -1)]
        for inner, outer in zip(masks, masks[1:]):
            assert not np.any(inner & ~outer)

    def test_uniform_two_convex_bounds_entries(self):
        # with H <= alpha/(delta+1), every |lambda_i| <= alpha/(delta+1)
        alpha, delta, beta = 2.0, 0.5, 0.2
        bound = alpha / (delta + 1.0)
        L = RNG.normal(size=(2000, 4))
        L = L[cone_mask(uniform_two_convex(beta, 4), L)][:50]
        assert L.shape[0] == 50
        L *= bound / (np.sum(L, axis=1, keepdims=True) * 1.1)   # scale so H < bound
        assert np.all(np.abs(L) <= bound + 1e-12)


def contains(cone, lam) -> bool:
    """Reference membership of one vector, condition by condition: the
    support cones from brute-force elementary symmetric sums and pair sums,
    the pinching and uniform-2-convexity inequalities from their definitions."""
    lam = [float(x) for x in lam]
    H = sum(lam)
    if cone.kind == "gamma_alpha_delta":
        gamma = speed_values(cone.speed, np.array([lam]))[0]
        return contains(ConeSpec(kind="support", speed=cone.speed), lam) and \
            (cone.delta + 1.0) * H <= cone.alpha * gamma
    pair = min(a + b for a, b in itertools.combinations(lam, 2))
    if cone.kind == "uniform_two_convex":
        return H > 0.0 and pair >= cone.beta * H
    speed = cone.speed
    if speed.kind == "product":
        return all(contains(ConeSpec(kind="support", speed=f), lam) for f in speed.factors)
    if speed.kind == "sigma_k_root":
        return all(sum(math.prod(c) for c in itertools.combinations(lam, l)) > 0.0
                   for l in range(1, speed.k + 1))
    return (pair if speed.kind == "harmonic_pairs" else min(lam)) > 0.0


def _pinching(speed, delta):
    """The pinching cone with alpha 1.5 times its smallest admissible value,
    (delta+1) H/gamma at the umbilic point."""
    alpha = 1.5 * (1.0 + delta) * speed.n / eval_speed(speed, np.ones(speed.n))
    return gamma_alpha_delta(alpha, delta, speed)


def _cones(n: int) -> list:
    """Every kind of cone at dimension n: each Garding cone, 2-convexity, the
    support cones of a quotient and of a product, two pinching cones, and
    uniform 2-convexity."""
    return [ConeSpec(kind="support", speed=sigma_k_root(k, n)) for k in range(1, n + 1)] + [
        ConeSpec(kind="support", speed=harmonic_pairs(n)),
        ConeSpec(kind="support", speed=quotient(2, 1, n)),
        ConeSpec(kind="support", speed=product([sigma_k_root(2, n), harmonic_pairs(n)],
                                                     [0.5, 0.5])),
        _pinching(harmonic_pairs(n), 0.1),
        _pinching(sigma_k_root(2, n), 0.2),
        uniform_two_convex(0.2, n),
    ]


class TestConeMask:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rows_agree_with_contains(self, n):
        # small integer rows land exactly on the boundaries, where the open
        # and closed conditions differ; positive rows reach the pinching cones
        rng = np.random.default_rng(n)
        L = np.vstack([rng.normal(size=(150, n)), rng.integers(-2, 3, size=(100, n)),
                       rng.uniform(0.5, 1.5, size=(100, n))])
        for cone in _cones(n):
            mask = cone_mask(cone, L)
            assert mask.shape == (L.shape[0],) and mask.dtype == bool
            assert 0 < np.count_nonzero(mask) < L.shape[0], cone
            for i in range(L.shape[0]):
                assert mask[i] == contains(cone, L[i]), (cone, L[i])

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            cone_mask(ConeSpec(kind="support", speed=harmonic_pairs(3)), np.ones((5, 4)))

    @pytest.mark.parametrize("make", [
        lambda: ConeSpec(kind="support", speed=sigma_k_root(0, 3)),
        lambda: ConeSpec(kind="support", speed=sigma_k_root(4, 3)),
        lambda: ConeSpec(kind="support", speed=harmonic_pairs(1)),
        lambda: gamma_alpha_delta(-1.0, 0.1, harmonic_pairs(3)),
        lambda: gamma_alpha_delta(1.0, 0.0, harmonic_pairs(3)),
        lambda: gamma_alpha_delta(float("nan"), 0.1, harmonic_pairs(3)),
        lambda: uniform_two_convex(1.5, 3),
        lambda: uniform_two_convex(-0.2, 3),
        lambda: ConeSpec(kind="gamma_k", speed=harmonic_pairs(3)),
        lambda: gamma_alpha_delta(float("inf"), 0.1, harmonic_pairs(3)),
        lambda: gamma_alpha_delta(1.0, float("inf"), harmonic_pairs(3)),
    ])
    def test_invalid_cone_parameters_rejected(self, make):
        with pytest.raises(ParameterError):
            make()


class TestCylRay:
    # the unit generator of a cylindrical ray (n - j leading ones, j trailing
    # zeros) lies sqrt(1 - 1/(n - j)) from the nearest coordinate-axis ray

    def test_full_umbilic(self):
        d = _distance_to_cyl_rays(np.ones((1, 3)) / np.sqrt(3.0))
        assert d[0] == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-15)

    def test_most_degenerate(self):
        rows = np.array([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
        assert _distance_to_cyl_rays(rows).tolist() == [0.0, 0.0]

    def test_intermediate(self):
        d = _distance_to_cyl_rays(np.array([[1.0, 1.0, 0.0, 1.0]]) / np.sqrt(3.0))
        assert d[0] == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-15)


class TestConeSeparation:
    def test_positive_for_generous_alpha(self):
        cone = gamma_alpha_delta(100.0, 0.1, harmonic_pairs(3))
        sep = cone_separation(cone, samples=2000, seed=3)
        assert sep > 0.0

    def test_empty_cone_reported(self):
        # H/gamma >= n / gamma(umbilic) on the cone, so small alpha is infeasible
        cone = gamma_alpha_delta(1.0, 0.1, harmonic_pairs(3))
        with pytest.raises(DomainError, match="no unit vector of 500 samples"):
            cone_separation(cone, samples=500, seed=3)

    def test_zero_samples_rejected(self):
        cone = gamma_alpha_delta(100.0, 0.1, harmonic_pairs(3))
        with pytest.raises(ParameterError):
            cone_separation(cone, samples=0)

    def test_deterministic_under_seed(self):
        cone = gamma_alpha_delta(100.0, 0.1, harmonic_pairs(3))
        a = cone_separation(cone, samples=500, seed=9)
        b = cone_separation(cone, samples=500, seed=9)
        assert a == b
