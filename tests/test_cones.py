"""Tests for cone membership, cylindrical rays, and the sampled separation
estimate."""

import numpy as np
import pytest

from curvsol import (
    ConeSpec,
    DomainError,
    ParameterError,
    cone_mask,
    cone_separation,
    contains,
    cyl_ray,
    eval_speed,
    gamma_alpha_delta,
    gamma_k,
    harmonic_pairs,
    product,
    quotient,
    sigma_k_root,
    two_convex,
    uniform_two_convex,
)

RNG = np.random.default_rng(11)


class TestContains:
    def test_gamma_k_boundary_excluded(self):
        inside, witness = contains(gamma_k(2, 3), [1.0, 1.0, -0.5])
        assert not inside
        assert "S_2" in witness

    def test_two_convex_umbilic(self):
        inside, witness = contains(two_convex(3), [1.0, 1.0, 1.0])
        assert inside and witness is None

    def test_uniform_two_convex_example(self):
        inside, _ = contains(uniform_two_convex(0.1, 3), [-0.1, 1.0, 1.0])
        assert inside  # min pair sum 0.9 >= 0.1 * 1.9

    def test_uniform_two_convex_needs_positive_H(self):
        inside, witness = contains(uniform_two_convex(0.1, 3), [-1.0, -1.0, 1.0])
        assert not inside and "H" in witness

    def test_gamma_alpha_delta(self):
        cone = gamma_alpha_delta(100.0, 0.1, harmonic_pairs(3))
        inside, _ = contains(cone, [1.0, 1.0, 1.0])
        assert inside
        cone_small = gamma_alpha_delta(1.0, 0.1, harmonic_pairs(3))
        inside, witness = contains(cone_small, [1.0, 1.0, 1.0])
        assert not inside and "alpha" in witness

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            contains(gamma_k(2, 3), [1.0, 2.0])

    @pytest.mark.parametrize("cone", [
        gamma_k(2, 4), two_convex(4), uniform_two_convex(0.3, 4),
        gamma_alpha_delta(50.0, 0.2, harmonic_pairs(4)),
    ])
    @pytest.mark.parametrize("c", [0.25, 1.0, 7.5])
    def test_scale_invariance(self, cone, c):
        for _ in range(20):
            lam = RNG.normal(size=4)
            assert contains(cone, c * lam)[0] == contains(cone, lam)[0]

    def test_monotone_nesting(self):
        for _ in range(200):
            lam = RNG.normal(size=4)
            for k in range(4, 1, -1):
                if contains(gamma_k(k, 4), lam)[0]:
                    assert contains(gamma_k(k - 1, 4), lam)[0]

    def test_uniform_two_convex_bounds_entries(self):
        # with H <= alpha/(delta+1), every |lambda_i| <= alpha/(delta+1)
        alpha, delta, beta = 2.0, 0.5, 0.2
        bound = alpha / (delta + 1.0)
        cone = uniform_two_convex(beta, 4)
        found = 0
        while found < 50:
            lam = RNG.normal(size=4)
            if not contains(cone, lam)[0]:
                continue
            lam *= bound / (np.sum(lam) * 1.1)   # scale so H < bound
            found += 1
            assert np.all(np.abs(lam) <= bound + 1e-12)


def _pinching(speed, delta):
    """The pinching cone with alpha 1.5 times its smallest admissible value,
    (delta+1) H/gamma at the umbilic point."""
    alpha = 1.5 * (1.0 + delta) * speed.n / eval_speed(speed, np.ones(speed.n))
    return gamma_alpha_delta(alpha, delta, speed)


def _cones(n: int) -> list:
    """Every kind of cone at dimension n: each Garding cone, 2-convexity, the
    support cones of a quotient and of a product, two pinching cones, and
    uniform 2-convexity."""
    return [gamma_k(k, n) for k in range(1, n + 1)] + [
        two_convex(n),
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
                assert mask[i] == contains(cone, L[i])[0], (cone, L[i])

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            cone_mask(two_convex(3), np.ones((5, 4)))

    @pytest.mark.parametrize("make", [
        lambda: gamma_k(0, 3),
        lambda: gamma_k(4, 3),
        lambda: two_convex(1),
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
    def test_full_umbilic(self):
        assert cyl_ray(3, 0) == pytest.approx(np.ones(3) / np.sqrt(3.0))

    def test_most_degenerate(self):
        assert cyl_ray(3, 2) == pytest.approx([1.0, 0.0, 0.0])

    def test_intermediate(self):
        assert cyl_ray(4, 1) == pytest.approx([1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3), 0.0])

    def test_j_out_of_range(self):
        with pytest.raises(ParameterError):
            cyl_ray(3, 3)
        with pytest.raises(ParameterError):
            cyl_ray(3, -1)


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
