"""Tests for cone membership (the speeds' support cones, the pinching cone
and uniform 2-convexity), the distance to the cylindrical rays, and the
sampled separation estimate."""

import dataclasses
import itertools
import math
from functools import partial

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
    integrate_profile,
    pinched,
    product,
    quotient,
    sigma_k_root,
    uniform_two_convex,
)
from curvsol.cones import _distance_to_cyl_rays, _distance_to_support_boundary
from curvsol.rotgeom import profile_geometry
from curvsol.speeds import (sigma_partials, speed_values, support_margins, support_mask,
                            unit_draws)

RNG = np.random.default_rng(11)


def inside(mask, lam) -> bool:
    """The mask callable ``mask`` at the one vector ``lam``."""
    return bool(mask(np.asarray(lam, dtype=float)[None])[0])


class TestContains:
    def test_gamma_k_boundary_excluded(self):
        # S_2 = 0
        assert not inside(partial(support_mask, sigma_k_root(2, 3)), [1.0, 1.0, -0.5])

    def test_two_convex_umbilic(self):
        assert inside(partial(support_mask, harmonic_pairs(3)), [1.0, 1.0, 1.0])

    def test_uniform_two_convex_example(self):
        # min pair sum 0.9 >= 0.1 * 1.9
        assert inside(partial(uniform_two_convex, 0.1), [-0.1, 1.0, 1.0])

    def test_uniform_two_convex_needs_positive_H(self):
        assert not inside(partial(uniform_two_convex, 0.1), [-1.0, -1.0, 1.0])

    def test_gamma_alpha_delta(self):
        assert inside(partial(cone_mask, gamma_alpha_delta(100.0, 0.1, harmonic_pairs(3))),
                      [1.0, 1.0, 1.0])
        # (delta+1)H = 3.3 > alpha*gamma = 2/3
        assert not inside(partial(cone_mask, gamma_alpha_delta(1.0, 0.1, harmonic_pairs(3))),
                          [1.0, 1.0, 1.0])

    def test_dimension_mismatch(self):
        # one vector is one row of an (m, n) array, not a bare (n,) vector
        for mask in (partial(support_mask, sigma_k_root(2, 3)), partial(uniform_two_convex, 0.1),
                     partial(cone_mask, gamma_alpha_delta(100.0, 0.1, harmonic_pairs(3)))):
            with pytest.raises(ParameterError):
                mask([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("cone", [
        partial(support_mask, sigma_k_root(2, 4)), partial(support_mask, harmonic_pairs(4)),
        partial(uniform_two_convex, 0.3),
        partial(cone_mask, gamma_alpha_delta(50.0, 0.2, harmonic_pairs(4))),
    ])
    @pytest.mark.parametrize("c", [0.25, 1.0, 7.5])
    def test_scale_invariance(self, cone, c):
        L = RNG.normal(size=(20, 4))
        assert np.array_equal(cone(c * L), cone(L))

    def test_monotone_nesting(self):
        L = RNG.normal(size=(200, 4))
        masks = [support_mask(sigma_k_root(k, 4), L) for k in range(4, 0, -1)]
        for inner, outer in zip(masks, masks[1:]):
            assert not np.any(inner & ~outer)

    def test_uniform_two_convex_bounds_entries(self):
        # with H <= alpha/(delta+1), every |lambda_i| <= alpha/(delta+1)
        alpha, delta, beta = 2.0, 0.5, 0.2
        bound = alpha / (delta + 1.0)
        L = RNG.normal(size=(2000, 4))
        L = L[uniform_two_convex(beta, L)][:50]
        assert L.shape[0] == 50
        L *= bound / (np.sum(L, axis=1, keepdims=True) * 1.1)   # scale so H < bound
        assert np.all(np.abs(L) <= bound + 1e-12)


def contains(cone, lam) -> bool:
    """Reference membership of one vector, condition by condition: the
    support cone of a speed from brute-force elementary symmetric sums and
    pair sums, a ``ConeSpec``'s pinching inequality and, for a float beta,
    uniform 2-convexity from their definitions."""
    lam = [float(x) for x in lam]
    H = sum(lam)
    if isinstance(cone, ConeSpec):
        gamma = speed_values(cone.speed, np.array([lam]))[0]
        return contains(cone.speed, lam) and (cone.delta + 1.0) * H <= cone.alpha * gamma
    pair = min(a + b for a, b in itertools.combinations(lam, 2))
    if isinstance(cone, float):
        return H > 0.0 and pair >= cone * H
    if cone.kind == "product":
        return all(contains(f, lam) for f in cone.factors)
    if cone.kind == "sigma_k_root":
        return all(sum(math.prod(c) for c in itertools.combinations(lam, l)) > 0.0
                   for l in range(1, cone.k + 1))
    return (pair if cone.kind == "harmonic_pairs" else min(lam)) > 0.0


def _pinching(speed, delta):
    """The pinching cone with alpha 1.5 times its smallest admissible value,
    (delta+1) H/gamma at the umbilic point."""
    alpha = 1.5 * (1.0 + delta) * speed.n / eval_speed(speed, np.ones(speed.n))
    return gamma_alpha_delta(alpha, delta, speed)


def _cones(n: int) -> list:
    """Every cone at dimension n, as (mask callable, the cone as ``contains``
    takes it): the support cones of each Garding speed, of harmonic pairs
    (2-convexity), of a quotient and of a product, three pinching cones, and
    uniform 2-convexity.  The sigma_1 pinching cone has gamma = H and
    alpha = delta + 1, so every integer row with H > 0 lies on its boundary."""
    speeds = [sigma_k_root(k, n) for k in range(1, n + 1)] + [
        harmonic_pairs(n), quotient(2, 1, n),
        product([sigma_k_root(2, n), harmonic_pairs(n)], [0.5, 0.5])]
    pinching = [_pinching(harmonic_pairs(n), 0.1), _pinching(sigma_k_root(2, n), 0.2),
                gamma_alpha_delta(1.5, 0.5, sigma_k_root(1, n))]
    return ([(partial(support_mask, s), s) for s in speeds]
            + [(partial(cone_mask, c), c) for c in pinching]
            + [(partial(uniform_two_convex, 0.2), 0.2)])


class TestConeMask:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rows_agree_with_contains(self, n):
        # small integer rows land exactly on the boundaries, where the open
        # and closed conditions differ; positive rows reach the pinching cones
        rng = np.random.default_rng(n)
        L = np.vstack([rng.normal(size=(150, n)), rng.integers(-2, 3, size=(100, n)),
                       rng.uniform(0.5, 1.5, size=(100, n))])
        for mask_of, cone in _cones(n):
            mask = mask_of(L)
            assert mask.shape == (L.shape[0],) and mask.dtype == bool
            assert 0 < np.count_nonzero(mask) < L.shape[0], cone
            for i in range(L.shape[0]):
                assert mask[i] == contains(cone, L[i]), (cone, L[i])

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            support_mask(harmonic_pairs(3), np.ones((5, 4)))
        with pytest.raises(ParameterError):
            cone_mask(gamma_alpha_delta(100.0, 0.1, harmonic_pairs(3)), np.ones((5, 4)))

    @pytest.mark.parametrize("make", [
        lambda: sigma_k_root(0, 3),
        lambda: sigma_k_root(4, 3),
        lambda: harmonic_pairs(1),
        lambda: gamma_alpha_delta(-1.0, 0.1, harmonic_pairs(3)),
        lambda: gamma_alpha_delta(1.0, 0.0, harmonic_pairs(3)),
        lambda: gamma_alpha_delta(float("nan"), 0.1, harmonic_pairs(3)),
        lambda: uniform_two_convex(1.5, np.ones((1, 3))),
        lambda: uniform_two_convex(-0.2, np.ones((1, 3))),
        lambda: ConeSpec(speed=harmonic_pairs(3), alpha=1.0, delta=float("nan")),
        lambda: gamma_alpha_delta(float("inf"), 0.1, harmonic_pairs(3)),
        lambda: gamma_alpha_delta(1.0, float("inf"), harmonic_pairs(3)),
        lambda: uniform_two_convex(float("nan"), np.ones((1, 3))),
    ])
    def test_invalid_cone_parameters_rejected(self, make):
        with pytest.raises(ParameterError):
            make()

    def test_cone_spec_is_the_pinching_cone(self):
        assert [f.name for f in dataclasses.fields(ConeSpec)] == ["speed", "alpha", "delta"]
        with pytest.raises(TypeError):
            ConeSpec(speed=harmonic_pairs(3))            # alpha and delta are required
        with pytest.raises(ParameterError, match=r"^alpha and delta must be finite and > 0$"):
            ConeSpec(speed=harmonic_pairs(3), alpha=1.0, delta=float("inf"))


class TestPinched:
    """``cone_mask`` is ``pinched`` at the rows' H and speed value, so the
    convexity check may test the curvature table's own columns."""

    @pytest.mark.parametrize("speed", [sigma_k_root(2, 4), harmonic_pairs(5)],
                             ids=["sigma2_n4", "harmonic_n5"])
    def test_cone_mask_is_pinched_on_a_profile_table(self, speed):
        geo = profile_geometry(integrate_profile(speed, r_max=3.0))
        delta = 0.05
        ratio = (delta + 1.0) * geo.H / geo.gamma
        masks = []
        for alpha in (np.median(ratio), ratio[len(ratio) // 3], 2.0 * np.max(ratio)):
            cone = gamma_alpha_delta(float(alpha), delta, speed)
            masks.append(cone_mask(cone, geo.lam))
            assert np.array_equal(masks[-1], pinched(cone, geo.H, geo.gamma))
        assert 0 < np.count_nonzero(masks[0]) < len(ratio) and np.all(masks[2])

    def test_overflowing_side_classifies_without_warning(self):
        cone = gamma_alpha_delta(2.0, 1e308, harmonic_pairs(3))
        with np.errstate(all="raise"):
            out = pinched(cone, np.array([10.0, -10.0, 0.0]), np.array([1.0, 1.0, np.nan]))
        assert out.tolist() == [False, True, False]


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


def boundary_distance(spec, x) -> float:
    """Reference for one unit vector ``x`` in the speed's cone: the pair-sum
    distance min (x_i + x_j)/sqrt(2), min x on the positive cone, and for
    Gamma_k min_l S_l/|grad S_l| from brute-force sums of products; the
    minimum over a product's factors."""
    if spec.kind == "product":
        return min(boundary_distance(f, x) for f in spec.factors)
    if spec.kind == "harmonic_pairs":
        return min(a + b for a, b in itertools.combinations(x, 2)) / math.sqrt(2.0)
    if spec.kind == "quotient":
        return min(x)

    def S(l, v):
        return sum(math.prod(c) for c in itertools.combinations(v, l))
    return min(S(l, x) / math.hypot(*[S(l - 1, x[:i] + x[i + 1:]) for i in range(len(x))])
               for l in range(1, spec.k + 1))


def cyl_ray_distance(x) -> float:
    """Reference: distance from ``x`` to the nearest coordinate ray."""
    norm = math.hypot(*x)
    return min([norm] + [math.sqrt(max(norm * norm - xi * xi, 0.0)) for xi in x if xi > 0.0])


N4_SPEEDS = ([sigma_k_root(k, 4) for k in range(1, 5)]
             + [harmonic_pairs(4), quotient(2, 1, 4), quotient(3, 1, 4), quotient(4, 2, 4),
                product([sigma_k_root(2, 4), sigma_k_root(1, 4)], [0.5, 0.5]),
                product([quotient(3, 2, 4), sigma_k_root(3, 4), harmonic_pairs(4)],
                        [0.25, 0.25, 0.5])])


class TestSeparationOracle:
    @pytest.mark.parametrize("speed", N4_SPEEDS, ids=lambda s: s.label())
    def test_matches_brute_force_distances(self, speed):
        # the same draws as cone_separation's: every in-cone row's distance to
        # the support boundary, and the separation as the smallest of those
        # and the ray distances
        cone = gamma_alpha_delta(100.0, 0.1, speed)
        samples, seed = 3000, 4
        best, rows = math.inf, 0
        for X in unit_draws(4, samples, np.random.default_rng(seed)):
            X = X[cone_mask(cone, X)]
            d = _distance_to_support_boundary(speed, X)
            for x, dx in zip(X.tolist(), d):
                ref = boundary_distance(speed, x)
                assert dx == pytest.approx(ref, rel=1e-12, abs=1e-15), x
                best = min(best, ref, cyl_ray_distance(x))
            rows += len(X)
        assert rows > 100
        assert cone_separation(cone, samples, seed) == pytest.approx(best, rel=1e-12)


class TestGardingMargin:
    """The Garding margin keeps only its S_k term: inside Gamma_k the ratio
    (S_l/|grad S_l|)/(S_k/|grad S_k|) is at least k/l for every l < k, with
    equality at the umbilic, so min_l S_l/|grad S_l| is the l = k term."""

    @staticmethod
    def ratios(X, k):
        """(S_l/|grad S_l|)/(S_k/|grad S_k|) * l/k at the rows of X, one
        column per l = 1..k-1."""
        S = [v for _, v in support_margins(sigma_k_root(k, X.shape[1]), X)]
        q = [S[l - 1] / np.linalg.norm(sigma_partials(X, l), axis=1) for l in range(1, k + 1)]
        return np.stack([q[l - 1] / q[k - 1] * l / k for l in range(1, k)], axis=1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_the_sk_term_is_the_least(self, n):
        # draws about the umbilic ray at random distances, so that rows near
        # the umbilic and near the cone's boundary are both sampled
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20000, n)) + rng.uniform(0.0, 3.0, (20000, 1))
        for k in range(2, n + 1):
            inside = X[support_mask(sigma_k_root(k, n), X)]
            assert inside.shape[0] > 1000
            assert np.min(self.ratios(inside, k)) >= 1.0 - 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equality_at_the_umbilic(self, n):
        for k in range(2, n + 1):
            np.testing.assert_allclose(self.ratios(np.ones((1, n)), k), 1.0, rtol=1e-14)
