"""Tests for the speed catalog: values, derivatives and the sampled
property suite."""

import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import ks_2samp

from curvsol import (
    DomainError,
    ParameterError,
    SpeedSpec,
    check_properties,
    eval_speed,
    harmonic_pairs,
    sigma_k_root,
)
from curvsol.io import derived_columns, read_profile_csv, speed_from_dict, write_profile_csv
from curvsol.profiles import ProfileSolution
from curvsol import speeds
from curvsol.speeds import (_BOUNDARY_REL, _boundary_paths, _sample_rows, _sigma_all,
                            _sigma_line, _support_exit, speed_derivatives, speed_values,
                            support_mask)

RNG = np.random.default_rng(20240817)


def draw_interior(spec, rng):
    """One uniformly random unit vector in the open support cone of ``spec``,
    by rejection, one standard normal draw at a time.  The tests below share
    one generator, so each test's points depend on this exact stream."""
    for _ in range(20000):
        x = rng.standard_normal((1, spec.n))
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        if support_mask(spec, x)[0]:
            return x[0]
    raise AssertionError(f"no interior draw for {spec.label()}")


def interior_rows(spec, rng, count):
    """``count`` rows, each from its own ``draw_interior``."""
    return np.array([draw_interior(spec, rng) for _ in range(count)])


def sigma(lam, k):
    """S_k of one curvature vector by the array kernel."""
    return _sigma_all(np.sort(np.asarray(lam, dtype=float)), k)[k]


def brute_sigma(lam, k):
    """Independent oracle: explicit sum over all k-subsets."""
    return sum(math.prod(c) for c in itertools.combinations(lam, k))


def fd_gradient(spec, lam, h=None):
    lam = np.asarray(lam, dtype=float)
    if h is None:
        h = 1e-6 * np.linalg.norm(lam)
    g = np.empty(lam.size)
    for i in range(lam.size):
        e = np.zeros(lam.size)
        e[i] = h
        g[i] = (eval_speed(spec, lam + e) - eval_speed(spec, lam - e)) / (2 * h)
    return g


def fd_hessian(spec, lam, h=1e-4):
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    H = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            H[i, j] = (eval_speed(spec, lam + ei + ej) - eval_speed(spec, lam + ei - ej)
                       - eval_speed(spec, lam - ei + ej) + eval_speed(spec, lam - ei - ej)) / (4 * h * h)
    return H


ALL_SPEEDS = [
    sigma_k_root(1, 3),
    sigma_k_root(2, 2),
    sigma_k_root(2, 3),
    sigma_k_root(3, 4),
    sigma_k_root(5, 5),
    harmonic_pairs(3),
    harmonic_pairs(6),
    SpeedSpec("quotient", 3, 2, 1),
    SpeedSpec("quotient", 4, 3, 1),
    SpeedSpec("product", 3, factors=(sigma_k_root(2, 3), sigma_k_root(1, 3)), weights=(0.5, 0.5)),
    SpeedSpec("product", 4, factors=(sigma_k_root(2, 4), harmonic_pairs(4)), weights=(0.25, 0.75)),
]


class TestSigmaK:
    def test_equal_entries(self):
        assert sigma([1.0, 1.0, 1.0], 2) == 3.0

    def test_brute_force_example(self):
        assert sigma([1.0, 2.0, 3.0], 2) == brute_sigma([1.0, 2.0, 3.0], 2) == 11.0

    def test_k1_is_sum(self):
        assert sigma([1.0, 2.0, 3.0], 1) == 6.0

    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (3, 3), (5, 2), (5, 4), (6, 3)])
    def test_matches_brute_force(self, n, k):
        L = RNG.normal(size=(25, n))
        got = _sigma_all(np.sort(L, axis=1), k)[k]
        want = np.array([brute_sigma(lam, k) for lam in L])
        assert got == pytest.approx(want, rel=1e-12)


class TestEvalSpeed:
    def test_sigma2_root_n2(self):
        assert eval_speed(sigma_k_root(2, 2), [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_harmonic_umbilic(self):
        # three pairs, each reciprocal sum 1/2
        assert eval_speed(harmonic_pairs(3), [1.0, 1.0, 1.0]) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_sigma2_root_n3(self):
        got = eval_speed(sigma_k_root(2, 3), [1.0, 2.0, 3.0])
        assert got == pytest.approx(math.sqrt(brute_sigma([1, 2, 3], 2)), rel=1e-14)

    def test_outside_cone_raises_with_condition(self):
        with pytest.raises(DomainError, match="S_2"):
            eval_speed(sigma_k_root(2, 3), [1.0, -1.0, 0.1])
        with pytest.raises(DomainError, match="pair sum"):
            eval_speed(harmonic_pairs(3), [1.0, -0.6, 0.5])

    def test_quotient_positive_cone_only(self):
        # 2-convex but not positive: rejected for quotients
        with pytest.raises(DomainError, match="positive cone"):
            eval_speed(SpeedSpec("quotient", 3, 2, 1), [-0.1, 1.0, 1.0])
        assert eval_speed(SpeedSpec("quotient", 3, 2, 1), [0.1, 1.0, 1.0]) > 0.0

    @pytest.mark.parametrize("spec, lam, text", [
        (sigma_k_root(2, 3), [1.0, -1.0, 0.1], "sigma_2^(1/2) at n=3: S_2(lambda) = -1 <= 0"),
        (sigma_k_root(3, 3), [-1.0, 2.0, 2.0], "sigma_3^(1/3) at n=3: S_2(lambda) = 0 <= 0"),
        (harmonic_pairs(3), [1.0, -0.6, 0.5],
         "harmonic_pairs at n=3: min pair sum lambda_i+lambda_j = -0.1 <= 0"),
        (SpeedSpec("quotient", 3, 2, 1), [-0.1, 1.0, 1.0], "(S_2/S_1)^(1/1) at n=3: "
         "min lambda = -0.1 <= 0 (quotient supported on the positive cone)"),
        (SpeedSpec("product", 3, factors=(sigma_k_root(2, 3), harmonic_pairs(3)),
                   weights=(0.5, 0.5)), [2.0, 2.0, -1.5],
         "sigma_2^(1/2)^0.5 * harmonic_pairs^0.5 at n=3: S_2(lambda) = -2 <= 0"),
        (sigma_k_root(2, 3), [np.nan, 1.0, 1.0], "sigma_2^(1/2) at n=3: S_1(lambda) = nan <= 0")],
        ids=["sigma_2", "sigma_3", "harmonic", "quotient", "product", "nan"])
    def test_outside_cone_message_names_the_first_violated_condition(self, spec, lam, text):
        # one text for the one-row call and the array kernel's first bad row
        message = f"lambda outside the support cone of {text}"
        with pytest.raises(DomainError) as one_row:
            eval_speed(spec, lam)
        with pytest.raises(DomainError) as kernel:
            speed_derivatives(spec, [np.ones(spec.n), lam, -np.ones(spec.n)])
        assert str(one_row.value) == str(kernel.value) == message

    def test_a_nan_value_inside_the_cone_is_returned(self):
        # S_2/S_1 = inf/inf on an infinite row of the positive cone, as in speed_values
        with np.errstate(invalid="ignore"):
            assert np.isnan(eval_speed(SpeedSpec("quotient", 3, 2, 1), [np.inf] * 3))

    @pytest.mark.parametrize("lam", [[1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], 1.0],
                             ids=["short", "long", "2-D", "scalar"])
    def test_one_row_of_the_wrong_shape_is_a_parameter_error(self, lam):
        with pytest.raises(ParameterError, match=r"expected an \(m, 3\) array"):
            eval_speed(sigma_k_root(2, 3), lam)

    @pytest.mark.parametrize("spec", ALL_SPEEDS, ids=lambda s: s.label())
    def test_permutation_invariance_exact(self, spec):
        for _ in range(10):
            lam = draw_interior(spec, RNG)
            for _ in range(4):
                perm = RNG.permutation(spec.n)
                assert eval_speed(spec, lam[perm]) == eval_speed(spec, lam)

    @pytest.mark.parametrize("spec", ALL_SPEEDS, ids=lambda s: s.label())
    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_homogeneity(self, spec, c):
        for _ in range(5):
            lam = draw_interior(spec, RNG)
            assert eval_speed(spec, c * lam) == pytest.approx(c * eval_speed(spec, lam), rel=1e-12)


class TestDerivatives:
    def test_sigma2_umbilic_gradient(self):
        _, grad, _ = speed_derivatives(sigma_k_root(2, 3), [[1.0, 1.0, 1.0]])
        assert grad[0] == pytest.approx(np.full(3, 1 / math.sqrt(3)), rel=1e-14)

    def test_mean_curvature_linear(self):
        _, grad, hess = speed_derivatives(sigma_k_root(1, 4), [[0.3, 0.9, 1.2, 2.0]])
        assert grad[0] == pytest.approx(np.ones(4), abs=1e-15)
        assert np.max(np.abs(hess)) == 0.0

    def test_harmonic_euler_value(self):
        lam = np.ones(3)
        _, grad, _ = speed_derivatives(harmonic_pairs(3), lam[None])
        assert float(lam @ grad[0]) == pytest.approx(2.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPEEDS, ids=lambda s: s.label())
    def test_gradient_matches_finite_differences(self, spec):
        L = interior_rows(spec, RNG, 8)
        for lam, grad in zip(L, speed_derivatives(spec, L)[1]):
            assert grad == pytest.approx(fd_gradient(spec, lam), rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("spec", ALL_SPEEDS, ids=lambda s: s.label())
    def test_hessian_matches_finite_differences(self, spec):
        # matrix-norm comparison: the FD truncation error scales with the
        # size of the higher derivatives, which blow up near the cone edge
        L = interior_rows(spec, RNG, 4)
        for lam, hess in zip(L, speed_derivatives(spec, L)[2]):
            fd = fd_hessian(spec, lam)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(hess - fd)) <= 1e-4 * scale

    @pytest.mark.parametrize("spec", ALL_SPEEDS, ids=lambda s: s.label())
    def test_euler_relation_and_positivity(self, spec):
        L = interior_rows(spec, RNG, 10)
        value, grad, _ = speed_derivatives(spec, L)
        assert np.all(value > 0.0)
        assert np.all(grad > 0.0)
        assert np.einsum("mi,mi->m", L, grad) == pytest.approx(value, rel=1e-9)

    @pytest.mark.parametrize("spec", ALL_SPEEDS, ids=lambda s: s.label())
    def test_off_radial_concavity(self, spec):
        L = interior_rows(spec, RNG, 6)
        for lam, hess in zip(L, speed_derivatives(spec, L)[2]):
            proj = np.eye(spec.n) - np.outer(lam, lam)
            m = proj @ hess @ proj
            assert np.max(np.linalg.eigvalsh(0.5 * (m + m.T))) <= 1e-8
            assert abs(float(lam @ hess @ lam)) <= 1e-10

    def test_gradient_permutes_with_input(self):
        spec = sigma_k_root(2, 4)
        lam = np.array([0.5, 1.0, 2.0, 3.0])
        perm = np.array([2, 0, 3, 1])
        _, grad, _ = speed_derivatives(spec, [lam, lam[perm]])
        assert grad[1] == pytest.approx(grad[0][perm], rel=1e-14)


class TestSpecValidation:
    def test_k_range(self):
        with pytest.raises(ParameterError):
            sigma_k_root(5, 3)

    def test_harmonic_needs_two(self):
        with pytest.raises(ParameterError):
            harmonic_pairs(1)

    def test_quotient_order(self):
        with pytest.raises(ParameterError):
            SpeedSpec("quotient", 3, 2, 2)

    def test_product_weights_sum(self):
        with pytest.raises(ParameterError):
            SpeedSpec("product", 3, factors=(sigma_k_root(2, 3), sigma_k_root(1, 3)),
                      weights=(0.5, 0.6))

    @pytest.mark.parametrize("kind, n, k, l", [("sigma_k_root", 3, "2", None),
                                               ("sigma_k_root", 3, 2.5, None),
                                               ("quotient", 3, 2, 1.0),
                                               ("sigma_k_root", 3, True, None),
                                               ("sigma_k_root", True, 1, None),
                                               ("sigma_k_root", None, 1, None)])
    def test_non_integer_k_or_l_rejected(self, kind, n, k, l):
        # a bool is an Integral, but JSON true for n, k or l is no integer
        with pytest.raises(ParameterError, match="must be integers"):
            SpeedSpec(kind=kind, n=n, k=k, l=l)

    @pytest.mark.parametrize("weight", [True, "1", None])
    def test_non_real_product_weight_rejected(self, weight):
        factor = {"kind": "sigma_k_root", "n": 3, "k": 1}
        with pytest.raises(ParameterError, match="weights"):
            SpeedSpec("product", 3, factors=(sigma_k_root(1, 3),), weights=(weight,))
        with pytest.raises(ParameterError, match="weights"):
            speed_from_dict({"kind": "product", "n": 3, "factors": [factor], "weights": [weight]})

    def test_product_weights_stored_as_floats(self):
        spec = SpeedSpec("product", 3, factors=(sigma_k_root(2, 3), sigma_k_root(1, 3)),
                         weights=[np.float32(0.5), 0.5])
        assert spec.weights == (0.5, 0.5)
        assert all(type(w) is float for w in spec.weights)


# The 25 speeds of the benchmark's speed suite.
SUITE_SPEEDS = ([sigma_k_root(k, n) for n in range(3, 7) for k in range(1, n + 1)]
                + [harmonic_pairs(n) for n in range(3, 7)]
                + [SpeedSpec("quotient", 3, 2, 1), SpeedSpec("quotient", 4, 3, 1),
                   SpeedSpec("product", 3, factors=(sigma_k_root(2, 3), sigma_k_root(1, 3)),
                             weights=(0.5, 0.5))])


class TestPropertySuite:
    def test_sigma2_clean(self):
        checks = check_properties(sigma_k_root(2, 3), sample_count=300, seed=7)
        assert sum(c.failed for c in checks.values()) == 0

    def test_harmonic_clean(self):
        checks = check_properties(harmonic_pairs(4), sample_count=300, seed=7)
        assert sum(c.failed for c in checks.values()) == 0

    @pytest.mark.parametrize("seed", [7, 0, 102])
    @pytest.mark.parametrize("spec", [SpeedSpec("quotient", 3, 2, 1),
                                      SpeedSpec("quotient", 4, 3, 1)], ids=lambda s: s.label())
    def test_quotient_fails_only_boundary_vanishing(self, spec, seed):
        checks = check_properties(spec, sample_count=300, seed=seed)
        assert [name for name, c in checks.items() if c.failed > 0] == ["boundary_vanishing"]
        assert checks["boundary_vanishing"].failed == speeds._BOUNDARY_PATHS
        # the witnessed near-boundary value stays an O(1) fraction of the
        # interior value: a genuine plateau, not slow decay
        assert checks["boundary_vanishing"].worst > 0.01

    def test_sample_count_validated(self):
        with pytest.raises(ParameterError):
            check_properties(sigma_k_root(2, 3), sample_count=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            check_properties(sigma_k_root(2, 3), sample_count=10, seed=-1)


class TestRadialDegeneracy:
    # The radial_degeneracy witness of `curvsol props --speed sigma-k --n 6 --k 2
    # --samples 150 --seed 1778144096` under the former absolute bound 1e-10: near the
    # cone boundary max|D^2f| is about 6.4e6, and round-off left |lam^T D^2f lam| = 6.5e-10.
    WITNESS = np.array([[0.5059866468589925, 0.5320479500657418, -0.43123338973469455,
                         -0.25428697001299155, 0.3417449379402276, 0.3057593659775644]])

    def radial_check(self, monkeypatch, bump):
        """`_pointwise_checks`' radial_degeneracy (passed, measure) at the
        witness, whose Hessian gains ``bump`` times max|D^2f| lam lam^T, and
        that Hessian."""
        derivatives, seen = speeds.speed_derivatives, []

        def bumped(spec, L):
            v, g, h = derivatives(spec, L)
            seen.append(h + bump * np.max(np.abs(h)) * np.outer(L[0], L[0]))
            return v, g, seen[-1]

        monkeypatch.setattr(speeds, "speed_derivatives", bumped)
        ok, measure = speeds._pointwise_checks(sigma_k_root(2, 6), self.WITNESS,
                                               np.random.default_rng(0))["radial_degeneracy"]
        return ok, measure, seen[-1][0]

    def test_round_off_at_large_hessian_passes(self, monkeypatch):
        ok, _, _ = self.radial_check(monkeypatch, 0.0)
        assert ok[0]

    def test_relative_radial_term_fails(self, monkeypatch):
        ok, measure, hess = self.radial_check(monkeypatch, 1e-6)
        lam = self.WITNESS[0]
        assert not ok[0]
        assert measure[0] == pytest.approx(1e-6, rel=1e-3)
        # the scale is that of the bumped Hessian: the bump moves max|D^2f| by 1.9e-7
        assert measure[0] == pytest.approx(abs(lam @ hess @ lam) / np.max(np.abs(hess)),
                                           rel=1e-9, abs=0.0)


def off_radial_bump(L, hess):
    """``hess`` with its largest eigenvalue on the orthogonal complement of
    each row of L set to 1e-6 times the round-off scale max(1, max|D^2f|)."""
    B = np.linalg.svd(L[:, None, :])[2][:, 1:, :]      # orthonormal rows spanning lam^perp
    w, Y = np.linalg.eigh(B @ hess @ B.transpose(0, 2, 1))
    q = np.einsum("mkn,mk->mn", B, Y[:, :, -1])
    c = 1e-6 * np.maximum(1.0, np.max(np.abs(hess), axis=(1, 2))) - w[:, -1]
    return hess + c[:, None, None] * q[:, :, None] * q[:, None, :]


class TestRoundOffBounds:
    # The euler and off_radial_concavity witness of `curvsol props --speed harmonic
    # --n 6 --samples 150 --seed 1039137336` under the former absolute bounds 1e-9
    # and 1e-8, with the half-space fold: its least pair sum is 6.6e-9, euler is
    # 4.6e-9 and top 2.7e-8, while |lam . grad f - f| = 3.9e-17 against
    # sum |lam_i d_i f| = 0.41, and top / max|D^2f| = 2.7e-10.
    WITNESS = np.array([[0.20528230132678224, 0.2973712062399586, -0.20528229470777826,
                         0.2898390579302145, 0.8110727026881409, 0.29230654011356216]])

    def test_round_off_near_the_boundary_passes(self):
        checks = speeds._pointwise_checks(harmonic_pairs(6), self.WITNESS,
                                          np.random.default_rng(0))
        for name, bound in (("euler", 1e-9), ("off_radial_concavity", 1e-8)):
            ok, measure = checks[name]
            assert ok[0] and measure[0] > bound        # the measure itself is unchanged

    @pytest.mark.parametrize("spec, seed", [
        (harmonic_pairs(6), 1039137336), (sigma_k_root(4, 5), 36), (sigma_k_root(4, 5), 174),
        (sigma_k_root(4, 6), 571), (sigma_k_root(2, 6), 575)],
        ids=lambda x: x.label() if isinstance(x, SpeedSpec) else str(x))
    def test_runs_that_failed_on_round_off_pass(self, spec, seed):
        # each failed euler or off_radial_concavity under the absolute bounds
        checks = check_properties(spec, 150, seed)
        assert [name for name, c in checks.items() if c.failed] == []

    @pytest.mark.parametrize("spec", SUITE_SPEEDS, ids=lambda s: s.label())
    def test_a_gradient_off_by_1e_6_fails(self, spec, monkeypatch):
        derivatives = speeds.speed_derivatives

        def scaled(spec, L):
            v, g, h = derivatives(spec, L)
            return v, g * (1.0 + 1e-6), h

        monkeypatch.setattr(speeds, "speed_derivatives", scaled)
        stat = check_properties(spec, 150, 0)["euler"]
        assert stat.failed >= 140 and stat.worst >= 1e-6 * (1.0 - 1e-9)

    @pytest.mark.parametrize("spec", SUITE_SPEEDS, ids=lambda s: s.label())
    def test_a_convex_off_radial_direction_fails(self, spec, monkeypatch):
        derivatives = speeds.speed_derivatives

        def bumped(spec, L):
            v, g, h = derivatives(spec, L)
            return v, g, off_radial_bump(L, h)

        monkeypatch.setattr(speeds, "speed_derivatives", bumped)
        assert check_properties(spec, 150, 0)["off_radial_concavity"].failed == 150


# Derandomized so that the suite's outcome does not depend on the run.
KERNEL = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def cone_batches(draw, min_shift=0.0):
    """A speed and an (m, n) batch of rows in its support cone: entries on
    a 1/256 grid of [-1, 1] (no underflowing norms) shifted along the umbilic
    direction, keeping the rows inside (or, when none is, the rows shifted
    by 2, whose entries are >= 1)."""
    spec = draw(st.sampled_from(ALL_SPEEDS))
    x = draw(hnp.arrays(np.float64, (draw(st.integers(1, 16)), spec.n),
                        elements=st.integers(-256, 256).map(lambda i: i / 256.0)))
    lam = x + draw(st.floats(min_shift, 2.0))
    lam = lam[support_mask(spec, lam)]
    return spec, (lam if lam.shape[0] else x + 2.0)


class TestArrayKernel:
    @KERNEL
    @given(cone_batches(), st.integers(0, 2 ** 32 - 1))
    def test_row_permutations_bit_identical(self, batch, seed):
        spec, lam = batch
        permuted = np.random.default_rng(seed).permuted(lam, axis=1)
        assert np.array_equal(speed_values(spec, permuted), speed_values(spec, lam))

    @KERNEL
    @given(cone_batches())
    def test_euler_relation(self, batch):
        spec, lam = batch
        value, grad, _ = speed_derivatives(spec, lam)
        np.testing.assert_allclose(np.einsum("mi,mi->m", lam, grad), value, rtol=1e-9)

    @KERNEL
    @given(cone_batches())
    def test_off_radial_concavity(self, batch):
        spec, lam = batch
        lam = lam / np.linalg.norm(lam, axis=1, keepdims=True)
        _, _, hess = speed_derivatives(spec, lam)
        proj = np.eye(spec.n) - lam[:, :, None] * lam[:, None, :]
        m = proj @ hess @ proj
        top = np.linalg.eigvalsh(0.5 * (m + m.transpose(0, 2, 1)))[:, -1]
        assert np.all(top <= 1e-8 * np.maximum(1.0, np.max(np.abs(hess), axis=(1, 2))))

    @KERNEL
    @given(cone_batches())
    def test_row_in_batch_matches_row_alone(self, batch):
        spec, lam = batch
        values = speed_values(spec, lam)
        _, grad, _ = speed_derivatives(spec, lam)
        for i, row in enumerate(lam):
            _, alone, _ = speed_derivatives(spec, row[None])
            np.testing.assert_allclose(eval_speed(spec, row), values[i], rtol=1e-14, atol=0)
            np.testing.assert_allclose(alone[0], grad[i], rtol=1e-14, atol=0)

    @KERNEL
    @given(cone_batches(min_shift=1.5))
    def test_gradient_matches_central_differences(self, batch):
        spec, lam = batch
        _, grad, _ = speed_derivatives(spec, lam)
        for i, row in enumerate(lam):
            assert grad[i] == pytest.approx(fd_gradient(spec, row), rel=1e-6, abs=1e-9)


# Every kind at n = 2..6: sigma_k for k = 1..n, harmonic pairs, the suite's two
# quotients (k, l) = (2, 1), (3, 1), a product with a harmonic factor and one
# of two k-th roots, which share one recurrence.
KIND_SPEEDS = [s for n in range(2, 7) for s in (
    [sigma_k_root(k, n) for k in range(1, n + 1)]
    + [harmonic_pairs(n)] + [SpeedSpec("quotient", n, k, 1) for k in (2, 3) if k <= n]
    + [SpeedSpec("product", n, factors=(sigma_k_root(2, n), harmonic_pairs(n)), weights=(0.5, 0.5)),
       SpeedSpec("product", n, factors=(sigma_k_root(2, n), sigma_k_root(1, n)),
                 weights=(0.5, 0.5))])]
SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])


def reference_mask(spec, lam):
    """The mask as one stacked test of every margin."""
    return np.all([m > 0.0 for _, m in speeds.support_margins(spec, lam)], axis=0)


def own_recurrences(S):
    """S_0..S_n at the sorted rows S, each from a recurrence run to its own k,
    for the kernel's ``e``, which runs one recurrence to the largest k."""
    return {k: speeds._sigma_all(S, k)[k] for k in range(S.shape[1] + 1)}


def reference_values(spec, lam):
    """`_value` at the sorted rows inside the reference mask, NaN elsewhere."""
    inside = reference_mask(spec, lam)
    out = np.full(inside.size, np.nan)
    S = np.sort(lam[inside], axis=1)
    out[inside] = speeds._value(spec, S, own_recurrences(S))
    return out


def reference_derivatives(spec, lam):
    """The derivatives behind the reference mask, from the stable sort."""
    inside = reference_mask(spec, lam)
    if not np.all(inside):
        raise DomainError(f"lambda outside the support cone of {spec.label()}: "
                          + speeds._violation(spec, lam[np.argmin(inside)]))
    order = np.argsort(lam, axis=1, kind="stable")
    S = np.take_along_axis(lam, order, axis=1)
    v, g, h = speeds._value_grad_hess(spec, S, own_recurrences(S))
    back = np.argsort(order, axis=1)
    rows = np.arange(lam.shape[0])[:, None, None]
    return v, np.take_along_axis(g, back, axis=1), h[rows, back[:, :, None], back[:, None, :]]


def reference_eval(spec, row):
    """One row's reference value inside the reference mask, else the
    reference derivatives' DomainError."""
    if reference_mask(spec, row[None])[0]:
        return float(reference_values(spec, row[None])[0])
    return reference_derivatives(spec, row[None])


def outcome(call, *args):
    """The arrays a call returns, as bits, or the text of its DomainError."""
    try:
        out = call(*args)
    except DomainError as exc:
        return str(exc)
    return [np.asarray(a, dtype=float).view(np.uint64).tolist()
            for a in (out if isinstance(out, tuple) else (out,))]


class TestOneSortOneRecurrence:
    @pytest.mark.parametrize("spec", KIND_SPEEDS, ids=lambda s: s.label())
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_bit_identical_to_the_stacked_composition(self, spec, data):
        # rows on a 1/64 grid of [-2, 6] with signed zeros, infinities and NaN
        lam = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 8)), spec.n),
                                   elements=SPECIAL | st.integers(-128, 384).map(
                                       lambda i: i / 64.0)))
        with np.errstate(all="ignore"):                  # inf - inf, 0 * inf, ...
            inside = reference_mask(spec, lam)
            assert np.array_equal(support_mask(spec, lam), inside)
            assert outcome(speed_values, spec, lam) == outcome(reference_values, spec, lam)
            assert outcome(eval_speed, spec, lam[0]) == outcome(reference_eval, spec, lam[0])
            for rows in (lam, lam[inside]):
                assert (outcome(speed_derivatives, spec, rows)
                        == outcome(reference_derivatives, spec, rows))

    def test_a_kth_root_value_call_runs_the_recurrence_once(self, monkeypatch):
        calls = []
        sigma_all = speeds._sigma_all
        monkeypatch.setattr(speeds, "_sigma_all",
                            lambda S, kmax: calls.append(kmax) or sigma_all(S, kmax))
        lam = np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [1.0, -1.0, 0.1, 0.2, 0.3]])
        values = speed_values(sigma_k_root(3, 5), lam)
        assert calls == [3]
        assert values[0] == sigma([1.0, 2.0, 3.0, 4.0, 5.0], 3) ** (1.0 / 3.0)
        assert np.isnan(values[1])

    @staticmethod
    def count_recurrences(monkeypatch):
        """The (shape, kmax) of every `_sigma_all` call from here on."""
        calls = []
        sigma_all = speeds._sigma_all
        monkeypatch.setattr(speeds, "_sigma_all",
                            lambda S, kmax: calls.append((S.shape, kmax)) or sigma_all(S, kmax))
        return calls

    def test_a_kth_root_derivative_call_runs_the_recurrence_once(self, monkeypatch):
        calls = self.count_recurrences(monkeypatch)
        lam = np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 0.1, 0.2, 0.3, 0.4]])
        value, _, _ = speed_derivatives(sigma_k_root(3, 5), lam)
        # the others run on rows with one or two entries removed
        assert [c for c in calls if c[0] == lam.shape] == [(lam.shape, 3)]
        assert value[0] == sigma([1.0, 2.0, 3.0, 4.0, 5.0], 3) ** (1.0 / 3.0)

    def test_a_product_value_call_runs_one_recurrence_for_its_roots(self, monkeypatch):
        calls = self.count_recurrences(monkeypatch)
        lam = np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [1.0, -1.0, 0.1, 0.2, 0.3],
                        [-9.0, 1.0, 1.0, 1.0, 1.0]])
        spec = SpeedSpec("product", 5, factors=(sigma_k_root(2, 5), sigma_k_root(1, 5)),
                         weights=(0.5, 0.5))
        values = speed_values(spec, lam)
        assert calls == [(lam.shape, 2)]
        row = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert values[0] == (sigma(row, 2) ** 0.5) ** 0.5 * sigma(row, 1) ** 0.5
        assert np.isnan(values[2])


def march(spec, lam, d):
    """Doubling march along the paths lam + t d, at t = 0.01 * 2^j while
    t < 1e4: whether each path leaves the cone, and the first march time
    found outside (0 where none is)."""
    p, n = lam.shape
    t = 0.01 * 2.0 ** np.arange(20)
    points = lam[:, None, :] + t[:, None] * d[:, None, :]
    outside = ~support_mask(spec, points.reshape(-1, n)).reshape(p, t.size)
    found = outside.any(axis=1)
    return found, np.where(found, t[np.argmax(outside, axis=1)], 0.0)


def leaves(spec, lam, d):
    """The suite's one-point test: the path's point at `_BOUNDARY_FAR` is outside."""
    return ~support_mask(spec, lam + speeds._BOUNDARY_FAR * d)


def decay_rows(spec, lam, d):
    """Whether each path lam + t d leaves the cone, its interior value and
    its decay row: the speed at the distances 2^-j (j = 0..30) of the
    segment to the last point inside, that point found by halving each
    bracket of the doubling march at its midpoint, one `support_mask` call
    per halving, until no float lies strictly inside it."""
    p, n = lam.shape
    found, t_hi = march(spec, lam, d)
    t_lo = np.zeros(p)
    for _ in range(100):
        tm = 0.5 * (t_lo + t_hi)
        if not np.any((tm > t_lo) & (tm < t_hi)):
            break
        inside = support_mask(spec, lam + tm[:, None] * d)
        t_lo = np.where(inside, tm, t_lo)
        t_hi = np.where(inside, t_hi, tm)
    b = lam + t_lo[:, None] * d
    mus = 2.0 ** -np.arange(speeds._BOUNDARY_DEPTH + 1)
    points = b[:, None, :] + mus[:, None] * (lam - b)[:, None, :]
    vals = speed_values(spec, points.reshape(-1, n)).reshape(p, mus.size)
    return found, speed_values(spec, lam), vals


def aitken_limit(v):
    """Aitken's limit of the last three values of the sequence v, and
    whether they fall strictly; the last value where the differences agree."""
    v1, v2, v3 = (float(x) for x in v[-3:])
    d1, d2 = v2 - v1, v3 - v2
    return (v3 if d2 == d1 else v3 - d2 * d2 / (d2 - d1)), d1 < 0.0 and d2 < 0.0


def bisection_boundary_paths(spec, lam, d):
    """Reference for `_boundary_paths`: the decay rows of `decay_rows`, then
    per path in plain Python: found iff it leaves, failed with ratio inf iff
    a value is NaN, else clean iff its last three values fall strictly to an
    Aitken limit of at most `_BOUNDARY_REL` times its largest value."""
    found, g_int, vals = decay_rows(spec, lam, d)
    ratio = np.zeros(lam.shape[0])
    for i in np.flatnonzero(found):
        v = vals[i].tolist()
        if any(math.isnan(x) for x in v):
            ratio[i] = math.inf
            continue
        limit, falls = aitken_limit(v)
        clean = falls and limit <= _BOUNDARY_REL * max(v)
        ratio[i] = (0.0 if clean else v[-1]) / g_int[i]
    return found, ratio <= _BOUNDARY_REL, ratio


def suite_paths(spec, seed, count=40):
    """Interior rows and unit directions drawn as `check_properties` draws them."""
    rng = np.random.default_rng(seed)
    lam = _sample_rows(spec, rng, count)
    d = rng.standard_normal((count, spec.n))
    return lam, d / np.linalg.norm(d, axis=1, keepdims=True)


class TestBoundaryPaths:
    @staticmethod
    def assert_equals_bisection(spec, lam, d):
        """`_boundary_paths` on the paths that leave equals the oracle's
        (ok, ratio) on them, and the oracle finds none of the paths the
        one-point test drops."""
        keep = leaves(spec, lam, d)
        found, *want = bisection_boundary_paths(spec, lam, d)
        assert not np.any(found[~keep])
        for got, ref in zip(_boundary_paths(spec, lam[keep], d[keep]), want, strict=True):
            assert np.array_equal(got, ref[keep])

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    @pytest.mark.parametrize("spec", SUITE_SPEEDS, ids=lambda s: s.label())
    def test_bit_identical_to_bisection(self, spec, seed):
        self.assert_equals_bisection(spec, *suite_paths(spec, seed))

    @pytest.mark.parametrize("hint", [lambda t: t, lambda t: 1.5 * t, lambda t: 0.5 * t,
                                      lambda t: np.full_like(t, np.inf),
                                      lambda t: np.full_like(t, np.nan)],
                             ids=["exact", "late", "early", "inf", "nan"])
    @pytest.mark.parametrize("spec", [sigma_k_root(3, 5), harmonic_pairs(4),
                                      SpeedSpec("quotient", 3, 2, 1)], ids=lambda s: s.label())
    def test_wrong_exit_hint_changes_nothing(self, spec, hint, monkeypatch):
        exact = speeds._support_exit
        monkeypatch.setattr(speeds, "_support_exit", lambda *a: hint(exact(*a)))
        self.assert_equals_bisection(spec, *suite_paths(spec, 5))

    @pytest.mark.parametrize("spec", SUITE_SPEEDS, ids=lambda s: s.label())
    def test_a_confirmed_exit_takes_at_most_two_rounds(self, spec, monkeypatch):
        # the first bracket, 1e-13 relative about the exact exit, spans at most
        # about 1,800 ulps, and each round of 63 points narrows it 64-fold
        calls, mask = [], speeds.support_mask

        def counted(spec, rows):
            calls.append(mask(spec, rows))
            return calls[-1]

        monkeypatch.setattr(speeds, "support_mask", counted)
        lam, d = suite_paths(spec, 3)
        keep = np.flatnonzero(leaves(spec, lam, d))
        rounds = []
        for i in keep:                               # one path per call: its own rounds
            calls.clear()
            _boundary_paths(spec, lam[i:i + 1], d[i:i + 1])
            if calls[0].tolist() == [True, False]:   # the mask confirmed the hint
                rounds.append(len(calls) - 1)
        assert max(rounds) <= 2
        assert len(rounds) >= 0.9 * keep.size


def round_by_round_boundary(spec, sample_count, seed):
    """Reference for the suite's boundary check: after the same pointwise
    draws, one `bisection_boundary_paths` call and one record per round,
    each round sized by the paths still missing that leave the cone."""
    rng = np.random.default_rng(seed)
    for start in range(0, sample_count, speeds._CHUNK):
        lam = speeds._sample_rows(spec, rng, min(speeds._CHUNK, sample_count - start))
        speeds._pointwise_checks(spec, lam, rng)
    boundary = speeds.CheckStat()
    done = tries = 0
    while done < speeds._BOUNDARY_PATHS and tries < 20 * speeds._BOUNDARY_PATHS:
        size = min(speeds._BOUNDARY_PATHS - done, 20 * speeds._BOUNDARY_PATHS - tries)
        tries += size
        lam = speeds._sample_rows(spec, rng, size)
        d = rng.standard_normal((size, spec.n))
        found, ok, ratio = bisection_boundary_paths(
            spec, lam, d / np.linalg.norm(d, axis=1, keepdims=True))
        boundary.record(ok[found], ratio[found], lam[found])
        done += int(np.count_nonzero(found))
    return boundary


class TestBoundaryPlanAndBatch:
    @pytest.mark.parametrize("seed", [0, 11, 4242, 7, 99])
    @pytest.mark.parametrize("spec", SUITE_SPEEDS, ids=lambda s: s.label())
    def test_equals_the_round_by_round_loop(self, spec, seed):
        got = check_properties(spec, 150, seed)["boundary_vanishing"]
        want = round_by_round_boundary(spec, 150, seed)
        assert (got.passed, got.failed) == (want.passed, want.failed)
        assert got.passed + got.failed == speeds._BOUNDARY_PATHS
        assert got.worst == want.worst
        assert got.witness == want.witness

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    @pytest.mark.parametrize("spec, samples", [(s, 150) for s in SUITE_SPEEDS]
                             + [(sigma_k_root(k, k), 20) for k in (20, 30)],
                             ids=lambda s: s.label() if isinstance(s, SpeedSpec) else str(s))
    def test_every_decay_value_is_finite(self, spec, samples, seed, monkeypatch):
        # each decay sample lies on the segment from an interior row to a
        # point inside, so inside the convex cone: no path has a NaN to drop
        calls, values = [], speeds.speed_values

        def recorded(spec, rows):
            calls.append(values(spec, rows))
            return calls[-1]

        monkeypatch.setattr(speeds, "speed_values", recorded)
        stat = check_properties(spec, samples, seed)["boundary_vanishing"]
        vals = calls[-1]                             # the last call: `_boundary_paths`' decay rows
        assert vals.size == (stat.passed + stat.failed) * (speeds._BOUNDARY_DEPTH + 1)
        assert stat.passed + stat.failed == speeds._BOUNDARY_PATHS
        assert np.all(np.isfinite(vals))

    def test_a_nan_decay_value_fails_its_path_as_the_witness(self, monkeypatch):
        spec, width, batches = sigma_k_root(2, 4), speeds._BOUNDARY_DEPTH + 1, []
        batch, values = speeds._boundary_paths, speeds.speed_values

        def recorded(spec, lam, d):
            batches.append((lam, batch(spec, lam, d)))
            return batches[-1][1]

        def poisoned(spec, rows):
            out = values(spec, rows)
            if rows.shape[0] == speeds._BOUNDARY_PATHS * width:     # the decay rows
                out[7 * width + 12] = np.nan
            return out

        monkeypatch.setattr(speeds, "_boundary_paths", recorded)
        clean = check_properties(spec, 150, 3)["boundary_vanishing"]
        monkeypatch.setattr(speeds, "speed_values", poisoned)
        stat = check_properties(spec, 150, 3)["boundary_vanishing"]
        (lam, (ok, ratio)), (lam_p, (ok_p, ratio_p)) = batches
        assert np.array_equal(lam, lam_p) and ok[7] and not ok_p[7] and ratio_p[7] == np.inf
        others = np.arange(lam.shape[0]) != 7
        assert np.array_equal(ok[others], ok_p[others])
        assert np.array_equal(ratio[others], ratio_p[others])
        assert (clean.passed, clean.failed, clean.worst) == (20, 0, 0.0)
        assert (stat.passed, stat.failed, stat.worst) == (19, 1, np.inf)
        assert stat.witness == tuple(lam[7].tolist())


def vanishing_order(spec):
    """The order q of the speed's decay mu^q at the cone boundary: 1/k for
    sigma_k^(1/k), 1 for harmonic_pairs, and 1/4 for the suite's product
    (sigma_2^(1/2))^0.5 * sigma_1^0.5, whose first factor vanishes with order
    1/2 while sigma_1 stays positive."""
    if spec.kind == "sigma_k_root":
        return 1.0 / spec.k
    return {"harmonic_pairs": 1.0, "product": 0.25}[spec.kind]


class TestBoundaryLimit:
    @pytest.mark.parametrize("k", [20, 24, 30])
    def test_high_order_roots_vanish(self, k):
        # sigma_k^(1/k) vanishes with order 1/k, at or below the former exponent floor 0.05
        stat = check_properties(sigma_k_root(k, k), 5, 0)["boundary_vanishing"]
        assert (stat.passed, stat.failed, stat.worst) == (20, 0, 0.0)

    def test_a_far_exit_is_bounded_by_its_own_scale(self, monkeypatch):
        spec, paths, batch = sigma_k_root(4, 6), [], speeds._boundary_paths

        def recorded(spec, lam, d):
            paths.append((lam, d))
            return batch(spec, lam, d)

        monkeypatch.setattr(speeds, "_boundary_paths", recorded)
        stat = check_properties(spec, 150, 102)["boundary_vanishing"]
        assert (stat.passed, stat.failed, stat.worst) == (20, 0, 0.0)
        # a path that exits far away: its values and their round-off grow with
        # the exit distance, and its limit exceeds _BOUNDARY_REL times the interior value
        found, g_int, vals = decay_rows(spec, *(np.concatenate(x) for x in zip(*paths)))
        limits = [aitken_limit(row[~np.isnan(row)])[0] for row in vals[found]]
        assert max(np.array(limits) / g_int[found]) > _BOUNDARY_REL

    @pytest.mark.parametrize("order", [1.0, 0.2, 0.05, 1 / 30])
    @pytest.mark.parametrize("plateau, clean", [(2e-3, False), (5e-4, True)])
    def test_a_plateau_fails_at_any_decay_order(self, order, plateau, clean, monkeypatch):
        # real paths, fed the interior value 1 and the decay 0.9 mu^order + plateau
        spec = sigma_k_root(2, 3)
        lam, d = suite_paths(spec, 5)
        keep = leaves(spec, lam, d)
        lam, d = lam[keep], d[keep]
        mus = 2.0 ** -np.arange(speeds._BOUNDARY_DEPTH + 1)
        decay = np.tile(0.9 * mus ** order + plateau, (lam.shape[0], 1))
        fed = iter([np.ones(lam.shape[0]), decay.ravel()])
        monkeypatch.setattr(speeds, "speed_values", lambda spec, rows: next(fed))
        ok, ratio = _boundary_paths(spec, lam, d)
        assert np.all(ok == clean)
        assert np.array_equal(ratio, np.zeros(lam.shape[0]) if clean else decay[:, -1])

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("spec", [s for s in SUITE_SPEEDS if s.kind != "quotient"]
                             + [sigma_k_root(k, k) for k in (20, 24, 30)],
                             ids=lambda s: s.label())
    def test_last_three_values_show_the_vanishing_order(self, spec, seed):
        lam, d = suite_paths(spec, seed)
        found, _, vals = decay_rows(spec, lam, d)
        rows = [v[~np.isnan(v)] for v in vals[found]]
        orders = [math.log2((v[-3] - v[-2]) / (v[-2] - v[-1])) for v in rows if v.size >= 12]
        assert orders
        assert max(abs(q - vanishing_order(spec)) for q in orders) <= 2e-3


def oracle_sample_rows(spec, rng, count):
    """The unfolded rejection loop that the folded ``_sample_rows`` replaced,
    kept as the reference for its distribution: whole-sphere draws, each
    kept iff it lies in the support cone."""
    found, accepted, draws, misses = [], 0, 0, 0
    while accepted < count:
        need = count - accepted
        size = min(speeds._CHUNK, need * (draws // max(accepted, 1) + 1))
        X = next(speeds.unit_draws(spec.n, size, rng))
        draws += size
        X = X[support_mask(spec, X)][:need]
        misses = 0 if X.size else misses + size
        if misses >= speeds._MAX_TRIES:
            raise DomainError(
                f"no interior sample found for {spec.label()} after {misses} draws")
        found.append(X)
        accepted += X.shape[0]
    return np.concatenate(found)


EXIT_SPEEDS = [s for n in range(2, 7) for s in (
    [sigma_k_root(k, n) for k in range(1, n + 1)]
    + [harmonic_pairs(n), SpeedSpec("quotient", n, 2, 1)]
    + ([SpeedSpec("quotient", n, 3, 1)] if n >= 3 else [])
    + [SpeedSpec("product", n, factors=(sigma_k_root(2, n), harmonic_pairs(n)), weights=(0.5, 0.5)),
       SpeedSpec("product", n, factors=(sigma_k_root(2, n), sigma_k_root(1, n)),
                 weights=(0.5, 0.5))])]
ORTHANT_SPEEDS = [sigma_k_root(6, 6), sigma_k_root(20, 20), SpeedSpec("quotient", 4, 3, 1),
                  SpeedSpec("quotient", 3, 2, 1),
                  SpeedSpec("product", 3, factors=(sigma_k_root(3, 3), sigma_k_root(1, 3)),
                            weights=(0.5, 0.5))]


class TestSampleRows:
    @pytest.mark.parametrize("spec", [sigma_k_root(6, 6), sigma_k_root(2, 4), harmonic_pairs(5),
                                      harmonic_pairs(8), sigma_k_root(3, 4), sigma_k_root(5, 6),
                                      SpeedSpec("quotient", 4, 3, 1),
                                      SpeedSpec("product", 3,
                                                factors=(sigma_k_root(2, 3), sigma_k_root(1, 3)),
                                                weights=(0.5, 0.5)),
                                      SpeedSpec("product", 3,
                                                factors=(sigma_k_root(3, 3), sigma_k_root(1, 3)),
                                                weights=(0.5, 0.5))],
                             ids=lambda s: s.label())
    def test_folded_rows_follow_the_unfolded_distribution(self, spec):
        got = _sample_rows(spec, np.random.default_rng(101), 4000)
        want = oracle_sample_rows(spec, np.random.default_rng(202), 4000)
        for stat in (lambda L: L.min(axis=1), lambda L: L.max(axis=1), lambda L: L.sum(axis=1),
                     lambda L: np.sort(L, axis=1)[:, 1]):
            assert ks_2samp(stat(got), stat(want)).pvalue >= 1e-3

    @pytest.mark.parametrize("spec", SUITE_SPEEDS + ORTHANT_SPEEDS, ids=lambda s: s.label())
    def test_rows_are_unit_and_inside(self, spec):
        L = _sample_rows(spec, np.random.default_rng(5), 500)
        assert L.shape == (500, spec.n)
        assert np.allclose(np.linalg.norm(L, axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert np.all(support_mask(spec, L))

    @staticmethod
    def assert_rejects_no_draw(spec, monkeypatch):
        """`_sample_rows` accepts all of its one chunk of draws."""
        seen = []
        mask = speeds.support_mask

        def counted(spec, lam):
            out = mask(spec, lam)
            seen.append((len(lam), int(np.count_nonzero(out))))
            return out

        monkeypatch.setattr(speeds, "support_mask", counted)
        assert _sample_rows(spec, np.random.default_rng(9), 300).shape == (300, spec.n)
        assert seen == [(300, 300)]

    @pytest.mark.parametrize("spec", ORTHANT_SPEEDS, ids=lambda s: s.label())
    def test_orthant_fold_rejects_no_draw(self, spec, monkeypatch):
        self.assert_rejects_no_draw(spec, monkeypatch)

    @pytest.mark.parametrize("n", [3, 6, 12, 20])
    def test_pair_fold_rejects_no_draw(self, n, monkeypatch):
        # the 2-convex cone holds 2^(1-n) of the sphere, all of the pair fold's image
        self.assert_rejects_no_draw(harmonic_pairs(n), monkeypatch)

    @pytest.mark.parametrize("spec", EXIT_SPEEDS + [sigma_k_root(k, 8) for k in range(1, 9)],
                             ids=lambda s: s.label())
    def test_fold_region_names_the_tightest_region(self, spec):
        # the unfolded draws of a cone that a region does not hold show rows
        # outside it: Gamma_k with k < n has rows with a negative entry, and
        # with k <= n - 2 rows with two
        rows = oracle_sample_rows(spec, np.random.default_rng(4), 600)
        region = speeds._fold_region(spec)
        assert np.all(rows > 0.0) == (region == 2)
        assert np.all(support_mask(harmonic_pairs(spec.n), rows)) == (region >= 1)


EXIT = settings(max_examples=150, deadline=None, derandomize=True)


class TestSupportExit:
    @pytest.mark.parametrize("seed", [1, 42, 777])
    @pytest.mark.parametrize("spec", EXIT_SPEEDS, ids=lambda s: s.label())
    def test_one_point_test_equals_the_march(self, spec, seed):
        lam, d = suite_paths(spec, seed, count=400)
        assert np.array_equal(leaves(spec, lam, d), march(spec, lam, d)[0])

    @EXIT
    @given(st.sampled_from(EXIT_SPEEDS), st.integers(0, 2 ** 32 - 1))
    def test_exit_brackets_the_mask(self, spec, seed):
        lam, d = suite_paths(spec, seed, count=8)
        t = _support_exit(spec, lam, d)
        assert np.all(t > 0.0)
        end = np.isfinite(t)
        for scale, inside in ((1.0 - 1e-9, True), (1.0 + 1e-9, False)):
            rows = lam[end] + (scale * t[end])[:, None] * d[end]
            assert np.all(support_mask(spec, rows) == inside)
        assert np.all(support_mask(spec, lam[~end] + 1e4 * d[~end]))

    @EXIT
    @given(st.sampled_from([s for s in EXIT_SPEEDS if s.kind == "sigma_k_root"]),
           st.integers(0, 2 ** 32 - 1))
    def test_line_polynomial_matches_sigma_and_has_real_roots(self, spec, seed):
        lam, d = suite_paths(spec, seed, count=8)
        c = _sigma_line(lam, d, spec.k)
        for t in (-2.0, -0.3, 0.1, 0.7, 3.0):
            powers = t ** np.arange(spec.k + 1)
            direct = _sigma_all(np.sort(lam + t * d, axis=1), spec.k)[spec.k]
            scale = np.abs(c) @ np.abs(powers)
            assert np.all(np.abs(c @ powers - direct) <= 1e-12 * scale)
        # Garding: the reversed polynomial S_k(d + s lam), whose largest root
        # gives the exit, has k real roots for lam in Gamma_k
        for row in c:
            roots = np.roots(row)
            assert roots.size == spec.k
            assert np.all(np.abs(roots.imag) <= 1e-6 * (1.0 + np.abs(roots)))


@st.composite
def profiles(draw):
    spec = draw(st.sampled_from([sigma_k_root(2, 2), sigma_k_root(2, 3), sigma_k_root(3, 4),
                                 harmonic_pairs(3), harmonic_pairs(5)]))
    m = draw(st.integers(1, 12))
    finite = st.floats(-1e3, 1e3, allow_subnormal=False)
    r = np.cumsum(draw(hnp.arrays(np.float64, m, elements=st.floats(1e-3, 1.0))))
    rest = draw(hnp.arrays(np.float64, (m, 3), elements=finite))
    return ProfileSolution(speed=spec, samples=np.column_stack((r, rest)),
                           status="completed", tolerances={"rtol": 1e-10})


@settings(max_examples=40, deadline=None, derandomize=True)
@given(profiles())
def test_derived_columns_round_trip(profile):
    cols = derived_columns(profile)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        write_profile_csv(path, profile)
        written = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 4:]
        back = read_profile_csv(path)
    assert np.array_equal(back.samples, profile.samples)
    np.testing.assert_array_equal(written, cols)
    np.testing.assert_array_equal(derived_columns(back), cols)
