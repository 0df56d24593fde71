"""Tests for the speed catalog: values, derivatives, the matrix quadratic
form, and the sampled property suite."""

import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from curvsol import (
    DegenerateEigenvalueError,
    DomainError,
    ParameterError,
    check_properties,
    eval_derivatives,
    eval_sigma_k,
    eval_speed,
    harmonic_pairs,
    hessian_quadratic_form,
    in_support,
    product,
    quotient,
    sample_interior,
    sigma_k_root,
)
from curvsol.io import derived_columns, read_profile_csv, write_profile_csv
from curvsol.profiles import ProfileSolution
from curvsol.speeds import _radial_degeneracy, speed_derivatives, speed_values, support_mask

RNG = np.random.default_rng(20240817)


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
    quotient(2, 1, 3),
    quotient(3, 1, 4),
    product([sigma_k_root(2, 3), sigma_k_root(1, 3)], [0.5, 0.5]),
    product([sigma_k_root(2, 4), harmonic_pairs(4)], [0.25, 0.75]),
]


class TestSigmaK:
    def test_equal_entries(self):
        assert eval_sigma_k([1.0, 1.0, 1.0], 2) == 3.0

    def test_brute_force_example(self):
        assert eval_sigma_k([1.0, 2.0, 3.0], 2) == brute_sigma([1.0, 2.0, 3.0], 2) == 11.0

    def test_k1_is_sum(self):
        assert eval_sigma_k([1.0, 2.0, 3.0], 1) == 6.0

    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (3, 3), (5, 2), (5, 4), (6, 3)])
    def test_matches_brute_force(self, n, k):
        for _ in range(25):
            lam = RNG.normal(size=n)
            assert eval_sigma_k(lam, k) == pytest.approx(brute_sigma(lam, k), rel=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            eval_sigma_k([1.0, 2.0], 3)
        with pytest.raises(ParameterError):
            eval_sigma_k([1.0, 2.0], 0)


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
        assert not in_support(quotient(2, 1, 3), [-0.1, 1.0, 1.0])
        assert in_support(quotient(2, 1, 3), [0.1, 1.0, 1.0])

    @pytest.mark.parametrize("spec", ALL_SPEEDS, ids=lambda s: s.label())
    def test_permutation_invariance_exact(self, spec):
        for _ in range(10):
            lam = sample_interior(spec, RNG)
            for _ in range(4):
                perm = RNG.permutation(spec.n)
                assert eval_speed(spec, lam[perm]) == eval_speed(spec, lam)

    @pytest.mark.parametrize("spec", ALL_SPEEDS, ids=lambda s: s.label())
    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_homogeneity(self, spec, c):
        for _ in range(5):
            lam = sample_interior(spec, RNG)
            assert eval_speed(spec, c * lam) == pytest.approx(c * eval_speed(spec, lam), rel=1e-12)


class TestDerivatives:
    def test_sigma2_umbilic_gradient(self):
        d = eval_derivatives(sigma_k_root(2, 3), [1.0, 1.0, 1.0])
        assert d.gradient == pytest.approx(np.full(3, 1 / math.sqrt(3)), rel=1e-14)

    def test_mean_curvature_linear(self):
        d = eval_derivatives(sigma_k_root(1, 4), [0.3, 0.9, 1.2, 2.0])
        assert d.gradient == pytest.approx(np.ones(4), abs=1e-15)
        assert np.max(np.abs(d.hessian)) == 0.0

    def test_harmonic_euler_value(self):
        lam = np.ones(3)
        d = eval_derivatives(harmonic_pairs(3), lam)
        assert float(lam @ d.gradient) == pytest.approx(2.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPEEDS, ids=lambda s: s.label())
    def test_gradient_matches_finite_differences(self, spec):
        for _ in range(8):
            lam = sample_interior(spec, RNG)
            d = eval_derivatives(spec, lam)
            fd = fd_gradient(spec, lam)
            assert d.gradient == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("spec", ALL_SPEEDS, ids=lambda s: s.label())
    def test_hessian_matches_finite_differences(self, spec):
        # matrix-norm comparison: the FD truncation error scales with the
        # size of the higher derivatives, which blow up near the cone edge
        for _ in range(4):
            lam = sample_interior(spec, RNG)
            d = eval_derivatives(spec, lam)
            fd = fd_hessian(spec, lam)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(d.hessian - fd)) <= 1e-4 * scale

    @pytest.mark.parametrize("spec", ALL_SPEEDS, ids=lambda s: s.label())
    def test_euler_relation_and_positivity(self, spec):
        for _ in range(10):
            lam = sample_interior(spec, RNG)
            d = eval_derivatives(spec, lam)
            assert d.value > 0.0
            assert np.all(d.gradient > 0.0)
            assert float(lam @ d.gradient) == pytest.approx(d.value, rel=1e-9)

    @pytest.mark.parametrize("spec", ALL_SPEEDS, ids=lambda s: s.label())
    def test_off_radial_concavity(self, spec):
        for _ in range(6):
            lam = sample_interior(spec, RNG)
            d = eval_derivatives(spec, lam)
            proj = np.eye(spec.n) - np.outer(lam, lam)
            m = proj @ d.hessian @ proj
            assert np.max(np.linalg.eigvalsh(0.5 * (m + m.T))) <= 1e-8
            assert abs(float(lam @ d.hessian @ lam)) <= 1e-10

    def test_gradient_permutes_with_input(self):
        spec = sigma_k_root(2, 4)
        lam = np.array([0.5, 1.0, 2.0, 3.0])
        perm = np.array([2, 0, 3, 1])
        d0 = eval_derivatives(spec, lam)
        d1 = eval_derivatives(spec, lam[perm])
        assert d1.gradient == pytest.approx(d0.gradient[perm], rel=1e-14)


class TestHessianQuadraticForm:
    def test_linear_speed_vanishes(self):
        T = RNG.normal(size=(3, 3))
        T = 0.5 * (T + T.T)
        assert hessian_quadratic_form(sigma_k_root(1, 3), [0.5, 1.0, 2.0], T) == pytest.approx(0.0, abs=1e-14)

    def test_off_diagonal_example(self):
        got = hessian_quadratic_form(sigma_k_root(2, 2), [1.0, 2.0], [[0.0, 1.0], [1.0, 0.0]])
        assert got == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-13)

    def test_diagonal_T_reduces_to_hessian(self):
        spec = sigma_k_root(2, 3)
        lam = np.array([0.7, 1.1, 2.3])
        diag = np.array([0.4, -0.8, 1.5])
        got = hessian_quadratic_form(spec, lam, np.diag(diag))
        d = eval_derivatives(spec, lam)
        assert got == pytest.approx(float(diag @ d.hessian @ diag), abs=1e-10)

    @pytest.mark.parametrize("spec", [sigma_k_root(2, 3), harmonic_pairs(3), quotient(2, 1, 3)],
                             ids=lambda s: s.label())
    def test_matches_matrix_finite_differences(self, spec):
        # oracle: second s-derivative of gamma(eigenvalues(diag(lam) + s T))
        lam = np.array([0.6, 1.0, 1.9]) if spec.kind != "quotient" else np.array([0.6, 1.0, 1.9])
        T = np.array([[0.3, 0.5, -0.2], [0.5, -0.1, 0.4], [-0.2, 0.4, 0.2]])
        h = 1e-4

        def g(s):
            ev = np.linalg.eigvalsh(np.diag(lam) + s * T)
            return eval_speed(spec, ev)

        fd = (g(h) - 2.0 * g(0.0) + g(-h)) / (h * h)
        got = hessian_quadratic_form(spec, lam, T)
        assert got == pytest.approx(fd, rel=5e-5, abs=5e-6)

    def test_degenerate_eigenvalues_rejected(self):
        with pytest.raises(DegenerateEigenvalueError):
            hessian_quadratic_form(sigma_k_root(2, 3), [1.0, 1.0, 2.0], np.eye(3))

    def test_asymmetric_T_rejected(self):
        with pytest.raises(ParameterError):
            hessian_quadratic_form(sigma_k_root(2, 2), [1.0, 2.0], [[0.0, 1.0], [0.0, 0.0]])

    def test_T_is_checked_against_lambda_first(self):
        with pytest.raises(ParameterError):
            hessian_quadratic_form(sigma_k_root(2, 3), [1.0, 2.0], np.eye(3))

    def test_lambda_of_another_dimension_is_domain_error(self):
        with pytest.raises(DomainError, match="dimension mismatch"):
            hessian_quadratic_form(sigma_k_root(2, 3), [1.0, 2.0], np.eye(2))


class TestSpecValidation:
    def test_k_range(self):
        with pytest.raises(ParameterError):
            sigma_k_root(5, 3)

    def test_harmonic_needs_two(self):
        with pytest.raises(ParameterError):
            harmonic_pairs(1)

    def test_quotient_order(self):
        with pytest.raises(ParameterError):
            quotient(2, 2, 3)

    def test_product_weights_sum(self):
        with pytest.raises(ParameterError):
            product([sigma_k_root(2, 3), sigma_k_root(1, 3)], [0.5, 0.6])


class TestPropertySuite:
    def test_sigma2_clean(self):
        rep = check_properties(sigma_k_root(2, 3), sample_count=300, seed=7)
        assert rep.failures() == 0

    def test_harmonic_clean(self):
        rep = check_properties(harmonic_pairs(4), sample_count=300, seed=7)
        assert rep.failures() == 0

    def test_quotient_fails_only_boundary_vanishing(self):
        rep = check_properties(quotient(2, 1, 3), sample_count=300, seed=7)
        assert rep.failing_checks() == ["boundary_vanishing"]
        assert rep.checks["boundary_vanishing"].failed > 0
        # the witnessed near-boundary value stays an O(1) fraction of the
        # interior value: a genuine plateau, not slow decay
        assert rep.checks["boundary_vanishing"].worst > 0.01

    def test_sample_count_validated(self):
        with pytest.raises(ParameterError):
            check_properties(sigma_k_root(2, 3), sample_count=0)


class TestRadialDegeneracy:
    # The radial_degeneracy witness of `curvsol props --speed sigma-k --n 6 --k 2
    # --samples 150 --seed 1778144096` under the former absolute bound 1e-10: near the
    # cone boundary max|D^2f| is about 6.4e6, and round-off left |lam^T D^2f lam| = 6.5e-10.
    WITNESS = np.array([[0.5059866468589925, 0.5320479500657418, -0.43123338973469455,
                         -0.25428697001299155, 0.3417449379402276, 0.3057593659775644]])

    def test_round_off_at_large_hessian_passes(self):
        hess = speed_derivatives(sigma_k_root(2, 6), self.WITNESS).hessian
        ok, _ = _radial_degeneracy(self.WITNESS, hess)
        assert ok[0]

    def test_relative_radial_term_fails(self):
        hess = speed_derivatives(sigma_k_root(2, 6), self.WITNESS).hessian
        lam = self.WITNESS[0]
        bump = 1e-6 * np.max(np.abs(hess)) * np.outer(lam, lam)
        ok, measure = _radial_degeneracy(self.WITNESS, hess + bump)
        assert not ok[0]
        assert measure[0] == pytest.approx(1e-6, rel=1e-3)


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
        d = speed_derivatives(spec, lam)
        np.testing.assert_allclose(np.einsum("mi,mi->m", lam, d.gradient), d.value, rtol=1e-9)

    @KERNEL
    @given(cone_batches())
    def test_off_radial_concavity(self, batch):
        spec, lam = batch
        lam = lam / np.linalg.norm(lam, axis=1, keepdims=True)
        hess = speed_derivatives(spec, lam).hessian
        proj = np.eye(spec.n) - lam[:, :, None] * lam[:, None, :]
        m = proj @ hess @ proj
        top = np.linalg.eigvalsh(0.5 * (m + m.transpose(0, 2, 1)))[:, -1]
        assert np.all(top <= 1e-8 * np.maximum(1.0, np.max(np.abs(hess), axis=(1, 2))))

    @KERNEL
    @given(cone_batches())
    def test_row_in_batch_matches_row_alone(self, batch):
        spec, lam = batch
        values = speed_values(spec, lam)
        d = speed_derivatives(spec, lam)
        for i, row in enumerate(lam):
            alone = eval_derivatives(spec, row)
            np.testing.assert_allclose(eval_speed(spec, row), values[i], rtol=1e-14, atol=0)
            np.testing.assert_allclose(alone.gradient, d.gradient[i], rtol=1e-14, atol=0)

    @KERNEL
    @given(cone_batches(min_shift=1.5))
    def test_gradient_matches_central_differences(self, batch):
        spec, lam = batch
        d = speed_derivatives(spec, lam)
        for i, row in enumerate(lam):
            assert d.gradient[i] == pytest.approx(fd_gradient(spec, row), rel=1e-6, abs=1e-9)


@st.composite
def profiles(draw):
    spec = draw(st.sampled_from([sigma_k_root(2, 2), sigma_k_root(2, 3), sigma_k_root(3, 4),
                                 harmonic_pairs(3), harmonic_pairs(5)]))
    m = draw(st.integers(1, 12))
    finite = st.floats(-1e3, 1e3, allow_subnormal=False)
    r = np.cumsum(draw(hnp.arrays(np.float64, m, elements=st.floats(1e-3, 1.0))))
    rest = draw(hnp.arrays(np.float64, (m, 3), elements=finite))
    return ProfileSolution(n=spec.n, speed=spec, samples=np.column_stack((r, rest)),
                           startup_slope=1.0, startup_radius=float(r[0]), blowup_radius=None,
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
