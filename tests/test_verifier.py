"""Tests for the verification report generators."""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from curvsol import (
    DomainError,
    ParameterError,
    ProfileSolution,
    SpeedSpec,
    check_barriers,
    check_convexity_estimate,
    check_sigma2_cylinder,
    check_soliton,
    cone_separation,
    estimate_pinching_constants,
    fit_convexity_params,
    gamma_alpha_delta,
    harmonic_pairs,
    integrate_profile,
    profile_geometry,
    sigma_k_root,
)
from curvsol import cones, rotgeom, verifier
from curvsol.speeds import (_support_distance, eval_speed, speed_derivatives, speed_values,
                            unit_draws)


@pytest.fixture(scope="module")
def sigma2_profile():
    return integrate_profile(sigma_k_root(2, 2), startup_radius=1e-4, r_max=3.0,
                             rtol=1e-13, atol=1e-15)


@pytest.fixture(scope="module")
def sigma23_profile():
    return integrate_profile(sigma_k_root(2, 3), r_max=2.0)


@pytest.fixture(scope="module")
def harmonic3_profile():
    return integrate_profile(harmonic_pairs(3), r_max=1.0)


class TestCheckSoliton:
    def test_closed_form_passes(self, sigma2_profile):
        entry = check_soliton(sigma2_profile, tol=1e-8)
        assert entry.status == "pass"
        assert entry.worst_violation <= 1e-8

    def test_sigma_k_profile_passes(self, sigma23_profile):
        entry = check_soliton(sigma23_profile, tol=1e-7)
        assert entry.status == "pass"

    def test_perturbed_profile_fails(self, sigma2_profile):
        scaled = sigma2_profile.samples.copy()
        scaled[:, 2] *= 1.01
        perturbed = dataclasses.replace(sigma2_profile, samples=scaled)
        entry = check_soliton(perturbed, tol=1e-8)
        assert entry.status == "fail"
        assert 1e-4 < entry.worst_violation < 1e-1

    def test_residual_scales_linearly_in_perturbation(self, sigma2_profile):
        # first-order sensitivity: doubling the slope perturbation doubles
        # the worst residual
        worst = {}
        for eps in (1e-4, 2e-4):
            scaled = sigma2_profile.samples.copy()
            scaled[:, 2] *= 1.0 + eps
            entry = check_soliton(dataclasses.replace(sigma2_profile, samples=scaled),
                                  tol=0.0)
            worst[eps] = entry.worst_violation
        assert worst[2e-4] / worst[1e-4] == pytest.approx(2.0, rel=1e-2)

    def test_harmonic_profile_reports_equation_mismatch(self, harmonic3_profile):
        # the harmonic slope equation used here (and its barrier/fixed-point
        # theory) is not the geometric soliton equation for the harmonic
        # speed: its curvatures carry an O(0.1) relative speed-versus-tilt
        # residual, which this check reports rather than hides
        entry = check_soliton(harmonic3_profile, tol=1e-7)
        assert entry.status == "fail"
        assert 1e-3 < entry.worst_violation < 1.0

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_bad_tol_rejected(self, sigma2_profile, tol):
        with pytest.raises(ParameterError, match="tol must be finite and >= 0"):
            check_soliton(sigma2_profile, tol=tol)

    def test_curvatures_outside_the_cone_fail_with_a_witness(self):
        # u'' = -10 at r = 0.2 makes the radial curvature -10/(1.0036)^1.5
        # outweigh the two rotational ones there, so S_1 < 0; the other rows
        # lie in Gamma_2, and the first row outside is the witness
        r = np.array([0.1, 0.2, 0.3])
        samples = np.column_stack((r, 0.15 * r * r, 0.3 * r, [0.3, -10.0, 0.3]))
        profile = ProfileSolution(speed=sigma_k_root(2, 3), samples=samples, status="completed")
        entry = check_soliton(profile, tol=1e-8)
        assert entry.status == "fail"
        assert entry.worst_violation == np.inf
        w = 1.0 + 0.06 ** 2
        lam = [-10.0 / w ** 1.5] + [0.06 / (0.2 * np.sqrt(w))] * 2
        assert entry.witness["r"] == 0.2
        np.testing.assert_allclose(entry.witness["lambda"], lam, rtol=1e-15)
        assert entry.detail == "curvatures left the cone: S_1(lambda) = -9.34732 <= 0"


class TestConvexityEstimate:
    def test_fitted_parameters_pass(self, harmonic3_profile):
        geo = profile_geometry(harmonic3_profile)
        alpha, beta = fit_convexity_params(harmonic3_profile, geo, delta=0.05)
        assert 0.0 < beta < 1.0
        entry = check_convexity_estimate(harmonic3_profile, geo, alpha, 0.05, beta)
        assert entry.status == "pass"
        assert "admissible" in entry.detail

    def test_monotone_in_alpha(self, harmonic3_profile):
        geo = profile_geometry(harmonic3_profile)
        alpha, beta = fit_convexity_params(harmonic3_profile, geo, delta=0.05)
        for factor in (1.0, 2.0, 10.0):
            entry = check_convexity_estimate(harmonic3_profile, geo, factor * alpha, 0.05, beta)
            assert entry.status == "pass"

    def test_unreachable_beta_skips(self, harmonic3_profile):
        geo = profile_geometry(harmonic3_profile)
        alpha, _ = fit_convexity_params(harmonic3_profile, geo, delta=0.05)
        entry = check_convexity_estimate(harmonic3_profile, geo, alpha, 0.05, 0.9999)
        assert entry.status == "skipped"

    def test_sigma_profile_passes_with_fit(self, sigma23_profile):
        geo = profile_geometry(sigma23_profile)
        alpha, beta = fit_convexity_params(sigma23_profile, geo, delta=0.05)
        entry = check_convexity_estimate(sigma23_profile, geo, alpha, 0.05, beta)
        assert entry.status == "pass"

    def test_speed_is_evaluated_once(self, harmonic3_profile, monkeypatch):
        # the pinching test reads the curvature table's gamma column
        calls = []

        def counted(spec, lam):
            calls.append(len(lam))
            return speed_values(spec, lam)
        for layer in (rotgeom, cones, verifier):
            monkeypatch.setattr(layer, "speed_values", counted, raising=False)
        entry = check_convexity_estimate(harmonic3_profile, rotgeom.profile_geometry(
            harmonic3_profile), 100.0, 0.05, 0.1)
        assert entry.status == "pass"
        assert calls == [harmonic3_profile.samples.shape[0]]

    def test_fit_rejects_an_overflowing_delta(self, harmonic3_profile):
        geo = profile_geometry(harmonic3_profile)
        with np.errstate(all="raise"):
            with pytest.raises(ParameterError, match="delta = 1e\\+308 is too large"):
                fit_convexity_params(harmonic3_profile, geo, delta=1e308)

    def test_fit_rejects_a_profile_that_is_not_two_convex(self):
        # lambda = (-1.2, 1, 1, 1, 1) lambda_2 lies in the Garding cone Gamma_2
        # of n = 5 (S_2 = 4 lambda_2^2 (1.5 - 1.2) > 0) with H > 0, but its
        # pair sum -0.2 lambda_2 is negative: no beta in (0,1) fits
        r = np.linspace(0.01, 1.0, 40)
        samples = np.column_stack((r, 0.5 * r * r, r, -1.2 * (1.0 + r * r)))
        profile = ProfileSolution(speed=sigma_k_root(2, 5), samples=samples, status="completed")
        with pytest.raises(DomainError, match="not uniformly 2-convex"):
            fit_convexity_params(profile, profile_geometry(profile), delta=0.05)

    def test_fit_rejects_a_profile_with_no_sample_in_the_cone(self):
        # lambda_1 = -10 lambda_2 at every sample: sigma_2 = lambda_2^2 (1 - 20) < 0
        # at n = 3, so no sample lies in Gamma_2 and there is nothing to fit from
        r = np.linspace(0.01, 1.0, 40)
        samples = np.column_stack((r, 0.5 * r * r, r, -10.0 * (1.0 + r * r)))
        profile = ProfileSolution(speed=sigma_k_root(2, 3), samples=samples, status="completed")
        with pytest.raises(DomainError, match="^no in-cone samples with positive mean curvature"):
            fit_convexity_params(profile, profile_geometry(profile), delta=0.05)

    @pytest.mark.parametrize("alpha, status", [(6.3, "fail"), (6.8, "pass"), (5.9, "skipped")])
    def test_non_convex_profile_can_fail(self, alpha, status):
        # u' = r and u'' chosen so that lambda_1 = -0.3 lambda_2 at every sample:
        # the curvatures lie on one ray with gamma = (14/47) lambda_2, so the
        # pinching hypothesis 1.05 H <= alpha gamma needs alpha >= 5.99 and the
        # estimate lambda_1 >= H - alpha gamma needs alpha >= 6.71
        r = np.linspace(0.01, 1.0, 40)
        samples = np.column_stack((r, 0.5 * r * r, r, -0.3 * (1.0 + r * r)))
        profile = ProfileSolution(speed=harmonic_pairs(3), samples=samples, status="completed")
        entry = check_convexity_estimate(profile, profile_geometry(profile), alpha, 0.05, 0.3)
        assert entry.status == status
        if status == "fail":
            assert entry.detail.startswith("admissible 40/40")
            assert entry.witness["slack"] == pytest.approx(-0.123, abs=1e-3)


class TestBarrierChecks:
    def test_sigma_n3(self, sigma23_profile):
        entries = {e.name: e for e in check_barriers(sigma23_profile)}
        assert entries["v1_below_du"].status == "pass"
        assert entries["du_below_v2"].status == "pass"
        assert entries["du_below_v3"].status == "pass"

    def test_k_equals_n_skips_v2(self, sigma2_profile):
        entries = {e.name: e for e in check_barriers(sigma2_profile)}
        assert entries["du_below_v2"].status == "skipped"
        assert "not applicable" in entries["du_below_v2"].detail
        assert entries["v1_below_du"].status == "pass"

    def test_harmonic_n4(self):
        p = integrate_profile(harmonic_pairs(4), r_max=0.5)
        entries = {e.name: e for e in check_barriers(p)}
        assert entries["w1_below_du"].status == "pass"
        assert entries["du_below_w2"].status == "pass"
        assert entries["du_below_w3"].status == "pass"
        assert entries["w5_below_du_near_blowup"].status == "skipped"

    def test_barrier_with_no_sample_in_its_domain_is_skipped(self):
        # the profile starts at r = 0.7, past the ends 6/13 of w2's closed domain
        # and 4/7 of w3's open one, so both orderings are skipped, domain named
        p = integrate_profile(harmonic_pairs(3), startup_radius=0.7, r_max=1.0)
        entries = {e.name: e for e in check_barriers(p)}
        assert [e.status for e in entries.values()] == ["pass", "skipped", "skipped", "skipped"]
        assert entries["du_below_w2"].detail == "no sample in w2's domain [0, 0.461538461538]"
        assert entries["du_below_w3"].detail == "no sample in w3's domain [0, 0.571428571429)"


    def test_speed_without_a_slope_equation_has_no_barriers(self):
        samples = np.array([[0.1, 0.0, 0.1, 1.0], [0.2, 0.015, 0.2, 1.0]])
        profile = ProfileSolution(speed=SpeedSpec("quotient", 3, 2, 1), samples=samples,
                                  status="completed")
        with pytest.raises(ParameterError, match="quotient"):
            check_barriers(profile)


def _bowl_alpha(spec: SpeedSpec, r_max: float) -> float:
    """The alpha that ``fit_convexity_params`` fits at delta = 0.05 on the
    bowl of ``spec`` out to ``r_max``."""
    p = integrate_profile(spec, r_max=r_max, blowup_threshold=1e300)
    assert p.status == "completed"
    return fit_convexity_params(p, profile_geometry(p), delta=0.05)[0]


class TestFittedAlphaOnTheBowls:
    @pytest.mark.parametrize("n, k", [(n, k) for n in range(3, 7) for k in range(2, n)])
    def test_k_below_n_tends_to_the_cylinder(self, n, k):
        # far out the bowl's curvatures tend to the cylinder's (0, 1, ..., 1),
        # where H/gamma = (n-1)/C(n-1,k)^(1/k), times the fit's 1.05 (1 + delta)
        spec = sigma_k_root(k, n)
        gamma = speed_values(spec, np.array([[0.0] + [1.0] * (n - 1)]))[0]   # on the cylinder
        assert gamma == pytest.approx(math.comb(n - 1, k) ** (1.0 / k), rel=1e-14)
        assert _bowl_alpha(spec, 48.0) == pytest.approx(1.05 * 1.05 * (n - 1) / gamma, rel=1e-3)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_k_equals_n_grows_like_a_power_of_the_radius(self, n):
        # H ~ (n-1)/r and gamma = tilt ~ 1/u' with u' ~ r^(n/(n-2)), so
        # H/gamma ~ r^(2/(n-2)) and no finite alpha holds on the whole bowl
        spec = sigma_k_root(n, n)
        growth = math.log2(_bowl_alpha(spec, 48.0) / _bowl_alpha(spec, 24.0))
        assert growth == pytest.approx(2.0 / (n - 2), abs=1e-3)


class TestSigma2Cylinder:
    def test_sign_conditions_and_identity(self):
        entry = check_sigma2_cylinder(np.linspace(-0.5, 3.0, 100), 1e-9)
        assert entry.status == "pass"
        assert entry.worst_violation <= 1e-9

    def test_out_of_range_heights_skipped(self):
        entry = check_sigma2_cylinder([-1.0, 0.0, 1.0], 1e-9)
        assert entry.status == "pass"
        assert "skipped 1" in entry.detail

    def test_far_heights_checked(self):
        entry = check_sigma2_cylinder(np.linspace(0.0, 1e55, 3), 1e-9)
        assert entry.status == "pass"
        assert entry.detail == "checked 3, skipped 0"

    def test_heights_all_below_the_waist(self):
        entry = check_sigma2_cylinder([-1.0], 1e-9)
        assert (entry.status, entry.detail) == ("skipped", "no solvable heights")

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ParameterError, match="tol must be finite and >= 0"):
            check_sigma2_cylinder([0.0, 1.0], tol=tol)

    def test_large_height_flattens(self):
        from curvsol import cyl_profile, cylinder_curvatures
        (r,), (f,) = cyl_profile([40.0])
        lam = cylinder_curvatures(r, f, -(1 + f * f) * r * f * f)
        K = lam[0] * lam[1]
        assert lam.sum() < 0.0
        assert 0.0 < K < 1e-3


class TestPinching:
    def test_linear_speed_has_unit_gradient_ratio(self):
        cone = gamma_alpha_delta(100.0, 0.1, sigma_k_root(1, 3))
        est = estimate_pinching_constants(sigma_k_root(1, 3), cone, samples=500, seed=2)
        assert est.gradient_pinching == pytest.approx(1.0, abs=1e-12)

    def test_harmonic_pinching_finite_and_hessian_negative(self):
        spec = harmonic_pairs(3)
        cone = gamma_alpha_delta(100.0, 0.1, spec)
        est = estimate_pinching_constants(spec, cone, samples=3000, seed=2)
        assert 1.0 < est.gradient_pinching < 1e4
        assert est.hessian_sup < 0.0
        assert est.samples_used > 100

    def test_empty_cone_raises(self):
        spec = harmonic_pairs(3)
        cone = gamma_alpha_delta(1.0, 0.1, spec)
        with pytest.raises(DomainError, match="^no unit vector of 200 samples lies in the cone"):
            estimate_pinching_constants(spec, cone, samples=200, seed=2)

    def test_zero_samples_rejected(self):
        spec = harmonic_pairs(3)
        cone = gamma_alpha_delta(100.0, 0.1, spec)
        with pytest.raises(ParameterError, match="^samples must be >= 1$"):
            estimate_pinching_constants(spec, cone, samples=0)

    def test_deterministic_under_seed(self):
        spec = harmonic_pairs(3)
        cone = gamma_alpha_delta(100.0, 0.1, spec)
        a = estimate_pinching_constants(spec, cone, samples=400, seed=5)
        b = estimate_pinching_constants(spec, cone, samples=400, seed=5)
        assert (a.gradient_pinching, a.hessian_sup) == (b.gradient_pinching, b.hessian_sup)

    @pytest.mark.parametrize("k", [1, 3])
    def test_speed_other_than_the_cones_is_rejected(self, k):
        # the samples come from the sigma_2 cone: sigma_1 would read a
        # gradient ratio of 1 and sigma_3 leave its own cone there
        cone = gamma_alpha_delta(100.0, 0.1, sigma_k_root(2, 3))
        with pytest.raises(ParameterError, match="is not the cone's speed"):
            estimate_pinching_constants(sigma_k_root(k, 3), cone, samples=500, seed=2)

    def test_negative_seed_is_parameter_error(self):
        spec = harmonic_pairs(3)
        cone = gamma_alpha_delta(100.0, 0.1, spec)
        for sample in (lambda: cone_separation(cone, samples=10, seed=-1),
                       lambda: estimate_pinching_constants(spec, cone, samples=10, seed=-1)):
            with pytest.raises(ParameterError, match="^seed must be >= 0, got -1$"):
                sample()


def hessian_forms(spec, lam, T):
    """``verifier._hessian_forms`` at the rows ``lam`` with the speed's own
    gradient and Hessian there."""
    L = np.asarray(lam, dtype=float)
    _, grad, hess = speed_derivatives(spec, L)
    return verifier._hessian_forms(L, grad, hess, np.asarray(T, dtype=float))


class TestHessianForms:
    def test_linear_speed_vanishes(self):
        T = np.random.default_rng(20240817).normal(size=(3, 3))
        T = 0.5 * (T + T.T)
        got = hessian_forms(sigma_k_root(1, 3), [[0.5, 1.0, 2.0]], [T])[0]
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_off_diagonal_example(self):
        T = [[0.0, 1.0], [1.0, 0.0]]
        got = hessian_forms(sigma_k_root(2, 2), [[1.0, 2.0]], [T])[0]
        assert got == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-13)

    def test_diagonal_T_reduces_to_hessian(self):
        spec = sigma_k_root(2, 3)
        lam = np.array([0.7, 1.1, 2.3])
        diag = np.array([0.4, -0.8, 1.5])
        got = hessian_forms(spec, [lam], [np.diag(diag)])[0]
        hess = speed_derivatives(spec, lam[None])[2][0]
        assert got == pytest.approx(float(diag @ hess @ diag), abs=1e-10)

    @pytest.mark.parametrize("spec", [sigma_k_root(2, 3), harmonic_pairs(3),
                                      SpeedSpec("quotient", 3, 2, 1)], ids=lambda s: s.label())
    def test_matches_matrix_finite_differences(self, spec):
        # oracle: second s-derivative of gamma(eigenvalues(diag(lam) + s T))
        lam = np.array([0.6, 1.0, 1.9])
        T = np.array([[0.3, 0.5, -0.2], [0.5, -0.1, 0.4], [-0.2, 0.4, 0.2]])
        h = 1e-4

        def g(s):
            ev = np.linalg.eigvalsh(np.diag(lam) + s * T)
            return eval_speed(spec, ev)

        fd = (g(h) - 2.0 * g(0.0) + g(-h)) / (h * h)
        got = hessian_forms(spec, [lam], [T])[0]
        assert got == pytest.approx(fd, rel=5e-5, abs=5e-6)

    def test_degenerate_eigenvalues_rejected(self):
        # the matrix formula needs distinct entries: a repeated one gives NaN
        got = hessian_forms(sigma_k_root(2, 3), [[1.0, 1.0, 2.0]], [np.eye(3)])[0]
        assert np.isnan(got)


def reference_hessian_quadratic_forms(spec, L, T):
    """The matrix-Hessian form from a derivative call of its own on the rows
    with distinct entries (NaN on the others)."""
    gaps = np.diff(np.sort(L, axis=1), axis=1)
    ok = ~np.any(gaps < 1e-10 * np.max(np.abs(L), axis=1, keepdims=True), axis=1)
    L, T = L[ok], T[ok]
    _, grad, hess = speed_derivatives(spec, L)
    a, b = np.triu_indices(spec.n, 1)
    diag = np.diagonal(T, axis1=1, axis2=2)
    off = 2.0 * (grad[:, b] - grad[:, a]) / (L[:, b] - L[:, a]) * T[:, a, b] ** 2
    q = np.full(ok.size, np.nan)
    q[ok] = np.einsum("mi,mij,mj->m", diag, hess, diag) + np.sum(off, axis=1)
    return q


def reference_pinching(spec, cone, samples, seed):
    """Reference: the gradient ratio, Hessian sup and row count, then the
    separation, each from its own draw-and-filter loop over the seed's unit
    draws, the Hessian form with two derivative calls per chunk; None for a
    value whose loop found no row in the cone."""
    rng = np.random.default_rng(seed)
    grad_ratio, hess_sup, used = 1.0, -np.inf, 0
    for x in unit_draws(spec.n, samples, rng):
        x = x[cones.cone_mask(cone, x)]
        if not x.shape[0]:
            continue
        used += x.shape[0]
        _, grad, _ = speed_derivatives(spec, x)
        grad_ratio = max(grad_ratio, float(np.max(np.max(grad, axis=1) / np.min(grad, axis=1))))
        T = rng.standard_normal((x.shape[0], spec.n, spec.n))
        T = 0.5 * (T + T.transpose(0, 2, 1))
        q = reference_hessian_quadratic_forms(spec, x, T)
        scaled = q * np.sum(x, axis=1) / np.sum(T * T, axis=(1, 2))
        hess_sup = float(np.fmax.reduce(scaled, initial=hess_sup))
    estimate = (grad_ratio, hess_sup, used) if used else None
    rng = np.random.default_rng(seed)
    best, found = np.inf, 0
    for x in unit_draws(spec.n, samples, rng):
        x = x[cones.cone_mask(cone, x)]
        if x.shape[0]:
            found += x.shape[0]
            d = np.minimum(cones._distance_to_cyl_rays(x),
                           _support_distance(spec, x))
            best = min(best, float(np.min(d)))
    return estimate, (best if found else None)


SUITE_SPEEDS = ([sigma_k_root(k, n) for n in range(3, 7) for k in range(1, n + 1)]
                + [harmonic_pairs(n) for n in range(3, 7)]
                + [SpeedSpec("quotient", 3, 2, 1), SpeedSpec("quotient", 4, 3, 1),
                   SpeedSpec("product", 3, factors=(sigma_k_root(2, 3), sigma_k_root(1, 3)),
                             weights=(0.5, 0.5))])


class TestOneDrawLoop:
    @pytest.mark.parametrize("spec", SUITE_SPEEDS, ids=lambda s: s.label())
    def test_bit_identical_to_separate_loops(self, spec):
        # pinching cones at 1.05, 1.5 and 3 times the umbilic alpha (delta =
        # 0.1), three seeds, 800 samples: the shared loop and the derivatives
        # shared with the Hessian form change no bit, and a cone with no
        # sample raises in both functions
        umbilic_alpha = 1.1 * spec.n / eval_speed(spec, np.ones(spec.n))
        for factor in (1.05, 1.5, 3.0):
            cone = gamma_alpha_delta(factor * umbilic_alpha, 0.1, spec)
            for seed in (0, 1, 17):
                estimate, separation = reference_pinching(spec, cone, 800, seed)
                if estimate is None:
                    assert separation is None
                    for sample in (partial(estimate_pinching_constants, spec),
                                   cone_separation):
                        with pytest.raises(DomainError, match="^no unit vector of 800 samples"):
                            sample(cone, 800, seed=seed)
                    continue
                got = estimate_pinching_constants(spec, cone, 800, seed=seed)
                assert (got.gradient_pinching, got.hessian_sup, got.samples_used) == estimate
                assert cone_separation(cone, 800, seed=seed) == separation
