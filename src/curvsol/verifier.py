"""End-to-end verification reports: soliton residual sweeps, barrier
orderings, the pointwise convexity estimate lambda_1 >= H - alpha*gamma,
cylindrical-type sign conditions, and sampled derivative-pinching
constants.  The profile checks read one curvature table per profile,
``rotgeom.profile_geometry``, built from arrays."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cones import ConeSpec, _cone_draws, pinched, uniform_two_convex
from .errors import DomainError, ParameterError
from .profiles import BARRIER_FAMILIES, ProfileSolution, barrier, cyl_profile, slope_equation
from .rotgeom import ProfileGeometry, cylinder_curvatures, profile_geometry
from .speeds import SpeedSpec, _violation, harmonic_pairs, speed_derivatives, support_margins

__all__ = [
    "CheckEntry",
    "check_soliton",
    "check_convexity_estimate",
    "fit_convexity_params",
    "check_barriers",
    "check_sigma2_cylinder",
    "estimate_pinching_constants",
    "PinchingEstimate",
]

_SLACK_TOL = 1e-10   # violation of lambda_1 >= H - alpha*gamma that still passes


@dataclass
class CheckEntry:
    name: str
    status: str                   # pass | fail | skipped
    tolerance: float
    worst_violation: float = 0.0
    witness: Optional[dict] = None
    detail: str = ""


def _require_tolerance(tol: float) -> None:
    if not 0.0 <= tol < np.inf:
        raise ParameterError(f"tol must be finite and >= 0, got {tol}")


def check_soliton(profile: ProfileSolution, tol: float) -> CheckEntry:
    """Maximum absolute soliton residual gamma(lambda) - <nu, e_{n+1}> over
    the samples; a sample with curvatures outside the speed's cone fails
    immediately with a witness."""
    _require_tolerance(tol)
    if profile.status == "step_failure":
        raise ParameterError("cannot verify a profile that ended in step_failure")
    geo = profile_geometry(profile)
    outside = np.flatnonzero(np.isnan(geo.gamma))
    if outside.size:
        i = outside[0]
        return CheckEntry(name="soliton_residual", status="fail", tolerance=tol,
                          worst_violation=float("inf"),
                          witness={"r": profile.r[i], "lambda": geo.lam[i].tolist()},
                          detail="curvatures left the cone: "
                                 + _violation(profile.speed, geo.lam[i]))
    res = np.abs(geo.residual)
    i = int(np.argmax(res))
    worst = float(res[i])
    witness = {"r": profile.r[i], "residual": worst} if worst > 0.0 else None
    status = "pass" if worst <= tol else "fail"
    return CheckEntry(name="soliton_residual", status=status, tolerance=tol,
                      worst_violation=worst, witness=witness)


def fit_convexity_params(profile: ProfileSolution, geo: ProfileGeometry,
                         delta: float = 0.05) -> tuple[float, float]:
    """Fit (alpha, beta) from the profile's curvature table ``geo`` with safety
    factors so that the pinching and uniform-2-convexity hypotheses hold at
    every sample; a pair sum <= 0 where H > 0 is not uniformly 2-convex, and a
    delta so large that the fitted alpha is not finite is a ParameterError."""
    ConeSpec(profile.speed, 1.0, delta)     # rejects delta <= 0 before the fit
    ((_, ps),) = support_margins(harmonic_pairs(profile.n), geo.lam)
    inside = ~np.isnan(geo.gamma)
    H, g, ps = geo.H[inside], geo.gamma[inside], ps[inside]
    with np.errstate(over="ignore"):
        alpha = 1.05 * float(np.max((delta + 1.0) * H / g, initial=0.0))
    if not np.isfinite(alpha):
        raise ParameterError(f"delta = {delta:g} is too large: the fitted alpha is not finite")
    beta_bound = float(np.min(ps[H > 0.0] / H[H > 0.0], initial=np.inf))
    if alpha == 0.0 or not np.isfinite(beta_bound):
        raise DomainError("no in-cone samples with positive mean curvature to fit from")
    if beta_bound <= 0.0:
        raise DomainError(f"profile not uniformly 2-convex: min pair sum/H = {beta_bound:.6g}")
    return alpha, 0.9 * beta_bound


def check_convexity_estimate(profile: ProfileSolution, geo: ProfileGeometry, alpha: float,
                             delta: float, beta: float) -> CheckEntry:
    """Pointwise convexity estimate on the samples of the curvature table
    ``geo`` that satisfy the hypotheses: inside the pinching cone
    ``ConeSpec(speed, alpha, delta)``, tested on its H and gamma, and
    ``uniform_two_convex(beta)``, assert lambda_1 >= H - alpha*gamma -
    ``_SLACK_TOL``.  Samples failing a hypothesis are skipped, never failed;
    parameters outside alpha > 0, delta > 0, 0 < beta < 1 are a ParameterError."""
    H, g = geo.H, geo.gamma
    cone = ConeSpec(profile.speed, alpha, delta)
    admissible = np.flatnonzero(pinched(cone, H, g) & uniform_two_convex(beta, geo.lam))
    if admissible.size == 0:
        return CheckEntry(name="convexity_estimate", status="skipped", tolerance=_SLACK_TOL,
                          detail="no sample satisfies both hypotheses")
    lambda1 = np.min(geo.lam, axis=1)
    slack = lambda1 - (H - alpha * g)
    i = admissible[np.argmin(slack[admissible])]
    min_slack = float(slack[i])
    witness = {"r": profile.r[i], "slack": min_slack, "lambda1": float(lambda1[i]),
               "H": float(H[i]), "gamma": float(g[i])}
    worst = max(0.0, -min_slack)
    status = "pass" if worst <= _SLACK_TOL else "fail"
    return CheckEntry(name="convexity_estimate", status=status, tolerance=_SLACK_TOL,
                      worst_violation=worst, witness=witness,
                      detail=f"admissible {admissible.size}/{H.size}, min slack {min_slack:.3e}")


def _relative_excess(lower: np.ndarray, upper: np.ndarray) -> tuple[float, int]:
    """Largest relative amount by which ``lower`` exceeds ``upper``, and its
    index; 0 when the ordering lower <= upper holds."""
    scale = np.maximum(1.0, np.maximum(np.abs(lower), np.abs(upper)))
    excess = (lower - upper) / scale
    i = int(np.argmax(excess))
    return max(0.0, float(excess[i])), i


def check_barriers(profile: ProfileSolution) -> list[CheckEntry]:
    """Pointwise orderings of the profile's barrier family, each on the
    barrier's domain and reported as its own entry: the sub-solution v1/w1
    below u', then u' below the super-solutions v2, v3 or w2, w3.
    ``du_below_v2`` is skipped where psi has no positive root (k = n), an
    ordering with no sample in its barrier's domain with that domain named,
    and ``w5_below_du_near_blowup`` always, as w5 bounds no solution from below."""
    r, du, speed = profile.r, profile.du, profile.speed
    tol = 1e-9                    # on the relative excess
    a0 = slope_equation(speed).a0   # a speed without a slope equation has no barriers
    family = BARRIER_FAMILIES[speed.kind]
    entries = []
    for i, name in enumerate(family[:3]):
        label = f"du_below_{name}" if i else f"{name}_below_du"
        if name == "v2" and a0 == np.inf:
            skip = f"v2 not applicable for k={speed.k}, n={speed.n}"
        else:
            b = barrier(name, speed.n, k=speed.k)
            mask = b.domain(r)
            skip = "" if np.any(mask) else f"no sample in {name}'s domain {b.interval}"
        if skip:
            entries.append(CheckEntry(name=label, status="skipped", tolerance=tol, detail=skip))
            continue
        pair = (du[mask], b(r[mask])) if i else (b(r[mask]), du[mask])
        viol, j = _relative_excess(*pair)
        entries.append(CheckEntry(name=label, status="pass" if viol <= tol else "fail",
                                  tolerance=tol, worst_violation=viol,
                                  witness={"r": r[mask][j]}))
    if "w5" in family:
        entries.append(CheckEntry(
            name="w5_below_du_near_blowup", status="skipped", tolerance=tol,
            detail="refuted: w5^2/w3^2 = (1+x)/x > 1 with x = c1 r, so w5 > w3 >= u' "
                   "on all of w5's domain and w5 bounds no solution from below"))
    return entries


def check_sigma2_cylinder(z_samples, tol: float) -> CheckEntry:
    """Sign conditions H < 0, K > 0 and the soliton identity
    |sqrt(K) - |<nu, e_3>|| <= tol along the cylindrical-type closed form
    with a = 0; heights outside the solvable range are skipped."""
    _require_tolerance(tol)
    z = np.asarray(z_samples, dtype=float)
    r, f = cyl_profile(z)
    ok = ~np.isnan(r)
    if not np.any(ok):
        return CheckEntry(name="sigma2_cylinder", status="skipped", tolerance=tol,
                          detail="no solvable heights")
    z, r, f = z[ok], r[ok], f[ok]
    lam = cylinder_curvatures(r, f, -(1.0 + f * f) * r * f * f)
    H, K = np.sum(lam, axis=1), lam[:, 0] * lam[:, 1]
    res = np.where(K > 0.0, np.abs(np.sqrt(np.abs(K)) - f / np.sqrt(1.0 + f * f)), np.inf)
    bad = np.where(H < 0.0, res, np.inf)
    i = int(np.argmax(bad))
    worst = float(bad[i])
    witness = ({"z": z[i], "r": r[i], "H": H[i], "K": K[i], "residual": res[i]}
               if worst > 0.0 else None)
    status = "pass" if worst <= tol else "fail"
    return CheckEntry(name="sigma2_cylinder", status=status, tolerance=tol,
                      worst_violation=worst, witness=witness,
                      detail=f"checked {len(r)}, skipped {ok.size - len(r)}")


@dataclass
class PinchingEstimate:
    gradient_pinching: float     # sup over samples of max_a grad_a / min_a grad_a
    hessian_sup: float           # sup of (quadratic form) * H / |T|^2 over random T; 0 over all T
    samples_used: int


def _hessian_forms(lam: np.ndarray, grad: np.ndarray, hess: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Second derivative of the speed's matrix extension at diag(lam) along
    the symmetric T (m, n, n), from its gradient and Hessian at the rows lam
    (m, n): the Hessian on T's diagonal plus 2 sum_{a<b} (g_b - g_a)/(lam_b -
    lam_a) |T_ab|^2; NaN on rows with two entries closer than 1e-10 max|lam|."""
    gaps = np.diff(np.sort(lam, axis=1), axis=1)
    ok = ~np.any(gaps < 1e-10 * np.max(np.abs(lam), axis=1, keepdims=True), axis=1)
    L, grad, hess, T = lam[ok], grad[ok], hess[ok], T[ok]
    a, b = np.triu_indices(lam.shape[1], 1)
    diag = np.diagonal(T, axis1=1, axis2=2)
    off = 2.0 * (grad[:, b] - grad[:, a]) / (L[:, b] - L[:, a]) * T[:, a, b] ** 2
    q = np.full(ok.size, np.nan)
    q[ok] = np.einsum("mi,mij,mj->m", diag, hess, diag) + np.sum(off, axis=1)
    return q


def estimate_pinching_constants(spec: SpeedSpec, cone: ConeSpec, samples: int,
                                seed: int = 0) -> PinchingEstimate:
    """Sampled extremal derivative ratios on a compact cone: the gradient
    pinching constant and the supremum of the matrix-Hessian quadratic form
    scaled by H/|T|^2 over random symmetric directions.  Samples with
    degenerate entries count for the gradient ratio only.  ``spec`` must be
    the cone's speed, whose cone the samples are drawn from."""
    if spec != cone.speed:
        raise ParameterError(f"spec {spec} is not the cone's speed {cone.speed}")
    grad_ratio, hess_sup, used = 1.0, -np.inf, 0
    for rng, x in _cone_draws(cone, samples, seed):
        used += x.shape[0]
        _, grad, hess = speed_derivatives(spec, x)
        grad_ratio = max(grad_ratio, float(np.max(np.max(grad, axis=1) / np.min(grad, axis=1))))
        T = rng.standard_normal((x.shape[0], spec.n, spec.n))
        T = 0.5 * (T + T.transpose(0, 2, 1))
        q = _hessian_forms(x, grad, hess, T)           # NaN on degenerate rows
        scaled = q * np.sum(x, axis=1) / np.sum(T * T, axis=(1, 2))
        hess_sup = float(np.fmax.reduce(scaled, initial=hess_sup))     # fmax skips NaN
    return PinchingEstimate(gradient_pinching=grad_ratio, hessian_sup=hess_sup, samples_used=used)
