"""End-to-end verification reports: soliton residual sweeps, barrier
orderings, the pointwise convexity estimate lambda_1 >= H - alpha*gamma,
cylindrical-type sign conditions, and sampled derivative-pinching
constants.  The profile checks read one curvature table per profile,
``profile_geometry``, built from arrays."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import sqrt
from typing import Optional

import numpy as np

from .cones import ConeSpec, unit_samples
from .errors import DomainError, ParameterError
from .profiles import (ProfileSolution, barrier, closed_form_cyl,
                       solve_cyl_profile)
from .rotgeom import CylJet, RadialJet, cylinder_curvatures, graph_curvatures, tilt
from .speeds import (SpeedSpec, hessian_quadratic_forms, speed_derivatives, speed_values,
                     support_violation)

__all__ = [
    "CheckEntry",
    "ProfileGeometry",
    "profile_geometry",
    "VerificationReport",
    "check_soliton",
    "check_convexity_estimate",
    "fit_convexity_params",
    "check_barriers",
    "check_sigma2_cylinder",
    "estimate_pinching_constants",
    "PinchingEstimate",
]


@dataclass
class CheckEntry:
    name: str
    status: str                   # pass | fail | skipped
    tolerance: float
    worst_violation: float = 0.0
    witness: Optional[dict] = None
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    checks: list[CheckEntry] = field(default_factory=list)
    context: dict = field(default_factory=dict)

    def add(self, entry: CheckEntry) -> CheckEntry:
        self.checks.append(entry)
        return entry

    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {"profile": self.context, "checks": [c.to_dict() for c in self.checks]}


@dataclass(frozen=True)
class ProfileGeometry:
    """The curvature table of a profile, one row per sample."""

    lam: np.ndarray               # (m, n) principal curvatures
    gamma: np.ndarray             # speed value, NaN outside the speed's cone
    tilt: np.ndarray              # <nu, e_{n+1}> = 1/sqrt(1+u'^2)
    H: np.ndarray
    min_pair_sum: np.ndarray


def profile_geometry(profile: ProfileSolution) -> ProfileGeometry:
    """Curvatures, speed and tilt at every sample."""
    r, u, du, ddu = profile.samples.T
    lam = graph_curvatures(RadialJet(r=r, u=u, du=du, ddu=ddu), profile.n)
    s = np.sort(lam, axis=1)
    return ProfileGeometry(lam=lam, gamma=speed_values(profile.speed, lam), tilt=tilt(du),
                           H=np.sum(lam, axis=1), min_pair_sum=s[:, 0] + s[:, 1])


def check_soliton(profile: ProfileSolution, tol: float) -> CheckEntry:
    """Maximum absolute soliton residual gamma(lambda) - <nu, e_{n+1}> over
    the samples; a sample with curvatures outside the speed's cone fails
    immediately with a witness."""
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
                                 + support_violation(profile.speed, geo.lam[i]))
    res = np.abs(geo.gamma - geo.tilt)
    i = int(np.argmax(res))
    worst = float(res[i])
    witness = {"r": profile.r[i], "residual": worst} if worst > 0.0 else None
    status = "pass" if worst <= tol else "fail"
    return CheckEntry(name="soliton_residual", status=status, tolerance=tol,
                      worst_violation=worst, witness=witness)


def fit_convexity_params(profile: ProfileSolution, delta: float = 0.05) -> tuple[float, float]:
    """Fit (alpha, beta) from the profile with safety factors so that the
    pinching and uniform-2-convexity hypotheses hold at every sample."""
    geo = profile_geometry(profile)
    inside = ~np.isnan(geo.gamma)
    H, g, ps = geo.H[inside], geo.gamma[inside], geo.min_pair_sum[inside]
    alpha = float(np.max((delta + 1.0) * H / g, initial=0.0))
    beta_bound = float(np.min(ps[H > 0.0] / H[H > 0.0], initial=np.inf))
    if alpha == 0.0 or not np.isfinite(beta_bound):
        raise DomainError("no in-cone samples with positive mean curvature to fit from")
    return 1.05 * alpha, 0.9 * beta_bound


def check_convexity_estimate(profile: ProfileSolution, alpha: float, delta: float,
                             beta: float, slack_tol: float = 1e-10) -> CheckEntry:
    """Pointwise convexity estimate on the hypothesis-satisfying samples:
    where (delta+1)H <= alpha*gamma and every pair sum >= beta*H, assert
    lambda_1 >= H - alpha*gamma - slack_tol.  Samples failing a hypothesis
    are skipped, never failed."""
    geo = profile_geometry(profile)
    H, g = geo.H, geo.gamma
    admissible = np.flatnonzero(((delta + 1.0) * H <= alpha * g)    # False where g is NaN
                                & (H > 0.0) & (geo.min_pair_sum >= beta * H))
    if admissible.size == 0:
        return CheckEntry(name="convexity_estimate", status="skipped", tolerance=slack_tol,
                          detail="no sample satisfies both hypotheses")
    lambda1 = np.min(geo.lam, axis=1)
    slack = lambda1 - (H - alpha * g)
    i = admissible[np.argmin(slack[admissible])]
    min_slack = float(slack[i])
    witness = {"r": profile.r[i], "slack": min_slack, "lambda1": float(lambda1[i]),
               "H": float(H[i]), "gamma": float(g[i])}
    worst = max(0.0, -min_slack)
    status = "pass" if worst <= slack_tol else "fail"
    return CheckEntry(name="convexity_estimate", status=status, tolerance=slack_tol,
                      worst_violation=worst, witness=witness,
                      detail=f"admissible {admissible.size}/{H.size}, min slack {min_slack:.3e}")


def _relative_excess(bound: np.ndarray, value: np.ndarray) -> tuple[float, int]:
    """Largest relative amount by which ``value`` exceeds ``bound`` (for
    upper bounds pass bound-value reversed); 0 when the ordering holds."""
    scale = np.maximum(1.0, np.maximum(np.abs(bound), np.abs(value)))
    excess = (bound - value) / scale
    i = int(np.argmax(excess))
    return max(0.0, float(excess[i])), i


def check_barriers(profile: ProfileSolution, tol: float = 1e-9) -> list[CheckEntry]:
    """Pointwise sub/super-solution orderings for the profile's barrier
    family, each reported as its own entry."""
    r, du, n = profile.r, profile.du, profile.n

    def ordering(name: str, b, mask=slice(None)) -> CheckEntry:
        """du below (``du_below_*``) or above barrier ``b`` on ``mask``."""
        bd, bv = du[mask], b(r[mask])
        viol, i = _relative_excess(bd, bv) if name.startswith("du_") else _relative_excess(bv, bd)
        return CheckEntry(name=name, status="pass" if viol <= tol else "fail", tolerance=tol,
                          worst_violation=viol, witness={"r": r[mask][i]})

    def skipped(name: str, detail: str) -> CheckEntry:
        return CheckEntry(name=name, status="skipped", tolerance=tol, detail=detail)

    if profile.speed.kind == "sigma_k_root":
        k = profile.speed.k
        v3 = barrier("v3", n, k=k)
        entries = [ordering("v1_below_du", barrier("v1", n, k=k)),
                   ordering("du_below_v2", barrier("v2", n, k=k)) if 2 <= k <= n - 1
                   else skipped("du_below_v2", f"v2 not applicable for k={k}, n={n}")]
        if np.any(r < v3.r_end):
            entries.append(ordering("du_below_v3", v3, r < v3.r_end))
        return entries
    if profile.speed.kind != "harmonic_pairs":
        raise ParameterError(f"no barrier family for speed kind {profile.speed.kind!r}")
    w2, w3, w5 = barrier("w2", n), barrier("w3", n), barrier("w5", n)
    entries = [ordering("w1_below_du", barrier("w1", n))]
    for name, b, mask in (("du_below_w2", w2, r <= w2.r_end), ("du_below_w3", w3, r < w3.r_end)):
        if np.any(mask):
            entries.append(ordering(name, b, mask))
    if profile.blowup_radius is None:
        return entries + [skipped(
            "w5_below_du_near_blowup",
            "no blow-up detected: the profile equation's solutions stay below n*r "
            "(upper numerator zero), so the square-root comparison window never opens")]
    near = (r >= 0.9 * profile.blowup_radius) & (r < w5.r_end)
    if not np.any(near):
        return entries + [skipped("w5_below_du_near_blowup", "no samples in the final window")]
    return entries + [ordering("w5_below_du_near_blowup", w5, near)]


def check_sigma2_cylinder(z_samples, tol: float = 1e-9) -> CheckEntry:
    """Sign conditions H < 0, K > 0 and the soliton identity
    |sqrt(K) - |<nu, e_3>|| <= tol along the cylindrical-type closed form
    with a = 0; heights outside the solvable range are skipped."""
    worst = 0.0
    witness = None
    checked = 0
    skipped = 0
    for z in z_samples:
        try:
            r = solve_cyl_profile(0.0, float(z))
            f = closed_form_cyl(0.0, r)
        except DomainError:
            skipped += 1
            continue
        ddr = -(1.0 + f * f) * r * f * f
        lam = cylinder_curvatures(CylJet(r=r, dr=f, ddr=ddr))
        H = lam.H
        K = float(lam.array[0] * lam.array[1])
        normal = f / sqrt(1.0 + f * f)
        res = abs(sqrt(K) - normal) if K > 0.0 else float("inf")
        bad = max(res, 0.0 if H < 0.0 else float("inf"), 0.0 if K > 0.0 else float("inf"))
        checked += 1
        if bad > worst:
            worst = bad
            witness = {"z": float(z), "r": r, "H": H, "K": K, "residual": res}
    if checked == 0:
        return CheckEntry(name="sigma2_cylinder", status="skipped", tolerance=tol,
                          detail="no solvable heights")
    status = "pass" if worst <= tol else "fail"
    return CheckEntry(name="sigma2_cylinder", status=status, tolerance=tol,
                      worst_violation=worst, witness=witness,
                      detail=f"checked {checked}, skipped {skipped}")


@dataclass
class PinchingEstimate:
    gradient_pinching: float     # sup over samples of max_a grad_a / min_a grad_a
    hessian_sup: float           # sup of (quadratic form) * H / |T|^2, expected < 0
    samples_used: int


def estimate_pinching_constants(spec: SpeedSpec, cone: ConeSpec, samples: int,
                                seed: int = 0) -> PinchingEstimate:
    """Sampled extremal derivative ratios on a compact cone: the gradient
    pinching constant and the supremum of the matrix-Hessian quadratic form
    scaled by H/|T|^2 over random symmetric directions.  Samples with
    degenerate entries count for the gradient ratio only."""
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    grad_ratio = 1.0
    hess_sup = -np.inf
    used = 0
    for x in unit_samples(cone, samples, rng):
        if not x.shape[0]:
            continue
        used += x.shape[0]
        grad = speed_derivatives(spec, x).gradient
        grad_ratio = max(grad_ratio, float(np.max(np.max(grad, axis=1) / np.min(grad, axis=1))))
        T = rng.standard_normal((x.shape[0], spec.n, spec.n))
        T = 0.5 * (T + T.transpose(0, 2, 1))
        q = hessian_quadratic_forms(spec, x, T)           # NaN on degenerate rows
        scaled = q * np.sum(x, axis=1) / np.sum(T * T, axis=(1, 2))
        hess_sup = float(np.fmax.reduce(scaled, initial=hess_sup))     # fmax skips NaN
    if used == 0:
        raise DomainError("no samples inside the cone; widen alpha or delta")
    return PinchingEstimate(gradient_pinching=grad_ratio, hessian_sup=float(hess_sup),
                            samples_used=used)
