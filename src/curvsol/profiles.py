"""Radial profile ODEs for rotational translators, their closed-form
solutions and barrier functions, and adaptive integration with a singular
startup at the axis and blow-up detection.

Every speed gives one slope equation w' = (w/r)(1+w^2) psi(r/w) for the
slope w = u', with psi derived from the speed (``slope_equation``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, exp, expm1, inf, isfinite, log, sqrt
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ParameterError
from .speeds import SpeedSpec, harmonic_pairs, sigma_k_root

__all__ = [
    "SlopeEquation",
    "slope_equation",
    "closed_form_v",
    "closed_form_cyl",
    "cyl_profile",
    "Barrier",
    "barrier",
    "BARRIER_FAMILIES",
    "ProfileSolution",
    "integrate_profile",
]

BARRIER_FAMILIES = {"sigma_k_root": ("v1", "v2", "v3"),
                    "harmonic_pairs": ("w1", "w2", "w3", "w4", "w5")}
BARRIER_NAMES = sum(BARRIER_FAMILIES.values(), ())

_MAX_STEPS = 500_000   # LSODA steps and restarts per profile before it ends in step_failure
_S_MAX = log(np.finfo(float).max)   # the r^2 past which e^{r^2} overflows a float


# --------------------------------------------------------------------------
# the slope equation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeEquation:
    """w' = (w/r)(1+w^2) psi(r/w) for the slope w = u', with axis slope c
    (psi(1/c) = 1) and wedge slope a0 (psi(1/a0) = 0, inf where psi has no
    positive root), on the cone r > 0, w > 0, r/w < y_max.  ``rhs`` and
    ``rhs_dw`` act elementwise on floats or equal-shape arrays, make no numpy
    call on floats, and raise DomainError outside the cone."""

    psi: Callable
    dpsi: Callable
    c: float
    a0: float
    y_max: float

    def _cone_ratio(self, r, w):
        ok = (r > 0.0) & (w > r / self.y_max)
        if ok is not True and not np.all(ok):
            i = np.argmin(ok)
            raise DomainError(
                f"slope equation left the admissible cone 0 < r/w < {self.y_max:.6g} at "
                f"r={np.ravel(r)[i]:.12g}, w={np.ravel(w)[i]:.12g}")
        return r / w

    def rhs(self, r, w):
        y = self._cone_ratio(r, w)
        return (w / r) * (1.0 + w * w) * self.psi(y)

    def rhs_dw(self, r, w):
        """Partial derivative of ``rhs`` in the slope w."""
        y = self._cone_ratio(r, w)
        ww = w * w
        return (1.0 + 3.0 * ww) / r * self.psi(y) - (1.0 + ww) / w * self.dpsi(y)


def slope_equation(spec: SpeedSpec) -> SlopeEquation:
    """The profile slope equation of ``spec``.  A 1-homogeneous speed has
    gamma(x, 1, ..., 1) = phi(x) and gamma(lambda_1, lambda_2, ..., lambda_2)
    = lambda_2 phi(lambda_1/lambda_2), so psi = phi^{-1}, c = 1/phi(1) and
    a0 = 1/phi(0).  For the k-th root phi(x) = (C(n-1,k-1) x + C(n-1,k))^{1/k}
    (k = 1 is mean curvature, psi(y) = y - (n-1)), and phi(0) = 0 at k = n.
    For the harmonic-pairs speed this package keeps the paper's model
    psi(y) = (n y - 1)/(1 - q y), q = (n^2-3n+2)/4, which is not the inverse
    of that speed's phi."""
    n, k = spec.n, spec.k
    if spec.kind == "sigma_k_root":
        ck, b = comb(n - 1, k - 1), (n - k) / k
        return SlopeEquation(psi=lambda y: y ** k / ck - b,
                             dpsi=lambda y: k * y ** (k - 1) / ck,
                             c=(k / (n * ck)) ** (1.0 / k),
                             a0=comb(n - 1, k) ** (-1.0 / k) if k < n else inf, y_max=inf)
    if spec.kind == "harmonic_pairs":
        if not 3 <= n <= 6:
            raise ParameterError("harmonic profiles require n in 3..6")
        q = (n * n - 3 * n + 2) / 4.0
        return SlopeEquation(psi=lambda y: (n * y - 1.0) / (1.0 - q * y),
                             dpsi=lambda y: (n - q) / ((1.0 - q * y) * (1.0 - q * y)),
                             c=(n + q) / 2.0, a0=float(n), y_max=1.0 / q)
    raise ParameterError(f"no profile equation for speed kind {spec.kind!r}")


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def closed_form_v(a: float, r: float) -> float:
    """Exact slope sqrt(e^{r^2+a} - 1) of the k = n = 2 profile."""
    if a < 0.0:
        raise ParameterError(f"a must be >= 0, got {a}")
    return sqrt(exp(r * r + a) - 1.0)


def closed_form_cyl(a: float, r: float) -> float:
    """Exact slope dr/dz = 1/sqrt(e^{r^2-2a} - 1) of the cylindrical-type
    profile; defined above the waist r^2 > 2a."""
    if r * r <= 2.0 * a:
        raise DomainError(f"r={r} is at or below the waist sqrt(2a)={sqrt(2 * a) if a > 0 else 0.0}")
    return 1.0 / sqrt(exp(r * r - 2.0 * a) - 1.0)


def cyl_profile(z):
    """Radius r and slope dr/dz of the cylindrical-type profile (a = 0) at the
    heights z, with r(0) = 1.  One DOP853 solve on each side of z = 0
    integrates s = r^2, whose rate ds/dz = 2 sqrt(s/expm1(s)) is 2 at the waist
    s = 0; it ends there or at s = log(float max), past which e^{r^2}
    overflows.  Heights that are not finite or lie beyond either end are NaN."""
    from scipy.integrate import solve_ivp
    z = np.asarray(z, dtype=float)
    s = np.where(z == 0.0, 1.0, np.nan)

    def rate(x):   # 2 sqrt(x/expm1(x)), written so that it cannot overflow
        return 2.0 * sqrt(x * exp(-x) / -expm1(-x)) if x != 0.0 else 2.0

    def ends(_, y):
        return y[0] * (_S_MAX - y[0])
    ends.terminal = True
    for sign in (1.0, -1.0):    # up over z > 0, down over z < 0, in |z|
        side = np.isfinite(z) & (sign * z > 0.0)
        t, back = np.unique(sign * z[side], return_inverse=True)
        if t.size:
            sol = solve_ivp(lambda _, y: [sign * rate(y[0])], (0.0, t[-1]), [1.0],
                            method="DOP853", t_eval=t, events=ends, rtol=1e-13, atol=1e-15)
            s[side] = np.append(sol.y, np.full(t.size - len(sol.t), np.nan))[back]
    return np.sqrt(s), 1.0 / np.sqrt(np.expm1(s))


# --------------------------------------------------------------------------
# barriers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Barrier:
    """A named closed-form comparison function with its validity domain."""

    name: str
    slope: float                  # coefficient of the leading term at r = 0
    r_end: float = float("inf")   # right end of the domain
    closed_end: bool = False      # whether r_end itself is admissible

    def domain(self, r):
        """Elementwise r in [0, r_end), or [0, r_end] at a closed end; False for NaN."""
        rr = np.asarray(r, dtype=float)
        return (rr >= 0.0) & ((rr <= self.r_end) if self.closed_end else (rr < self.r_end))

    @property
    def interval(self) -> str:
        return f"[0, {self.r_end:.12g}{']' if self.closed_end else ')'}"

    def __call__(self, r):
        rr = np.asarray(r, dtype=float)
        bad = ~self.domain(rr)
        if np.any(bad):
            raise DomainError(
                f"barrier {self.name} undefined at r={np.atleast_1d(rr)[np.atleast_1d(bad)][0]:.12g} "
                f"(domain {self.interval})")
        out = self._eval(rr)
        return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out

    def _eval(self, rr: np.ndarray) -> np.ndarray:
        if self.name in ("v1", "v2", "w1", "w2", "w4"):
            return self.slope * rr
        if self.name in ("v3", "w3"):
            c = self.slope
            return c * rr / np.sqrt(1.0 - (c * rr) ** 2)
        # w5, whose parameter a is its slope
        return self.slope * np.sqrt(rr) / np.sqrt(1.0 - self.slope ** 2 * rr)


def barrier(name: str, n: int, k: Optional[int] = None, a: Optional[float] = None) -> Barrier:
    """Barrier factory: v1..v3 for the k-th root's slope equation, w1..w5 for
    the harmonic model's (n in 3..6), with c and a0 from ``slope_equation``.

    On the line a r the right-hand side is a(1 + a^2 r^2) psi(1/a), so v1/w1
    = c r is a sub-solution and v2 = a0 r a super-solution (k <= n-1, where
    psi has a root).  v3/w3 = c r/sqrt(1 - c^2 r^2) is a super-solution up to
    r = 1/c: the right-hand side on it is its derivative times
    psi(sqrt(1 - c^2 r^2)/c) <= 1, as psi is increasing.  Only the model's w2
    = c2 r (psi(1/c2) = 1/2, a super-solution on [0, 1/c2]), the linear
    sub-solution w4 and w5 are not derived.  w5, with parameter a (default
    sqrt(c)), has w5/r >= 2a^2, so it is a super-solution whenever 2a^2 >= n;
    by default w5^2/w3^2 = (1+c r)/(c r) > 1, so it bounds no solution from below.
    """
    if name not in BARRIER_NAMES:
        raise ParameterError(f"unknown barrier {name!r}; expected one of {BARRIER_NAMES}")
    speed = sigma_k_root(k, n) if name in BARRIER_FAMILIES["sigma_k_root"] else harmonic_pairs(n)
    eq = slope_equation(speed)
    if name in ("v1", "w1", "v3", "w3"):
        return Barrier(name, slope=eq.c, r_end=1.0 / eq.c if name.endswith("3") else inf)
    if name == "v2":
        if eq.a0 == inf:
            raise ParameterError(f"barrier v2 requires k <= n-1 (psi has no root at k={k}, n={n})")
        return Barrier(name, slope=eq.a0)
    if name == "w2":
        c2 = (n * n + 5 * n + 2) / 12.0
        return Barrier(name, slope=c2, r_end=1.0 / c2, closed_end=True)
    if name == "w4":
        m4 = sqrt(n ** 4 - 4 * n ** 3 + 7 * n * n - 8 * n + 4) / (2.0 * sqrt(6.0))
        return Barrier(name, slope=m4)
    aa = sqrt(eq.c) if a is None else float(a)
    if not (0.0 < aa and 0.0 < aa * aa < inf and 1.0 / (aa * aa) < inf):
        raise ParameterError(f"barrier w5 requires a finite a > 0 with a^2 and 1/a^2 finite, "
                             f"got {aa}")
    return Barrier(name, slope=aa, r_end=1.0 / aa ** 2)


# --------------------------------------------------------------------------
# profile integration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileSolution:
    """A sampled radial profile: rows of (r, u, u', u'') at the accepted
    integration nodes (the first at the startup radius, the last at the
    blow-up radius when it blew up), its termination status and tolerances."""

    speed: SpeedSpec
    samples: np.ndarray
    status: str
    tolerances: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.speed.n

    @property
    def startup_slope(self) -> float:
        return slope_equation(self.speed).c

    @property
    def startup_radius(self) -> float:
        return float(self.samples[0, 0])

    @property
    def blowup_radius(self) -> Optional[float]:
        return float(self.samples[-1, 0]) if self.status == "blew_up" else None

    @property
    def r(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def u(self) -> np.ndarray:
        return self.samples[:, 1]

    @property
    def du(self) -> np.ndarray:
        return self.samples[:, 2]

    @property
    def ddu(self) -> np.ndarray:
        return self.samples[:, 3]


def integrate_profile(spec: SpeedSpec,
                      startup_radius: float = 1e-4,
                      r_max: float = 3.0,
                      rtol: float = 1e-10,
                      atol: float = 1e-13,
                      blowup_threshold: float = 1e8,
                      max_step: Optional[float] = None) -> ProfileSolution:
    """Integrate the profile slope equation from the axis startup.

    Launches at r = startup_radius with u'(r) = c*r (c the startup slope)
    and u = c*r^2/2, then advances scipy's LSODA (ODEPACK's Adams/BDF
    switcher, stiff near the wedge u' ~ a0 r) with the exact Jacobian
    ``rhs_dw`` one accepted step at a time, one sample row per step.  LSODA
    keeps a step whose right-hand side or Jacobian was NaN (outside the cone),
    so a step that ends on a non-finite row is dropped and LSODA restarted at
    the last row with half that step; each restart counts against
    ``_MAX_STEPS``.  Stops at r_max (status ``completed``), when u' crosses
    ``blowup_threshold`` (``blew_up``, ending at the crossing, which
    ``brentq`` finds on the last step's dense output), or when LSODA fails,
    the halved retry step underflows or the step budget runs out
    (``step_failure``, ending at the last node, whatever its slope).  u'' is
    stored as the right-hand side at each node, exact by the equation.
    An rtol below 100 machine epsilons is raised to that floor, as scipy
    would raise it with a warning, and ``tolerances`` records it.  The first
    step, startup_radius/8, must be a normal float: LSODA runs erratically
    from a subnormal one, to the step budget or not.  ``rtol`` is
    LSODA's per-step tolerance, not a global error bound: harmonic n = 3 to
    r_max = 1 ends 1.7e-10 relative off an rtol = 1e-13 solve at 1e-10.
    """
    from scipy.integrate import LSODA
    from scipy.optimize import brentq
    if not startup_radius / 8.0 >= np.finfo(float).tiny:   # a subnormal first step stalls LSODA
        raise ParameterError(f"startup_radius/8 must be positive and normal, got {startup_radius!r}")
    if not startup_radius < r_max < np.inf:
        raise ParameterError(f"r_max must be finite and exceed startup_radius, got {r_max}")
    for name, x in (("rtol", rtol), ("atol", atol), ("blowup_threshold", blowup_threshold)):
        if not 0.0 < x < np.inf:
            raise ParameterError(f"{name} must be finite and > 0, got {x}")
    rtol = float(max(rtol, 100 * np.finfo(float).eps))   # scipy's floor, which it warns of
    if spec.kind == "sigma_k_root" and spec.k < 2:
        raise ParameterError("profiles require k >= 2 (mean curvature excluded)")
    eq = slope_equation(spec)
    c, rhs, rhs_dw = eq.c, eq.rhs, eq.rhs_dw
    if not 0.5 * c * startup_radius * startup_radius < np.inf:
        raise ParameterError(f"startup_radius={startup_radius} is too large: "
                             f"the startup height c*r^2/2 overflows")
    if max_step is None:
        max_step = max((r_max - startup_radius) / 50.0, 1e-3)

    def at(g, rr, yy) -> float:
        try:   # on floats the domain check makes no numpy call
            return g(float(rr), float(yy[1]))
        except (DomainError, OverflowError):
            return np.nan   # LSODA keeps the step: the loop below retries it

    def f(rr, yy) -> list:
        return [float(yy[1]), at(rhs, rr, yy)]

    def jac(rr, yy) -> list:
        return [[0.0, 1.0], [0.0, at(rhs_dw, rr, yy)]]

    def launch(r0, y0, first_step):
        return LSODA(f, r0, y0, r_max, first_step=first_step, max_step=max_step,
                     rtol=rtol, atol=atol, jac=jac)

    y0 = [0.5 * c * startup_radius ** 2, c * startup_radius]
    solver = launch(startup_radius, y0, min(startup_radius / 8.0, max_step))
    rows = [(startup_radius, *y0, at(rhs, startup_radius, y0))]
    status = "step_failure"
    for _ in range(_MAX_STEPS):
        solver.step()
        row = (solver.t, *solver.y, at(rhs, solver.t, solver.y))
        if solver.status == "failed" or not all(map(isfinite, row)):
            r, u, w, _ = rows[-1]
            h = 0.5 * (solver.t - r)
            if solver.status != "failed" and r + h > r:
                solver = launch(r, [u, w], h)   # drop the non-finite step, retry half of it
                continue
            break
        rows.append(row)
        if row[2] > blowup_threshold:   # end at the crossing, on the last step's interpolant
            sol = solver.dense_output()
            if sol(solver.t_old)[1] < blowup_threshold:    # else it crossed before the start
                r = brentq(lambda x: sol(x)[1] - blowup_threshold, solver.t_old, solver.t)
                rows[-1] = (r, *sol(r), at(rhs, r, sol(r)))
            status = "blew_up"
            break
        if solver.status == "finished":
            status = "completed"
            break

    return ProfileSolution(speed=spec, samples=np.array(rows), status=status,
                           tolerances={"rtol": rtol, "atol": atol,
                                       "blowup_threshold": blowup_threshold, "max_step": max_step})
