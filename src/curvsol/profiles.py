"""Radial profile ODEs for rotational translators, their closed-form
solutions and barrier functions, and adaptive integration with a singular
startup at the axis and blow-up detection.

The slope v = u' of a rotational graph translating under the k-th-root
speed satisfies v' = (v/r)(1+v^2)((1/C(n-1,k-1))(r/v)^k - (n-k)/k); for the
harmonic-pairs speed the slope equation used throughout this package is
w' = (w/r)(1+w^2)(n - w/r)/((w/r) - (n^2-3n+2)/4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, exp, sqrt
from typing import Optional

import numpy as np

from .errors import DomainError, ParameterError
from .speeds import SpeedSpec

__all__ = [
    "sigma_rhs",
    "harmonic_rhs",
    "harmonic_rhs_dw",
    "closed_form_v",
    "closed_form_cyl",
    "cyl_height",
    "solve_cyl_profile",
    "Barrier",
    "barrier",
    "BARRIER_NAMES",
    "startup_slope",
    "ProfileSolution",
    "integrate_profile",
]

BARRIER_NAMES = ("v1", "v2", "v3", "w1", "w2", "w3", "w4", "w5")


# --------------------------------------------------------------------------
# right-hand sides
# --------------------------------------------------------------------------

def sigma_rhs(k: int, n: int, r: float, v: float) -> float:
    """Slope equation right-hand side for the k-th-root profile."""
    if not (2 <= k <= n):
        raise ParameterError(f"sigma profile requires 2 <= k <= n, got k={k}, n={n}")
    if not r > 0.0:
        raise DomainError(f"r must be positive, got {r}")
    if not v > 0.0:
        raise DomainError(f"v must be positive, got {v}")
    bracket = (r / v) ** k / comb(n - 1, k - 1) - (n - k) / k
    return (v / r) * (1.0 + v * v) * bracket


def harmonic_rhs(n: int, r: float, w: float) -> float:
    """Slope equation right-hand side for the harmonic-pairs profile."""
    if not r > 0.0:
        raise DomainError(f"r must be positive, got {r}")
    q = (n * n - 3 * n + 2) / 4.0
    m = w / r
    if not m - q > 0.0:
        raise DomainError(
            f"harmonic profile left the admissible cone: w/r = {m:.6g} <= {q:.6g}")
    return m * (1.0 + w * w) * (n - m) / (m - q)


def harmonic_rhs_dw(n: int, r, w):
    """Analytic partial derivative of ``harmonic_rhs`` in the slope variable,
    elementwise over floats or equal-shape arrays."""
    if not np.all(r > 0.0):
        raise DomainError(f"r must be positive, got {np.min(r)}")
    q = (n * n - 3 * n + 2) / 4.0
    d = w - q * r
    if not np.all(d > 0.0):
        raise DomainError(
            f"harmonic profile left the admissible cone: w - q*r = {np.min(d):.6g} <= 0")
    # G = u/(r*d), u = n r w - w^2 + n r w^3 - w^4; products round alike on floats and arrays
    ww = w * w
    u = n * r * w - ww + n * r * ww * w - ww * ww
    du = n * r - 2.0 * w + 3.0 * n * r * ww - 4.0 * ww * w
    return (du * d - u) / (r * d * d)


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def closed_form_v(a: float, r: float, sign: int = 1) -> float:
    """Exact slope +-sqrt(e^{r^2+a} - 1) of the k = n = 2 profile."""
    if a < 0.0:
        raise ParameterError(f"a must be >= 0, got {a}")
    if sign not in (1, -1):
        raise ParameterError("sign must be +1 or -1")
    return sign * sqrt(exp(r * r + a) - 1.0)


def closed_form_cyl(a: float, r: float) -> float:
    """Exact slope dr/dz = 1/sqrt(e^{r^2-2a} - 1) of the cylindrical-type
    profile; defined above the waist r^2 > 2a."""
    if r * r <= 2.0 * a:
        raise DomainError(f"r={r} is at or below the waist sqrt(2a)={sqrt(2 * a) if a > 0 else 0.0}")
    return 1.0 / sqrt(exp(r * r - 2.0 * a) - 1.0)


def cyl_height(a: float, r: float) -> float:
    """Signed height z(r) of the cylindrical-type profile, anchored so that
    z = 0 at r = 1: the quadrature of sqrt(e^{s^2-2a} - 1) from 1 to r."""
    from scipy.integrate import quad
    waist = sqrt(2.0 * a) if a > 0.0 else 0.0
    if waist >= 1.0:
        raise ParameterError(f"anchor r=1 lies below the waist sqrt(2a)={waist}")
    if r < waist:
        raise DomainError(f"r={r} below the waist {waist}")
    return quad(lambda s: sqrt(max(exp(s * s - 2.0 * a) - 1.0, 0.0)), 1.0, r,
                epsabs=1e-12, epsrel=1e-13)[0]


def solve_cyl_profile(a: float, z: float) -> float:
    """Radius r(z) of the cylindrical-type profile, inverting the implicit
    quadrature relation by bracketed root finding to 1e-12.  r(0) = 1."""
    from scipy.optimize import brentq
    waist = sqrt(2.0 * a) if a > 0.0 else 0.0
    z_min = cyl_height(a, waist)
    if z < z_min:
        raise DomainError(f"z={z} below the parametrization minimum z_min={z_min:.12g}")
    if z == 0.0:
        return 1.0
    hi = max(1.0, waist + 1.0)
    while cyl_height(a, hi) < z:
        hi *= 2.0
        if hi > 1e3:
            raise DomainError(f"z={z} not reachable")
    lo = waist
    return float(brentq(lambda rr: cyl_height(a, rr) - z, lo, hi, xtol=1e-13, rtol=8.9e-16))


# --------------------------------------------------------------------------
# barriers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Barrier:
    """A named closed-form comparison function with its validity domain."""

    name: str
    n: int
    k: Optional[int] = None
    a: Optional[float] = None
    role: str = ""
    slope: float = 0.0            # coefficient of the leading term at r = 0
    r_end: float = float("inf")   # right end of the domain
    closed_end: bool = False      # whether r_end itself is admissible

    def __call__(self, r):
        rr = np.asarray(r, dtype=float)
        bad = (rr < 0.0) | (rr > self.r_end) | ((rr == self.r_end) & (not self.closed_end))
        if np.any(bad):
            raise DomainError(
                f"barrier {self.name} undefined at r={np.atleast_1d(rr)[np.atleast_1d(bad)][0]:.12g} "
                f"(domain [0, {self.r_end:.12g}{']' if self.closed_end else ')'})")
        out = self._eval(rr)
        return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out

    def _eval(self, rr: np.ndarray) -> np.ndarray:
        if self.name in ("v1", "v2", "w1", "w2", "w4"):
            return self.slope * rr
        if self.name in ("v3", "w3"):
            c = self.slope
            return c * rr / np.sqrt(1.0 - (c * rr) ** 2)
        # w5
        return self.a * np.sqrt(rr) / np.sqrt(1.0 - self.a ** 2 * rr)


def barrier(name: str, n: int, k: Optional[int] = None, a: Optional[float] = None) -> Barrier:
    """Barrier factory.

    v1/v2/v3 belong to the k-th-root profile equation (v1 sub-solution for
    any k, v2 super-solution for 2 <= k <= n-1, v3 super-solution with a
    vertical asymptote); w1..w5 belong to the harmonic profile equation
    (w1/w4 linear sub-solutions, w2 super-solution on a finite interval,
    w3 super-solution up to its asymptote, w5 the square-root comparison
    function with parameter a).  w5/r has minimum 2a^2, so for n in 3..6
    (where n > (n^2-3n+2)/4) w5 is a super-solution whenever 2a^2 >= n; with the default a^2 = c1 =
    (n^2+n+2)/8, w5^2/w3^2 = (1+c1 r)/(c1 r) > 1 and w5 lies above w3 on its
    whole domain, so it bounds no solution from below.
    """
    if name not in BARRIER_NAMES:
        raise ParameterError(f"unknown barrier {name!r}; expected one of {BARRIER_NAMES}")
    if name.startswith("v"):
        if k is None or not 1 <= k <= n:
            raise ParameterError(f"barrier {name} requires 1 <= k <= n")
        c1 = (k / (n * comb(n - 1, k - 1))) ** (1.0 / k)
        if name == "v1":
            return Barrier(name, n, k=k, role="sub", slope=c1)
        if name == "v2":
            if not 2 <= k <= n - 1:
                raise ParameterError(f"barrier v2 requires 2 <= k <= n-1, got k={k}, n={n}")
            return Barrier(name, n, k=k, role="super", slope=comb(n - 1, k) ** (-1.0 / k))
        return Barrier(name, n, k=k, role="super", slope=c1, r_end=1.0 / c1)
    c1 = (n * n + n + 2) / 8.0
    if name == "w1":
        return Barrier(name, n, role="sub", slope=c1)
    if name == "w2":
        c2 = (n * n + 5 * n + 2) / 12.0
        return Barrier(name, n, role="super", slope=c2, r_end=1.0 / c2, closed_end=True)
    if name == "w3":
        return Barrier(name, n, role="super", slope=c1, r_end=1.0 / c1)
    if name == "w4":
        m4 = sqrt(n ** 4 - 4 * n ** 3 + 7 * n * n - 8 * n + 4) / (2.0 * sqrt(6.0))
        return Barrier(name, n, role="sub", slope=m4)
    aa = sqrt(c1) if a is None else float(a)
    if not aa > 0.0:
        raise ParameterError("barrier w5 requires a > 0")
    role = "super" if 2.0 * aa * aa >= n else "comparison"
    return Barrier(name, n, a=aa, role=role, slope=aa, r_end=1.0 / aa ** 2)


# --------------------------------------------------------------------------
# profile integration
# --------------------------------------------------------------------------

def startup_slope(spec: SpeedSpec) -> float:
    """Unique slope c with u' = c*r + O(r^3) compatible with a smooth
    umbilic axis point; the leading-order balance of the slope equation."""
    if spec.kind == "sigma_k_root":
        if spec.k < 2:
            raise ParameterError("profiles require k >= 2 (mean curvature excluded)")
        return (spec.k / (spec.n * comb(spec.n - 1, spec.k - 1))) ** (1.0 / spec.k)
    if spec.kind == "harmonic_pairs":
        return (spec.n ** 2 + spec.n + 2) / 8.0
    raise ParameterError(f"no profile equation for speed kind {spec.kind!r}")


@dataclass(frozen=True)
class ProfileSolution:
    """A sampled radial profile: rows of (r, u, u', u'') at the accepted
    integration nodes, plus startup and termination metadata."""

    n: int
    speed: SpeedSpec
    samples: np.ndarray
    startup_slope: float
    startup_radius: float
    blowup_radius: Optional[float]
    status: str
    tolerances: dict = field(default_factory=dict)

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
                      max_step: Optional[float] = None,
                      max_steps: int = 500_000) -> ProfileSolution:
    """Integrate the profile slope equation from the axis startup.

    Launches at r = startup_radius with u'(r) = c*r (c the startup slope)
    and u = c*r^2/2, then advances scipy's RK45 (the Dormand-Prince 5(4)
    pair) one accepted step at a time, one sample row per step.  Stops at
    r_max (status ``completed``), when u' exceeds ``blowup_threshold`` or
    the step size underflows while the slope is already huge (``blew_up``,
    with ``blowup_radius`` the last accepted node), or on step-size
    underflow at a moderate slope (``step_failure``).  u'' is stored as the
    right-hand side at each node, exact by the equation.  RK45 raises an
    rtol below 100 machine epsilons to that floor (with a warning), and
    ``tolerances`` records the rtol it used.
    """
    from scipy.integrate import RK45
    if not startup_radius > 0.0:
        raise ParameterError("startup_radius must be positive")
    if not r_max > startup_radius:
        raise ParameterError("r_max must exceed startup_radius")
    if spec.kind == "sigma_k_root":
        rhs = lambda r, v: sigma_rhs(spec.k, spec.n, r, v)
    elif spec.kind == "harmonic_pairs":
        if not 3 <= spec.n <= 6:
            raise ParameterError("harmonic profiles require n in 3..6")
        rhs = lambda r, v: harmonic_rhs(spec.n, r, v)
    else:
        raise ParameterError(f"no profile equation for speed kind {spec.kind!r}")

    c = startup_slope(spec)
    if max_step is None:
        max_step = max((r_max - startup_radius) / 50.0, 1e-3)

    def f(rr: float, yy: np.ndarray) -> list:
        try:
            return [yy[1], rhs(rr, yy[1])]
        except (DomainError, OverflowError):
            return [yy[1], np.nan]   # the controller rejects the step and shrinks it

    solver = RK45(f, startup_radius, [0.5 * c * startup_radius ** 2, c * startup_radius],
                  r_max, max_step=max_step, rtol=rtol, atol=atol,
                  first_step=min(startup_radius / 8.0, max_step))
    rows = [(solver.t, *solver.y, solver.f[1])]
    status = "step_failure"
    blowup_radius = None
    for _ in range(max_steps):
        solver.step()
        if solver.status == "failed":    # step size underflow
            if solver.y[1] >= 1e-2 * blowup_threshold:
                status = "blew_up"
                blowup_radius = solver.t
            break
        rows.append((solver.t, *solver.y, solver.f[1]))
        if solver.y[1] > blowup_threshold:
            status = "blew_up"
            blowup_radius = solver.t
            break
        if solver.status == "finished":
            status = "completed"
            break

    return ProfileSolution(
        n=spec.n,
        speed=spec,
        samples=np.array(rows),
        startup_slope=c,
        startup_radius=startup_radius,
        blowup_radius=blowup_radius,
        status=status,
        tolerances={"rtol": float(solver.rtol), "atol": atol,
                    "blowup_threshold": blowup_threshold, "max_step": max_step},
    )
