"""Integral-operator reformulation of the harmonic profile equation:
cumulative quadrature of the slope equation's right-hand side on a uniform
grid, the band clamp that makes it the paper's operator T, Newton on the
paper's operator T for its fixed point, and an empirical contraction-radius
estimate.

Each solver iteration logs ``sup_change`` = max|T(w) - w| at the iterate w,
``contraction_ratio`` = sup_change over the previous iteration's (None on
the first) and ``clamp_events``, the number of nodes the band clamp moves
in T(w)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .profiles import SlopeEquation, barrier, slope_equation
from .speeds import harmonic_pairs

__all__ = [
    "picard_solve",
    "PicardResult",
    "lipschitz_radius",
    "domain_radius",
]


def domain_radius(n: int) -> float:
    """Right end of the interval on which the super-solution band is valid:
    the end 12/(n^2+5n+2) of the super-solution w2's domain."""
    return barrier("w2", n).r_end


def _quadrature(eq: SlopeEquation, r: np.ndarray, w: np.ndarray,
                slopes: tuple[float, float]) -> np.ndarray:
    """Unclamped cumulative trapezoidal quadrature of ``eq``'s right-hand
    side along the uniform nodes ``r`` (r[0] = 0), at the slopes ``w``.  The
    axis node uses its finite limit m psi(1/m), with the startup slope
    m = w/r at the first node clamped into ``slopes``, the band's slope
    range."""
    h = r[1] - r[0]
    m = min(max(w[1] / r[1], slopes[0]), slopes[1])
    g = np.empty(w.size)
    g[0] = m * eq.psi(1.0 / m)
    g[1:] = eq.rhs(r[1:], w[1:])
    return np.concatenate(([0.0], np.cumsum(0.5 * h * (g[:-1] + g[1:]))))


def _newton_correction(eq: SlopeEquation, r: np.ndarray, w: np.ndarray, q: np.ndarray,
                       slopes: tuple[float, float]) -> np.ndarray:
    """The Newton correction u, with u = 0 at the axis, that solves
    (I - J) u = q - w for q = ``_quadrature(eq, r, w, slopes)`` and J its
    Jacobian in w.

    With d_i = rhs_dw(r_i, w_i), node i >= 1 of the trapezoidal sum has
    dq_i/dw_j = h d_j for j < i and (h/2) d_i for j = i; the axis term
    g_0 = s psi(1/s), s = w_1/r_1, adds (h/2) a to dq_i/dw_1 with
    a = (psi(1/s) - psi'(1/s)/s)/r_1, or a = 0 where s is clamped.  The
    difference of consecutive rows makes I - J lower bidiagonal:
    u_i = alpha_i u_{i-1} + beta_i, solved by one cumulative product and one
    cumulative sum.  d < 0 on the band, so no pivot vanishes."""
    h = r[1] - r[0]
    d = 0.5 * h * eq.rhs_dw(r[1:], w[1:])
    s = w[1] / r[1]
    a = 0.0
    if slopes[0] <= s <= slopes[1]:
        a = 0.5 * h * (eq.psi(1.0 / s) - eq.dpsi(1.0 / s) / s) / r[1]
    pivot = 1.0 - d
    pivot[0] -= a
    beta = np.diff(q - w) / pivot
    # u_i = P_i sum_{j <= i} beta_j / P_j with P_i = alpha_2 ... alpha_i
    P = np.concatenate(([1.0], np.cumprod((1.0 + d[:-1]) / pivot[1:])))
    return np.concatenate(([0.0], P * np.cumsum(beta / P)))


@dataclass
class PicardResult:
    nodes: np.ndarray
    values: np.ndarray
    iterations: list[dict]
    converged: bool


def picard_solve(n: int, R: float, m: int, tol: float = 1e-12,
                 max_iter: int = 400) -> PicardResult:
    """Newton on the paper's operator T: its fixed point, from the band
    midpoint, until the sup-norm residual max|T(w) - w| drops below ``tol``.

    Each iteration computes q = ``_quadrature(eq, r, w, slopes)``, logs one
    entry and, unless it stops, sets w <- clip(w + u) with u from
    ``_newton_correction``.  The entry holds ``sup_change`` = max|T(w) - w|,
    T(w) = clip(q) into the band; ``contraction_ratio``, its quotient by the
    previous entry's sup_change (None on the first entry); and
    ``clamp_events``, the number of nodes that clip changes in T(w).  The
    result's ``values`` are the last T(w), on the grid's ``nodes``.

    Requires n in 3..6, m >= 64, R in the super-solution band's interval with
    a spacing R/(m-1) that does not underflow to 0, max_iter >= 1 and a
    finite tol > 0.  The solve ends with ``converged`` False after max_iter
    iterations, or when sup_change sets no new minimum for 3 consecutive
    iterations above the round-off floor of the cumulative quadrature; a
    change at or below that floor that sets no new minimum counts as convergence.

    Newton, because the plain iteration w <- T(w) stalls for n >= 4: near the
    axis T maps eps r^p to (1 - K) eps r^p / p with K = psi'(1/c)/c, the
    clamp pins the slope (p = 1), and the r^3 mode's multiplier (1 - K)/3 is
    -0.6, -1.13, -2.33 and -7 for n = 3..6, at every R since r^3 is scale-free.
    """
    if m < 64:
        raise ParameterError("picard_solve requires m >= 64")
    if not 0.0 < R <= domain_radius(n):
        raise ParameterError(f"R must lie in (0, {domain_radius(n)!r}] for n={n}")
    r = np.linspace(0.0, R, m)
    if r[1] == 0.0:
        raise ParameterError(f"R={R!r} is too small for m={m}: R/(m-1) underflows to 0")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"tol must be finite and > 0, got {tol}")
    w2, w3, w4 = (barrier(name, n) for name in ("w2", "w3", "w4"))
    lo, hi = w4(r), w3(r)            # the band [w4, w3], both 0 at the axis
    slopes = (w4.slope, w3.slope)
    eq = slope_equation(harmonic_pairs(n))
    w = 0.5 * (lo + np.minimum(hi, w2(r)))
    iterations: list[dict] = []
    converged = False
    best, stalls = np.inf, 0
    for _ in range(max_iter):
        q = _quadrature(eq, r, w, slopes)
        t = np.clip(q, lo, hi)
        change = float(np.max(np.abs(t - w)))
        prev = iterations[-1]["sup_change"] if iterations else 0.0
        ratio = change / prev if prev else None
        iterations.append({"sup_change": change, "contraction_ratio": ratio,
                           "clamp_events": int(np.count_nonzero(t != q))})
        if change < tol:
            converged = True
            break
        if change < best:
            best, stalls = change, 0
        else:
            stalls += 1
            if change <= 8.0 * m * np.finfo(float).eps * max(1.0, float(np.max(np.abs(w)))):
                converged = True
                break
            if stalls >= 3:
                break
        w = np.clip(w + _newton_correction(eq, r, w, q, slopes), lo, hi)
    return PicardResult(nodes=r, values=t, iterations=iterations, converged=converged)


def lipschitz_radius(n: int, samples: int = 4000, seed: int = 0) -> tuple[float, float]:
    """Sampled slope-sensitivity coefficient of the integrand over the
    barrier band and the contraction radius derived from it.

    The partial derivative of the right-hand side in the slope variable
    behaves like -const/r near the axis on the band, so its raw ratio to r
    is unbounded; the finite quantity bounded over the band is
    ``|dG/dw| * r``, and that supremum is returned as C_n together with
    R2 = sqrt(2*0.99/C_n) (so that C_n * R2^2/2 = 0.99 < 1, the shape of the
    quadratic contraction budget).  Empirical contraction ratios from
    ``picard_solve`` are the operative check.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    w4, w3 = barrier("w4", n), barrier("w3", n)
    U = np.random.default_rng(seed).random((samples, 2))
    # per sample: r uniform on domain_radius(n)*[1e-6, 1), then w uniform on [w4(r), w3(r))
    r = domain_radius(n) * (1e-6 + (1.0 - 1e-6) * U[:, 0])
    lo, hi = w4(r), w3(r)
    w = lo + (hi - lo) * U[:, 1]
    # w >= w4(r) = m4 r with m4 > q for n in 3..6, so every draw lies in the cone
    val = np.abs(slope_equation(harmonic_pairs(n)).rhs_dw(r, w)) * r
    worst = float(np.max(val))
    return worst, float(np.sqrt(2.0 * 0.99 / worst))
