"""Integral-operator reformulation of the harmonic profile equation:
cumulative quadrature of the slope equation's right-hand side on a uniform
grid, barrier-clamped Picard iteration, and an empirical contraction-radius
estimate."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractionFailureError, DomainError, ParameterError
from .profiles import Barrier, barrier, harmonic_rhs_dw

__all__ = [
    "GridFunction",
    "initial_iterate",
    "operator_T",
    "picard_solve",
    "PicardResult",
    "lipschitz_radius",
    "domain_radius",
]

_X_SLACK = 1e-9  # relative slack for membership at the barrier edges


def domain_radius(n: int) -> float:
    """Right end of the interval on which the super-solution band is valid,
    12/(n^2+5n+2)."""
    return 12.0 / (n * n + 5 * n + 2)


def _band(n: int) -> tuple[Barrier, Barrier]:
    return barrier("w4", n), barrier("w3", n)


@dataclass(frozen=True)
class GridFunction:
    """A continuous candidate slope on [0, R], sampled at m uniform nodes,
    pinned to 0 at the axis and confined to the barrier band [w4, w3]."""

    n: int
    R: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 2:
            raise ParameterError("GridFunction needs at least two nodes")
        if vals[0] != 0.0:
            raise ParameterError("GridFunction must vanish at r = 0")
        lo, hi = _band(self.n)
        r = self.nodes[1:]
        wlo, whi = lo(r), hi(r)
        slack = _X_SLACK * np.maximum(1.0, np.abs(whi))
        if np.any(vals[1:] < wlo - slack) or np.any(vals[1:] > whi + slack):
            bad = int(np.argmax((vals[1:] < wlo - slack) | (vals[1:] > whi + slack))) + 1
            raise ParameterError(
                f"grid value {vals[bad]:.12g} at r={self.nodes[bad]:.12g} outside "
                f"the band [{lo(self.nodes[bad]):.12g}, {hi(self.nodes[bad]):.12g}]")

    @property
    def m(self) -> int:
        return self.values.size

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.R, self.values.size)


def initial_iterate(n: int, R: float, m: int) -> GridFunction:
    """Midpoint of the admissible band [w4, min(w3, w2)] nodewise."""
    r = np.linspace(0.0, R, m)
    w4, w3 = _band(n)
    w2 = barrier("w2", n)
    vals = np.zeros(m)
    vals[1:] = 0.5 * (w4(r[1:]) + np.minimum(w3(r[1:]), w2(r[1:])))
    return GridFunction(n=n, R=R, values=vals)


def _axis_limit(n: int, slope: float) -> float:
    """Finite r -> 0 limit of the integrand for a candidate with the given
    startup slope, clamped into the band's slope range."""
    w4, w3 = _band(n)
    m = min(max(slope, w4.slope), w3.slope)
    q = (n * n - 3 * n + 2) / 4.0
    return m * (n - m) / (m - q)


def _quadrature(n: int, w: GridFunction) -> np.ndarray:
    """Unclamped cumulative trapezoidal quadrature of the slope equation's
    right-hand side along the grid; the axis node uses its finite limit."""
    r = w.nodes
    h = r[1] - r[0]
    q = (n * n - 3 * n + 2) / 4.0
    slope = w.values[1:] / r[1:]
    if np.any(slope - q <= 0.0):
        i = int(np.argmax(slope - q <= 0.0)) + 1
        raise DomainError(
            f"integrand denominator <= 0 at node r={r[i]:.12g} (w/r = {slope[i - 1]:.6g})")
    g = np.empty(w.m)
    g[0] = _axis_limit(n, w.values[1] / r[1])
    g[1:] = slope * (1.0 + w.values[1:] ** 2) * (n - slope) / (slope - q)
    return np.concatenate(([0.0], np.cumsum(0.5 * h * (g[:-1] + g[1:]))))


def operator_T(n: int, w: GridFunction) -> tuple[GridFunction, int]:
    """One application of the integral operator: cumulative quadrature via
    ``_quadrature``, then clamped nodewise into the band.  Returns the new
    grid and the number of clamped nodes."""
    r = w.nodes
    out = _quadrature(n, w)
    w4, w3 = _band(n)
    lo = np.concatenate(([0.0], w4(r[1:])))
    hi = np.concatenate(([0.0], w3(r[1:])))
    clamped = np.clip(out, lo, hi)
    events = int(np.count_nonzero(clamped != out))
    return GridFunction(n=n, R=w.R, values=clamped), events


@dataclass
class PicardResult:
    grid: GridFunction
    iterations: list[dict] = field(default_factory=list)
    converged: bool = False
    stopped_at_floor: bool = False   # stagnated at the quadrature round-off floor

    @property
    def contraction_ratios(self) -> list[float]:
        return [it["contraction_ratio"] for it in self.iterations
                if it["contraction_ratio"] is not None]


def picard_solve(n: int, R: float, m: int, tol: float = 1e-12,
                 max_iter: int = 400) -> PicardResult:
    """Iterate the clamped integral operator from the band midpoint until
    the sup-norm change drops below ``tol``.

    Requires n in 3..6, m >= 64 and R within the super-solution band's
    interval (callers wanting the contraction-certified radius should cap R
    by ``lipschitz_radius``).  Raises ContractionFailureError after three
    consecutive difference ratios >= 1 at amplitudes above the round-off
    floor of the cumulative quadrature; stagnation below that floor counts
    as convergence to the floor (flagged on the result).
    """
    if not 3 <= n <= 6:
        raise ParameterError("picard_solve requires n in 3..6")
    if m < 64:
        raise ParameterError("picard_solve requires m >= 64")
    if not 0.0 < R <= domain_radius(n):
        raise ParameterError(f"R must lie in (0, {domain_radius(n):.12g}] for n={n}")
    w = initial_iterate(n, R, m)
    result = PicardResult(grid=w)
    prev_change: Optional[float] = None
    bad_streak = 0
    recent: list[float] = []
    for _ in range(max_iter):
        w_next, events = operator_T(n, w)
        change = float(np.max(np.abs(w_next.values - w.values)))
        ratio = None if prev_change is None or prev_change == 0.0 else change / prev_change
        result.iterations.append(
            {"sup_change": change, "contraction_ratio": ratio, "clamp_events": events})
        w = w_next
        result.grid = w
        if change < tol:
            result.converged = True
            return result
        floor = 8.0 * m * np.finfo(float).eps * max(1.0, float(np.max(np.abs(w.values))))
        recent.append(change)
        if len(recent) > 24:
            recent.pop(0)
            if change <= floor and min(recent[12:]) >= 0.999 * min(recent[:12]):
                result.converged = True
                result.stopped_at_floor = True
                return result
        if ratio is not None and ratio >= 1.0 and prev_change > floor:
            bad_streak += 1
            if bad_streak >= 3:
                raise ContractionFailureError(
                    f"difference ratio >= 1 for 3 consecutive iterations at R={R}; "
                    f"retry with a smaller R")
        else:
            bad_streak = 0
        prev_change = change
    return result


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
    if not 3 <= n <= 6:
        raise ParameterError("lipschitz_radius requires n in 3..6")
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    w4, w3 = _band(n)
    U = np.random.default_rng(seed).random((samples, 2))
    # per sample: r uniform on domain_radius(n)*[1e-6, 1), then w uniform on [w4(r), w3(r))
    r = domain_radius(n) * (1e-6 + (1.0 - 1e-6) * U[:, 0])
    lo, hi = w4(r), w3(r)
    w = lo + (hi - lo) * U[:, 1]
    # w >= w4(r) = m4 r with m4 > q for n in 3..6, so every draw lies in the cone
    val = np.abs(harmonic_rhs_dw(n, r, w)) * r
    if not np.all(np.isfinite(val)):
        i = int(np.argmin(np.isfinite(val)))
        raise DomainError(f"unbounded slope sensitivity at r={r[i]}, w={w[i]}")
    worst = float(np.max(val))
    return worst, float(np.sqrt(2.0 * 0.99 / worst))
