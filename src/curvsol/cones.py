"""Membership tests for the curvature cones: the pinching cone
(delta+1)H <= alpha*gamma, uniform 2-convexity and the cylindrical rays
(the speeds' support cones are ``speeds.support_mask``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .speeds import (SpeedSpec, _rows, _support_distance, harmonic_pairs, speed_values,
                     support_margins, unit_draws)

__all__ = [
    "ConeSpec",
    "gamma_alpha_delta",
    "pinched",
    "cone_mask",
    "uniform_two_convex",
    "cone_separation",
]


@dataclass(frozen=True)
class ConeSpec:
    """The pinching cone (delta+1)H <= alpha*gamma inside the open support
    cone of ``speed``, closed in the inequality.  n is speed.n."""

    speed: SpeedSpec
    alpha: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < np.inf and 0.0 < self.delta < np.inf):    # NaN fails too
            raise ParameterError("alpha and delta must be finite and > 0")

    @property
    def n(self) -> int:
        return self.speed.n


def gamma_alpha_delta(alpha: float, delta: float, speed: SpeedSpec) -> ConeSpec:
    """``ConeSpec(speed, alpha, delta)``; kept for the benchmark."""
    return ConeSpec(speed=speed, alpha=alpha, delta=delta)


def pinched(cone: ConeSpec, H, gamma) -> np.ndarray:
    """The pinching test at arrays ``H`` and ``gamma`` (NaN outside the
    speed's cone fails it, as every comparison with NaN does), with no
    tolerance at the boundary; a side that overflows to inf still compares."""
    with np.errstate(over="ignore"):
        return (cone.delta + 1.0) * H <= cone.alpha * gamma


def cone_mask(cone: ConeSpec, lam) -> np.ndarray:
    """Boolean array over the rows of ``lam`` (shape (m, n)): the row lies in
    the pinching cone."""
    L = _rows(cone.n, lam)
    return pinched(cone, np.sum(L, axis=1), speed_values(cone.speed, L))


def uniform_two_convex(beta: float, lam) -> np.ndarray:
    """Boolean array over the rows of ``lam`` (shape (m, n)): H > 0 and every
    pair sum >= beta*H, closed, with no tolerance at the boundary."""
    if not 0.0 < beta < 1.0:
        raise ParameterError("uniform_two_convex requires beta in (0,1)")
    L = np.asarray(lam, dtype=float)
    ((_, ps),) = support_margins(harmonic_pairs(L.shape[-1]), L)
    H = np.sum(L, axis=1)
    return (H > 0.0) & (ps >= beta * H)


def _distance_to_cyl_rays(L: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of L to the nearest ray spanned by a
    coordinate axis (the permutations of the most degenerate cylindrical
    generator)."""
    sq = np.sum(L * L, axis=1, keepdims=True)
    norm = np.sqrt(sq)
    d = np.where(L > 0.0, np.sqrt(np.maximum(sq - L * L, 0.0)), norm)
    return np.minimum(norm[:, 0], np.min(d, axis=1))


def _cone_draws(cone: ConeSpec, samples: int, seed: int):
    """Yield ``(rng, rows)``: the in-cone rows of each chunk of ``samples``
    unit draws seeded by ``seed`` that has any; a DomainError if none has.
    Callers' draws from ``rng`` fall between chunks, so both streams, and
    ``estimate_pinching_constants``' outputs, depend on this order."""
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    found = False
    for x in unit_draws(cone.n, samples, rng):
        x = x[cone_mask(cone, x)]
        if x.shape[0]:
            found = True
            yield rng, x
    if not found:
        raise DomainError(
            f"no unit vector of {samples} samples lies in the cone "
            f"(alpha={cone.alpha}, delta={cone.delta} may be incompatible)")


def cone_separation(cone: ConeSpec, samples: int, seed: int = 0) -> float:
    """Sampled separation of the pinching cone from the cylindrical rays and
    the boundary of the speed's cone: the least distance of an in-cone unit
    draw, so at or above the true separation.  Positive output supports (does
    not certify) the compact-support hypothesis of the convexity estimate."""
    best = np.inf
    for _, x in _cone_draws(cone, samples, seed):
        d = np.minimum(_distance_to_cyl_rays(x), _support_distance(cone.speed, x))
        best = min(best, float(np.min(d)))
    return best
