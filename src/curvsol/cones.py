"""Membership tests for the curvature cones: the pinching cone
(delta+1)H <= alpha*gamma, uniform 2-convexity and the cylindrical rays
(the speeds' support cones are ``speeds.support_mask``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .speeds import (SpeedSpec, _rows, harmonic_pairs, sigma_partials, speed_values,
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
            raise ParameterError("gamma_alpha_delta requires finite alpha > 0 and delta > 0")

    @property
    def n(self) -> int:
        return self.speed.n


def gamma_alpha_delta(alpha: float, delta: float, speed: SpeedSpec) -> ConeSpec:
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


def _distance_to_support_boundary(speed: SpeedSpec, L: np.ndarray) -> np.ndarray:
    """Distance from each row of L to the boundary of the speed's support
    cone.

    Exact for pair-sum cones (linear constraints); first-order margin
    min_l S_l/|grad S_l| for Garding cones.
    """
    if speed.kind == "product":
        return np.min([_distance_to_support_boundary(f, L) for f in speed.factors], axis=0)
    margins = [v for _, v in support_margins(speed, L)]
    if speed.kind == "harmonic_pairs":
        return margins[0] / np.sqrt(2.0)
    if speed.kind == "quotient":
        return margins[0]
    with np.errstate(divide="ignore"):          # a vanishing gradient bounds nothing
        return np.min([e / np.linalg.norm(sigma_partials(L, l), axis=1)
                       for l, e in enumerate(margins, start=1)], axis=0)


def cone_separation(cone: ConeSpec, samples: int, seed: int = 0) -> float:
    """Sampled lower estimate of the separation of the pinching cone from
    the cylindrical rays and from the boundary of the speed's cone, over
    unit vectors.  Positive output supports (does not certify) the
    compact-support hypothesis of the convexity estimate."""
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    best = np.inf
    found = 0
    for x in unit_draws(cone.n, samples, rng):
        x = x[cone_mask(cone, x)]
        if x.shape[0]:
            found += x.shape[0]
            d = np.minimum(_distance_to_cyl_rays(x), _distance_to_support_boundary(cone.speed, x))
            best = min(best, float(np.min(d)))
    if found == 0:
        raise DomainError(
            f"no unit vector of {samples} samples lies in the cone "
            f"(alpha={cone.alpha}, delta={cone.delta} may be incompatible)")
    return float(best)
