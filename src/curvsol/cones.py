"""Membership tests for the curvature cones: the support cones of the speeds
(among them the Garding cones and 2-convexity), the pinching cone
(delta+1)H <= alpha*gamma, uniform 2-convexity, and the cylindrical rays."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ParameterError
from .speeds import (SpeedSpec, _rows, harmonic_pairs, sigma_partials, speed_values,
                     support_margins, support_mask, unit_draws)

__all__ = [
    "ConeSpec",
    "gamma_alpha_delta",
    "uniform_two_convex",
    "cone_mask",
    "unit_samples",
    "cone_separation",
]


@dataclass(frozen=True)
class ConeSpec:
    """One of the cones used for curvature pinching: ``support`` (the open
    support cone of ``speed``, where every ``support_margins`` margin is
    positive), ``gamma_alpha_delta`` ((delta+1)H <= alpha*gamma inside the
    speed's cone, closed) or ``uniform_two_convex`` (pair sums >= beta*H with
    H > 0, closed, with ``speed`` the harmonic-pairs speed).  n is speed.n."""

    kind: str
    speed: SpeedSpec
    alpha: Optional[float] = None
    delta: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("support", "gamma_alpha_delta", "uniform_two_convex"):
            raise ParameterError(f"unknown cone kind {self.kind!r}")
        # an unset or NaN parameter fails every comparison below
        alpha, delta, beta = (np.nan if x is None else x
                              for x in (self.alpha, self.delta, self.beta))
        if self.kind == "gamma_alpha_delta" and not (0.0 < alpha < np.inf and 0.0 < delta < np.inf):
            raise ParameterError("gamma_alpha_delta requires finite alpha > 0 and delta > 0")
        if self.kind == "uniform_two_convex" and not 0.0 < beta < 1.0:
            raise ParameterError("uniform_two_convex requires beta in (0,1)")

    @property
    def n(self) -> int:
        return self.speed.n


def gamma_alpha_delta(alpha: float, delta: float, speed: SpeedSpec) -> ConeSpec:
    return ConeSpec(kind="gamma_alpha_delta", speed=speed, alpha=alpha, delta=delta)


def uniform_two_convex(beta: float, n: int) -> ConeSpec:
    return ConeSpec(kind="uniform_two_convex", speed=harmonic_pairs(n), beta=beta)


def cone_mask(cone: ConeSpec, lam) -> np.ndarray:
    """Boolean array over the rows of ``lam`` (shape (m, n)): the row lies in
    the cone.  Support cones are open, the pinching and uniform-2-convexity
    cones closed; a boundary value is classified with no tolerance."""
    L = _rows(cone.n, lam)
    if cone.kind == "support":
        return support_mask(cone.speed, L)
    H = np.sum(L, axis=1)
    if cone.kind == "gamma_alpha_delta":
        g = speed_values(cone.speed, L)                 # NaN outside the speed's cone
        return ~np.isnan(g) & ((cone.delta + 1.0) * H <= cone.alpha * g)
    ((_, ps),) = support_margins(cone.speed, L)
    return (H > 0.0) & (ps >= cone.beta * H)


def unit_samples(cone: ConeSpec, samples: int, rng: np.random.Generator):
    """Yield, chunk by chunk, the unit vectors among ``samples`` standard
    normal draws that lie in the cone."""
    for x in unit_draws(cone.n, samples, rng):
        yield x[cone_mask(cone, x)]


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
    if cone.kind != "gamma_alpha_delta":
        raise ParameterError("cone_separation applies to gamma_alpha_delta cones")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    best = np.inf
    found = 0
    for x in unit_samples(cone, samples, rng):
        if x.shape[0]:
            found += x.shape[0]
            d = np.minimum(_distance_to_cyl_rays(x), _distance_to_support_boundary(cone.speed, x))
            best = min(best, float(np.min(d)))
    if found == 0:
        raise DomainError(
            f"no unit vector of {samples} samples lies in the cone "
            f"(alpha={cone.alpha}, delta={cone.delta} may be incompatible)")
    return float(best)
