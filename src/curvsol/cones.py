"""Membership tests for the curvature cones: Garding cones, 2-convexity,
the pinching cone (delta+1)H <= alpha*gamma, uniform 2-convexity, and the
cylindrical rays."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .speeds import (SpeedSpec, harmonic_pairs, sigma_k_root, sigma_partials, speed_values,
                     support_margins, unit_draws)

__all__ = [
    "ConeSpec",
    "gamma_k",
    "two_convex",
    "gamma_alpha_delta",
    "uniform_two_convex",
    "contains",
    "unit_samples",
    "cyl_ray",
    "cone_separation",
    "EmptyConeError",
]


class EmptyConeError(RuntimeError):
    """Rejection sampling found no point inside the cone."""


@dataclass(frozen=True)
class ConeSpec:
    """One of the cones used for curvature pinching.

    kind: ``gamma_k`` (S_l > 0 for l <= k, open), ``two_convex`` (all pair
    sums positive, open), ``gamma_alpha_delta`` ((delta+1)H <= alpha*gamma
    inside the speed's cone, closed), ``uniform_two_convex`` (pair sums
    >= beta*H with H > 0, closed).
    """

    kind: str
    n: int
    k: Optional[int] = None
    alpha: Optional[float] = None
    delta: Optional[float] = None
    beta: Optional[float] = None
    speed: Optional[SpeedSpec] = None

    def __post_init__(self):
        if self.kind == "gamma_k":
            if self.k is None or not 1 <= self.k <= self.n:
                raise ParameterError("gamma_k requires 1 <= k <= n")
        elif self.kind == "two_convex":
            if self.n < 2:
                raise ParameterError("two_convex requires n >= 2")
        elif self.kind == "gamma_alpha_delta":
            if self.alpha is None or self.alpha <= 0 or self.delta is None or self.delta <= 0:
                raise ParameterError("gamma_alpha_delta requires alpha > 0 and delta > 0")
            if self.speed is None or self.speed.n != self.n:
                raise ParameterError("gamma_alpha_delta requires a speed with matching n")
        elif self.kind == "uniform_two_convex":
            if self.beta is None or not 0 < self.beta < 1:
                raise ParameterError("uniform_two_convex requires beta in (0,1)")
        else:
            raise ParameterError(f"unknown cone kind {self.kind!r}")


def gamma_k(k: int, n: int) -> ConeSpec:
    return ConeSpec(kind="gamma_k", n=n, k=k)


def two_convex(n: int) -> ConeSpec:
    return ConeSpec(kind="two_convex", n=n)


def gamma_alpha_delta(alpha: float, delta: float, speed: SpeedSpec) -> ConeSpec:
    return ConeSpec(kind="gamma_alpha_delta", n=speed.n, alpha=alpha, delta=delta, speed=speed)


def uniform_two_convex(beta: float, n: int) -> ConeSpec:
    return ConeSpec(kind="uniform_two_convex", n=n, beta=beta)


def _conditions(cone: ConeSpec, L: np.ndarray) -> list:
    """The defining conditions of ``cone`` at the rows of L, in the order
    they are tested: (holds, witness text, witness values) triples, where
    ``holds`` is a boolean array over the rows."""
    if cone.kind == "gamma_k":
        return [(v > 0.0, text, (v,))
                for text, v in support_margins(sigma_k_root(cone.k, cone.n), L)]
    if cone.kind == "two_convex":
        ((_, ps),) = support_margins(harmonic_pairs(cone.n), L)
        return [(ps > 0.0, "min pair sum = {:.6g} <= 0", (ps,))]
    H = np.sum(L, axis=1)
    if cone.kind == "gamma_alpha_delta":
        g = speed_values(cone.speed, L)                 # NaN outside the speed's cone
        lhs, rhs = (cone.delta + 1.0) * H, cone.alpha * g
        return [(~np.isnan(g), "lambda outside the speed's support cone", ()),
                (lhs <= rhs, "(delta+1)H = {:.6g} > alpha*gamma = {:.6g}", (lhs, rhs))]
    s = np.sort(L, axis=1)
    ps, bound = s[:, 0] + s[:, 1], cone.beta * H
    return [(H > 0.0, "H = {:.6g} <= 0", (H,)),
            (ps >= bound, "min pair sum = {:.6g} < beta*H = {:.6g}", (ps, bound))]


def unit_samples(cone: ConeSpec, samples: int, rng: np.random.Generator):
    """Yield, chunk by chunk, the unit vectors among ``samples`` standard
    normal draws that lie in the cone, by the same conditions as
    ``contains``."""
    for x in unit_draws(cone.n, samples, rng):
        yield x[np.all([holds for holds, _, _ in _conditions(cone, x)], axis=0)]


def contains(cone: ConeSpec, lam) -> tuple[bool, Optional[str]]:
    """Membership test.  Returns (inside, witness); the witness names the
    violated condition when outside.  Open cones use strict inequalities,
    the pinching and uniform-2-convexity conditions are closed; exact
    boundary values are classified by the stated inequality with no
    tolerance."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (cone.n,):
        raise ParameterError(f"dimension mismatch: lambda of shape {lam.shape}, cone n={cone.n}")
    for holds, text, values in _conditions(cone, lam[None]):
        if not holds[0]:
            return False, text.format(*(v[0] for v in values))
    return True, None


def cyl_ray(n: int, j: int) -> np.ndarray:
    """Unit generator of the cylindrical ray with n-j leading ones and j
    trailing zeros."""
    if not 0 <= j <= n - 1:
        raise ParameterError(f"j={j} out of range 0..{n - 1}")
    v = np.zeros(n)
    v[: n - j] = 1.0
    return v / np.linalg.norm(v)


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
    rng = np.random.default_rng(seed)
    best = np.inf
    found = 0
    for x in unit_samples(cone, samples, rng):
        if x.shape[0]:
            found += x.shape[0]
            d = np.minimum(_distance_to_cyl_rays(x), _distance_to_support_boundary(cone.speed, x))
            best = min(best, float(np.min(d)))
    if found == 0:
        raise EmptyConeError(
            f"no unit vector of {samples} samples lies in the cone "
            f"(alpha={cone.alpha}, delta={cone.delta} may be incompatible)")
    return float(best)
