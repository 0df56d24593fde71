"""Principal curvatures of rotationally symmetric graphs and of
cylindrical-type surfaces of revolution, and the curvature table of a
sampled profile (``profile_geometry``) with its soliton residual."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .profiles import ProfileSolution
from .speeds import speed_values

__all__ = [
    "graph_curvatures",
    "cylinder_curvatures",
    "tilt",
    "ProfileGeometry",
    "profile_geometry",
]


def _require_off_axis(r, what: str) -> None:
    """The formulas are singular on the axis, where profiles use the startup expansion."""
    if not np.all(np.asarray(r) > 0.0):
        raise DomainError(f"{what} requires r > 0, got r={np.min(r)}")


def graph_curvatures(r, du, ddu, n: int) -> np.ndarray:
    """Principal curvatures of the rotational graph with u' = du, u'' = ddu at
    radius r > 0: the radial curvature u''/(1+u'^2)^{3/2} followed by n-1
    copies of the rotational curvature u'/(r sqrt(1+u'^2)).  Shape (n,) for
    floats; (m, n), one row per radius, for equal-length arrays."""
    _require_off_axis(r, "graph_curvatures")
    if n < 2:
        raise ParameterError("graph curvatures require n >= 2")
    w = 1.0 + du ** 2
    lam2 = du / (r * np.sqrt(w))
    with np.errstate(over="ignore"):   # w^1.5 overflows past u' ~ 5.6e102: lambda_1 reads 0
        return np.stack((ddu / w ** 1.5,) + (lam2,) * (n - 1), axis=-1)


def cylinder_curvatures(r, dr, ddr) -> np.ndarray:
    """Principal curvatures (profile, rotational) of a surface of revolution
    r(z) > 0 over its axis, with r' = dr and r'' = ddr; the rotational
    curvature -1/(r sqrt(1+r'^2)) is always negative.  Shape (2,) for floats;
    (m, 2) for equal-length arrays."""
    _require_off_axis(r, "cylinder_curvatures")
    w = 1.0 + dr ** 2
    return np.stack((ddr / w ** 1.5, -1.0 / (r * np.sqrt(w))), axis=-1)


def tilt(du):
    """Vertical component of the unit normal of a graph, 1/sqrt(1+u'^2)
    (elementwise for an array of slopes)."""
    return 1.0 / np.sqrt(1.0 + du ** 2)


@dataclass(frozen=True)
class ProfileGeometry:
    """The curvature table of a profile, one row per sample."""

    lam: np.ndarray               # (m, n) principal curvatures
    gamma: np.ndarray             # speed value, NaN outside the speed's cone
    tilt: np.ndarray              # <nu, e_{n+1}> = 1/sqrt(1+u'^2)
    H: np.ndarray
    residual: np.ndarray          # soliton residual gamma - tilt


def profile_geometry(profile: ProfileSolution) -> ProfileGeometry:
    """Curvatures, speed, tilt and soliton residual at every sample."""
    r, _, du, ddu = profile.samples.T
    lam = graph_curvatures(r, du, ddu, profile.n)
    gamma, nu = speed_values(profile.speed, lam), tilt(du)
    return ProfileGeometry(lam=lam, gamma=gamma, tilt=nu, H=np.sum(lam, axis=1),
                           residual=gamma - nu)
