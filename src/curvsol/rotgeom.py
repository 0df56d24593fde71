"""Principal curvatures and soliton residual for rotationally symmetric
graphs and for cylindrical-type surfaces of revolution, and the curvature
table of a sampled profile (``profile_geometry``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .profiles import ProfileSolution
from .speeds import SpeedSpec, eval_speed, speed_values

__all__ = [
    "RadialJet",
    "CylJet",
    "graph_curvatures",
    "cylinder_curvatures",
    "tilt",
    "soliton_residual",
    "ProfileGeometry",
    "profile_geometry",
]


@dataclass(frozen=True)
class RadialJet:
    """Second-order jet (u, u', u'') of a radial graph profile at radius r > 0.

    Curvature formulas are singular on the axis; callers handle r = 0 via
    the startup expansion in the profiles module.  The fields may also be
    equal-length arrays, one entry per radius.
    """

    r: float
    u: float
    du: float
    ddu: float

    def __post_init__(self):
        if not np.all(np.asarray(self.r) > 0.0):
            raise DomainError(f"radial jet requires r > 0, got r={np.min(self.r)}")


@dataclass(frozen=True)
class CylJet:
    """Second-order jet (r, r', r'') of a cylindrical profile r(z) > 0.  The
    fields may also be equal-length arrays, one entry per height."""

    r: float
    dr: float
    ddr: float

    def __post_init__(self):
        if not np.all(np.asarray(self.r) > 0.0):
            raise DomainError(f"cylindrical jet requires r > 0, got r={np.min(self.r)}")


def graph_curvatures(jet: RadialJet, n: int) -> np.ndarray:
    """Principal curvatures of the rotational graph at the jet: the radial
    curvature u''/(1+u'^2)^{3/2} followed by n-1 copies of the rotational
    curvature u'/(r sqrt(1+u'^2)).  Shape (n,) for a scalar jet; (m, n), one
    row per radius, for a jet of arrays."""
    if n < 2:
        raise ParameterError("graph curvatures require n >= 2")
    w = 1.0 + jet.du ** 2
    lam2 = jet.du / (jet.r * np.sqrt(w))
    return np.stack((jet.ddu / w ** 1.5,) + (lam2,) * (n - 1), axis=-1)


def cylinder_curvatures(jet: CylJet) -> np.ndarray:
    """Principal curvatures (profile, rotational) of a surface of revolution
    parametrized over its axis; the rotational curvature -1/(r sqrt(1+r'^2))
    is always negative.  Shape (2,) for a scalar jet; (m, 2) for a jet of
    arrays."""
    w = 1.0 + jet.dr ** 2
    return np.stack((jet.ddr / w ** 1.5, -1.0 / (jet.r * np.sqrt(w))), axis=-1)


def tilt(du):
    """Vertical component of the unit normal of a graph, 1/sqrt(1+u'^2)
    (elementwise for an array of slopes)."""
    return 1.0 / np.sqrt(1.0 + du ** 2)


def soliton_residual(spec: SpeedSpec, lam, normal_component: float) -> float:
    """gamma(lambda) minus the normal component of the translation direction;
    vanishes exactly on translating solitons.  Raises DomainError outside the
    speed's cone."""
    return eval_speed(spec, lam) - normal_component


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
    r, u, du, ddu = profile.samples.T
    lam = graph_curvatures(RadialJet(r=r, u=u, du=du, ddu=ddu), profile.n)
    gamma, nu = speed_values(profile.speed, lam), tilt(du)
    return ProfileGeometry(lam=lam, gamma=gamma, tilt=nu, H=np.sum(lam, axis=1),
                           residual=gamma - nu)
