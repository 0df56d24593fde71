"""Principal curvatures and soliton residual for rotationally symmetric
graphs and for cylindrical-type surfaces of revolution."""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import DomainError, ParameterError
from .speeds import CurvatureVector, SpeedSpec, eval_speed, support_violation

__all__ = [
    "RadialJet",
    "CylJet",
    "graph_curvatures",
    "cylinder_curvatures",
    "tilt",
    "soliton_residual",
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
    """Second-order jet (r, r', r'') of a cylindrical profile r(z) > 0."""

    r: float
    dr: float
    ddr: float

    def __post_init__(self):
        if not self.r > 0.0:
            raise DomainError(f"cylindrical jet requires r > 0, got r={self.r}")


def graph_curvatures(jet: RadialJet, n: int):
    """Principal curvatures of the rotational graph at the jet: the radial
    curvature u''/(1+u'^2)^{3/2} followed by n-1 copies of the rotational
    curvature u'/(r sqrt(1+u'^2)).  A CurvatureVector for a scalar jet; an
    (m, n) array, one row per radius, for a jet of arrays."""
    if n < 2:
        raise ParameterError("graph curvatures require n >= 2")
    w = 1.0 + jet.du ** 2
    lam1 = jet.ddu / w ** 1.5
    lam2 = jet.du / (jet.r * np.sqrt(w))
    if np.ndim(lam1) == 0:
        return CurvatureVector((lam1,) + (lam2,) * (n - 1))
    return np.column_stack((lam1,) + (lam2,) * (n - 1))


def cylinder_curvatures(jet: CylJet) -> CurvatureVector:
    """Principal curvatures (profile, rotational) of a surface of revolution
    parametrized over its axis; the rotational curvature -1/(r sqrt(1+r'^2))
    is always negative."""
    w = 1.0 + jet.dr ** 2
    lam1 = jet.ddr / w ** 1.5
    lam2 = -1.0 / (jet.r * sqrt(w))
    return CurvatureVector((lam1, lam2))


def tilt(du):
    """Vertical component of the unit normal of a graph, 1/sqrt(1+u'^2)
    (elementwise for an array of slopes)."""
    return 1.0 / np.sqrt(1.0 + du ** 2)


def soliton_residual(spec: SpeedSpec, lam, normal_component: float) -> float:
    """gamma(lambda) minus the normal component of the translation direction;
    vanishes exactly on translating solitons."""
    violation = support_violation(spec, lam)
    if violation is not None:
        raise DomainError(f"curvatures outside the cone of {spec.label()}: {violation}")
    return eval_speed(spec, lam) - normal_component
