"""Rotationally symmetric translating solitons of concave fully nonlinear
curvature flows: speed functions and their derivative pinching, curvature
cones, profile ODEs with sub/super-solution barriers, a Picard fixed-point
construction, and numerical verification of the convexity estimate
lambda_1 >= H - alpha*gamma."""

from .cones import ConeSpec, cone_mask, cone_separation, gamma_alpha_delta, pinched, uniform_two_convex
from .errors import ContractionFailureError, DomainError, ParameterError
from .picard import PicardResult, domain_radius, lipschitz_radius, picard_solve
from .profiles import (Barrier, ProfileSolution, SlopeEquation, barrier, closed_form_cyl,
                       closed_form_v, cyl_profile, integrate_profile, slope_equation)
from .rotgeom import cylinder_curvatures, graph_curvatures, tilt
from .speeds import (SpeedDerivatives, SpeedSpec, check_properties, eval_speed,
                     harmonic_pairs, product, quotient, sigma_k_root)
from .verifier import (CheckEntry, PinchingEstimate, check_barriers, check_convexity_estimate,
                       check_sigma2_cylinder, check_soliton, estimate_pinching_constants,
                       fit_convexity_params)

__version__ = "0.1.0"
