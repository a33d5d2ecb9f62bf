"""Zoll surfaces of revolution from odd polynomial profiles, their geodesic
and Jacobi-field structure, and the induced constant-curvature Finsler
metrics on the manifolds of geodesics."""

from .errors import (BandError, ChartExitError, ConvexityViolation,
                     DegenerateMetricError, DomainError, NoBracketError,
                     PoleProximityError, ProfileError, QuadratureError,
                     StepFailureError, ZollfinsError)
from .finsler import (FinslerEval, FinslerTrace, FPolynomial, InvariantPair,
                      SIGMA_ROTATION, chart_distance, f_polynomial, finsler_F,
                      finsler_geodesic, fundamental_tensor, invariant_flow_check,
                      invariants_IJ, unit_direction)
from .geodesics import (GeodesicState, GeodesicTrace, closure_integrals,
                        integrate_geodesic, surface_distance, turning_latitude)
from .jacobi import JacobiPair, jacobi_ode_check, jacobi_pair
from .moduli import (ImplicitIndicatrix, IndicatrixCurve, IndicatrixSample,
                     ModuliPoint, coords_of_geodesic, implicit_polynomial,
                     implicit_residual, indicatrix_curvature, indicatrix_curve,
                     indicatrix_parametric, indicatrix_regularized, pencil_chart)
from .profile import (ZollProfile, check_positive_curvature,
                      curvature_critical_points, curvature_fd_check, example1,
                      example2, gauss_curvature, metric_coeffs, round_sphere)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
