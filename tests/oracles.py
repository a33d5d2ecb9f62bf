"""Independent routes that the tests hold the package's closed forms to.

jacobi_pair_direct is the literal 1/y1' route to the Jacobi pair, through
the Phi quadrature, on the lower half of the band.  branch_gap, f_roots and
f_value read the exact polynomial data of the implicit indicatrix
(moduli.implicit_polynomial) and of the F-equation (finsler.f_polynomial).
finsler_geodesic_ode integrates the geodesic flow of F on the indicatrix
bundle (R, Theta, u) with scipy's DOP853, from the spray's right-hand side
finsler._spray_rhs: the route the closed-form Finsler traces
(finsler.finsler_geodesic) are compared with row by row.  The package
itself reads no ODE solver and does not import scipy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from zollfins import finsler
from zollfins.errors import DomainError, StepFailureError
from zollfins.finsler import CHART_ABORT, FinslerTrace
from zollfins.geodesics import band_radicand, turning_latitude
from zollfins.jacobi import JacobiPair, _check_band, c1_coefficient, curvature_integral

#: Hard limits on the integrator tolerance of finsler_geodesic_ode.
TOL_RANGE = (1e-12, 1e-4)


def jacobi_pair_direct(profile, c: float, r: float) -> JacobiPair:
    """The literal 1/y1' route on the ascending branch, for cross-checks only.

    Valid for r < pi/2, where the accumulated integral int_0^t G/(y1')^2 ds
    is finite; evaluated through Phi by panel quadrature.
    """
    _check_band(turning_latitude(c), r)
    if r >= math.pi / 2 - 1e-9:
        raise DomainError("direct Jacobi route valid only below the equator")
    c1 = c1_coefficient(profile, c)
    x = math.cos(r)
    one_h = 1.0 + profile.h(x)
    y = math.sqrt(band_radicand(c, r))
    phi = curvature_integral(profile, c, r)
    y1 = c1 * y
    y1p = c1 * x / one_h
    return JacobiPair(y1, y1p, 1.0 / y1p - y * phi / c1, -(x / (c1 * one_h)) * phi)


def branch_gap(impl, v1, v2, hemisphere: int):
    """v2 + P(v1^2) + sign(cos r) sqrt(1 - v1^2)/cos R on one hemisphere of
    the implicit indicatrix ``impl`` (moduli.ImplicitIndicatrix)."""
    p = np.polynomial.polynomial.polyval(v1 * v1, impl.combined) if impl.combined else 0.0
    return v2 + p + hemisphere * (math.sqrt(max(1.0 - v1 * v1, 0.0)) / impl.cos_R)


def f_value(poly, F):
    """The F-equation poly (finsler.FPolynomial) at F."""
    return np.polynomial.polynomial.polyval(F, poly.coeffs)


def f_roots(poly, imag_tol: float = 1e-9) -> np.ndarray:
    """The positive real roots of the F-equation poly, ascending, from the
    companion matrix (numpy.roots)."""
    roots = np.roots(poly.coeffs[::-1])
    keep = (np.abs(roots.imag) <= imag_tol * np.maximum(1.0, np.abs(roots))) \
        & (roots.real > 0)
    return np.sort(roots.real[keep])


def finsler_geodesic_ode(profile, start: tuple[float, float], v0, t_end: float,
                         tol: float = 1e-8, samples_per_period: int = 256) -> FinslerTrace:
    """The geodesic of finsler_geodesic, integrated on the indicatrix bundle
    (R, Theta, u) of finsler._spray_rhs.

    F is 1 at every point by construction and the only ray solve is the cold
    one at the start.  DOP853 runs at rtol = tol/10, atol = rtol * 1e-2: the
    phase carries the whole error.  The chart exit is an integration event,
    and the partial trace ends at it.  ``tol`` must lie in TOL_RANGE.
    """
    if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:     # NaN fails too
        raise DomainError(f"tolerance {tol} outside {TOL_RANGE}")
    t_eval, R0, Theta0, u0 = finsler._start_state(profile, start, v0, t_end,
                                                  samples_per_period)

    def chart_event(t, y):
        return CHART_ABORT - abs(y[0])

    chart_event.terminal = True
    rtol = tol / 10
    sol = solve_ivp(lambda t, y: finsler._spray_rhs(profile, y), (0.0, t_end),
                    [R0, Theta0, u0], method="DOP853", rtol=rtol, atol=rtol * 1e-2,
                    t_eval=t_eval, events=chart_event, max_step=0.25)
    if sol.status not in (0, 1) or not sol.success:
        raise StepFailureError(f"Finsler geodesic integration failed: {sol.message}")
    t, y = sol.t, sol.y
    if sol.status == 1:  # chart exit: the event state is the last row
        t_ev = float(sol.t_events[0][-1])
        if t.size == 0 or t_ev > t[-1]:
            t = np.append(t, t_ev)
            y = np.hstack([y, sol.y_events[0][-1][:, None]])
    v_r, v_theta = finsler._velocities(profile, y[0], y[2])
    trace = FinslerTrace(t, y[0], y[1], v_r, v_theta, sol.status == 0)
    if not trace.complete:
        raise finsler._chart_exit(t_ev, trace)
    return trace
