"""Independent routes that the tests hold the package's closed forms to.

finsler_geodesic_ode integrates the geodesic flow of F on the indicatrix
bundle (R, Theta, u) with scipy's DOP853, from the spray's right-hand side
finsler._spray_rhs: the route the closed-form Finsler traces
(finsler.finsler_geodesic) are compared with row by row.  The package
itself reads no ODE solver and does not import scipy.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from zollfins import finsler
from zollfins.errors import DomainError, StepFailureError
from zollfins.finsler import CHART_ABORT, FinslerTrace

#: Hard limits on the integrator tolerance of finsler_geodesic_ode.
TOL_RANGE = (1e-12, 1e-4)


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
    trace = FinslerTrace(t, y[0], y[1], v_r, v_theta, np.ones(len(t)), sol.status == 0)
    if not trace.complete:
        raise finsler._chart_exit(t_ev, trace)
    return trace
