"""Geodesic flow of the surface metric, Clairaut constants, closure integrals.

Geodesics of g = (1+h(cos r))^2 dr^2 + sin^2 r dtheta^2 at unit energy obey

    dr/dt     = sign * sqrt(1 - c^2/sin^2 r) / (1 + h(cos r)),
    dtheta/dt = c / sin^2 r,

where c = (dtheta/dt) sin^2 r is the conserved Clairaut constant and sign
is the sign of dr/dt, flipping at the turning latitudes r_c = arcsin|c| and
pi - r_c.

The square root is non-Lipschitz exactly at the turning points, so the
trace is written in the regular phase variable u defined by

    sin^2 r = sin^2 r_c + cos^2 r_c sin^2 u   (equivalently cos r = cos r_c cos u),

in which du/dt = 1 / (1 + h(cos r_c cos u)) is smooth at every c.  u
increases monotonically; r oscillates through the band [r_c, pi - r_c] and
the sign of dr/dt is the sign of sin u, so turning points need no event
handling at all.  The same substitution turns the closure integrals into
integrals of analytic functions over [0, pi].

No ODE is integrated: h is odd, so the travel time is u plus a polynomial
in sin u (phase_time), which a trace inverts.  Since h(+-1) = 0, h(z) =
(1 - z^2) k(z) with k odd (ZollProfile.k_table), and 1 - z^2 = sin^2 r at
z = cos r_c cos u, so

    dtheta/du = c / (c^2 + (1 - c^2) sin^2 u) + c k(cos r_c cos u):

the round sphere's rate, whose integral is elementary, plus an odd
polynomial in cos u, whose integral is a polynomial in sin u
(longitude_advance; both polynomials come from _sin_series).  Over a band
sweep u in [0, pi] the time is pi and the longitude advance sign(c) pi at
every c (closure_integrals, which integrates both by quadrature as a second
route).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandError, DomainError, PoleProximityError, StepFailureError
from .profile import ZollProfile, horner, metric_coeffs
from .quadrature import DEFAULT_ORDERS, gl_adaptive

TWO_PI = 2.0 * math.pi

#: Step cap of the phase inversion: Newton takes 3 to 5 on the named
#: profiles, bisection alone ~51.
PHASE_NEWTON_ITERS = 64

#: Default samples emitted per period 2*pi.
DEFAULT_SAMPLES_PER_PERIOD = 512

#: Most rows one trace may hold: ~2000 periods at the default density.
MAX_TRACE_ROWS = 1_000_000


def turning_latitude(c: float) -> float:
    """r_c = arcsin|c|, the extremal latitude reached by a geodesic."""
    # Written so that NaN fails the test (min(1.0, nan) would be 1.0).
    if not abs(c) <= 1.0 + 1e-12:
        raise DomainError(f"Clairaut constant |c|={abs(c)} outside [0, 1]")
    return math.asin(min(1.0, abs(c)))


def turning_latitudes(c: np.ndarray) -> np.ndarray:
    """turning_latitude of each Clairaut constant in an array, through numpy.
    A function of its own, so that the float path tests no type."""
    if not np.all(np.abs(c) <= 1.0 + 1e-12):
        raise DomainError(f"Clairaut constants up to |c|={np.max(np.abs(c))} outside [0, 1]")
    return np.arcsin(np.minimum(1.0, np.abs(c)))


def in_band(r, rc: float):
    """Whether the latitude r, or each of an array of them, lies in the band
    [rc, pi - rc] of the turning latitude rc, to 1e-12; NaN does not."""
    return (rc - 1e-12 <= r) & (r <= math.pi - rc + 1e-12)


def band_radicand(c: float, r, rc: float | None = None) -> np.ndarray:
    """sin^2 r - c^2 in the cancellation-free form sin(r-r_c) sin(r+r_c).

    The second factor is evaluated as sin(r_top - r) with r_top the rounded
    float pi - r_c, so that both turning latitudes (r_c and that same float
    r_top, which is what callers iterate to) give an exact zero.  This keeps
    the two indicatrix branches glued to machine precision; the substitution
    of the rounded r_top costs only ~1 ulp(pi) in the radicand.  ``rc``
    replaces the turning latitude asin|c|: an indicatrix sample at chart
    value R passes |R|, which can differ from asin(|sin R|) in the last
    digits, so that its glue points r = |R| and pi - |R| give exact zeros.
    """
    if rc is None:
        rc = turning_latitude(c)
    r = np.asarray(r)
    val = np.sin(r - rc) * np.sin((math.pi - rc) - r)
    return np.maximum(val, 0.0)


@dataclass(frozen=True)
class GeodesicState:
    """A point of the unit tangent bundle: (r, theta, Clairaut c, sign of dr/dt)."""

    r: float
    theta: float
    c: float
    sign: int = +1

    def __post_init__(self):
        if self.sign not in (-1, +1):
            raise DomainError(f"sign must be +-1, got {self.sign}")
        if not (math.isfinite(self.r) and math.isfinite(self.theta)):
            raise DomainError(f"state r = {self.r}, theta = {self.theta} is not finite")
        if not 0.0 <= self.r <= math.pi:
            raise BandError(f"latitude {self.r} outside [0, pi]")
        if not abs(self.c) <= 1.0:       # NaN fails too
            raise DomainError(f"|c| = {abs(self.c)} outside [0, 1]")
        if abs(self.c) > math.sin(self.r) + 1e-12:
            raise BandError(
                f"state unreachable: |c|={abs(self.c)} > sin r={math.sin(self.r)}"
            )

    def xi1(self, profile: ZollProfile) -> float:
        """Radial momentum sign * (1+h) sqrt(1 - c^2/sin^2 r)."""
        sr = math.sin(self.r)
        rad = max(0.0, 1.0 - (self.c / sr) ** 2) if sr > 0 else 0.0
        return self.sign * (1.0 + profile.h(math.cos(self.r))) * math.sqrt(rad)

    def energy_residual(self, profile: ZollProfile) -> float:
        """|xi1^2/(1+h)^2 + c^2/sin^2 r - 1| (unit-energy defect)."""
        sr = math.sin(self.r)
        if sr < 1e-12:
            raise PoleProximityError("energy undefined at the poles")
        one_h = 1.0 + profile.h(math.cos(self.r))
        return abs((self.xi1(profile) / one_h) ** 2 + (self.c / sr) ** 2 - 1.0)


# -- closure integrals --------------------------------------------------------

def closure_integrals(profile: ZollProfile, c: float) -> tuple[float, float]:
    """Half-period travel time T and longitude advance of a geodesic band sweep.

    T(c)     = int_{r_c}^{pi-r_c} sin r (1+h(cos r)) / sqrt(sin^2 r - sin^2 r_c) dr,
    Theta(c) = int_{r_c}^{pi-r_c} sin r_c (1+h) / (sin r sqrt(sin^2 r - sin^2 r_c)) dr.

    Both equal pi for every admissible profile and every |c| < 1 -- that is
    the closure property this function lets the tests verify.  The endpoint
    singularities are removed by substituting sin^2 r = sin^2 r_c +
    cos^2 r_c sin^2 u, after which, with z = cos r_c cos u and h = (1 - z^2) k,

        T     = int_0^pi (1 + h(z)) du,
        Theta = |c| int_0^pi (1 + h(z)) / (1 - z^2) du
              = pi + |c| int_0^pi k(z) du,

    both integrands analytic at every c, evaluated by Gauss-Legendre with
    order escalation as the error check.  The round part |c| / (1 - z^2)
    integrates to pi exactly.  k is odd and cos u is odd about u = pi/2, so
    the k integral vanishes: Theta = pi, and Theta - pi measures the
    roundoff of a smooth quadrature, not of the peak of width ~|c| that the
    raw form has at both ends.  The k quadrature, the route that the closed
    form of longitude_advance is tested against, starts at order 32: against
    a 40-digit reference, numpy's order-64 rule is within 9e-16 on it and its
    order-128 rule within 3.8e-15.  For c = 0 (a meridian) the formula gives
    the geometric value pi, the jump at the pole crossing.  For c < 0 the
    magnitudes are returned; the sign of the actual advance is sign(c).
    """
    if abs(c) > 1.0:
        raise DomainError(f"Clairaut constant |c|={abs(c)} outside [0, 1]")
    if abs(c) == 1.0:
        raise DomainError("closure integrals degenerate for |c| = 1 (equators)")
    cos_rc = math.cos(turning_latitude(c))

    def time_integrand(u):
        return 1.0 + profile.h(cos_rc * np.cos(u))

    def k_integrand(u):
        z = cos_rc * np.cos(u)
        return z * horner(profile.k_table, z * z)

    t_val, _ = gl_adaptive(time_integrand, 0.0, math.pi)
    k_val, _ = gl_adaptive(k_integrand, 0.0, math.pi, orders=(32,) + DEFAULT_ORDERS)
    return t_val, math.pi + abs(c) * k_val


def _sin_series(table: tuple[float, ...], c) -> list:
    """w_i with int_0^u z p(z^2) du' = sin u sum_i w_i sin^(2i) u, z = cos r_c
    cos u, for p_j = table[j] (odd_coeffs for the time, k_table for the
    longitude) and c a float or an array.  From int_0^u cos^(2j+1) =
    sum_i C(j, i) (-1)^i sin^(2i+1) u / (2i + 1),

        w_i = (-1)^i / (2i + 1) sum_{j >= i} C(j, i) p_j cos^(2j+1) r_c.
    """
    a = (np.cos(turning_latitudes(c)) if isinstance(c, np.ndarray)
         else math.cos(turning_latitude(c)))
    m = [mj * a ** (2 * j + 1) for j, mj in enumerate(table)]
    return [(-1) ** i / (2 * i + 1) * sum(math.comb(j, i) * mj for j, mj in enumerate(m))
            for i in range(len(m))]


def phase_time(profile: ZollProfile, c: float, u):
    """Travel time from the turning point to the phases u (an array) at the
    Clairaut constant c, |c| < 1: t(u) = int_0^u (1 + h(cos r_c cos u')) du'
    = u + sin u sum_i w_i sin^(2i) u, w = _sin_series(odd_coeffs, c).  So
    |t(u) - u| <= sum |w_i|.
    """
    su = np.sin(u)
    return u + su * horner(_sin_series(profile.odd_coeffs, c), su * su)


def longitude_advance(profile: ZollProfile, c, u, su=None, cu=None):
    """Longitude gained from the turning point (u = 0) to the phase u, any
    real u, along the geodesic with Clairaut constant c, 0 < |c| < 1:

        sign(c) (u + atan2((1 - |c|) sin u cos u, |c| cos^2 u + sin^2 u))
            + c K(sin u),

    the round sphere's antiderivative plus K(sin u) = int_0^u k(cos r_c
    cos u') du' = sin u sum_i w_i sin^(2i) u, w = _sin_series(k_table, c).
    Floats go through math, arrays (c, u or both) through numpy.  ``su``
    and ``cu`` give sin u and cos u where the caller has them to more
    relative digits than sin(u) of a float u near +-pi (moduli.pencil_chart).
    """
    vec = isinstance(u, np.ndarray) or isinstance(c, np.ndarray)
    sin, cos, atan2 = ((np.sin, np.cos, np.arctan2) if vec
                       else (math.sin, math.cos, math.atan2))
    ac = abs(c)
    side = (np.where(c > 0, 1.0, -1.0) if isinstance(c, np.ndarray)
            else 1.0 if c > 0 else -1.0)
    if su is None:
        su, cu = sin(u), cos(u)
    round_part = u + atan2((1.0 - ac) * su * cu, ac * cu * cu + su * su)
    return side * round_part + c * su * horner(_sin_series(profile.k_table, c), su * su)


# -- traces --------------------------------------------------------------------

@dataclass
class GeodesicTrace:
    """Samples (t, r, theta) of a geodesic, its phase u and Clairaut constant c."""

    t: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    sign: np.ndarray
    u: np.ndarray
    c: float

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise DomainError("trace times must be strictly increasing")

    def endpoint_state(self) -> GeodesicState:
        return GeodesicState(float(self.r[-1]), float(self.theta[-1] % TWO_PI),
                             self.c, int(self.sign[-1]))


def signed_phase(c: float, r, sign: int = +1):
    """Phase u in [-pi, pi] with cos r = cos r_c cos u and sign(sin u) = sign,
    at a latitude r or an array of them.  A float goes through math, an
    array through numpy (whose atan2 may differ in the last bit)."""
    y = np.sqrt(band_radicand(c, r))
    if isinstance(r, np.ndarray):
        return np.arctan2(sign * y, np.cos(r))
    return math.atan2(sign * float(y), math.cos(r))


def _sign_of_phase(u: np.ndarray) -> np.ndarray:
    """+1 on the ascending half-oscillations u mod 2pi in [0, pi), else -1."""
    return np.where(np.mod(u, TWO_PI) < math.pi, 1, -1).astype(int)


def sample_times(t_end: float, samples_per_period: int) -> np.ndarray:
    """max(16, samples_per_period * t_end / 2 pi) + 1 evenly spaced row times
    on [0, t_end]; DomainError unless t_end is finite and positive,
    samples_per_period >= 1 and there are fewer than MAX_TRACE_ROWS rows."""
    if not 0.0 < t_end < math.inf:             # NaN fails too
        raise DomainError(f"t_end must be finite and positive, got {t_end}")
    if not samples_per_period >= 1:
        raise DomainError(f"need at least 1 sample per period, got {samples_per_period}")
    rows = samples_per_period * t_end / TWO_PI
    if not rows < MAX_TRACE_ROWS:
        raise DomainError(f"t_end = {t_end} at {samples_per_period} samples per "
                          f"period needs more than {MAX_TRACE_ROWS} rows")
    return np.linspace(0.0, t_end, max(16, int(round(rows))) + 1)


def integrate_geodesic(profile: ZollProfile, initial: GeodesicState, t_end: float,
                       samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD
                       ) -> GeodesicTrace:
    """Trace of the geodesic flow over [0, t_end], exact to roundoff.

    The phase u_k at each sample time t_k solves phase_time(u_k) -
    phase_time(u_0) = t_k, all rows at once, by Newton steps safeguarded by
    bisection (StepFailureError after PHASE_NEWTON_ITERS).  r follows from
    cos r = cos r_c cos u and theta in closed form, theta_0 +
    longitude_advance(u) - longitude_advance(u_0), or for a meridian (c = 0)
    a jump of pi at each pole crossing.  Equators (c = +-1) are closed form.
    The rows are those of sample_times.
    """
    t_eval = sample_times(t_end, samples_per_period)

    c = initial.c
    if abs(abs(c) - 1.0) <= 1e-12:
        # Equator: r stays at pi/2, theta advances linearly.
        sgn = 1.0 if c > 0 else -1.0
        theta = initial.theta + sgn * t_eval
        r = np.full_like(t_eval, math.pi / 2)
        return GeodesicTrace(t_eval, r, theta, np.ones(len(t_eval), dtype=int),
                             np.zeros_like(t_eval), c)

    cos_rc = math.cos(turning_latitude(c))
    u0 = signed_phase(c, initial.r, initial.sign)
    # Each root lies within M = sum |w_i| of its target, at the edge where
    # the sin series reaches +-M; twice that keeps Newton's overshoot there
    # inside the bracket.  t(u0) goes through numpy, as in the loop, so the
    # row t = 0 starts at its root u0 and keeps it.
    reach = 2.0 * math.fsum(abs(w) for w in _sin_series(profile.odd_coeffs, c))
    target = t_eval + phase_time(profile, c, np.array([u0]))[0]
    lo, hi = target - reach, target + reach
    slack = 8.0 * np.finfo(float).eps * (np.abs(target) + reach)
    u = u0 + t_eval
    for _ in range(PHASE_NEWTON_ITERS):
        resid = phase_time(profile, c, u) - target
        converged = bool(np.all(np.abs(resid) <= slack))
        lo, hi = np.where(resid < 0, u, lo), np.where(resid > 0, u, hi)
        step = u - resid / (1.0 + profile.h(cos_rc * np.cos(u)))
        u = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        if converged:     # stop after this step, which polishes the roots
            break
    else:
        raise StepFailureError(f"phase inversion did not converge at c = {c!r}")
    if c == 0.0:
        # Each pole crossing (u through a multiple of pi) flips the meridian half.
        crossings = np.floor(u / math.pi) - math.floor(u0 / math.pi)
        theta = initial.theta + math.pi * crossings
    else:
        theta = initial.theta + (longitude_advance(profile, c, u)
                                 - longitude_advance(profile, c, u0))
    r = np.arccos(np.clip(cos_rc * np.cos(u), -1.0, 1.0))
    return GeodesicTrace(t_eval, r, theta, _sign_of_phase(u), u, c)


def surface_distance(profile: ZollProfile, a: tuple[float, float],
                     b: tuple[float, float]) -> float:
    """First-order metric distance between nearby points (r, theta).

    Evaluates ds^2 = g_rr dr^2 + g_thth dtheta^2 at the midpoint with the
    longitude difference wrapped to (-pi, pi].  Adequate for closure checks
    where the separation is tiny.
    """
    if not all(math.isfinite(v) for v in (*a, *b)):
        raise DomainError(f"surface points {a}, {b} are not finite")
    if not (0.0 <= a[0] <= math.pi and 0.0 <= b[0] <= math.pi):
        raise BandError(f"latitudes {a[0]}, {b[0]} outside [0, pi]")
    dr = b[0] - a[0]
    dth = (b[1] - a[1] + math.pi) % TWO_PI - math.pi
    rm = 0.5 * (a[0] + b[0])
    rm = min(max(rm, 1e-9), math.pi - 1e-9)
    g_rr, g_tt = metric_coeffs(profile, rm)
    return math.sqrt(g_rr * dr * dr + g_tt * dth * dth)
