"""Normal Jacobi fields along a geodesic, as functions of the latitude r.

Along a geodesic with Clairaut constant c (anchored at its turning point,
t = 0 at r = r_c) the normalized normal Jacobi fields y1, y2 satisfy
y'' = -G y with

    y1(0) = 0, y1'(0) = 1,      y2(0) = 1, y2'(0) = 0,

(primes are d/dt) and have the closed quadrature forms

    y1 = sign * c1 * y,             y  = sqrt(sin^2 r - c^2),
    y1' = c1 cos r / (1 + h(cos r)),       c1 = (1 + h(cos r_c)) / cos r_c,
    y2 = 1/y1' - y1 * int_0^t G/(y1')^2 ds.

The time integral of G/(y1')^2 converts to the latitude integral

    int_0^t G/(y1')^2 ds = (sign/c1^2) * Phi(r),
    Phi(r) = int_{r_c}^r (sin s/cos^2 s) [(1+h) - cos s h'(cos s)]
             / sqrt(sin^2 s - c^2) ds,

whose endpoint singularity at s = r_c is removed by the same substitution
used for the closure integrals.  Phi diverges at s = pi/2 (where y1' = 0),
an apparent singularity of the y2 formula only: integrating by parts yields

    y2  = [ (1+h(x)) x + (sin^2 r - c^2) h'(x) + y Psi(r) ] / (c1 cos^2 r_c),
    y2' = -sign [ (1+h(x)) y - x y h'(x) - x Psi(r) ] / (c1 (1+h(x)) cos^2 r_c),

with x = cos r and the smooth auxiliary integral

    Psi(r) = int_{r_c}^r sin s sqrt(sin^2 s - c^2) h''(cos s) ds,

which for polynomial h has a closed form (see hpp_integral).  These
regularized expressions are valid on the whole band.  Their brackets are
written once, in _regular_bracket, which jacobi_pair and the regularized
indicatrix sample (moduli.indicatrix_regularized, v2 = -c1 y2) both read;
the literal 1/y1' route is kept as an independent cross-check on r < pi/2.

y2 is even under t -> -t and y1 odd, so y2 at a given latitude does not
depend on the branch while y1, y2' flip sign with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BandError, DomainError
from .geodesics import band_radicand, signed_phase, turning_latitude
from .profile import ZollProfile, curvature_x
from .quadrature import gl_adaptive, gl_fixed, gl_refined

#: |r - pi/2| below which callers should prefer the regularized expressions.
EQUATOR_GUARD = 1e-3

#: The Phi quadratures stop halving their panels at this fraction of the
#: distance from the refined end to the double pole at u = pi/2.  A panel a
#: tenth of the pole distance wide already converges to roundoff at order 48;
#: against a 30-digit reference, floors of 0.5 .. 1 lose a digit.
POLE_PANEL_FRACTION = 0.1


@dataclass(frozen=True)
class JacobiPair:
    """Values and t-derivatives of the normalized Jacobi fields at one latitude."""

    y1: float
    y1_prime: float
    y2: float
    y2_prime: float

    def wronskian(self) -> float:
        """y1 y2' - y2 y1'; identically -1 for the normalized pair."""
        return self.y1 * self.y2_prime - self.y2 * self.y1_prime


def c1_coefficient(profile: ZollProfile, c: float) -> float:
    """(1 + h(cos r_c)) / cos r_c; diverges for the equators c = +-1."""
    if abs(c) >= 1.0 - 1e-12:
        raise DomainError("normalized Jacobi fields degenerate at c = +-1")
    rc = turning_latitude(c)
    return (1.0 + profile.h(math.cos(rc))) / math.cos(rc)


def _check_band(c: float, r: float, slack: float = 1e-12):
    rc = turning_latitude(c)
    if not rc - slack <= r <= math.pi - rc + slack:
        raise BandError(f"latitude {r} outside the band [{rc}, {math.pi - rc}]")


def jacobi_y(profile: ZollProfile, c: float, r: float, sign: int = +1
             ) -> tuple[float, float]:
    """(y, y') with y = sign sqrt(sin^2 r - c^2) and y' = cos r / (1+h(cos r))."""
    _check_band(c, r)
    y = math.sqrt(band_radicand(c, r))
    x = math.cos(r)
    return sign * y, x / (1.0 + profile.h(x))


# -- the h'' integral Psi -----------------------------------------------------

def _s_poly_coeffs(profile: ZollProfile, c: float) -> tuple[float, ...]:
    """Coefficients (in w = (sin^2 r - c^2)/cos^2 r_c) of the reduced sum S with

        Psi(r) = y^3 * S(w),
        S(w) = sum_k b_{2k+1} q^k sum_{p=0}^{k} (-1)^p C(k,p) w^p / (2p+3),

    q = cos^2 r_c and b_{2k+1} = hpp_table[k] the coefficients of h''.  Exact
    antiderivative of the Psi integrand for polynomial h.  The coefficients of
    dS/dq at fixed w are the profile's s_dq_table, evaluated at q.
    """
    b = profile.hpp_table
    if not b:
        return ()
    q = math.cos(turning_latitude(c)) ** 2
    coeffs = [0.0] * len(b)
    qk = 1.0
    for k, bk in enumerate(b):
        for p in range(k + 1):
            coeffs[p] += bk * qk * ((-1) ** p) * comb(k, p) / (2 * p + 3)
        qk *= q
    return tuple(coeffs)


def hpp_integral(profile: ZollProfile, c: float, r) -> np.ndarray | float:
    """Psi(r) = int_{r_c}^r sin s sqrt(sin^2 s - c^2) h''(cos s) ds, closed form."""
    coeffs = _s_poly_coeffs(profile, c)
    y2 = band_radicand(c, r)
    if not coeffs:
        return 0.0 * y2 if np.ndim(y2) else 0.0
    q = math.cos(turning_latitude(c)) ** 2
    w = np.clip(y2 / q, 0.0, None)
    s_val = np.polynomial.polynomial.polyval(w, np.asarray(coeffs))
    out = y2 * np.sqrt(y2) * s_val
    return out if np.ndim(out) else float(out)


def hpp_integral_quad(profile: ZollProfile, c: float, r: float) -> float:
    """Psi(r) by quadrature in the phase variable: the integrand is analytic,

        Psi = cos^2 r_c int_0^{u_r} sin^2 u h''(cos r_c cos u) du.
    """
    _check_band(c, r)
    rc = turning_latitude(c)
    cos_rc = math.cos(rc)

    def integrand(u):
        return np.sin(u) ** 2 * profile.h_second(cos_rc * np.cos(u))

    val, _ = gl_adaptive(integrand, 0.0, signed_phase(c, r))
    return cos_rc * cos_rc * val


# -- the curvature integral Phi ----------------------------------------------

def _phi_integrand(profile: ZollProfile, cos_rc: float):
    scale = cos_rc * cos_rc

    def f(u):
        z = cos_rc * np.cos(u)
        return (1.0 + profile.h(z) - z * profile.h_prime(z)) / (scale * np.cos(u) ** 2)

    return f


def _pole_panels(profile: ZollProfile, c: float, r, below: bool):
    """Phase ends u_r, integrand and panel floor of the Phi quadratures at the
    latitudes r (float or 1-D array), after the band and equator checks."""
    r = np.asarray(r, dtype=float)
    for rk in r.ravel().tolist():
        _check_band(c, rk)
        if below and rk >= math.pi / 2:
            raise DomainError("Phi(r) diverges at r = pi/2; use the regularized forms")
        if not below and rk <= math.pi / 2:
            raise DomainError("tail integral requires r > pi/2")
    u_r = signed_phase(c, r)
    min_width = np.maximum(1e-13, POLE_PANEL_FRACTION * np.abs(math.pi / 2 - u_r))
    return u_r, _phi_integrand(profile, math.cos(turning_latitude(c))), min_width


def curvature_integral(profile: ZollProfile, c: float, r):
    """Phi(r) by direct quadrature; requires r < pi/2 (Phi blows up there).

    In the phase variable the integrand [(1+h(z)) - z h'(z)] / (cos r_c cos u)^2
    is analytic on [0, u_r] with a double pole at u = pi/2 just beyond the
    interval, handled by dyadic panel refinement toward u_r down to panels of
    POLE_PANEL_FRACTION times the distance pi/2 - u_r.  ``r`` may be a 1-D
    array of latitudes: their panels go to the integrand in one call and an
    array of the integrals comes back, each with the bits of its own call.
    """
    u_r, f, min_width = _pole_panels(profile, c, r, below=True)
    return gl_refined(f, 0.0, u_r, refine_b=True, min_width=min_width)


def curvature_integral_tail(profile: ZollProfile, c: float, r):
    """int_r^{pi - r_c} of the Phi integrand, for r > pi/2 (pole below the range).

    Panels halve toward u_r down to POLE_PANEL_FRACTION times the distance
    u_r - pi/2 to the pole; ``r`` may be a 1-D array, as in curvature_integral.
    """
    u_r, f, min_width = _pole_panels(profile, c, r, below=False)
    return gl_refined(f, u_r, math.pi, refine_a=True, min_width=min_width)


def curvature_integral_full(profile: ZollProfile, c: float) -> float:
    """Finite part of Phi over the whole band, equal to -Psi_total / cos^2 r_c.

    Psi_total is evaluated by quadrature (not the closed form) so that the
    bridge stays independent of the polynomial antiderivative.
    """
    rc = turning_latitude(c)
    return -hpp_integral_quad(profile, c, math.pi - rc) / math.cos(rc) ** 2


# -- the Jacobi pair -----------------------------------------------------------

def _regular_bracket(profile: ZollProfile, c: float, r: float, rc: float | None = None):
    """(x, y, 1 + h, B, D) at latitude r: x = cos r, y = sqrt(sin^2 r - c^2)
    and the regularized brackets of y2 and y2' (Psi in closed form),

        B = (1 + h(x)) x + y^2 h'(x) + y Psi(r),
        D = (1 + h(x)) y - x y h'(x) - x Psi(r).

    y is taken about the turning latitude ``rc`` (see band_radicand).
    """
    x = math.cos(r)
    y2 = float(band_radicand(c, r, rc))
    y = math.sqrt(y2)
    one_h = 1.0 + profile.h(x)
    hp = profile.h_prime(x)
    psi = float(hpp_integral(profile, c, r))
    return (x, y, one_h, one_h * x + y2 * hp + y * psi,
            one_h * y - x * y * hp - x * psi)


def jacobi_pair(profile: ZollProfile, c: float, r: float, sign: int = +1
                ) -> JacobiPair:
    """Normalized Jacobi data (y1, y1', y2, y2') at latitude r on the given branch.

    Uses the regularized expressions, valid on the whole band including
    r = pi/2, with the h'' integral in closed form.
    """
    _check_band(c, r)
    if sign not in (-1, +1):
        raise DomainError(f"branch sign must be +-1, got {sign}")
    c1 = c1_coefficient(profile, c)
    q = math.cos(turning_latitude(c)) ** 2
    x, y, one_h, b, d = _regular_bracket(profile, c, r)
    return JacobiPair(sign * c1 * y, c1 * x / one_h, b / (c1 * q),
                      -sign * d / (c1 * one_h * q))


def jacobi_pair_direct(profile: ZollProfile, c: float, r: float) -> JacobiPair:
    """The literal 1/y1' route on the ascending branch, for cross-checks only.

    Valid for r < pi/2, where the accumulated integral int_0^t G/(y1')^2 ds
    is finite; evaluated through Phi by panel quadrature.
    """
    _check_band(c, r)
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


def jacobi_ode_check(profile: ZollProfile, c: float, r_grid,
                     step: float = 1e-4) -> float:
    """max |y_i'' + G y_i| over the grid, differentiating twice in t numerically.

    Test oracle: y1, y2 come from jacobi_pair; the second t-derivative uses a
    non-uniform three-point stencil with the time offsets recovered from
    dt/du = 1 + h(cos r_c cos u) by short Gauss-Legendre panels.
    """
    if not 1e-7 <= step <= 1e-2:
        raise DomainError(f"stencil step {step} out of range")
    rc = turning_latitude(c)
    cos_rc = math.cos(rc)

    def dt_du(u):
        return 1.0 + profile.h(cos_rc * np.cos(u))

    worst = 0.0
    rs = np.atleast_1d(np.asarray(r_grid, dtype=float))
    for r, u in zip(rs.tolist(), signed_phase(c, rs).tolist()):
        _check_band(c, r)
        du = step / float(dt_du(np.asarray(u)))
        if not du < u < math.pi - du:
            raise BandError(f"grid point {r} too close to a turning point")
        u_m, u_p = u - du, u + du
        a = gl_fixed(dt_du, u_m, u, 8)   # backward time offset
        b = gl_fixed(dt_du, u, u_p, 8)   # forward time offset
        g_val = float(curvature_x(profile, math.cos(r)))
        pair_0 = jacobi_pair(profile, c, r, +1)
        pair_m = jacobi_pair(profile, c, math.acos(cos_rc * math.cos(u_m)), +1)
        pair_p = jacobi_pair(profile, c, math.acos(cos_rc * math.cos(u_p)), +1)
        for attr in ("y1", "y2"):
            f0 = getattr(pair_0, attr)
            fm = getattr(pair_m, attr)
            fp = getattr(pair_p, attr)
            second = 2.0 * (a * fp + b * fm - (a + b) * f0) / (a * b * (a + b))
            worst = max(worst, abs(second + g_val * f0))
    return worst
