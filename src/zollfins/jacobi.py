"""Normal Jacobi fields along a geodesic, in the latitude r and the phase u.

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

which for polynomial h has the closed form y^3 S(w; q), w = y^2 / q,
q = cos^2 r_c (hpp_integral).  The coefficients of S are polynomials in q
that depend on the profile only: ZollProfile.s_table holds them, and every
reader evaluates its rows at its own q.  These regularized expressions are
valid on the whole band.  In the signed phase u (cos r = cos r_c cos u,
sign u = branch, dt/du = 1 + h) they give the indicatrix coordinate
v2 = -c1 y2 of the moduli module and its rate dv2/du = -c1 (1 + h) y2'.
PhaseKernel evaluates both, once for jacobi_pair, the regularized samples,
the ray solver and the Finsler spray.  jacobi_pair takes a 1-D array of
latitudes, one kernel pass for the array, and a float latitude is a
one-entry call of that path, unwrapped to floats (profile.unwrap).  The
literal 1/y1' route through the Phi quadrature, the independent
cross-check on r < pi/2, lives with the tests (tests/oracles.py).  The
Phi quadratures take arrays of latitudes too: gl_refined integrates them
all on order-16 panels with one call of the integrand, whose numerator
1 + h - x h' is one Horner in x^2.  The finite part of Phi over the whole
band, -Psi(pi - r_c) / cos^2 r_c, is 0 for odd h (the phase integrand
sin^2 u h''(cos r_c cos u) is odd about u = pi/2), so above the equator
it is minus the tail integral.

y2 is even under t -> -t and y1 odd, so y2 at a given latitude does not
depend on the branch while y1, y2' flip sign with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandError, DomainError
from .geodesics import band_radicand, in_band, signed_phase, turning_latitude
from .profile import ZollProfile, curvature_x, elementwise, horner, horner_jet, unwrap
from .quadrature import _leggauss, gl_adaptive, gl_refined

#: |r - pi/2| below which callers should prefer the regularized expressions.
EQUATOR_GUARD = 1e-3

#: Chart boundary guard: |R| must stay below pi/2 by at least this much.
CHART_GUARD = 1e-6

#: The Phi quadratures stop halving their panels at this fraction of the
#: distance from the refined end to the double pole at u = pi/2.  A panel a
#: tenth of the pole distance wide already converges to roundoff with the
#: order-16 panels of gl_refined; against a 30-digit reference, floors of
#: 0.5 .. 1 give 2 to 3.5 times the error.
POLE_PANEL_FRACTION = 0.1

#: Time step of the three-point stencil in jacobi_ode_check.
ODE_CHECK_STEP = 1e-4


@dataclass(frozen=True)
class JacobiPair:
    """Values and t-derivatives of the normalized Jacobi fields at one
    latitude (floats), or at each of an array of latitudes (arrays)."""

    y1: float | np.ndarray
    y1_prime: float | np.ndarray
    y2: float | np.ndarray
    y2_prime: float | np.ndarray

    def wronskian(self) -> float:
        """y1 y2' - y2 y1'; identically -1 for the normalized pair."""
        return self.y1 * self.y2_prime - self.y2 * self.y1_prime


def c1_coefficient(profile: ZollProfile, c: float) -> float:
    """(1 + h(cos r_c)) / cos r_c; diverges for the equators c = +-1."""
    if abs(c) >= 1.0 - 1e-12:
        raise DomainError("normalized Jacobi fields degenerate at c = +-1")
    rc = turning_latitude(c)
    return (1.0 + profile.h(math.cos(rc))) / math.cos(rc)


def _check_chart(R: float):
    # Written so that NaN fails the test.
    if not abs(R) < math.pi / 2 - CHART_GUARD:
        raise DomainError(f"chart coordinate |R| = {abs(R)} too close to pi/2")


def _check_band(rc: float, r, branch=+1):
    """The shape, branch and band checks of samples at the latitudes r, a
    float or a 1-D array, on the branch or branches ``branch``, +-1 or an
    array of r's length, on the band [rc, pi - rc]: DomainError for a bad
    shape, else the first offending sample raises its own error, DomainError
    for its branch or BandError for its latitude (NaN included)."""
    rs, b = np.asarray(r, dtype=float), np.asarray(branch)
    if rs.ndim > 1 or b.shape not in ((), (rs.size,)):
        raise DomainError(f"samples need a float or a 1-D array of latitudes and a branch "
                          f"or one per latitude, got shapes {rs.shape} and {b.shape}")
    rs = rs.ravel()
    b = np.broadcast_to(b, rs.shape)
    bad_branch = (b != 1) & (b != -1)
    bad = np.flatnonzero(bad_branch | ~in_band(rs, rc))
    if bad.size:
        k = bad[0]
        if bad_branch[k]:
            raise DomainError(f"branch must be +-1, got {b[k].item()}")
        raise BandError(f"latitude {rs[k].item()} outside the band [{rc}, {math.pi - rc}]")


# -- the h'' integral Psi -----------------------------------------------------

def hpp_integral(profile: ZollProfile, c: float, r) -> np.ndarray | float:
    """Psi(r) = int_{r_c}^r sin s sqrt(sin^2 s - c^2) h''(cos s) ds in closed
    form, the exact antiderivative for polynomial h:

        Psi(r) = y^3 S(w; q),   w = (sin^2 r - c^2) / q,   q = cos^2 r_c,

    with S read from the rows of profile.s_table at q.
    """
    y2 = band_radicand(c, r)
    if not profile.s_table:
        return 0.0 * y2 if np.ndim(y2) else 0.0
    q = math.cos(turning_latitude(c)) ** 2
    w = np.clip(y2 / q, 0.0, None)
    s_val = np.polynomial.polynomial.polyval(
        w, np.array([horner(row, q) for row in profile.s_table]))
    out = y2 * np.sqrt(y2) * s_val
    return out if np.ndim(out) else float(out)


def hpp_integral_quad(profile: ZollProfile, c: float, r: float) -> float:
    """Psi(r) by quadrature in the phase variable: the integrand is analytic,

        Psi = cos^2 r_c int_0^{u_r} sin^2 u h''(cos r_c cos u) du.
    """
    rc = turning_latitude(c)
    _check_band(rc, r)
    cos_rc = math.cos(rc)

    def integrand(u):
        return np.sin(u) ** 2 * profile.h_second(cos_rc * np.cos(u))

    val, _ = gl_adaptive(integrand, 0.0, signed_phase(c, r))
    return cos_rc * cos_rc * val


# -- the curvature integral Phi ----------------------------------------------

def _phi_integrand(profile: ZollProfile, cos_rc: float):
    """The Phi integrand [(1 + h(z)) - z h'(z)] / (cos r_c cos u)^2 in the
    phase u, z = cos r_c cos u, with 1 + h - z h' = 1 - sum_k 2k a_k z^(2k+1)
    as one Horner in z^2.  |z| <= 1 by construction: no domain check."""
    scale = cos_rc * cos_rc
    table = tuple(2.0 * k * a for k, a in enumerate(profile.odd_coeffs))

    def f(u):
        cu = np.cos(u)
        z = cos_rc * cu
        return (1.0 - z * horner(table, z * z)) / (scale * cu ** 2)

    return f


def _pole_panels(profile: ZollProfile, c: float, r, below: bool):
    """Phase ends u_r, integrand and panel floor of the Phi quadratures at the
    latitudes r (float or 1-D array), after the band and equator checks."""
    r = np.asarray(r, dtype=float)
    rc = turning_latitude(c)
    side = r < math.pi / 2 if below else r > math.pi / 2
    bad = ~(side & in_band(r, rc))
    if bad.any():       # the first offending latitude names its error
        rk = float(r.ravel()[np.argmax(bad.ravel())])
        _check_band(rc, rk)
        raise DomainError("Phi(r) diverges at r = pi/2; use the regularized forms" if below
                          else "tail integral requires r > pi/2")
    u_r = signed_phase(c, r)
    min_width = np.maximum(1e-13, POLE_PANEL_FRACTION * np.abs(math.pi / 2 - u_r))
    return u_r, _phi_integrand(profile, math.cos(rc)), min_width


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
    return gl_refined(f, 0.0, u_r, refine="b", min_width=min_width)


def curvature_integral_tail(profile: ZollProfile, c: float, r):
    """int_r^{pi - r_c} of the Phi integrand, for r > pi/2 (pole below the range).

    Panels halve toward u_r down to POLE_PANEL_FRACTION times the distance
    u_r - pi/2 to the pole; ``r`` may be a 1-D array, as in curvature_integral.
    """
    u_r, f, min_width = _pole_panels(profile, c, r, below=False)
    return gl_refined(f, u_r, math.pi, refine="a", min_width=min_width)


def curvature_integral_full(profile: ZollProfile, c: float) -> float:
    """Finite part of Phi over the whole band, -Psi_total / cos^2 r_c, with
    Psi_total by quadrature: zero up to roundoff for odd h (see the module
    docstring).  No code in the package calls it; bench/tracing.py still
    binds it (ROADMAP item 2).
    """
    rc = turning_latitude(c)
    return -hpp_integral_quad(profile, c, math.pi - rc) / math.cos(rc) ** 2


# -- the phase kernel and the Jacobi pair --------------------------------------

class PhaseKernel:
    """The regularized v2 = -c1 y2 and dv2/du at the chart value R, in the
    signed phase u of the geodesics with turning latitude |R|: with x =
    cos R cos u, q = cos^2 R, s = sin^2 u and Psi = y^3 S(s; q) (hpp_integral),

        v2 = -[(1 + h(x)) x / q + s h'(x) + q s^2 S(s; q)],

    smooth through the glue points u = 0 and +-pi.  The s-coefficients of S
    and of dS/dq (sc, sc_q) are the values and q-derivatives of the rows of
    profile.s_table at this q, so building a kernel is arithmetic only.
    moduli.CurveEval adds the jet, which reads sc_q, and the ray solves.
    R may be an array of chart values (through numpy), one per phase that
    v2_du is then given, as for the rows of a Finsler trace.  The constants
    R, c, cos_R, q, inv_q and the entries of sc and sc_q are per chart
    value; profile, ca and cb belong to the profile.
    """

    __slots__ = ("profile", "R", "c", "cos_R", "q", "inv_q", "ca", "cb", "sc", "sc_q")

    def __init__(self, profile: ZollProfile, R):
        if isinstance(R, np.ndarray):
            _check_chart(float(np.max(np.abs(R), initial=0.0)))
            self.c, self.cos_R = np.sin(R), np.cos(R)
        else:
            _check_chart(R)
            self.c, self.cos_R = math.sin(R), math.cos(R)
        self.profile = profile
        self.R = R
        self.q = q = self.cos_R ** 2
        self.inv_q = 1.0 / q
        self.ca = profile.odd_coeffs
        self.cb = profile.hp_table
        s_jets = [horner_jet(row, q) for row in profile.s_table]
        self.sc = [jet[0] for jet in s_jets]
        self.sc_q = [jet[1] for jet in s_jets]

    def _terms(self, cu, su):
        """v2 and dv2/du at the phase with cosine cu and sine su, with the
        terms that moduli.CurveEval.jet reads again: x = cos R cu, x^2,
        s = su^2, h(x) and the jets (value, first and second derivative) of
        h' in x^2 and of S in s."""
        q, cos_r = self.q, self.cos_R
        x = cos_r * cu
        x2 = x * x
        s = su * su
        h = x * horner(self.ca, x2)
        hp_jet = hp, hp_w, _ = horner_jet(self.cb, x2)
        s_jet = sv, sv_s, _ = horner_jet(self.sc, s)
        v2 = -((1.0 + h) * x * self.inv_q + s * hp + q * s * s * sv)
        # d/du with x_u = -cos R sin u, s_u = 2 sin u cos u, h'' = 2x dh'/dw.
        v2_u = su * (cos_r * ((1.0 + h + x * hp) * self.inv_q + 2.0 * s * x * hp_w)
                     - 2.0 * cu * (hp + q * s * (2.0 * sv + s * sv_s)))
        return v2, v2_u, x, x2, s, h, hp_jet, s_jet

    def v2_du(self, cu, su):
        """(v2, dv2/du) at the phase with cosine cu and sine su.  Arithmetic
        only, so cu and su may be floats or numpy arrays alike."""
        return self._terms(cu, su)[:2]


def jacobi_pair(profile: ZollProfile, c: float, r, sign: int = +1) -> JacobiPair:
    """Normalized Jacobi data (y1, y1', y2, y2') at latitude r on the given branch.

    y2 = -v2/c1 and y2' = -(dv2/du)/(c1 (1 + h)) from one PhaseKernel call
    at cos u = cos r / cos r_c and sin u = sign y / cos r_c; valid on the
    whole band, r = pi/2 included.  ``r`` is a 1-D array of latitudes, and
    one kernel call serves them all, cos r through math so that no entry
    depends on the others; a float r is a one-entry call, and its
    JacobiPair holds floats.  The first offending latitude names the error
    (_check_band).
    """
    rc = turning_latitude(c)
    _check_band(rc, r, sign)
    c1 = c1_coefficient(profile, c)
    cos_rc = math.cos(rc)
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    x = elementwise(math.cos, rs)
    y = np.sqrt(band_radicand(c, rs, rc))
    one_h = 1.0 + profile.h(x)
    v2, v2_u = PhaseKernel(profile, rc).v2_du(x / cos_rc, sign * y / cos_rc)
    return JacobiPair(*(unwrap(f, r) for f in (
        sign * c1 * y, c1 * x / one_h, -v2 / c1, -v2_u / (c1 * one_h))))


def jacobi_ode_check(profile: ZollProfile, c: float, r_grid) -> float:
    """max |y_i'' + G y_i| over the grid, differentiating twice in t numerically.

    Test oracle: y1, y2 come from jacobi_pair; the second t-derivative uses a
    non-uniform three-point stencil with the time offsets recovered from
    dt/du = 1 + h(cos r_c cos u) by short Gauss-Legendre panels, at the time
    step ODE_CHECK_STEP.  One array pass over the grid: one dt/du call gives
    the phase steps, one node array the order-8 rules of gl_fixed over the
    backward and forward phase steps, each with the bits of its gl_fixed
    call, and the stencil's three rows (the grid, the latitudes a step back
    and a step ahead) each go to one array call of jacobi_pair.  The grid's
    band is checked once, before the stencils.  A NaN residual is returned,
    not dropped.
    """
    rc = turning_latitude(c)
    cos_rc = math.cos(rc)

    def dt_du(u):
        return 1.0 + profile.h(cos_rc * np.cos(u))

    r_0 = np.atleast_1d(np.asarray(r_grid, dtype=float))
    _check_band(rc, r_0)
    if not r_0.size:
        return 0.0
    u = signed_phase(c, r_0)
    du = ODE_CHECK_STEP / dt_du(u)
    close = ~((du < u) & (u < math.pi - du))
    if close.any():
        raise BandError(f"grid point {r_0[np.argmax(close)]} too close to a turning point")
    u_m, u_p = u - du, u + du
    r_m, r_p = (elementwise(math.acos, cos_rc * elementwise(math.cos, v)) for v in (u_m, u_p))
    lo, hi = np.concatenate((u_m, u)), np.concatenate((u, u_p))
    x, w = _leggauss(8)
    half = 0.5 * (hi - lo)
    vals = dt_du((0.5 * (lo + hi))[:, None] + half[:, None] * x)
    # np.dot row by row, as gl_fixed: a matrix product may round a row otherwise.
    a, b = np.split(half * np.array([np.dot(w, row) for row in vals]), 2)
    g_val = curvature_x(profile, elementwise(math.cos, r_0), np.float_power)
    pair_0, pair_m, pair_p = (jacobi_pair(profile, c, rr, +1) for rr in (r_0, r_m, r_p))
    residuals = []
    for attr in ("y1", "y2"):
        f0 = getattr(pair_0, attr)
        fm = getattr(pair_m, attr)
        fp = getattr(pair_p, attr)
        second = 2.0 * (a * fp + b * fm - (a + b) * f0) / (a * b * (a + b))
        residuals.append(np.abs(second + g_val * f0))
    return float(np.max(residuals))
