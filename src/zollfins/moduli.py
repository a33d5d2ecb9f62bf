"""The manifold of oriented geodesics and the induced indicatrix curves.

Oriented geodesics (except the two equators) are charted by (R, Theta) with
|R| < pi/2: a geodesic anchored at its turning point maps to

    (R, Theta) = (r(0), theta(0))            if c > 0,
                 (-r(0), theta(0) + pi)       if c < 0,
                 (0, theta(gdot(0)) - pi/2)   if c = 0 (meridians),

so that c = sin R.  The unit tangent circle of the geodesic with c = sin R
embeds into the tangent plane at (R, Theta) as the closed curve

    v1(r) = branch * sqrt(sin^2 r - c^2) / cos R,
    v2(r) = -(1 + h(cos r))/cos r + sqrt(sin^2 r - c^2) * Phi(r),

parametrized by the latitude r in [r_c, pi - r_c] swept on both branches
(branch = sign of dr/dt).  v2 does not depend on the branch (it is even
under time reversal through the turning point), so the curve is symmetric
about the v2 axis; it is generally not centrally symmetric.

The apparent singularity of v2 at r = pi/2 cancels; integrating by parts
gives the everywhere-regular form

    v2 = -[ (1+h(x)) x + (sin^2 r - c^2) h'(x) + y Psi(r) ] / cos^2 R,

with x = cos r, y = sqrt(sin^2 r - c^2) and Psi the smooth h'' integral of
the jacobi module: the indicatrix is (y1/(c1 cos R), -c1 y2), with y1, y2
the normalized Jacobi fields of the geodesic.

The latitude has a square-root branch point at the glue points r_c and
pi - r_c, where the two branches meet on the v2 axis.  The signed phase u,
with cos r = cos R cos u and branch = sign(u), removes it: y = cos R |sin u|,
v1 = sin u and v2 is a polynomial in cos u and sin^2 u (jacobi.PhaseKernel);
u = 0 is the bottom glue point, u = +-pi the top one.  This is the one
production form of v2: the Jacobi pair, the regularized samples,
indicatrix_curve and CurveEval all read PhaseKernel.v2_du.  CurveEval is the
one evaluator per chart value: the phase jet of the Finsler spray and the
ray solves, one safeguarded Newton on the bracket [0, pi] of the half-curve
(CurveEval.newton_ray, or one masked array pass over many rays), warm
from a seed or cold from pi/2.  An evaluator built on an array of chart
values holds one per ray, so that one masked pass serves rays at many chart
values, each with the constants of its own float evaluator.
indicatrix_curvature and indicatrix_regularized take a 1-D array of
latitudes, one kernel pass for the array, and indicatrix_parametric one,
one quadrature on each side of the equator; a float latitude is a
one-entry call of that path, unwrapped to floats (profile.unwrap).
indicatrix_curvature also takes one chart value per latitude, its jet
then that of the evaluator built on the array.  The jet
and the ray solves keep a float path beside their array one, with the same
bits: the spray and the cold solve of a Finsler trace run them on one point
at a time, where an array pass costs many float ones.  A ray within 1e-9 of
the v2 axis is resolved to u = 0 or pi directly.  The curvature identity of
indicatrix_curvature reads the same jet, so it checks the code the spray
uses.  The parametric quadrature of Phi and the implicit polynomial stay as
the independent reference routes.

For polynomial h, expanding Psi in closed form turns the
curve into the implicit algebraic equation

    (v2 + P(v1^2))^2 = (1 - v1^2) / cos^2 R,

where P combines the profile coefficients (see implicit_polynomial): its
w-coefficients are polynomials in q = cos^2 R, held exactly once per
profile (ZollProfile.p_table), so a chart value costs one exact Horner in q
per coefficient.  The signed branch equation is

    v2 + P(v1^2) = -sigma * sqrt(1 - v1^2) / cos R,

sigma = sign(cos r) distinguishing the two hemispheres of the latitude
parameter.  The parametric route (quadrature) and the implicit polynomial
(exact algebra) are kept fully independent so each can certify the other.

Orientation note.  With the conventions above (branch = sign of dr/dt giving
the sign of v1), the embedded tangent circle is the image of the chart-
compatible one under the reflection Theta -> -Theta, which is an isometry of
the induced norm: the frame normal at the turning point points north
(n = -(1/(1+h)) d/dr there, from the frame formulas), so the second
normalized Jacobi field corresponds to -(1/(c1 cos r_c)) d/dR, not +.  Every
quantity computed here (the norm, its tensor, curvature, closure behavior,
the implicit equation) is invariant under that reflection; the one place the
orientation is observable -- following a geodesic of the induced norm
through the family of directions at a fixed surface point (pencil_chart) --
is pinned by verify's finsler_closure check and the tests, with the
longitude reflected about its start.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .errors import BandError, ConvexityViolation, DomainError, NoBracketError
from .geodesics import (GeodesicState, band_radicand, longitude_advance,
                        signed_phase, turning_latitude, turning_latitudes)
from .jacobi import (EQUATOR_GUARD, PhaseKernel, _check_band, _check_chart,
                     _per_latitude, curvature_integral, curvature_integral_tail)
from .profile import ZollProfile, curvature_x, elementwise, horner, horner_jet, unwrap

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModuliPoint:
    """Chart coordinates (R, Theta) of an oriented geodesic, |R| < pi/2."""

    R: float
    Theta: float

    def __post_init__(self):
        if not abs(self.R) < math.pi / 2:
            raise DomainError(f"|R| = {abs(self.R)} reaches the chart poles")


@dataclass(frozen=True)
class IndicatrixSample:
    """One point of the unit circle of the induced norm at chart point (R,
    Theta), or, from an array call of indicatrix_parametric or
    indicatrix_regularized, one per entry of the arrays r, v1 and v2 (and of
    branch, when it is an array)."""

    R: float
    Theta: float
    branch: int
    r: float | np.ndarray
    v1: float | np.ndarray
    v2: float | np.ndarray


def _check_samples(R: float, r, branch):
    """The chart check, then the shape, branch and band checks of the samples
    at the latitudes r on the branch or branches ``branch``, on the band
    about |R| (jacobi._check_band)."""
    _check_chart(R)
    _check_band(abs(R), r, branch)


# -- chart coordinates ---------------------------------------------------------

def coords_of_geodesic(profile: ZollProfile, state: GeodesicState) -> ModuliPoint:
    """Chart coordinates of the oriented geodesic through the given state.

    States not at their turning point are normalized by flowing the longitude
    back to the turning point, by geodesics.longitude_advance in closed form.
    Equators (c = +-1) are the two chart poles and are rejected.
    """
    c, r = state.c, state.r
    _check_off_equators(c)
    rc = turning_latitude(c)
    advance = 0.0 if abs(r - rc) <= 1e-12 else longitude_advance(
        profile, c, signed_phase(c, r, state.sign))
    R, Theta = _chart_point(state.theta, c, rc, state.theta - advance, state.sign)
    return ModuliPoint(float(R), float(Theta))


def pencil_chart(profile: ZollProfile, r_p: float, theta_p: float,
                 phis) -> tuple[np.ndarray, np.ndarray]:
    """Chart points (R, Theta) of the pencil of geodesics through the surface
    point (r_p, theta_p), one per direction angle in ``phis``.

    phi measures the direction against the orthonormal frame (e_r, e_theta):
    the geodesic has Clairaut constant c = sin(phi) sin(r_p) and leaves p on
    the branch sign(cos phi), at the phase u of p with cos R cos u = cos r_p
    and cos R sin u = cos(phi) sin(r_p).  sin u and cos u go to
    longitude_advance from these, exact near the turning points and the
    poles, where sin(u) of a rounded u near +-pi would lose their digits.
    A unit-speed geodesic of F through the chart point of (p, phi0) runs
    through this pencil at unit rate, phi = phi0 + t, with its longitude
    reflected, Theta -> 2 Theta(0) - Theta (see the orientation note); the
    caller applies the reflection.  The chart points are those of
    coords_of_geodesic, for all directions in one array pass: no indicatrix
    and no ODE.  The two find the phase apart on purpose: a GeodesicState
    carries (r, c, sign), so coords_of_geodesic takes u from the band
    radicand and snaps within 1e-12 of a turning point, while the pencil
    has cos(phi) sin(r_p) exactly and needs no snap; they agree to rounding
    (test_pencil_chart_matches_coords_of_geodesic).
    """
    if not 0.0 <= r_p <= math.pi:       # NaN fails too
        raise BandError(f"latitude {r_p} outside [0, pi]")
    if not math.isfinite(theta_p):
        raise DomainError(f"longitude {theta_p} of the surface point is not finite")
    phis = np.asarray(phis, dtype=float)
    infinite = ~np.isfinite(phis)
    if infinite.any():
        raise DomainError(f"direction angle {phis.ravel()[np.argmax(infinite.ravel())]} "
                          "is not finite")
    sin_rp, cos_rp = math.sin(r_p), math.cos(r_p)
    c = np.sin(phis) * sin_rp
    _check_off_equators(c)
    cos_phi = np.cos(phis)
    s_u = cos_phi * sin_rp                     # cos R sin u
    cos_R = np.hypot(s_u, cos_rp)
    theta_turn = theta_p - longitude_advance(profile, c, np.arctan2(s_u, cos_rp),
                                             s_u / cos_R, cos_rp / cos_R)
    return _chart_point(theta_p, c, turning_latitudes(c), theta_turn,
                        np.where(cos_phi >= 0, 1, -1))


def _check_off_equators(c):
    if np.any(np.abs(c) >= 1.0 - 1e-12):
        raise DomainError("the oriented equators are the poles of the chart")


def _chart_point(theta, c, rc, theta_turn, sign):
    """(R, Theta) of the oriented geodesics with Clairaut constants c and
    turning latitudes rc through the points at longitude theta, leaving
    them on the branches ``sign``, whose turning points lie at longitude
    theta_turn: floats or arrays (c, rc, theta_turn and sign)."""
    # Meridians: the anchor is the southbound equator crossing, which sits on
    # the theta half-plane the state is on (sign +1) or the opposite one.
    theta_cross = np.where(sign == 1, theta, theta + math.pi)
    return (np.where(c == 0.0, 0.0, np.where(c > 0, rc, -rc)),
            np.where(c == 0.0, (theta_cross - math.pi / 2) % TWO_PI,
                     np.where(c > 0, theta_turn, theta_turn + math.pi) % TWO_PI))


# -- parametric and regularized samples ----------------------------------------

def indicatrix_parametric(profile: ZollProfile, R: float, r,
                          branch: int = +1, Theta: float = 0.0) -> IndicatrixSample:
    """Indicatrix sample at latitude r from the direct quadrature of the
    curvature integral.

    Below the equator Phi(r) is a plain (panel-refined) quadrature; above it
    the finite part bridged over the pole is -tail(r), since the full-band
    finite part vanishes for odd h (see the jacobi module).  Within
    EQUATOR_GUARD of r = pi/2 the sample takes its v2 from the regularized
    form, where the cancellation between 1/cos r terms would otherwise cost
    precision.  The band is taken about |R|, so the glue points r = |R| and
    pi - |R| lie on the v2 axis exactly.

    ``r`` is a 1-D array of latitudes, and ``branch`` a branch or an array of
    them: the latitudes below the equator go to one array call of
    curvature_integral, those above it to one of curvature_integral_tail,
    and the sample's v1 and v2 are arrays.  A float r is a one-entry call,
    and its sample holds floats.  The first offending latitude names the
    error.
    """
    _check_samples(R, r, branch)
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    c = math.sin(R)
    near = np.abs(rs - math.pi / 2) < EQUATOR_GUARD
    below = ~near & (rs < math.pi / 2)
    above = ~near & (rs > math.pi / 2)
    phi = np.zeros(len(rs))
    if below.any():
        phi[below] = curvature_integral(profile, c, rs[below])
    if above.any():
        phi[above] = -curvature_integral_tail(profile, c, rs[above])
    y = np.sqrt(band_radicand(c, rs, abs(R)))
    x = np.cos(rs)
    v1 = branch * y / math.cos(R)
    v2 = -(1.0 + profile.h(x)) / x + y * phi
    if near.any():      # v2 does not depend on the branch
        v2[near] = indicatrix_regularized(profile, R, rs[near]).v2
    return IndicatrixSample(R, Theta, branch, r, unwrap(v1, r), unwrap(v2, r))


def indicatrix_regularized(profile: ZollProfile, R: float, r,
                           branch: int = +1, Theta: float = 0.0) -> IndicatrixSample:
    """Indicatrix sample at latitude r from the phase kernel, CurveEval.v2_du
    at cos u = cos r / cos R and sin u = v1 = branch y / cos R, with y taken
    on the band about |R|, so that the glue points lie on the v2 axis exactly.

    ``r`` is a 1-D array of latitudes, and ``branch`` a branch or an array of
    them: one kernel call serves them all, cos r through math so that no
    entry depends on the others, and the sample's v1 and v2 are arrays.  A
    float r is a one-entry call, and its sample holds floats.  The first
    offending latitude names the error.
    """
    _check_samples(R, r, branch)
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    cos_R = math.cos(R)
    v1 = branch * np.sqrt(band_radicand(math.sin(R), rs, abs(R))) / cos_R
    v2 = curve_cache(profile, float(R)).v2_du(elementwise(math.cos, rs) / cos_R, v1)[0]
    return IndicatrixSample(R, Theta, branch, r, unwrap(v1, r), unwrap(v2, r))


def indicatrix_curvature(profile: ZollProfile, R, r, branch: int = +1) -> tuple[float, float]:
    """Both sides of the indicatrix curvature identity, computed independently.

    Left: the curvature k = cross(P_r, P_rr) / cross(P, P_r) of the curve in
    the latitude r, read from the phase jet that the Finsler spray uses
    (CurveEval.jet at cos u = cos r / cos R, sign u = branch):
    k = cross(P_u, P_uu) / cross(P, P_u) * (du/dr)^2 with du/dr = sin r / y.
    Right: (dt/dr)^2 G(r).  Strict positivity of either side over the band
    certifies strong convexity; the two sides agreeing certifies the
    curvature identity itself.  Turning points are excluded (dt/dr diverges
    there).  ``r`` is a 1-D array of latitudes: one jet call serves them
    all, and the two sides come back as arrays, trig through math and
    squares and cubes through libm pow, so that no entry depends on the
    others.  A float r is a one-entry call, and both sides are floats.
    ``R`` is one chart value or one per latitude, and ``branch`` one branch
    or one per latitude: the jet is then that of CurveEval built on the
    array, each entry with the bits of its call at its own chart value.
    The first offending entry names the error.
    """
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    if np.ndim(R):
        R = _per_latitude(R, r, branch, "chart values")
        curve = CurveEval(profile, R)       # the chart check of each entry
    else:
        curve = curve_cache(profile, float(R))      # the chart check of R, if new
    rc = abs(R)
    _check_band(rc, r, branch)
    if (np.minimum(rs - rc, math.pi - rc - rs) < 1e-6).any():
        raise DomainError("indicatrix curvature is singular at the turning points")
    x, sr = elementwise(math.cos, rs), elementwise(math.sin, rs)
    # band_radicand(sin R, r): the band of turning_latitude(sin R), through math.
    y = np.sqrt(band_radicand(curve.c, rs, elementwise(lambda a: math.asin(abs(math.sin(a))), R)))
    u = elementwise(math.atan2, branch * y, x)     # signed_phase, through math
    (p1, p2), (t1, t2), (a1, a2), _, _ = curve.jet(u)
    left = (t1 * a2 - t2 * a1) / (p1 * t2 - p2 * t1) * np.float_power(sr / y, 2)
    right = (np.float_power((1.0 + profile.h(x)) * sr / y, 2)
             * curvature_x(profile, x, np.float_power))
    return unwrap(left, r), unwrap(right, r)


# -- the closed curve -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IndicatrixCurve(Sequence):
    """The indicatrix polyline at (R, Theta) as arrays branch, r, v1 and v2: n
    branch +1 entries, then entries n - 2 .. 1 again on branch -1, v1 negated.
    A read-only sequence of IndicatrixSample over the arrays (a slice is a list).
    """

    R: float
    Theta: float
    branch: np.ndarray
    r: np.ndarray
    v1: np.ndarray
    v2: np.ndarray

    def __len__(self) -> int:
        return len(self.r)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        return IndicatrixSample(self.R, self.Theta, int(self.branch[k]),
                                float(self.r[k]), float(self.v1[k]), float(self.v2[k]))


def indicatrix_curve(profile: ZollProfile, R: float, samples: int = 256,
                     Theta: float = 0.0) -> IndicatrixCurve:
    """The full indicatrix as a closed polyline traversed once.

    Branch +1 sweeps the phase u uniformly from 0 to pi (r from r_c to
    pi - r_c, with points spaced evenly around the turning regions), branch
    -1 returns along the mirrored arc.  Both glue samples lie on the v2 axis
    exactly (v1 = sin u = 0).  The polyline is checked to wind once
    around the origin with strictly monotone polar angle -- for a curve
    symmetric about the v2 axis and containing the origin this is exactly
    simplicity plus star-shapedness, and it fails when convexity is lost.
    Returns an IndicatrixCurve of 2 * samples - 2 points.
    """
    _check_chart(R)
    if samples < 16:
        raise DomainError(f"need at least 16 samples, got {samples}")
    u = np.linspace(0.0, math.pi, samples)
    cu, v1p = np.cos(u), np.sin(u)
    v1p[-1] = 0.0                       # sin(float(pi)) is 1.2e-16, not 0
    v2p = CurveEval(profile, R).v2_du(cu, v1p)[0]
    rp = np.arccos(np.clip(math.cos(R) * cu, -1.0, 1.0))
    rp[0], rp[-1] = abs(R), math.pi - abs(R)
    mirror = slice(samples - 2, 0, -1)
    v1, v2 = np.concatenate([v1p, -v1p[mirror]]), np.concatenate([v2p, v2p[mirror]])
    out = IndicatrixCurve(R, Theta, np.repeat([1, -1], [samples, samples - 2]),
                          np.concatenate([rp, rp[mirror]]), v1, v2)

    angles = np.unwrap(np.arctan2(v2, v1))
    steps = np.diff(angles)
    total = angles[-1] - angles[0]
    closing = (math.atan2(v2[0], v1[0]) - angles[-1]) % TWO_PI
    winding = (total + closing) / TWO_PI
    if np.any(steps <= 0) or abs(winding - 1.0) > 1e-6:
        bad = [out[int(i)] for i in np.nonzero(steps <= 0)[0][:8]]
        raise ConvexityViolation(
            f"indicatrix at R={R} is not a simple star-shaped loop "
            f"(winding {winding:.6f}); convexity violated", report=bad)

    # Polyline convexity: every turn of the counterclockwise traversal must
    # bend left.  sin(turn angle) < -1e-9 flags a concave arc.
    pts = np.column_stack([v1, v2])
    edges = np.diff(np.vstack([pts, pts[:2]]), axis=0)
    e0, e1 = edges[:-1], edges[1:]
    turn = (e0[:, 0] * e1[:, 1] - e0[:, 1] * e1[:, 0]) \
        / (np.hypot(e0[:, 0], e0[:, 1]) * np.hypot(e1[:, 0], e1[:, 1]))
    if np.min(turn) < -1e-9:
        bad_idx = np.nonzero(turn < -1e-9)[0]
        bad = [out[int(i % len(out))] for i in bad_idx[:8]]
        raise ConvexityViolation(
            f"indicatrix at R={R} has concave arcs "
            f"(worst turn sine {np.min(turn):.3e})", report=bad)
    return out


# -- implicit polynomial ---------------------------------------------------------

@dataclass(frozen=True)
class ImplicitIndicatrix:
    """Exact polynomial data of the indicatrix equation at chart value R.

    ``combined`` holds the w-coefficients (w = v1^2) of P(w) = A(w) +
    cos^2 R * w^2 * S(w), with
        A(w) = sum_k a_{2k+1} cos^{2k}R (1 + 2k w)(1 - w)^k,
        S(w) = sum_k b_{2k+1} cos^{2k}R sum_p (-1)^p C(k,p) w^p / (2p+3),
    assembled in exact rational arithmetic over the (float-exact) inputs.
    The equation reads (v2 + P(v1^2))^2 = (1 - v1^2)/cos^2 R; on each
    hemisphere branch v2 + P(v1^2) = -sign(cos r) sqrt(1 - v1^2)/cos R.

    The A and w^2 * S pieces formally reach degree n+1 in w, but their
    top coefficients cancel identically; ``combined`` keeps the general form,
    the cancellation is verified exactly, and ``degree`` reports the reduced
    degree (-1 for P = 0).

    ``residual`` takes floats or arrays.  It raises DomainError for a
    non-finite argument and for a value that overflows, naming the first
    such argument, instead of returning NaN or inf.
    """

    R: float
    cos_R: float
    q: float
    combined: tuple[float, ...]
    combined_exact: tuple[Fraction, ...]
    degree: int
    raw_top_exact: Fraction

    def residual(self, v1, v2):
        """(v2 + P(v1^2))^2 - (1 - v1^2)/cos^2 R; ~0 iff on the indicatrix."""
        args = v1, v2 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (v1, v2)))
        _raise_at(~(np.isfinite(v1) & np.isfinite(v2)),
                  "implicit residual needs a finite argument", args)
        with np.errstate(over="ignore", invalid="ignore"):
            w = v1 * v1
            out = (v2 + horner(self.combined, w)) ** 2 - (1.0 - w) / self.q
        _raise_at(~np.isfinite(out), "implicit residual overflows", args)
        return out if out.ndim else float(out)


@lru_cache(maxsize=1024)
def implicit_polynomial(profile: ZollProfile, R: float) -> ImplicitIndicatrix:
    """Exact coefficient data of the implicit indicatrix equation at R.

    Each w-coefficient of P is one exact Horner in q = cos^2 R, a float and
    so an exact rational, on its row of the profile's exact table
    (ZollProfile.p_table), so the degree collapse of the combined polynomial
    is an exact cancellation, not a numerical one.
    """
    _check_chart(R)
    q = Fraction(math.cos(R) ** 2)
    combined = [reduce(lambda acc, coeff: acc * q + coeff, reversed(row), Fraction(0))
                for row in profile.p_table]
    raw_top = combined[-1]
    while combined and combined[-1] == 0:
        combined.pop()
    return ImplicitIndicatrix(
        R=R,
        cos_R=math.cos(R),
        q=float(q),
        combined=tuple(float(x) for x in combined),
        combined_exact=tuple(combined),
        degree=len(combined) - 1,
        raw_top_exact=raw_top,
    )


def implicit_residual(profile: ZollProfile, R: float, v1, v2):
    """Value of the squared implicit identity at (v1, v2); ~0 on the curve.
    v1 and v2 may be arrays.  DomainError for a non-finite vector and for a
    residual that overflows, naming the first such vector."""
    return implicit_polynomial(profile, float(R)).residual(v1, v2)


def _raise_at(bad, what: str, args: Sequence[np.ndarray]):
    """DomainError naming the entries of ``args`` at the first index where
    ``bad`` holds."""
    if np.any(bad):
        k = int(np.argmax(np.ravel(bad)))
        raise DomainError(f"{what}: ({', '.join(str(a.ravel()[k]) for a in args)})")


# -- fast closed-form curve evaluation (shared with the finsler module) ---------

class CurveEval(PhaseKernel):
    """The indicatrix at one chart value in the signed phase u in [-pi, pi]:
    cos r = cos R cos u, branch = sign(u), v1 = sin u and v2 from the phase
    kernel v2_du (jacobi.PhaseKernel), plus its jet and the ray solves.
    Ray solves return the phase root; warm and cold ones both run
    newton_ray, which keeps no state.  Rays within 1e-9 of vertical resolve
    to u = 0 or pi directly: the curve is symmetric about the v2 axis, so
    the glue points are exact extrema of the ray angle, and the root of a
    nearly vertical ray at the top can lie beyond float(pi).

    A ray given as floats runs newton_ray on plain floats; equal-length
    arrays of rays run one masked Newton (_newton_rays), which gives each
    ray the bits of its float solve.  The array pass costs as much as 20 to
    40 float solves and grows slowly with the rays, so it pays for blocks
    of directions (verify's grids, the stencils of fundamental_tensor) and
    not for the one cold solve of a Finsler trace.  An evaluator built on
    an array of chart values (a block) holds one per ray, and its rays go to
    the same masked Newton, each with the constants of its own chart value's
    float evaluator (PhaseKernel).
    """

    __slots__ = ()

    def jet(self, u):
        """(P, P_u, P_uu, P_R, P_uR) of the curve in the signed phase u.

        v1 = sin u does not depend on R, and the jet is regular at the glue
        points u = 0 and u = +-pi.  P and P_u come from the terms of
        ``v2_du``, which the other entries reuse: they differentiate the
        same expression, R-derivatives at fixed u.  Each entry is a (v1, v2)
        pair.  ``u`` may be a 1-D array of phases: cos u and sin u go
        through math, so each entry has the bits of its float call.
        """
        cos_r, sin_r, q = self.cos_R, self.c, self.q
        if isinstance(u, np.ndarray):
            cu, su = elementwise(math.cos, u), elementwise(math.sin, u)
        else:
            cu, su = math.cos(u), math.sin(u)
        v2, v2_u, x, x2, s, h, (hp, hp_w, hp_ww), (sv, sv_s, sv_ss) = self._terms(cu, su)
        x_u, x_uu = -cos_r * su, -x
        x_r, x_ur = -sin_r * cu, sin_r * su
        q_r = -2.0 * sin_r * cos_r
        s_u, s_uu = 2.0 * su * cu, 2.0 * (cu * cu - s)

        # h' is a polynomial in w = x^2: h'' = 2x dh'/dw, h''' = 2 dh'/dw + 4w d2h'/dw2.
        hpp = 2.0 * x * hp_w
        hppp = 2.0 * hp_w + 4.0 * x2 * hp_ww
        a = (1.0 + h) * x
        a_x = 1.0 + h + x * hp
        a_xx = 2.0 * hp + x * hpp
        sq, sq_s, _ = horner_jet(self.sc_q, s)           # dS/dq at fixed s
        t = s * s * sv                                   # T = s^2 S
        t_s = 2.0 * s * sv + s * s * sv_s
        t_ss = 2.0 * sv + 4.0 * s * sv_s + s * s * sv_ss
        t_q = s * s * sq
        t_sq = 2.0 * s * sq + s * s * sq_s

        v2_uu = -((a_xx * x_u * x_u + a_x * x_uu) / q + s_uu * hp
                  + 2.0 * s_u * hpp * x_u + s * (hppp * x_u * x_u + hpp * x_uu)
                  + q * (t_ss * s_u * s_u + t_s * s_uu))
        v2_r = -(a_x * x_r / q - a * q_r / (q * q) + s * hpp * x_r
                 + q_r * (t + q * t_q))
        v2_ur = -((a_xx * x_r * x_u + a_x * x_ur) / q - a_x * x_u * q_r / (q * q)
                  + s_u * hpp * x_r + s * (hppp * x_r * x_u + hpp * x_ur)
                  + q_r * s_u * (t_s + q * t_sq))
        return (su, v2), (cu, v2_u), (-su, v2_uu), (0.0, v2_r), (0.0, v2_ur)

    def take(self, k):
        """The evaluator of the rays k (an index, an index array or a mask)
        of a block, built on an array with one chart value per ray; an
        evaluator at one chart value serves any rays as it is."""
        if not isinstance(self.q, np.ndarray):
            return self
        out = object.__new__(type(self))
        out.profile, out.ca, out.cb = self.profile, self.ca, self.cb
        out.R, out.c, out.cos_R, out.q, out.inv_q = (
            a[k] for a in (self.R, self.c, self.cos_R, self.q, self.inv_q))
        out.sc = [a[k] for a in self.sc]
        out.sc_q = [a[k] for a in self.sc_q]
        return out

    def endpoint_values(self) -> tuple[float, float]:
        """v2 at the glue points u = 0 (bottom, < 0) and u = pi (top, > 0)."""
        return self.v2_du(1.0, 0.0)[0], self.v2_du(-1.0, 0.0)[0]

    def _cross(self, v1, v2, u):
        """cross(v, P(u)) = v1 v2(u) - v2 sin u and its u-derivative, on
        floats or on equal-length arrays."""
        if isinstance(u, np.ndarray):
            su, cu = np.sin(u), np.cos(u)
        else:
            su, cu = math.sin(u), math.cos(u)
        p2, t2 = self.v2_du(cu, su)
        return v1 * p2 - v2 * su, v1 * t2 - v2 * cu

    def newton_ray(self, v1: float, v2: float, u0: float) -> tuple[float, float]:
        """Safeguarded Newton on g(u) = cross(v, P(u)) = 0 over [0, pi], the
        half-curve of v1 > 0, from u0; returns (scale, u_star).

        |h| < 1 gives g(0) = v1 v2(0) < 0 < v1 v2(pi) = g(pi), so the bracket
        [lo, hi] = [0, pi] always holds a root.  A step that rounds to no
        change ends the solve (u may be an end of the bracket, where a
        bisection would leave the root); one that leaves (lo, hi) bisects.
        NoBracketError: the root is not on the ray's side.
        """
        lo, hi = 0.0, math.pi
        u = min(max(u0, lo), hi)
        for _ in range(80):
            g, slope = self._cross(v1, v2, u)
            if g < 0.0:
                lo = u
            elif g > 0.0:
                hi = u
            else:
                break
            if slope != 0.0:
                u_new = u - g / slope
                if u_new == u:
                    # Both floats about a midpoint root are fixed: keep the lower.
                    if g > 0.0:
                        below = math.nextafter(u, 0.0)
                        g_below, slope_below = self._cross(v1, v2, below)
                        if below - g_below / slope_below == below:
                            u = below
                    break
                if lo < u_new < hi:
                    u = u_new
                    continue
            u = 0.5 * (lo + hi)
            if hi - lo < 4e-16 * (1.0 + u):
                break
        p1 = math.sin(u)
        p2 = self.v2_du(math.cos(u), p1)[0]
        dot = v1 * p1 + v2 * p2
        if not dot > 0.0:
            raise NoBracketError(
                f"ray through (+-{v1}, {v2}) misses the indicatrix at R={self.R}")
        return dot / (p1 * p1 + p2 * p2), u

    def _newton_rays(self, v1: np.ndarray, v2: np.ndarray, u0: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """newton_ray on equal-length arrays of rays (v1 > 0) from the phases
        u0, as one masked Newton over the rays not yet stopped.  Each ray
        takes the steps of its own newton_ray (the 80-step cap, the bracket
        updates, the bisections, both stops and the float-below rule), so it
        ends on the same bits; on a block, each with its own chart value's
        constants.  NoBracketError names the first ray missed.
        """
        lo, hi = np.zeros(len(u0)), np.full(len(u0), math.pi)
        u = np.minimum(np.maximum(u0, 0.0), math.pi)
        live = np.arange(len(u))
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(80):
                if not live.size:
                    break
                ul = u[live]
                g, slope = self.take(live)._cross(v1[live], v2[live], ul)
                neg, pos = g < 0.0, g > 0.0
                lo[live[neg]] = ul[neg]
                hi[live[pos]] = ul[pos]
                lol, hil = lo[live], hi[live]
                step = ul - g / slope       # not finite where slope == 0: bisects
                moving = (neg | pos) & (step != ul)
                newton = moving & (lol < step) & (step < hil)
                bisect = moving & ~newton
                mid = 0.5 * (lol + hil)
                u[live[newton]] = step[newton]
                u[live[bisect]] = mid[bisect]
                fixed_above = pos & (step == ul)
                if fixed_above.any():
                    k = live[fixed_above]
                    below = np.nextafter(u[k], 0.0)
                    g_below, slope_below = self.take(k)._cross(v1[k], v2[k], below)
                    lower = below - g_below / slope_below == below
                    u[k[lower]] = below[lower]
                live = live[newton | (bisect & ~(hil - lol < 4e-16 * (1.0 + mid)))]
        p1 = np.sin(u)
        p2 = self.v2_du(np.cos(u), p1)[0]
        dot = v1 * p1 + v2 * p2
        missed = ~(dot > 0.0)
        if missed.any():
            k = int(np.argmax(missed))
            raise NoBracketError(f"ray through (+-{v1[k]}, {v2[k]}) misses the "
                                 f"indicatrix at R={self.take(k).R}")
        return dot / (p1 * p1 + p2 * p2), u

    def solve_ray(self, v1, v2, seed_u=None):
        """Crossing of the ray through (v1, v2) with the curve.

        Returns (scale, u_star) with (v1, v2) = scale * P(u_star).  The solve
        runs newton_ray on the ray mirrored onto v1 > 0, i.e. on u in
        [0, pi], where the mirror image of P(u) is P(-u): from the warm start
        seed_u, mirrored with the ray, so that a root that just crossed the
        v2 axis still seeds the next solve well, or cold (_bracket_solve).

        v1 and v2 may be equal-length 1-D arrays, and seed_u then a float or
        an array: all rays go to one masked Newton (_newton_rays) and each
        gets the bits of its own float solve.  The input's shape picks the
        path: the float solves are faster below ~35 rays.  A block takes
        arrays only, one ray per chart value.
        """
        if np.ndim(v1):
            return self._solve_rays(v1, v2, seed_u)
        norm = math.hypot(v1, v2)
        if not 0.0 < norm < math.inf:    # NaN fails as well
            raise DomainError(f"no ray through ({v1}, {v2}): need a finite nonzero vector")
        if abs(v1) <= 1e-9 * norm:
            bottom, top = self.endpoint_values()
            if v2 < 0:
                return v2 / bottom, 0.0
            return v2 / top, math.pi
        sign = 1.0 if v1 > 0 else -1.0
        if seed_u is None:
            scale, u_star = self._bracket_solve(sign * v1, v2)
        else:
            scale, u_star = self.newton_ray(sign * v1, v2, abs(seed_u))
        return scale, sign * u_star

    def _solve_rays(self, v1, v2, seed_u) -> tuple[np.ndarray, np.ndarray]:
        """solve_ray on equal-length 1-D arrays, with the float path's
        vertical rays, mirror and typed errors (the first bad ray named)."""
        v1, v2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
        if v1.ndim != 1 or v1.shape != v2.shape or np.shape(self.R) not in ((), v1.shape):
            raise DomainError(f"rays need equal-length 1-D arrays, got {v1.shape} and "
                              f"{v2.shape} at {np.shape(self.R)} chart values")
        # math.hypot as on the float path: np.hypot rounds differently.
        norm = np.fromiter(map(math.hypot, v1.tolist(), v2.tolist()), float, len(v1))
        bad = ~((0.0 < norm) & (norm < math.inf))
        if bad.any():
            k = int(np.argmax(bad))
            raise DomainError(f"no ray through ({v1[k]}, {v2[k]}): need a finite nonzero vector")
        scale, u_star = np.empty(len(v1)), np.empty(len(v1))
        vertical = np.abs(v1) <= 1e-9 * norm
        if vertical.any():
            bottom, top = self.take(vertical).endpoint_values()
            w2 = v2[vertical]
            scale[vertical] = np.where(w2 < 0, w2 / bottom, w2 / top)
            u_star[vertical] = np.where(w2 < 0, 0.0, math.pi)
        ray = ~vertical
        if ray.any():
            curve = self.take(ray)
            sign = np.where(v1[ray] > 0, 1.0, -1.0)
            if seed_u is None:
                scale[ray], u_ray = curve._bracket_solve(sign * v1[ray], v2[ray])
            else:
                seeds = np.broadcast_to(np.abs(seed_u), v1.shape)[ray]
                scale[ray], u_ray = curve._newton_rays(sign * v1[ray], v2[ray], seeds)
            u_star[ray] = sign * u_ray
        return scale, u_star

    def _bracket_solve(self, v1, v2):
        """Cold solve on the half-curve (v1 > 0), Newton from u = pi/2: the
        one entry of every cold ray, float or array."""
        if isinstance(v1, np.ndarray):
            return self._newton_rays(v1, v2, np.full(len(v1), 0.5 * math.pi))
        return self.newton_ray(v1, v2, 0.5 * math.pi)


@lru_cache(maxsize=512)
def curve_cache(profile: ZollProfile, R: float) -> CurveEval:
    """The evaluator at (profile, R), shared so that the norm evaluations at
    one chart value build its phase kernel once."""
    return CurveEval(profile, R)


# bench/tracing.py binds these two names until the benchmark is next
# refreshed (ROADMAP item 2).
IndicatrixCurveCache, curve_eval = CurveEval, curve_cache
