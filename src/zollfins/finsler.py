"""The induced norm F on the manifold of geodesics and its invariants.

F(R, Theta; v) is the Minkowski gauge of the indicatrix curve at (R, Theta):
the unique t > 0 with v/t on the curve.  It is evaluated by intersecting the
ray through v with the curve in its signed phase u, by the one evaluator
per chart value (moduli.curve_cache, a CurveEval): one safeguarded Newton
on the bracket [0, pi] of the half-curve the ray meets, whose ends lie on
either side of the ray because |h| < 1, started from a warm seed or cold
from pi/2; star-shapedness about the origin guarantees uniqueness
whenever the curve is convex.  The algebraic route --
the polynomial equation in F obtained from the implicit indicatrix equation
by substituting v -> v/F -- is kept as an independent oracle, never as the
primary evaluator, because the squared implicit form admits spurious sheets.

Geodesics of F are in closed form (finsler_geodesic).  A surface point p
is a curve in the space of geodesics, the pencil of the geodesics through
it (moduli.pencil_chart), and the geodesics of F are these curves: a
unit-speed geodesic of F runs through the pencil of p at unit rate in the
direction angle at p, with its longitude reflected.  The velocity of each
row is the indicatrix point v = P(R, u) at the phase u of p on the row's
geodesic (jacobi.PhaseKernel), so F(v) = 1 by construction; the only ray
solve is the one at the start, for the phase of the initial velocity.

The independent route is the geodesic spray of F on the indicatrix
bundle, the unit tangent bundle of F (the 3-manifold of Bryant's
structure equations, "Finsler structures on the 2-sphere satisfying
K = 1", 1996), with state (R, Theta, u) (_spray):

    Rdot = sin u,   Thetadot = v2(R, u),   udot = mu(a - P_R sin u),

a the acceleration of the geodesic spray of F^2/2 at v, mu the covector
with mu(P) = 0 and mu(P_u) = 1.  dF, the fundamental tensor g and their
R-derivatives come in closed form (_fiber_terms) from one phase jet P,
P_u, P_uu, P_R, P_uR (CurveEval.jet), on one state (_spray_rhs, the
right-hand side an ODE solver integrates) or on an array of states in
one pass: verify check 15 plugs every row of a closed-form trace into
these equations, and the tests integrate them (tests/oracles.py).  The
public
fundamental_tensor stays a central finite difference of F^2 with
Richardson extrapolation: it is the independent oracle the closed form is
tested against.  It solves its centre ray once, cold, and starts the
solves of its 16 off-centre rays from that phase root; nothing of the
closed form enters.

finsler_F and fundamental_tensor also take a block of n vectors, a 2 x n
array or a pair of arrays, as verify's direction grids do, at one chart
value or at an array of n chart values, one per column.  The block's rays
go to array calls of CurveEval.solve_ray, one masked Newton over all of
them, each ray with the constants of its own chart value's evaluator
(moduli.curve_block), and each column keeps the bits of its single-vector
call at its chart value.  fundamental_tensor treats a single vector as a
one-column block, unwrapped to floats (profile.unwrap).  finsler_F keeps
its float path for a single vector, with the same bits: one array pass
costs as much as 20 to 40 float solves, and unit_direction (the start of
a Finsler trace) and verify check 11 make single-vector calls.

The two scalar invariants at a surface point (r) and fiber angle (phi)
reduce, because the Gauss curvature depends on the latitude only, to

    I = G'(r) cos(phi) / (2 (1+h(cos r)) G^{3/2}),
    J = G'(r) sin(phi) / (2 (1+h(cos r)) G^{3/2}),

where phi measures the unit direction against the orthonormal frame
(e_r, e_theta).  Transporting I, J around the fiber satisfies dI/dphi =
sigma J and dJ/dphi = -sigma I with the rotation orientation sigma = -1 in
this angle convention (calibrated numerically, see SIGMA_ROTATION).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BandError, ChartExitError, DomainError, PoleProximityError, StepFailureError
from .geodesics import sample_times
from .jacobi import PhaseKernel
from .moduli import CurveEval, curve_block, curve_cache, implicit_polynomial, pencil_chart
from .profile import ZollProfile, curvature_x, curvature_x_prime, unwrap

#: Orientation of the fiber rotation relative to the geodesic flow of F, in
#: the (e_r, e_theta) angle convention used by invariants_IJ.  Fixed once by
#: a calibration run on the worked deformation examples (the test-suite
#: re-derives it); do not change without re-calibrating.
SIGMA_ROTATION = -1.0

#: Fiber-angle step of the central differences in invariant_flow_check.
FLOW_CHECK_DPHI = 1e-5

#: Chart half-width at which Finsler traces abort.
CHART_ABORT = math.pi / 2 - 1e-3


@dataclass(frozen=True)
class FinslerEval:
    """F and (optionally) the fundamental tensor at one tangent vector, or
    at each of a block of n vectors (then every field but Theta is an array
    of n, R too when the columns have chart values of their own)."""

    R: float | np.ndarray
    Theta: float
    v1: float | np.ndarray
    v2: float | np.ndarray
    F: float | np.ndarray
    g11: float | np.ndarray | None = None
    g12: float | np.ndarray | None = None
    g22: float | np.ndarray | None = None

    def tensor(self) -> np.ndarray:
        """g as a 2 x 2 matrix, or an (n, 2, 2) stack for a block."""
        if self.g11 is None:
            raise DomainError("fundamental tensor was not computed")
        g = np.array([[self.g11, self.g12], [self.g12, self.g22]])
        return g if g.ndim == 2 else np.moveaxis(g, -1, 0)


@dataclass(frozen=True)
class InvariantPair:
    """The two local invariants at a point of the unit tangent bundle."""

    I: float
    J: float
    g_theta1: float = 0.0
    g_theta2: float = 0.0


def _curve(profile: ZollProfile, R, columns: int | None):
    """The evaluator of a norm call: the one at a float R, or a block with
    one chart value per column of a block of vectors (moduli.curve_block)."""
    if not np.ndim(R):
        return curve_cache(profile, R)
    if np.shape(R) != (columns,):
        raise DomainError(f"chart values of shape {np.shape(R)} need a block of as many vectors")
    return curve_block(profile, R)


def finsler_F(profile: ZollProfile, R, Theta: float, v) -> FinslerEval:
    """The induced norm of the tangent vector v at chart point (R, Theta).

    v may also be a block of n vectors, a 2 x n array or a pair of arrays,
    and R then a float or an array of n chart values, one per column: the
    rays go to one array call of solve_ray, and F is the array of their
    norms, each with the bits of its own single-vector call.
    """
    v1, v2 = v[0], v[1]
    if np.ndim(v1):
        v1, v2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
    else:
        v1, v2 = float(v1), float(v2)
    F, _ = _curve(profile, R, np.size(v1) if np.ndim(v1) else None).solve_ray(v1, v2)
    return FinslerEval(R, Theta, v1, v2, F)


#: The off-centre points (a, b) of the 9-point Hessian stencil of F^2, in
#: units of the step: two for d11, two for d22, then the four for d12.
_STENCIL = np.array([(1, 0), (-1, 0), (0, 1), (0, -1),
                     (1, 1), (1, -1), (-1, 1), (-1, -1)]).T


#: The largest |v| whose |v|^2 stays in the float range.  F^2 grows like
#: |v|^2, so fundamental_tensor refuses longer vectors before any ray solve,
#: whose products with them would overflow first.
_V_MAX = math.sqrt(sys.float_info.max)


def _difference_steps(v: np.ndarray, step: float) -> np.ndarray:
    """The steps step * |v| of the columns of the 2 x n block v, after the
    checks; DomainError names the first column that fails one."""
    with np.errstate(over="ignore"):                # |v| = inf is refused below
        vn = np.hypot(v[0], v[1])
    h = step * vn
    zero = vn == 0.0
    huge = vn >= _V_MAX
    bad = zero | huge | ~((1e-12 < h) & (h < 0.2 * vn))    # NaN fails too
    if bad.any():
        k = int(np.argmax(bad))
        if zero[k]:
            raise DomainError("fundamental tensor undefined at v = 0")
        if huge[k]:
            raise DomainError(f"fundamental tensor overflows at v = ({v[0, k]}, {v[1, k]})")
        raise DomainError(f"degenerate finite-difference step {h[k]}")
    return h


def fundamental_tensor(profile: ZollProfile, R, Theta: float, v,
                       step: float = 1e-5) -> FinslerEval:
    """g_ij = (1/2) d^2(F^2)/dv_i dv_j by central differences at step*|v|.

    The 9-point Hessian of F^2 is symmetric by construction.  Richardson
    extrapolation at twice the step removes the leading quadratic truncation
    term.  The centre ray is solved once, cold (Newton from pi/2); its F
    gives the centre value and the returned F, and its phase root seeds the
    16 off-centre solves.  The seed never comes from another call, so the
    result depends on the arguments only.

    v may also be a block of n vectors, a 2 x n array or a pair of arrays,
    and R then a float or an array of n chart values, one per column; the
    FinslerEval then holds arrays.  It makes two array calls of solve_ray:
    the n centre rays cold, then the 16 n off-centre rays, for both steps,
    each seeded by its own column's centre root and solved at its column's
    chart value, so that no column depends on the others.  A single vector
    is a one-column block, and its FinslerEval holds floats.  DomainError
    names the first column whose tensor overflows (F^2 beyond the float
    range).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or len(v) != 2:
        raise DomainError(f"need one vector or a 2 x n block, got shape {v.shape}")
    columns = v.reshape(2, -1)
    h = _difference_steps(columns, step)
    cache = _curve(profile, R, columns.shape[1] if v.ndim == 2 else None)
    F, u0 = cache.solve_ray(columns[0], columns[1])
    hh = np.stack((h, 2 * h))                                   # (step, column)
    a, b = _STENCIL[:, None, :, None] * hh[:, None, :]          # (step, point, column)
    column = np.broadcast_to(np.arange(len(u0)), a.shape).ravel()
    Fs, _ = cache.take(column).solve_ray((columns[0] + a).ravel(),
                                         (columns[1] + b).ravel(), u0[column])
    # F ** 2 of a float is libm pow, which np.float_power calls too; F * F
    # differs from it in the last bit on ~1 in 1000 values.
    with np.errstate(over="ignore", invalid="ignore"):     # raised below
        p = np.float_power(Fs.reshape(a.shape), 2)
        f0 = F * F
        d11 = (p[:, 0] - 2 * f0 + p[:, 1]) / (hh * hh)
        d22 = (p[:, 2] - 2 * f0 + p[:, 3]) / (hh * hh)
        d12 = (p[:, 4] - p[:, 5] - p[:, 6] + p[:, 7]) / (4 * hh * hh)
        g11, g12, g22 = (0.5 * ((4.0 * d[0] - d[1]) / 3.0) for d in (d11, d12, d22))
    overflow = ~(np.isfinite(g11) & np.isfinite(g12) & np.isfinite(g22))
    if overflow.any():
        k = int(np.argmax(overflow))
        raise DomainError(f"fundamental tensor overflows at v = "
                          f"({columns[0, k]}, {columns[1, k]})")
    return FinslerEval(R, Theta, *(unwrap(x, v[0]) for x in (columns[0], columns[1], F,
                                                               g11, g12, g22)))


# -- invariants ------------------------------------------------------------------

def invariants_IJ(profile: ZollProfile, r: float, phi: float) -> InvariantPair:
    """The invariant pair at latitude r and fiber angle phi.

    phi parametrizes the unit circle against the orthonormal frame
    (e_r, e_theta): the direction has Clairaut constant c = sin(phi) sin(r)
    and radial sign sign(cos phi).
    """
    if not (math.isfinite(r) and math.isfinite(phi)):
        raise DomainError(f"invariants need a finite point: r = {r}, phi = {phi}")
    if not 0.0 <= r <= math.pi:
        raise BandError(f"latitude {r} outside [0, pi]")
    sr = math.sin(r)
    if sr <= 1e-9:
        raise PoleProximityError(f"invariants undefined at the poles: r={r}")
    x = math.cos(r)
    g_val = float(curvature_x(profile, x))
    if g_val <= 0.0:
        raise DomainError(f"invariants need positive curvature; G({r}) = {g_val}")
    g_r = -sr * float(curvature_x_prime(profile, x))
    one_h = 1.0 + profile.h(x)
    # Frame components of the velocity and its normal.
    gdot_r = math.cos(phi) / one_h
    n_r = -math.sin(phi) / one_h
    g_theta2 = g_r * gdot_r
    g_theta1 = g_r * n_r
    scale = 0.5 / g_val ** 1.5
    return InvariantPair(I=scale * g_theta2, J=-scale * g_theta1,
                         g_theta1=g_theta1, g_theta2=g_theta2)


def invariant_flow_check(profile: ZollProfile, r: float, phi: float) -> float:
    """Finite-difference defect of the fiber transport relations

        dI/dphi = sigma J,   dJ/dphi = -sigma I,   sigma = SIGMA_ROTATION.

    Returns the summed absolute central-difference defect at the step
    dphi = FLOW_CHECK_DPHI; O(dphi^2).
    """
    dphi = FLOW_CHECK_DPHI
    a = invariants_IJ(profile, r, phi - dphi)
    m = invariants_IJ(profile, r, phi)
    b = invariants_IJ(profile, r, phi + dphi)
    res_i = (b.I - a.I) / (2.0 * dphi) - SIGMA_ROTATION * m.J
    res_j = (b.J - a.J) / (2.0 * dphi) + SIGMA_ROTATION * m.I
    return abs(res_i) + abs(res_j)


# -- the algebraic oracle ----------------------------------------------------------

@dataclass(frozen=True)
class FPolynomial:
    """The polynomial equation satisfied by F at a fixed tangent vector.

    Built from the implicit indicatrix equation by substituting v -> v/F and
    clearing denominators; coefficients are exact rationals over the
    float-exact inputs.  ``coeffs`` is ascending in F.
    """

    coeffs_exact: tuple[Fraction, ...]

    @property
    def coeffs(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs_exact])


def f_polynomial(profile: ZollProfile, R: float, v1: float, v2: float) -> FPolynomial:
    """Exact F-equation at the tangent vector (v1, v2) of chart point R.

    With P(w) of degree m the equation is

        cos^2 R * [v2 F^{2m-1} + sum_j p_j v1^{2j} F^{2(m-j)}]^2
            = F^{4m-2} (F^2 - v1^2),

    of degree 4m in F (degree 2 when P is constant or zero).  Exact trailing
    zeros are stripped so the reported degree is the true one.  The vector
    must be finite, and short enough that every coefficient has a float
    (v1^(4m) and v2^2 enter them): DomainError otherwise.
    """
    if not (math.isfinite(v1) and math.isfinite(v2)):
        raise DomainError(f"F-equation needs a finite vector, got ({v1}, {v2})")
    impl = implicit_polynomial(profile, R)
    q = Fraction(impl.q)
    p = impl.combined_exact
    v1f, v2f = Fraction(float(v1)), Fraction(float(v2))
    m = impl.degree
    if m <= 0:
        p0 = p[0] if p else Fraction(0)
        coeffs = [q * v2f * v2f + v1f * v1f,
                  2 * q * p0 * v2f,
                  q * p0 * p0 - 1]
    else:
        b = [Fraction(0)] * (2 * m + 1)
        b[2 * m - 1] += v2f
        v1pow = Fraction(1)
        for j, pj in enumerate(p):
            b[2 * (m - j)] += pj * v1pow
            v1pow *= v1f * v1f
        coeffs = [Fraction(0)] * (4 * m + 1)
        for i, bi in enumerate(b):
            if bi == 0:
                continue
            for j, bj in enumerate(b):
                coeffs[i + j] += q * bi * bj
        coeffs[4 * m] -= 1
        coeffs[4 * m - 2] += v1f * v1f
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if any(abs(c) > sys.float_info.max for c in coeffs):
        raise DomainError(f"F-equation at ({v1}, {v2}) has coefficients beyond the float range")
    return FPolynomial(tuple(coeffs))


# -- geodesics of F -----------------------------------------------------------------

@dataclass
class FinslerTrace:
    """Samples of a geodesic of F in the (R, Theta) chart; the norm F of
    each row's velocity (vR, vTheta) is 1 by construction."""

    t: np.ndarray
    R: np.ndarray
    Theta: np.ndarray
    vR: np.ndarray
    vTheta: np.ndarray
    complete: bool = True


def unit_direction(profile: ZollProfile, R: float, Theta: float,
                   angle: float) -> np.ndarray:
    """The F-unit vector at (R, Theta) in the chart direction ``angle``."""
    if not math.isfinite(angle):
        raise DomainError(f"direction angle {angle} is not finite")
    raw = np.array([math.cos(angle), math.sin(angle)])
    F = finsler_F(profile, R, Theta, raw).F
    return raw / F


def _start_state(profile: ZollProfile, start, v0, t_end: float, samples_per_period: int):
    """Row times and the bundle state (R0, Theta0, u0) of a trace's start,
    after its checks: one cold ray solve gives the phase u0 of v0 and
    checks F(v0) = 1."""
    t_eval = sample_times(t_end, samples_per_period)
    R0, Theta0 = float(start[0]), float(start[1])
    if not (math.isfinite(R0) and math.isfinite(Theta0)):
        raise DomainError(f"start point ({R0}, {Theta0}) is not finite")
    v0 = np.asarray(v0, dtype=float)
    f0, u0 = curve_cache(profile, R0).solve_ray(float(v0[0]), float(v0[1]))
    if abs(f0 - 1.0) > 1e-6:
        raise DomainError(f"initial velocity must be F-unit; F(v0) = {f0}")
    if abs(R0) >= CHART_ABORT:
        raise ChartExitError(f"start point R={R0} outside the working chart")
    return t_eval, R0, Theta0, u0


def _chart_exit(t_ev: float, trace: FinslerTrace) -> ChartExitError:
    return ChartExitError(f"geodesic reached |R| = {CHART_ABORT:.6f} at t = {t_ev:.6f}",
                          partial_trace=trace)


def _velocities(profile: ZollProfile, R: np.ndarray, u: np.ndarray):
    """(vR, vTheta) = P(R, u) on every row, in one array call of the phase kernel."""
    su = np.sin(u)
    return su, PhaseKernel(profile, R).v2_du(np.cos(u), su)[0]


def _pencil_start(R0: float, u0: float) -> tuple[float, float, float]:
    """(r_p, phi0, delta): the latitude of the surface point p, the direction
    angle at p (moduli.pencil_chart) of the bundle state at chart value R0
    and phase u0, and p's distance delta = pi/2 - min(r_p, pi - r_p) from
    the equator.  From sin(phi0) sin(r_p) = sin R0, cos(phi0) sin(r_p) =
    cos R0 sin u0 and cos r_p = cos R0 cos u0; atan2 keeps all three exact
    near the poles and delta exact near the equator, where pi/2 - r_p would
    cancel."""
    b = math.cos(R0) * math.sin(u0)
    c = math.cos(R0) * math.cos(u0)
    s = math.hypot(math.sin(R0), b)
    return math.atan2(s, c), math.atan2(math.sin(R0), b), math.atan2(abs(c), s)


def _exit_time(phi0: float, sin_rp: float) -> float:
    """First t > 0 with |sin(phi0 + t)| sin(r_p) = sin CHART_ABORT, where the
    chart value of the pencil reaches the abort latitude; inf if it never
    does.  At t = 0, |sin phi0| sin r_p = |sin R0| lies below it."""
    if sin_rp <= math.sin(CHART_ABORT):
        return math.inf
    a = math.asin(math.sin(CHART_ABORT) / sin_rp)
    psi = phi0 % math.pi
    return a - psi if psi < a else math.pi + a - psi


def _lift_times(delta: float, phi0: float, t_last: float) -> np.ndarray:
    """Extra pencil times, in (0, t_last), that make the longitude of the
    pencil safe to unwrap.  It turns by ~pi in each of the steps centred on
    the directions phi* = pi/2 (mod pi) that graze the equator, each of
    phi-width ~delta = pi/2 - min(r_p, pi - r_p); nodes at phi* and phi* +-
    delta 2^j cut every step into turns below pi, at any row density.  At
    delta = 0 (p on the equator) the step is a jump at phi*, which the
    trace never reaches: it leaves the chart before."""
    levels = math.ceil(math.log2(math.pi / delta)) if delta > 0 else 0
    reach = delta * 2.0 ** np.arange(max(1, levels))
    offsets = np.concatenate(([0.0], reach, -reach))
    first = math.floor((phi0 - math.pi) / math.pi)
    centres = math.pi / 2 + math.pi * np.arange(first, first + t_last / math.pi + 4) - phi0
    nodes = (centres[:, None] + offsets).ravel()
    return nodes[(nodes > 0.0) & (nodes < t_last)]


def finsler_geodesic(profile: ZollProfile, start: tuple[float, float], v0,
                     t_end: float, samples_per_period: int = 256) -> FinslerTrace:
    """The unit-speed geodesic of F from ``start`` with velocity v0, in
    closed form from the point pencil.

    A surface point is a curve in the space of geodesics, and the geodesics
    of F are these curves: the trace runs through moduli.pencil_chart(p,
    phi0 + t) at unit rate, its longitude reflected.  One cold ray solve
    gives the phase u0 of v0 and checks F(v0) = 1; (R0, u0) gives p's
    latitude r_p and phi0 (_pencil_start).  The longitude is unwrapped over
    the rows merged with the nodes of _lift_times, so that its ~pi steps
    lift the same at any row density.  Each row's velocity is (vR, vTheta) =
    P(R, u) at the phase u of p on the row's geodesic.  At a pole start
    (r_p = 0) the pencil is the meridians: R stays 0 and Theta moves at
    the rate v2.  Trajectories stay in one chart: a trace whose |R| reaches
    pi/2 - 1e-3 raises ChartExitError, with the partial trace ending at that
    time, which is in closed form too (_exit_time).  The start must be
    finite; the rows are those of geodesics.sample_times.  The geodesic
    spray on the indicatrix bundle (_spray) is the independent route: the
    rows solve its equations.
    """
    t_eval, R0, Theta0, u0 = _start_state(profile, start, v0, t_end, samples_per_period)
    r_p, phi0, delta = _pencil_start(R0, u0)
    sin_rp = math.sin(r_p)
    t_ev = _exit_time(phi0, sin_rp)
    t = t_eval if t_ev > t_end else np.append(t_eval[t_eval < t_ev], t_ev)
    if r_p == 0.0:
        R, u = np.zeros(len(t)), np.full(len(t), u0)
        theta = Theta0 + PhaseKernel(profile, 0.0).v2_du(math.cos(u0), 0.0)[0] * t
    else:
        t_all = np.concatenate((t, _lift_times(delta, phi0, float(t[-1]))))
        R_all, th_all = pencil_chart(profile, r_p, 0.0, phi0 + t_all)
        order = np.argsort(t_all, kind="stable")
        lifted = np.empty_like(th_all)
        lifted[order] = np.unwrap(th_all[order])
        R, theta = R_all[:len(t)], Theta0 - (lifted[:len(t)] - lifted[0])
        u = np.arctan2(np.cos(phi0 + t) * sin_rp, math.cos(r_p))
    v_r, v_theta = _velocities(profile, R, u)
    trace = FinslerTrace(t, R, theta, v_r, v_theta, t_ev > t_end)
    if not trace.complete:
        raise _chart_exit(t_ev, trace)
    return trace


def _fiber_terms(curve, u: float):
    """The closed-form fiber terms at the indicatrix point P(curve.R, u).

    With P_u, P_uu, P_R its phase jet (CurveEval.jet), ell = dF = n/(n.P) for
    the normal n = (P_u2, -P_u1), and mu = (-P2, P1)/(P x P_u) the covector
    with mu(P) = 0, mu(P_u) = 1, at F(P) = 1 (Bao-Chern-Shen, An Introduction
    to Riemann-Finsler Geometry):

        g = ell (x) ell - ell(P_uu) mu (x) mu,
        F_R = -ell(P_R),   u_R = -mu(P_R),
        dell/dR = (d_R ell at fixed u) - ell(P_uu) u_R mu,

    F_R, u_R and dell/dR at fixed v.  At v = F P the terms g, ell, mu and
    dell/dR are the same (F is 1-homogeneous) and F_R scales with F.
    Returns (P, P_R, (g11, g12, g22), F_R, ell, dell/dR, mu).
    """
    (p1, p2), (t1, t2), (a1, a2), (b1, b2), (d1, d2) = curve.jet(u)
    n_dot_p = t2 * p1 - t1 * p2
    l1, l2 = t2 / n_dot_p, -t1 / n_dot_p
    m1, m2 = -p2 / n_dot_p, p1 / n_dot_p          # P x P_u = n.P
    curv = l1 * a1 + l2 * a2                      # ell(P_uu) < 0 on a convex curve
    g = (l1 * l1 - curv * m1 * m1, l1 * l2 - curv * m1 * m2,
         l2 * l2 - curv * m2 * m2)
    u_R = -(m1 * b1 + m2 * b2)
    # d_R of n/(n.P) at fixed u, with d_R n = (P_uR2, -P_uR1).
    dn_dot_p = (d2 * p1 - d1 * p2 + t2 * b1 - t1 * b2) / n_dot_p
    dl1 = (d2 - t2 * dn_dot_p) / n_dot_p - curv * u_R * m1
    dl2 = (-d1 + t1 * dn_dot_p) / n_dot_p - curv * u_R * m2
    return ((p1, p2), (b1, b2), g, -(l1 * b1 + l2 * b2), (l1, l2), (dl1, dl2),
            (m1, m2))


def _spray(curve, u):
    """(P, udot) of the unit-speed geodesic flow of F on the indicatrix
    bundle at the states (curve.R, u), on floats or on arrays, one state
    per entry: P = (Rdot, Thetadot) is the velocity.

    F does not depend on Theta, so only d/dR terms survive in the
    Euler-Lagrange equation of F^2/2: at F(v) = 1 the acceleration is
    a = g^{-1} (F_R dR - vR (F_R ell + dell/dR)), from _fiber_terms at u.
    Differentiating v = P(R, u) gives a = P_R Rdot + P_u udot, so udot =
    mu(a - P_R sin u).  udot is NaN where det g <= 0, where g is not
    positive definite.
    """
    (p1, p2), (_, b2), (g11, g12, g22), F_R, (l1, l2), (dl1, dl2), (m1, m2) = \
        _fiber_terms(curve, u)
    rhs1 = F_R - p1 * (F_R * l1 + dl1)
    rhs2 = -p1 * (F_R * l2 + dl2)
    det = g11 * g22 - g12 * g12
    if isinstance(det, np.ndarray):
        det = np.where(det > 0, det, math.nan)
    elif det <= 0:
        return (p1, p2), math.nan
    a1 = (g22 * rhs1 - g12 * rhs2) / det
    a2 = (g11 * rhs2 - g12 * rhs1) / det
    return (p1, p2), m1 * a1 + m2 * (a2 - b2 * p1)


def _spray_rhs(profile: ZollProfile, state) -> np.ndarray:
    """(Rdot, Thetadot, udot) of _spray at the one state (R, Theta, u), the
    right-hand side of the bundle ODE.  R is clamped just inside the chart
    so that trial stages that overshoot the termination event stay
    evaluable; accepted solution points never reach the clamp.
    """
    R_raw, _, u = state.tolist()
    r_lim = math.pi / 2 - 8e-4
    R = min(max(R_raw, -r_lim), r_lim)
    (p1, p2), u_dot = _spray(CurveEval(profile, R), u)
    if math.isnan(u_dot):
        if abs(R_raw) > CHART_ABORT:
            # Overshooting trial stage past the termination event: the step
            # will be cut back there, so any finite value serves.
            return np.array([p1, p2, 0.0])
        raise StepFailureError(f"fundamental tensor not positive definite at R={R}")
    return np.array([p1, p2, u_dot])


def chart_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Round-metric proxy distance sqrt(dR^2 + cos^2(R) dTheta^2) on the chart
    |R| < pi/2."""
    if not all(math.isfinite(v) for v in (*a, *b)):
        raise DomainError(f"chart points {a}, {b} are not finite")
    if max(abs(a[0]), abs(b[0])) >= math.pi / 2:
        raise DomainError(f"chart points {a}, {b} outside |R| < pi/2")
    d_r = b[0] - a[0]
    d_t = (b[1] - a[1] + math.pi) % (2 * math.pi) - math.pi
    cr = math.cos(0.5 * (a[0] + b[0]))
    return math.sqrt(d_r * d_r + cr * cr * d_t * d_t)
