import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zollfins import (BandError, ChartExitError, DomainError, SIGMA_ROTATION, ZollProfile,
                      chart_distance, curvature_critical_points, f_polynomial,
                      finsler_F, finsler_geodesic, fundamental_tensor,
                      indicatrix_parametric, indicatrix_regularized,
                      invariant_flow_check, invariants_IJ, pencil_chart,
                      round_sphere, unit_direction)
from zollfins import finsler
from zollfins.finsler import CHART_ABORT
from zollfins.profile import curvature_x, curvature_x_prime

from oracles import f_roots, f_value, finsler_geodesic_ode


def ellipse_norm(R, v):
    return math.sqrt(v[0] ** 2 + math.cos(R) ** 2 * v[1] ** 2)


# -- the norm F -------------------------------------------------------------------

def test_round_sphere_norm(sphere):
    R = 0.7
    for v in ((0.3, -0.5), (1.0, 0.2), (-0.4, 0.9), (0.0, -2.0), (0.0, 1.5)):
        assert finsler_F(sphere, R, 0.0, v).F == pytest.approx(
            ellipse_norm(R, v), abs=1e-14)


@given(v1=st.floats(min_value=-3, max_value=3),
       v2=st.floats(min_value=-3, max_value=3))
@settings(max_examples=200, deadline=None)
def test_round_sphere_norm_property(v1, v2):
    if abs(v1) + abs(v2) < 1e-6:
        return
    R = 0.4
    prof = round_sphere()
    assert finsler_F(prof, R, 0.0, (v1, v2)).F == pytest.approx(
        ellipse_norm(R, (v1, v2)), rel=1e-12)


def test_unit_on_indicatrix_samples(all_good):
    for prof in all_good:
        for R in (0.0, 0.6, 1.3):
            rc = abs(R)
            for r in np.linspace(rc, math.pi - rc, 25):
                for branch in (+1, -1):
                    s = indicatrix_parametric(prof, R, float(r), branch)
                    assert abs(finsler_F(prof, R, 0.0, (s.v1, s.v2)).F - 1.0) < 1e-9


@pytest.mark.parametrize("lam", [1e-3, 0.5, 2.0, 1e3])
def test_homogeneity(ex1, ex2, lam):
    for prof in (ex1, ex2):
        for R in (0.3, 1.1):
            for v in ((0.3, -0.5), (1.0, 0.2), (-0.4, 0.9)):
                f1 = finsler_F(prof, R, 0.0, v).F
                f2 = finsler_F(prof, R, 0.0, (lam * v[0], lam * v[1])).F
                assert abs(f2 - lam * f1) / (lam * f1) < 1e-10


def test_zero_vector_rejected(ex1):
    with pytest.raises(DomainError):
        finsler_F(ex1, 0.3, 0.0, (0.0, 0.0))


def test_non_finite_vector_rejected(ex1):
    """A NaN or infinite component gives no ray: DomainError, not a
    NoBracketError (NaN) or a finite F (inf)."""
    for v in ((math.nan, 0.0), (0.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)):
        with pytest.raises(DomainError):
            finsler_F(ex1, 0.3, 0.0, v)


def test_chart_guard(ex1):
    with pytest.raises(DomainError):
        finsler_F(ex1, math.pi / 2 - 1e-9, 0.0, (1.0, 0.0))
    with pytest.raises(DomainError):
        finsler_F(ex1, math.nan, 0.0, (1.0, 0.0))


# -- the algebraic oracle -----------------------------------------------------------

def test_f_equation_degrees(ex1, ex2, sphere):
    p4 = f_polynomial(ex1, 0.4, 0.3, -0.5)
    assert len(p4.coeffs_exact) - 1 == 4
    assert p4.coeffs_exact[-1] != 0
    p8 = f_polynomial(ex2, 0.4, 0.3, -0.5)
    assert len(p8.coeffs_exact) - 1 == 8
    assert p8.coeffs_exact[-1] != 0
    p2 = f_polynomial(sphere, 0.4, 0.3, -0.5)
    assert len(p2.coeffs_exact) - 1 == 2


def test_f_equation_needs_a_finite_vector(ex1):
    """DomainError, where an untyped ValueError (NaN to an integer ratio) or
    OverflowError (inf) came out of the exact arithmetic."""
    for v in ((math.nan, 0.5), (0.3, math.inf), (-math.inf, math.nan)):
        with pytest.raises(DomainError, match="finite vector"):
            f_polynomial(ex1, 0.4, *v)


@pytest.mark.parametrize("v", [(1e200, 0.5), (1e308, 1.0), (1.0, 1e308), (1e50, 1.0)])
def test_f_equation_refuses_coefficients_beyond_floats(ex2, v):
    """DomainError from f_polynomial itself, where the float of a huge exact
    coefficient raised an untyped OverflowError from FPolynomial.coeffs."""
    with pytest.raises(DomainError, match="beyond the float range"):
        f_polynomial(ex2, 0.3, *v)
    assert np.all(np.isfinite(f_polynomial(ex2, 0.3, 1e30, 1.0).coeffs))


@pytest.mark.parametrize("v", [(0.3, -0.5), (0.8, 0.1), (-0.2, 1.4), (0.6, 0.6)])
def test_ray_value_is_polynomial_root(ex1, ex2, v):
    for prof in (ex1, ex2):
        for R in (0.2, 0.9):
            f_ray = finsler_F(prof, R, 0.0, v).F
            poly = f_polynomial(prof, R, *v)
            assert abs(f_value(poly, f_ray)) < 1e-10
            roots = f_roots(poly)
            assert roots.size > 0
            assert np.min(np.abs(roots - f_ray)) < 1e-9


def test_round_sphere_polynomial_roots(sphere):
    R, v = 0.5, (0.7, -0.9)
    roots = f_roots(f_polynomial(sphere, R, *v))
    assert roots.size == 1
    assert roots[0] == pytest.approx(ellipse_norm(R, v), abs=1e-13)


# -- fundamental tensor --------------------------------------------------------------

def test_tensor_round_sphere_default_step(sphere):
    fe = fundamental_tensor(sphere, 0.7, 0.0, (0.3, -0.5))
    # At the mandated 1e-5 relative step the root-finding noise dominates;
    # the quadratic structure still shows up to ~1e-4.
    assert fe.g11 == pytest.approx(1.0, abs=1e-4)
    assert fe.g12 == pytest.approx(0.0, abs=1e-4)
    assert fe.g22 == pytest.approx(math.cos(0.7) ** 2, abs=1e-4)


def test_tensor_round_sphere_wide_step(sphere, monkeypatch):
    # F^2 is exactly quadratic here, so a wide step is truncation-free and
    # the noise floor drops to ~1e-9.
    monkeypatch.setattr(finsler, "TENSOR_STEP", 1e-3)
    fe = fundamental_tensor(sphere, 0.7, 0.0, (0.3, -0.5))
    assert fe.g11 == pytest.approx(1.0, abs=1e-8)
    assert fe.g12 == pytest.approx(0.0, abs=1e-8)
    assert fe.g22 == pytest.approx(math.cos(0.7) ** 2, abs=1e-8)


def test_tensor_zero_homogeneity(ex1_strong, ex2):
    for prof in (ex1_strong, ex2):
        g0 = fundamental_tensor(prof, 0.6, 0.0, (0.3, -0.5)).tensor()
        for lam in (0.5, 2.0):
            g1 = fundamental_tensor(prof, 0.6, 0.0, (0.3 * lam, -0.5 * lam)).tensor()
            assert np.abs(g1 - g0).max() < 1e-6


def test_tensor_positive_definite_grid(ex1_strong):
    angles = np.linspace(0.0, 2 * math.pi, 101)[:-1]
    for R in (0.2, 0.7, 1.2):
        for a in angles:
            g = fundamental_tensor(ex1_strong, R, 0.0,
                                   (math.cos(a), math.sin(a))).tensor()
            assert np.linalg.det(g) > 0
            assert np.trace(g) > 0
            assert np.linalg.eigvalsh(g).min() > 0


def test_tensor_not_positive_definite_for_bad_profile(bad_curvature):
    angles = np.linspace(0.0, 2 * math.pi, 101)[:-1]
    eig_min = min(
        np.linalg.eigvalsh(fundamental_tensor(bad_curvature, R, 0.0,
                                              (math.cos(a), math.sin(a))).tensor()).min()
        for R in (0.1, 0.2) for a in angles)
    assert eig_min < 0


def _closed_form_geometry(prof, R, v):
    """(F, g, F_R, ell, dell/dR) at the vector v: a cold ray solve, then the
    spray's closed-form fiber terms at its phase, F_R scaled by F."""
    from zollfins.finsler import _fiber_terms
    from zollfins.moduli import curve_cache
    curve = curve_cache(prof, R)
    F, u = curve.solve_ray(float(v[0]), float(v[1]))
    _, _, g, F_R, ell, dell, _ = _fiber_terms(curve, u)
    return F, g, F * F_R, ell, dell


#: Directions for the tensor comparisons, the v1 = 0 glue rays included.
TENSOR_DIRECTIONS = [(math.cos(a), math.sin(a))
                     for a in np.linspace(0.0, 2 * math.pi, 13)[:-1]] \
    + [(0.0, 1.0), (0.0, -0.7), (1e-12, -1.0)]

#: The direction grid of verify's fundamental_tensor_pd check.  It holds
#: a = pi/2 and 3pi/2, where the centre ray is resolved to a glue point
#: (u = 0 or pi) and the off-centre rays fall on both sides of the v2 axis.
VERIFY_DIRECTIONS = [(math.cos(a), math.sin(a))
                     for a in np.linspace(0.0, 2 * math.pi, 25)[:-1]]


def test_closed_form_tensor_round_sphere(sphere):
    for R in (-0.9, 0.0, 0.7, 1.4):
        for v in TENSOR_DIRECTIONS:
            g11, g12, g22 = _closed_form_geometry(sphere, R, v)[1]
            assert abs(g11 - 1.0) < 1e-14
            assert abs(g12) < 1e-14
            assert abs(g22 - math.cos(R) ** 2) < 1e-14


def test_closed_form_tensor_matches_difference_oracle(all_good):
    """The closed-form tensor against the Richardson finite-difference
    Hessian behind fundamental_tensor (whose own noise is ~4e-5), on verify's
    fundamental_tensor_pd grid as well."""
    for prof in all_good:
        for R in (-0.8, 0.2, 0.7, 1.2):
            for v in TENSOR_DIRECTIONS + VERIFY_DIRECTIONS:
                g11, g12, g22 = _closed_form_geometry(prof, R, v)[1]
                fe = fundamental_tensor(prof, R, 0.0, v)
                oracle = fe.tensor()
                closed = np.array([[g11, g12], [g12, g22]])
                assert np.abs(closed - oracle).max() < 1e-4 * np.abs(oracle).max()
                assert fe.F == finsler_F(prof, R, 0.0, v).F


def test_difference_oracle_one_bracket_scan_per_call(all_good, monkeypatch):
    """The centre ray is solved cold once; its phase root seeds the 16
    off-centre solves, none of which is a cold one.  A nearly vertical
    centre ray goes straight to a glue point and makes no cold solve.  The
    rays entering the cold entry are counted, float or array, so a block
    makes one cold ray per non-vertical column, in one call."""
    from zollfins.moduli import CurveEval
    cold = []
    bracket = CurveEval._bracket_solve

    def counting(self, v1, v2):
        cold.append(np.size(v1))
        return bracket(self, v1, v2)

    monkeypatch.setattr(CurveEval, "_bracket_solve", counting)
    block = np.array(VERIFY_DIRECTIONS).T
    slanted = sum(abs(v[0]) > 1e-9 for v in VERIFY_DIRECTIONS)
    assert slanted == 22
    for prof in all_good:
        for R in (0.2, 0.7, 1.2):
            for v in VERIFY_DIRECTIONS:
                cold.clear()
                fundamental_tensor(prof, R, 0.0, v)
                assert cold == ([] if abs(v[0]) <= 1e-9 else [1]), (R, v)
            cold.clear()
            fundamental_tensor(prof, R, 0.0, block)
            assert cold == [slanted], R


def test_block_calls_match_single_vector_calls(all_good):
    """A block of directions gives each column the bits of its own call:
    the tensor of fundamental_tensor, as an (n, 2, 2) stack, and F of
    finsler_F, on verify's grid plus the glue rays, from a 2 x n array or a
    pair of arrays."""
    block = np.array(VERIFY_DIRECTIONS + TENSOR_DIRECTIONS[-3:]).T
    for prof in all_good:
        for R in (-0.8, 0.2, 0.7, 1.2):
            fe = fundamental_tensor(prof, R, 0.0, block)
            stack = fe.tensor()
            assert stack.shape == (block.shape[1], 2, 2)
            norms = finsler_F(prof, R, 0.0, (block[0], block[1])).F
            for k, v in enumerate(block.T.tolist()):
                one = fundamental_tensor(prof, R, 0.0, v)
                assert np.array_equal(stack[k], one.tensor()), (R, v)
                assert fe.F[k] == one.F == norms[k] == finsler_F(prof, R, 0.0, v).F


def test_block_with_a_bad_column_raises(ex1):
    """A zero or NaN column fails the whole block with DomainError, as it
    fails its own call."""
    for bad in ((0.0, 0.0), (math.nan, 0.5), (0.5, math.nan)):
        block = np.array([[0.6, bad[0], -0.3], [0.8, bad[1], 0.2]])
        with pytest.raises(DomainError):
            fundamental_tensor(ex1, 0.4, 0.0, block)
        with pytest.raises(DomainError):
            finsler_F(ex1, 0.4, 0.0, block)
    with pytest.raises(DomainError):
        fundamental_tensor(ex1, 0.4, 0.0, np.ones((3, 4)))


def test_block_with_a_missed_ray_raises(ex1, monkeypatch):
    """A kernel fault that lifts the curve above the origin: a downward ray
    then misses it.  A block holding one such ray raises NoBracketError, as
    its single-vector call does, and never returns NaN."""
    from zollfins import NoBracketError
    from zollfins.moduli import CurveEval
    v2_du = CurveEval.v2_du

    def lifted(self, cu, su):
        v2, v2_u = v2_du(self, cu, su)
        return v2 + 10.0, v2_u

    monkeypatch.setattr(CurveEval, "v2_du", lifted)
    up = [(math.cos(a), math.sin(a)) for a in (0.3, 1.2, 2.0, 2.9)]
    for down in ((0.6, -0.8), (-0.2, -1.0)):
        block = np.array(up[:2] + [down] + up[2:]).T
        assert np.all(np.isfinite(finsler_F(ex1, 0.4, 0.0, np.array(up).T).F))
        for call in (finsler_F, fundamental_tensor):
            with pytest.raises(NoBracketError):
                call(ex1, 0.4, 0.0, down)
            with pytest.raises(NoBracketError):
                call(ex1, 0.4, 0.0, block)


def test_closed_form_chart_derivatives(ex1_strong, ex2):
    """F_R and dell/dR at fixed v against central differences in R of F and
    of ell = dF."""
    dR = 1e-5
    for prof in (ex1_strong, ex2):
        for R in (-0.8, 0.3, 1.2):
            for v in ((0.4, -0.7), (-1.0, 0.3), (0.0, 1.0), (0.2, 0.9)):
                F, _, F_R, _, dl = _closed_form_geometry(prof, R, v)
                plus = _closed_form_geometry(prof, R + dR, v)
                minus = _closed_form_geometry(prof, R - dR, v)
                assert F_R == pytest.approx((plus[0] - minus[0]) / (2 * dR),
                                            abs=1e-8 * F)
                for i in (0, 1):
                    fd = (plus[3][i] - minus[3][i]) / (2 * dR)
                    assert dl[i] == pytest.approx(fd, abs=1e-7 * max(1.0, abs(fd)))


def test_tensor_guards(ex1):
    with pytest.raises(DomainError):
        fundamental_tensor(ex1, 0.3, 0.0, (0.0, 0.0))
    with pytest.raises(DomainError, match="degenerate finite-difference step"):
        fundamental_tensor(ex1, 0.3, 0.0, (1e-8, 0.0))


# -- invariants -----------------------------------------------------------------------

def test_invariants_vanish_round_sphere(sphere):
    worst = 0.0
    for r in np.linspace(0.2, math.pi - 0.2, 25):
        for phi in np.linspace(0.0, 2 * math.pi, 17):
            pair = invariants_IJ(sphere, float(r), float(phi))
            worst = max(worst, abs(pair.I) + abs(pair.J))
    assert worst < 1e-12


def test_invariants_vanish_at_curvature_critical_point(ex2):
    x_star, _ = curvature_critical_points(ex2)[0]
    r_star = math.acos(x_star)
    pair = invariants_IJ(ex2, r_star, 1.1)
    assert abs(pair.I) < 1e-10 and abs(pair.J) < 1e-10


def test_invariants_example1_closed_form(ex1):
    """At phi = 0 the velocity is purely radial: J = 0 and I follows the
    chain rule through G(r)."""
    r = math.pi / 3
    x = math.cos(r)
    g_val = curvature_x(ex1, x)
    g_r = -math.sin(r) * curvature_x_prime(ex1, x)
    expected_i = 0.5 * g_r / ((1.0 + ex1.h(x)) * g_val ** 1.5)
    pair = invariants_IJ(ex1, r, 0.0)
    assert pair.J == pytest.approx(0.0, abs=1e-15)
    assert pair.I == pytest.approx(expected_i, rel=1e-12)


def test_invariant_fiber_rotation_calibration(ex1):
    """dI/dphi = sigma J and dJ/dphi = -sigma I with sigma = -1."""
    r, phi, dphi = 1.0, 0.7, 1e-6
    a = invariants_IJ(ex1, r, phi)
    b = invariants_IJ(ex1, r, phi + dphi)
    assert (b.I - a.I) / dphi == pytest.approx(SIGMA_ROTATION * a.J, rel=1e-4)
    assert (b.J - a.J) / dphi == pytest.approx(-SIGMA_ROTATION * a.I, rel=1e-4)


@pytest.mark.parametrize("prof_name,r,phi", [("ex1", 1.0, 0.7), ("ex2", 1.3, 2.0)])
def test_invariant_flow_residual(request, prof_name, r, phi):
    prof = request.getfixturevalue(prof_name)
    assert invariant_flow_check(prof, r, phi) < 1e-4


def test_invariant_flow_round_sphere(sphere):
    assert invariant_flow_check(sphere, 1.0, 0.3) == 0.0


def test_invariants_need_a_finite_point_on_the_sphere(ex1):
    """A non-finite argument is a DomainError (math.sin(inf) raised an untyped
    ValueError), a latitude outside [0, pi] a BandError."""
    for r, phi in ((1.0, math.inf), (math.nan, 0.0)):
        with pytest.raises(DomainError):
            invariants_IJ(ex1, r, phi)
    with pytest.raises(BandError):
        invariants_IJ(ex1, 4.0, 0.0)


def test_chart_distance_domain():
    """Both points finite and on the chart |R| < pi/2: (inf, 0) raised an
    untyped ValueError, and (3, 0) measured 3.0."""
    for b in ((math.inf, 0.0), (0.0, math.nan), (3.0, 0.0), (-math.pi / 2, 0.0)):
        with pytest.raises(DomainError):
            chart_distance((0.0, 0.0), b)
    assert chart_distance((0.0, 0.0), (1.5, 0.0)) == 1.5


def test_invariants_guards(ex1, bad_curvature):
    with pytest.raises(DomainError):
        invariants_IJ(ex1, 1e-12, 0.0)
    with pytest.raises(DomainError):
        invariants_IJ(bad_curvature, 3.1, 0.0)   # G < 0 near the south pole


# -- geodesics of F ----------------------------------------------------------------------

def test_unit_direction(ex2):
    v0 = unit_direction(ex2, 0.4, 0.0, 1.2)
    assert finsler_F(ex2, 0.4, 0.0, v0).F == pytest.approx(1.0, abs=1e-14)


def test_round_sphere_geodesic_closes(sphere):
    v0 = unit_direction(sphere, 0.2, 0.0, 0.9)
    trace = finsler_geodesic(sphere, (0.2, 0.0), v0, 2 * math.pi)
    assert chart_distance((float(trace.R[-1]), float(trace.Theta[-1])),
                          (0.2, 0.0)) < 1e-6
    # Every row's velocity is F-unit: one block call of the ray solve.
    assert np.abs(finsler_F(sphere, trace.R, 0.0, (trace.vR, trace.vTheta)).F - 1.0).max() < 1e-12


def test_geodesic_two_tolerances_agree(ex1):
    """The bundle ODE at two tolerances."""
    v0 = unit_direction(ex1, 0.2, 0.0, 0.9)
    hi = finsler_geodesic_ode(ex1, (0.2, 0.0), v0, math.pi, tol=1e-8,
                              samples_per_period=64)
    lo = finsler_geodesic_ode(ex1, (0.2, 0.0), v0, math.pi, tol=1e-6,
                              samples_per_period=64)
    assert chart_distance((float(hi.R[-1]), float(hi.Theta[-1])),
                          (float(lo.R[-1]), float(lo.Theta[-1]))) < 1e-5


def test_non_unit_start_rejected(ex1):
    with pytest.raises(DomainError):
        finsler_geodesic(ex1, (0.2, 0.0), (1.0, 1.0), 1.0)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, 1e300, 0.0, -1.0])
def test_trace_rejects_bad_t_end(ex1, t_end):
    v0 = unit_direction(ex1, 0.2, 0.0, 0.3)
    with pytest.raises(DomainError):
        finsler_geodesic(ex1, (0.2, 0.0), v0, t_end)


@pytest.mark.parametrize("start", [(0.2, math.nan), (0.2, math.inf), (0.2, -math.inf)])
def test_trace_rejects_non_finite_start(ex1, start):
    v0 = unit_direction(ex1, 0.2, 0.0, 0.3)
    with pytest.raises(DomainError, match="not finite"):
        finsler_geodesic(ex1, start, v0, 1.0)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_unit_direction_rejects_non_finite_angle(ex1, angle):
    with pytest.raises(DomainError, match="not finite"):
        unit_direction(ex1, 0.2, 0.0, angle)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, 1e-3, 1.0, 1e-13])
def test_trace_rejects_tol_outside_range(ex1, tol):
    v0 = unit_direction(ex1, 0.2, 0.0, 0.3)
    with pytest.raises(DomainError, match="tolerance"):
        finsler_geodesic_ode(ex1, (0.2, 0.0), v0, 1.0, tol=tol)


def test_chart_exit_carries_partial_trace(sphere):
    # A radial great circle of the round metric runs straight over the chart
    # pole, so it must trip the rim guard.
    v0 = unit_direction(sphere, 1.4, 0.0, 0.0)
    with pytest.raises(ChartExitError) as excinfo:
        finsler_geodesic(sphere, (1.4, 0.0), v0, 2 * math.pi)
    trace = excinfo.value.partial_trace
    assert trace is not None and not trace.complete
    assert abs(trace.R[-1]) <= math.pi / 2 - 1e-4
    assert abs(trace.R[-1]) >= math.pi / 2 - 2e-3


def test_chart_exit_ends_at_the_event(sphere):
    """The error reports the event time and the partial trace's last row is
    the event state.  Here R(t) = 1.4 + t exactly, so the event falls at
    t = CHART_ABORT - 1.4, between two output rows, and the velocity there
    is P(R, pi/2) = (1, 0) on the indicatrix; vTheta = -cos(u)/cos R
    amplifies the phase error by 1/cos R ~ 1e3."""
    v0 = unit_direction(sphere, 1.4, 0.0, 0.0)
    with pytest.raises(ChartExitError) as excinfo:
        finsler_geodesic(sphere, (1.4, 0.0), v0, 2 * math.pi)
    trace = excinfo.value.partial_trace
    t_event = CHART_ABORT - 1.4
    assert f"t = {t_event:.6f}" in str(excinfo.value)
    assert trace.t[-1] == pytest.approx(t_event, abs=1e-12)
    assert trace.t[-2] < trace.t[-1]
    assert trace.R[-1] == pytest.approx(CHART_ABORT, abs=1e-12)
    v = (float(trace.vR[-1]), float(trace.vTheta[-1]))
    assert v == pytest.approx((1.0, 0.0), abs=1e-9)
    F = finsler_F(sphere, float(trace.R[-1]), 0.0, v).F
    assert F == pytest.approx(1.0, abs=1e-12)


def test_trace_solves_one_ray(ex1, monkeypatch):
    """unit_direction solves one ray, cold, and so does the start of
    finsler_geodesic, for the phase of v0; the closed form solves none per
    output row."""
    from zollfins.moduli import CurveEval
    seeds = []
    solve = CurveEval.solve_ray

    def counting(self, v1, v2, seed_u=None):
        seeds.append(seed_u)
        return solve(self, v1, v2, seed_u)

    monkeypatch.setattr(CurveEval, "solve_ray", counting)
    v0 = unit_direction(ex1, 0.2, 0.0, 0.9)
    assert seeds == [None]
    trace = finsler_geodesic(ex1, (0.2, 0.0), v0, 2 * math.pi)
    assert seeds == [None, None] and len(trace.t) == 257


def test_trace_apex_matches_correspondence(ex1):
    """The chart apex of a Finsler geodesic equals the band latitude at which
    the indicatrix curve crosses the v2 = 0 axis: the trajectory enumerates
    the unit vectors at one fixed surface point, and the largest reachable
    |R| is the turning latitude of the steepest of those directions."""
    R0 = 1.4
    lo, hi = R0, math.pi - R0
    for _ in range(60):         # bisect v2(r) = 0 across the band
        mid = 0.5 * (lo + hi)
        if indicatrix_regularized(ex1, R0, mid, +1).v2 > 0:
            hi = mid
        else:
            lo = mid
    r_p = 0.5 * (lo + hi)
    apex_pred = min(r_p, math.pi - r_p)
    v0 = unit_direction(ex1, R0, 0.0, 0.0)
    trace = finsler_geodesic(ex1, (R0, 0.0), v0, 2 * math.pi, samples_per_period=2048)
    # Compare in the Clairaut variable sin R: arcsin amplifies errors ~150x
    # this close to the chart pole.
    assert math.sin(float(trace.R.max())) == pytest.approx(
        math.sin(apex_pred), abs=2e-6)
    assert float(trace.R.max()) == pytest.approx(apex_pred, abs=1e-3)


def test_trace_clairaut_is_sinusoidal(ex1_strong):
    """Along a Finsler geodesic the quantity sin R(t) is an exact sinusoid
    of the flow parameter: the flow enumerates the unit vectors at one
    surface point at unit angular rate, and sin R is the Clairaut constant
    of the enumerated direction.  A two-parameter fit must reproduce the
    whole trace."""
    v0 = unit_direction(ex1_strong, 0.2, 0.0, 0.9)
    trace = finsler_geodesic(ex1_strong, (0.2, 0.0), v0, 2 * math.pi,
                             samples_per_period=256)
    c_t = np.sin(trace.R)
    design = np.vstack([np.cos(trace.t), np.sin(trace.t)]).T
    coef, *_ = np.linalg.lstsq(design, c_t, rcond=None)
    assert np.abs(design @ coef - c_t).max() < 1e-7


def test_norm_at_high_eccentricity(ex2):
    """Near the chart rim the indicatrix is extremely elongated
    (axes ratio ~1/cos^2 R); the ray solve must stay exact."""
    R = 1.5
    for r in np.linspace(abs(R), math.pi - abs(R), 30):
        for branch in (+1, -1):
            s = indicatrix_parametric(ex2, R, float(r), branch)
            assert abs(finsler_F(ex2, R, 0.0, (s.v1, s.v2)).F - 1.0) < 1e-9


def test_flow_enumerates_directions_at_fixed_point(sphere, ex1_strong):
    """A Finsler geodesic enumerates the oriented geodesics through one fixed
    surface point at unit angular rate: with directions V(phi) = cos(phi) e_r
    + sin(phi) e_theta at p = (r_p, theta_p), the trace satisfies

        R(t) = R_chart(V(phi0 + t)),
        Theta(t) = 2 Theta(0) - Theta_chart(V(phi0 + t)),

    the longitude entering through the reflection isometry Theta -> -Theta
    (the parametric embedding is the mirror of the chart-compatible one; see
    the sign discussion in the moduli module docs).  The chart points come
    from pencil_chart.  This ties together the chart coordinates, the
    embedding, and the geodesic flow over whole trajectories.
    """
    r_p, th_p, phi0 = 1.1, 0.7, 0.9
    for prof in (sphere, ex1_strong):
        (R0,), (Th0,) = pencil_chart(prof, r_p, th_p, [phi0])
        s = indicatrix_regularized(prof, float(R0), r_p, +1)
        trace = finsler_geodesic(prof, (float(R0), float(Th0)), np.array([s.v1, s.v2]),
                                 1.2, samples_per_period=512)
        rows = slice(0, None, 16)
        r_pred, th_pred = pencil_chart(prof, r_p, th_p, phi0 + trace.t[rows])
        assert np.abs(trace.R[rows] - r_pred).max() < 2e-6
        th_mirrored = (2 * Th0 - trace.Theta[rows]) % (2 * math.pi)
        diff = (th_mirrored - th_pred + math.pi) % (2 * math.pi) - math.pi
        assert np.abs(diff).max() < 2e-6


def test_full_period_point_pencil(all_good):
    """Over a whole period 2*pi, on every row, the Finsler geodesic through
    the chart point of (p, phi0) runs through the chart points of the pencil
    of surface geodesics through p, at unit angular rate (see the test above
    for the reflected longitude).  The pencil comes from coords_of_geodesic,
    independently of the indicatrix and the flow.  The starts cover both
    hemispheres and the branch sign(cos phi0) = -1 (phi0 = 2.0).  The trace
    starts from (R0, Theta0, v0), so this tests its map back to (p, phi0);
    the worst deviation measured is 3.6e-15."""
    th_p = 0.7
    for prof in all_good:
        for r_p, phi0 in ((1.1, 0.9), (0.5, 2.0), (2.3, 0.3)):
            (R0,), (Th0,) = pencil_chart(prof, r_p, th_p, [phi0])
            s = indicatrix_regularized(prof, float(R0), r_p,
                                       1 if math.cos(phi0) >= 0 else -1)
            trace = finsler_geodesic(prof, (float(R0), float(Th0)),
                                     np.array([s.v1, s.v2]), 2 * math.pi)
            assert trace.complete and len(trace.t) == 257
            assert trace.t[-1] == pytest.approx(2 * math.pi)
            r_pred, th_pred = pencil_chart(prof, r_p, th_p, phi0 + trace.t)
            assert np.abs(trace.R - r_pred).max() < 1e-8, (prof, r_p, phi0)
            th_mirrored = (2 * Th0 - trace.Theta) % (2 * math.pi)
            diff = (th_mirrored - th_pred + math.pi) % (2 * math.pi) - math.pi
            assert np.abs(diff).max() < 1e-8, (prof, r_p, phi0)


def test_array_spray_has_the_bits_of_the_float_rhs(ex2, bad_curvature):
    """The spray on an array of bundle states (one jet, one _fiber_terms
    pass), as verify check 15 runs it, gives each state the bits of its
    float right-hand side _spray_rhs.  Where g is not positive definite (G
    dips below 0 on bad_curvature) its udot is NaN, which fails the check,
    and the float right-hand side raises."""
    from zollfins import StepFailureError
    from zollfins.finsler import _spray, _spray_rhs
    from zollfins.moduli import CurveEval
    R = np.repeat([-1.2, 0.05, 0.2, 0.6], 64)
    u = np.tile(np.linspace(-math.pi, math.pi, 64), 4)
    for prof in (ex2, bad_curvature):
        (v_r, v_th), u_dot = _spray(CurveEval(prof, R), u)
        for k, (Rk, uk) in enumerate(zip(R.tolist(), u.tolist())):
            if math.isnan(u_dot[k]):
                with pytest.raises(StepFailureError):
                    _spray_rhs(prof, np.array([Rk, 0.0, uk]))
            else:
                assert _spray_rhs(prof, np.array([Rk, 0.0, uk])).tolist() == \
                    [v_r[k], v_th[k], u_dot[k]]
    assert np.isnan(u_dot).any() and not np.isnan(u_dot).all()


# -- the closed form against the bundle ODE ------------------------------------------

def _trace_or_partial(trace_fn, *args, **kwargs):
    try:
        return trace_fn(*args, **kwargs)
    except ChartExitError as exc:
        return exc.partial_trace


def _assert_matches_ode(prof, start, v0, samples_per_period, velocity_tol=1e-11):
    """The closed form against the bundle ODE at tol 1e-12, row by row: the
    same row times and completeness, and R, Theta, vR and vTheta within
    1e-11, Theta and vTheta in the chart metric of chart_distance (times
    cos R), the velocities within ``velocity_tol``.  Toward the rim |vTheta|
    grows like 1/cos^2 R and amplifies the ODE's phase error, and the
    longitude turns fast near a chart exit, where the two event times differ
    in the last digits.  Returns the closed-form trace."""
    a = _trace_or_partial(finsler_geodesic, prof, start, v0, 2 * math.pi,
                          samples_per_period=samples_per_period)
    b = _trace_or_partial(finsler_geodesic_ode, prof, start, v0, 2 * math.pi,
                          tol=1e-12, samples_per_period=samples_per_period)
    assert a.complete == b.complete and len(a.t) == len(b.t)
    cos_r = np.cos(b.R)
    for x, y in ((a.t, b.t), (a.R, b.R), (cos_r * a.Theta, cos_r * b.Theta)):
        assert np.abs(x - y).max() <= 1e-11
    for x, y in ((a.vR, b.vR), (cos_r * a.vTheta, cos_r * b.vTheta)):
        assert np.abs(x - y).max() <= velocity_tol
    return a


CLOSED_FORM_PROFILES = ("0", "0.25,-0.25", "1,-2,1", "0.5,-1,0.75,-0.25")


@pytest.mark.parametrize("samples_per_period", [256, 16])
@pytest.mark.parametrize("h", CLOSED_FORM_PROFILES)
def test_closed_form_matches_bundle_ode(h, samples_per_period):
    """Starts in both hemispheres and on both branches, and starts on the
    pencil of the surface point at latitude ``top`` (direction 0.3), whose
    trace tops out at |R| = top: its longitude turns by ~pi within
    ~pi/2 - top of phi = pi/2 (mod pi).  np.unwrap over 16 rows per period
    alone gets those 4 pi wrong at tops >= 1.55 on all but the round
    sphere."""
    prof = ZollProfile.from_string(h)
    starts = [((0.2, 0.0), unit_direction(prof, 0.2, 0.0, 0.9)),
              ((-0.5, 1.0), unit_direction(prof, -0.5, 1.0, 2.0))]
    for top in (1.3, 1.45, 1.55, 1.56, 1.565):
        (R0,), (Th0,) = pencil_chart(prof, top, 0.7, [0.3])
        s = indicatrix_regularized(prof, float(R0), top, +1)
        starts.append(((float(R0), float(Th0)), (s.v1, s.v2)))
    for start, v0 in starts:
        trace = _assert_matches_ode(prof, start, v0, samples_per_period)
        assert trace.complete and trace.Theta[0] == start[1]


@pytest.mark.parametrize("h", CLOSED_FORM_PROFILES)
def test_closed_form_chart_exit_matches_bundle_ode(h):
    """A trace through the surface point at latitude 1.5702, above the
    abort latitude: the same rows up to the exit and the same event row.
    The event row's velocity P(R, u) sits at cos R = 1e-3, where the ODE's
    phase is good to ~1e-11 at tol 1e-12 (vR = sin u differs by 1.4e-11)."""
    prof = ZollProfile.from_string(h)
    s = indicatrix_regularized(prof, 0.0, 1.5702, +1)
    for samples_per_period in (256, 16):
        trace = _assert_matches_ode(prof, (0.0, 0.4), (s.v1, s.v2), samples_per_period,
                                    velocity_tol=1e-10)
        assert not trace.complete
        assert abs(trace.R[-1]) == pytest.approx(CHART_ABORT, abs=1e-12)


@pytest.mark.parametrize("R0", [0.0, 1.4, 1.5, -1.5])
def test_closed_form_equator_start_matches_bundle_ode(sphere, R0):
    """A radial start on the round sphere (direction 0, u0 = pi/2) puts the
    surface point on the equator, where pi/2 - r_p rounds to 0 and the
    trace is a meridian that leaves the chart before its longitude steps."""
    v0 = unit_direction(sphere, R0, 0.0, 0.0)
    for samples_per_period in (256, 16):
        trace = _assert_matches_ode(sphere, (R0, 0.0), v0, samples_per_period)
        assert not trace.complete
        assert trace.R[-1] == pytest.approx(CHART_ABORT, abs=1e-12)
        assert np.abs(trace.Theta).max() <= 1e-12


@pytest.mark.parametrize("h", CLOSED_FORM_PROFILES)
@pytest.mark.parametrize("R0", [0.0, 1e-12])
@pytest.mark.parametrize("direction", [math.pi / 2, -math.pi / 2], ids=["south", "north"])
def test_closed_form_pole_start(h, R0, direction):
    """v0 on the v2 axis at R0 = 0 puts the surface point at a pole (phase 0:
    the north pole, pi: the south pole), where every geodesic is a meridian:
    R stays 0 and Theta moves at unit rate, Theta0 - t toward the north pole
    and Theta0 + t toward the south pole.  At R0 = 1e-12 the point is 1e-12
    from the pole, and the pencil must keep its relative digits."""
    prof = ZollProfile.from_string(h)
    v0 = unit_direction(prof, R0, 0.3, direction)
    trace = _assert_matches_ode(prof, (R0, 0.3), v0, 256)
    assert np.abs(trace.R).max() <= 1.01e-12
    pole_theta = 0.3 + math.copysign(1.0, direction) * trace.t
    assert np.abs(trace.Theta - pole_theta).max() <= 1e-11


def test_trace_near_chart_rim(ex1):
    """A geodesic that tops out at chart latitude 1.56, 0.011 below the
    abort latitude: the start direction is the one through the surface point
    at latitude 1.56 with the largest Clairaut constant."""
    s = indicatrix_regularized(ex1, 0.0, 1.56, +1)
    trace = finsler_geodesic(ex1, (0.0, 0.0), np.array([s.v1, s.v2]), 2 * math.pi)
    assert trace.complete
    assert float(trace.R.max()) == pytest.approx(1.56, abs=1e-6)
    assert chart_distance((float(trace.R[-1]), float(trace.Theta[-1])),
                          (0.0, 0.0)) <= 1e-6
    assert np.abs(finsler_F(ex1, trace.R, 0.0, (trace.vR, trace.vTheta)).F - 1.0).max() <= 1e-12


def test_cold_ray_solve_near_glue_point_at_rim(ex1):
    """A cold solve of a nearly vertical ray close to the chart rim, where
    asin(sin R) and |R| differ in the last digits: F matches the vertical
    ray's value up to the O(v1^2) term (dF/dv1 = 0 on the v2 axis)."""
    R = 1.5600000100725198
    for v1 in (5.551681485291282e-07, -5.551681485291282e-07, 3e-9):
        F = finsler_F(ex1, R, 0.0, (v1, -92.87593661420159)).F
        F_axis = finsler_F(ex1, R, 0.0, (0.0, -92.87593661420159)).F
        assert F == pytest.approx(F_axis, rel=1e-9)


def test_chart_coordinates_match_spherical_trig(sphere):
    """Round-sphere ground truth: the chart point of the great circle through
    p with azimuth phi, computed by vector algebra (plane normal and
    northernmost point), must coincide with coords_of_geodesic."""
    from zollfins import GeodesicState, coords_of_geodesic

    r_p, th_p = 1.1, 0.7
    p = np.array([math.sin(r_p) * math.cos(th_p),
                  math.sin(r_p) * math.sin(th_p), math.cos(r_p)])
    e_r = np.array([math.cos(r_p) * math.cos(th_p),
                    math.cos(r_p) * math.sin(th_p), -math.sin(r_p)])
    e_t = np.array([-math.sin(th_p), math.cos(th_p), 0.0])
    z_hat = np.array([0.0, 0.0, 1.0])
    for phi in (0.3, 0.9, 2.0, 3.5, 5.0):
        c = math.sin(phi) * math.sin(r_p)
        if abs(c) < 1e-3 or abs(abs(c) - 1.0) < 1e-3:
            continue
        d = math.cos(phi) * e_r + math.sin(phi) * e_t
        normal = np.cross(p, d)
        apex = np.cross(np.cross(z_hat, normal), normal)
        apex = apex / np.linalg.norm(apex)
        if apex[2] < 0:
            apex = -apex
        th_turn = math.atan2(apex[1], apex[0]) % (2 * math.pi)
        expect_R = math.copysign(math.asin(abs(c)), c)
        expect_Th = th_turn if c > 0 else (th_turn + math.pi) % (2 * math.pi)
        eps = +1 if math.cos(phi) >= 0 else -1
        pt = coords_of_geodesic(sphere, GeodesicState(r_p, th_p, c, eps))
        assert pt.R == pytest.approx(expect_R, abs=1e-12)
        diff = (pt.Theta - expect_Th + math.pi) % (2 * math.pi) - math.pi
        assert abs(diff) < 1e-10


def test_invariants_directional_derivative_oracle(ex2):
    """The frame derivatives of the curvature behind I and J, reproduced by
    finite differences of G along the velocity and its normal."""
    from zollfins.profile import gauss_curvature

    r, phi = 1.2, 0.8
    one_h = 1.0 + ex2.h(math.cos(r))
    gdot_r = math.cos(phi) / one_h
    n_r = -math.sin(phi) / one_h
    step = 1e-6
    fd_along = (gauss_curvature(ex2, r + step * gdot_r)
                - gauss_curvature(ex2, r - step * gdot_r)) / (2 * step)
    fd_normal = (gauss_curvature(ex2, r + step * n_r)
                 - gauss_curvature(ex2, r - step * n_r)) / (2 * step)
    pair = invariants_IJ(ex2, r, phi)
    assert pair.g_theta2 == pytest.approx(fd_along, abs=1e-7)
    assert pair.g_theta1 == pytest.approx(fd_normal, abs=1e-7)
    g_val = gauss_curvature(ex2, r)
    assert pair.I == pytest.approx(0.5 * fd_along / g_val ** 1.5, abs=1e-7)
    assert pair.J == pytest.approx(-0.5 * fd_normal / g_val ** 1.5, abs=1e-7)
