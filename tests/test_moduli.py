import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zollfins import (BandError, ConvexityViolation, DomainError,
                      GeodesicState, IndicatrixCurve, IndicatrixSample,
                      ModuliPoint, ZollProfile, closure_integrals,
                      coords_of_geodesic, implicit_polynomial, implicit_residual,
                      indicatrix_curvature, indicatrix_curve,
                      indicatrix_parametric, indicatrix_parametric_samples,
                      indicatrix_regularized, integrate_geodesic, jacobi_pair,
                      pencil_chart, turning_latitude)
from zollfins.geodesics import longitude_advance, signed_phase
from zollfins.jacobi import EQUATOR_GUARD
from zollfins.moduli import CurveEval

TWO_PI = 2 * math.pi


def band_grid(R, n=40):
    rc = abs(R)
    u = np.linspace(0.0, math.pi, n)
    return np.arccos(np.clip(math.cos(rc) * np.cos(u), -1.0, 1.0))


# -- chart coordinates -----------------------------------------------------------

def test_coords_positive_c(ex1):
    state = GeodesicState(math.pi / 6, 1.0, 0.5, +1)   # at its turning point
    pt = coords_of_geodesic(ex1, state)
    assert pt.R == pytest.approx(math.pi / 6, abs=1e-12)
    assert pt.Theta == pytest.approx(1.0, abs=1e-12)


def test_coords_negative_c(ex1):
    state = GeodesicState(math.pi / 6, 1.0, -0.5, +1)
    pt = coords_of_geodesic(ex1, state)
    assert pt.R == pytest.approx(-math.pi / 6, abs=1e-12)
    assert pt.Theta == pytest.approx(1.0 + math.pi, abs=1e-12)


def test_coords_meridian():
    from zollfins import round_sphere
    state = GeodesicState(math.pi / 2, math.pi / 2, 0.0, +1)
    pt = coords_of_geodesic(round_sphere(), state)
    assert pt.R == 0.0
    assert pt.Theta == pytest.approx(0.0, abs=1e-15)


def test_coords_equator_rejected(ex1):
    with pytest.raises(DomainError):
        coords_of_geodesic(ex1, GeodesicState(math.pi / 2, 0.0, 1.0, +1))


@pytest.mark.parametrize("c", [0.3, -0.45, 0.8])
def test_coords_invariant_along_flow(ex1_strong, c):
    """Flowing a state along its geodesic must not move its chart point."""
    rc = turning_latitude(c)
    start = GeodesicState(rc, 0.7, c, +1)
    ref = coords_of_geodesic(ex1_strong, start)
    for t_stop in (0.6, 2.0, 4.5):
        trace = integrate_geodesic(ex1_strong, start, t_stop)
        moved = trace.endpoint_state()
        pt = coords_of_geodesic(ex1_strong, moved)
        assert pt.R == pytest.approx(ref.R, abs=1e-9)
        d_theta = (pt.Theta - ref.Theta + math.pi) % TWO_PI - math.pi
        assert abs(d_theta) < 1e-8


def mp_advance(profile, c, us):
    """int_0^u c (1 + h(z)) / (c^2 + (1 - c^2) sin^2 u') du' with
    z = sqrt(1 - c^2) cos u', at each real u in us, at 40 digits on the raw
    integrand.  The integrals
    run outward from 0 through the u in order, by Gauss-Legendre on pieces
    that end at every multiple of pi, where the integrand peaks, and at
    |c| 8^k from it."""
    with mpmath.workdps(40):
        a = [mpmath.mpf(ak) for ak in profile.odd_coeffs]
        cm = mpmath.mpf(c)
        cos_rc = mpmath.sqrt(1 - cm * cm)

        def f(u):
            z = cos_rc * mpmath.cos(u)
            h = sum(ak * z ** (2 * j + 1) for j, ak in enumerate(a))
            return cm * (1 + h) / (cm * cm + (1 - cm * cm) * mpmath.sin(u) ** 2)

        steps = [abs(cm) * mpmath.mpf(8) ** k for k in range(-1, 8)]
        steps = [0] + [d for s in steps if s < 1 for d in (s, -s)]
        value = {0.0: mpmath.mpf(0)}
        for side in (+1, -1):
            acc = prev = mpmath.mpf(0)
            for u in sorted((u for u in us if side * u > 0), key=abs):
                lo, hi = sorted((prev, mpmath.mpf(u)))
                poles = range(math.floor(lo / math.pi), math.ceil(hi / math.pi) + 1)
                pts = {lo, hi} | {k * mpmath.pi + d for k in poles for d in steps
                                  if lo < k * mpmath.pi + d < hi}
                acc += side * mpmath.quad(f, sorted(pts), method="gauss-legendre")
                value[u], prev = acc, mpmath.mpf(u)
        return [value[u] for u in us]


@pytest.mark.parametrize("coeffs", [(0.25, -0.25), (1.0, -2.0, 1.0), (0.45, -0.45)])
def test_anchor_advance_matches_mpmath(coeffs):
    """The longitude advance that coords_of_geodesic takes back to the
    turning point, on both branches (the integrand is even in u, so the
    branch -1 advance is minus the branch +1 one), from |c| = 0.9 down to
    1e-6.  Dyadic panels on the raw integrand missed by up to 1.4e-15 on
    this grid; the closed form stays within 2.3e-16."""
    profile = ZollProfile(coeffs)
    for c in (0.9, -0.3, 0.3, -1e-2, 1e-4, -1e-6):
        rc = turning_latitude(c)
        for frac in (0.02, 0.9):
            r = rc + frac * (math.pi - 2 * rc)
            ref = float(mp_advance(profile, c, [signed_phase(c, r, +1)])[0])
            for sign in (+1, -1):
                advance = longitude_advance(profile, c, signed_phase(c, r, sign))
                assert abs(advance - sign * ref) <= 1e-15
                pt = coords_of_geodesic(profile, GeodesicState(r, 1.0, c, sign))
                assert pt.Theta == ((1.0 - advance) % TWO_PI if c > 0
                                    else (1.0 - advance + math.pi) % TWO_PI)


def test_longitude_advance_closed_form_matches_mpmath():
    """The closed-form longitude at every real u: floats and arrays against
    the raw integrand over [-3 pi, 4 pi], and at u = pi against the
    quadrature of k in closure_integrals.  The profile 0.3 x (1 - x^2)^3
    has a k of three terms, so every binomial of the closed form shows."""
    profile = ZollProfile((0.3, -0.9, 0.9, -0.3))
    us = np.linspace(-3 * math.pi, 4 * math.pi, 12)
    for c in (0.9, -0.3, 1e-3, -1e-6):
        ref = np.array([float(v) for v in mp_advance(profile, c, us.tolist())])
        bound = 1e-14 * (1 + np.abs(us))
        assert np.all(np.abs(longitude_advance(profile, c, us) - ref) <= bound)
        floats = [longitude_advance(profile, c, float(u)) for u in us]
        assert all(isinstance(v, float) for v in floats)
        assert np.all(np.abs(np.array(floats) - ref) <= bound)
        # math.pi falls short of pi by sin(math.pi), where the longitude
        # moves at the rate (1 + h(-cos r_c)) / c.
        rate = (1.0 + profile.h(-math.cos(turning_latitude(c)))) / c
        half = longitude_advance(profile, c, math.pi) + math.sin(math.pi) * rate
        assert abs(abs(half) - closure_integrals(profile, c)[1]) <= 1e-14


def test_pencil_chart_matches_coords_of_geodesic(all_good):
    """The one array pass of pencil_chart against coords_of_geodesic, one
    direction at a time: through both hemispheres, both branches, a meridian
    (phi = 0) and the turning points (phi = +-pi/2).  numpy's atan2 and
    asin may differ from math's in the last bit, which the square root near
    a turning point amplifies a little."""
    phis = np.concatenate((np.linspace(-4.0, 7.0, 45), [0.0, math.pi / 2, -math.pi / 2]))
    for prof in all_good:
        for r_p in (0.3, 1.1, 2.5):
            R, Theta = pencil_chart(prof, r_p, 0.7, phis)
            for phi, R_k, Theta_k in zip(phis.tolist(), R.tolist(), Theta.tolist()):
                pt = coords_of_geodesic(prof, GeodesicState(
                    r_p, 0.7, math.sin(phi) * math.sin(r_p),
                    1 if math.cos(phi) >= 0 else -1))
                assert abs(R_k - pt.R) <= 1e-14, (r_p, phi)
                assert abs((Theta_k - pt.Theta + math.pi) % TWO_PI - math.pi) <= 1e-13
    with pytest.raises(DomainError):
        pencil_chart(all_good[1], math.pi / 2, 0.0, [0.3, math.pi / 2])
    for r_p in (-0.1, math.nan):
        with pytest.raises(BandError):
            pencil_chart(all_good[1], r_p, 0.0, [0.3])


def test_pencil_chart_names_a_non_finite_input(ex1):
    """A non-finite direction angle is named (it read "|c|=nan"), and a
    non-finite longitude raises (Theta = nan came back)."""
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match=f"direction angle {bad} is not finite"):
            pencil_chart(ex1, 1.1, 0.7, [0.3, bad, math.nan])
        with pytest.raises(DomainError, match=f"longitude {bad} "):
            pencil_chart(ex1, 1.1, bad, [0.3])


def test_moduli_point_validation():
    with pytest.raises(DomainError):
        ModuliPoint(math.pi / 2, 0.0)


# -- parametric and regularized samples ----------------------------------------------

def test_turning_point_sample(ex1_strong):
    """Both glue points lie on the v2 axis exactly, on both latitude routes,
    also where asin(|sin R|) differs from |R| in the last digits.  v2 is
    -(1 + h(x))/x, at the top up to the rounding of pi - |R|, which is
    ~ulp(pi)/cos R relative."""
    for R in (0.8, 1.2, -1.2, 1.5600000100725198):
        for r, rel in ((abs(R), 0.0), (math.pi - abs(R), 1e-13)):
            x = math.cos(r)
            expected = -(1.0 + ex1_strong.h(x)) / x
            for sample in (indicatrix_parametric, indicatrix_regularized):
                s = sample(ex1_strong, R, r, +1)
                assert s.v1 == 0.0
                assert s.v2 == pytest.approx(expected, rel=rel, abs=1e-14)


def test_round_sphere_ellipse(sphere):
    for R in (0.0, math.pi / 6, math.pi / 3):
        for r in band_grid(R, 60):
            for branch in (+1, -1):
                s = indicatrix_parametric(sphere, R, float(r), branch)
                assert abs(s.v1 ** 2 + math.cos(R) ** 2 * s.v2 ** 2 - 1.0) < 1e-10


def test_regularized_round_sphere(sphere):
    # v2 = -cos r / cos^2 R, finite through the equator.
    R = 0.5
    for r in (1.0, math.pi / 2, 2.2):
        s = indicatrix_regularized(sphere, R, r, +1)
        assert s.v2 == pytest.approx(-math.cos(r) / math.cos(R) ** 2, abs=1e-14)


def test_regularized_finite_at_equator(ex2):
    s = indicatrix_regularized(ex2, 0.9, math.pi / 2, +1)
    assert math.isfinite(s.v2)
    # The 1/cos r pole is gone: compare against the nearby parametric value.
    near = indicatrix_parametric(ex2, 0.9, math.pi / 2 - 5e-3, +1)
    assert abs(near.v2 - s.v2) < 5e-2


@pytest.mark.parametrize("R", [0.2, 0.8, 1.3])
def test_parametric_matches_regularized(all_good, R):
    for prof in all_good:
        for r in band_grid(R, 50):
            if abs(r - math.pi / 2) <= 0.1:
                continue
            for branch in (+1, -1):
                a = indicatrix_parametric(prof, R, float(r), branch)
                b = indicatrix_regularized(prof, R, float(r), branch)
                assert a.v1 == b.v1
                assert abs(a.v2 - b.v2) < 1e-10


def test_batched_samples_match_one_sample_calls(all_good):
    """The batched parametric samples on verify's representation grid are the
    one-sample calls bit for bit, on both sides of the equator and inside the
    regularized dispatch window."""
    from zollfins.verify import R_GRID
    for prof in all_good:
        for R in R_GRID:
            u = np.linspace(0.0, math.pi, 64)
            rs = np.arccos(np.clip(math.cos(R) * np.cos(u), -1.0, 1.0))
            rs = list(rs) + [math.pi / 2 - 0.5 * EQUATOR_GUARD]
            branches = [(+1, -1)[k % 2] for k in range(len(rs))]
            batch = indicatrix_parametric_samples(prof, float(R), rs, branches)
            assert batch == [indicatrix_parametric(prof, float(R), float(r), b)
                             for r, b in zip(rs, branches)]


def test_parametric_branches_are_exact_mirrors(all_good):
    """Branch -1 of the parametric sample is branch +1 with v1 negated, bit
    for bit, below and above the equator and inside the regularized dispatch
    window: verify's representation check samples each latitude on one
    branch only and relies on this."""
    for prof in all_good:
        for R in (0.0, 0.5, -1.1):
            for r in list(band_grid(R, 25)) + [math.pi / 2 - 0.5 * EQUATOR_GUARD,
                                               math.pi / 2,
                                               math.pi / 2 + 0.5 * EQUATOR_GUARD]:
                a = indicatrix_parametric(prof, R, float(r), +1)
                b = indicatrix_parametric(prof, R, float(r), -1)
                assert b.branch == -1
                assert b.v1 == -a.v1
                assert b.v2 == a.v2
                assert b.r == a.r


@pytest.mark.parametrize("R", [math.pi / 2 - 1.2e-6, -(math.pi / 2 - 1.2e-6)])
def test_regularized_sample_at_chart_rim(ex1, R):
    """The regularized sample works wherever the chart does, even where the
    normalized Jacobi pair of the same geodesic (|c| >= 1 - 1e-12) is refused.
    At r = pi/2 a 40-digit reference gives v1 = 1 and v2 = -0.25004252245757697;
    the band about |R| (not asin|sin R|) keeps both within 6e-11."""
    for branch in (+1, -1):
        s = indicatrix_regularized(ex1, R, math.pi / 2, branch)
        assert s.v1 == branch * 0.9999999999489729
        assert s.v2 == -0.25004252243206343
        assert abs(abs(s.v1) - 1.0) < 6e-11
        assert abs(s.v2 - -0.25004252245757697) < 6e-11
    assert indicatrix_regularized(ex1, R, abs(R), +1).v2 == -833333.5832670478
    assert indicatrix_regularized(ex1, R, math.pi - abs(R), -1).v2 == 833333.0831820028
    with pytest.raises(DomainError):
        jacobi_pair(ex1, math.sin(R), math.pi / 2)


def test_sample_domain_guards(ex1):
    with pytest.raises(BandError):
        indicatrix_parametric(ex1, 0.8, 0.1, +1)
    with pytest.raises(DomainError):
        indicatrix_parametric(ex1, math.pi / 2, 1.0, +1)
    with pytest.raises(DomainError):
        indicatrix_parametric(ex1, 0.8, 1.0, 0)


def test_example1_sample_on_implicit_curve(ex1):
    s = indicatrix_parametric(ex1, 0.4, 1.0, +1)
    assert abs(implicit_residual(ex1, 0.4, s.v1, s.v2)) < 1e-8


# -- the closed curve -------------------------------------------------------------------

def test_unit_circle_round_sphere(sphere):
    curve = indicatrix_curve(sphere, 0.0, 500)
    assert len(curve) == 998
    radii = np.array([math.hypot(s.v1, s.v2) for s in curve])
    assert np.abs(radii - 1.0).max() < 1e-10


def test_ellipse_round_sphere(sphere):
    curve = indicatrix_curve(sphere, math.pi / 3, 500)
    vals = np.array([s.v1 ** 2 + 0.25 * s.v2 ** 2 for s in curve])
    assert np.abs(vals - 1.0).max() < 1e-10


def test_curve_structure(ex1_strong):
    curve = indicatrix_curve(ex1_strong, 0.8, 128)
    # Branch +1 forward sweep, then branch -1 backward, no duplicate glue points.
    assert curve[0].branch == +1 and curve[-1].branch == -1
    assert curve[0].v1 == 0.0 and curve[0].v2 < 0
    branches = [s.branch for s in curve]
    assert branches == sorted(branches, reverse=True)
    # Winding number one around the origin.
    angles = np.unwrap([math.atan2(s.v2, s.v1) for s in curve])
    total = angles[-1] - angles[0]
    closing = (math.atan2(curve[0].v2, curve[0].v1) - angles[-1]) % TWO_PI
    assert (total + closing) / TWO_PI == pytest.approx(1.0, abs=1e-9)


def test_branch_glue_points(ex1_strong, ex2):
    for prof in (ex1_strong, ex2):
        for R in (0.3, 1.0):
            for r_glue in (abs(R), math.pi - abs(R)):
                a = indicatrix_regularized(prof, R, r_glue, +1)
                b = indicatrix_regularized(prof, R, r_glue, -1)
                assert math.hypot(a.v1 - b.v1, a.v2 - b.v2) < 1e-10


def test_indicatrix_not_centrally_symmetric(ex1_strong):
    """Top and bottom intercepts differ: (v1,v2) -> (-v1,-v2) is NOT a symmetry."""
    bottom = indicatrix_regularized(ex1_strong, 0.8, 0.8, +1)
    top = indicatrix_regularized(ex1_strong, 0.8, math.pi - 0.8, +1)
    assert abs(abs(top.v2) - abs(bottom.v2)) > 0.1


def test_curve_sample_floor(ex1):
    with pytest.raises(DomainError):
        indicatrix_curve(ex1, 0.4, 8)


def test_convexity_violation_detected(bad_curvature):
    with pytest.raises(ConvexityViolation) as excinfo:
        indicatrix_curve(bad_curvature, 0.15, 512)
    assert excinfo.value.report


# -- curvature of the curve ----------------------------------------------------------------

def test_curvature_sides_round_sphere(sphere):
    kl, kr = indicatrix_curvature(sphere, 0.0, 1.3, +1)
    assert kl == pytest.approx(1.0, abs=1e-12)
    assert kr == pytest.approx(1.0, abs=1e-12)


def test_curvature_sides_agree(ex1):
    k_ref = indicatrix_curvature(ex1, 0.4, 1.0, +1)[0]
    for R in (0.4, -0.4):
        for branch in (+1, -1):
            kl, kr = indicatrix_curvature(ex1, R, 1.0, branch)
            assert abs(kl - kr) / max(abs(kl), abs(kr)) < 1e-6
            # The curve at -R is the curve at R; the branches mirror each other.
            assert kl == pytest.approx(k_ref, rel=1e-13)


def test_strong_convexity_certificate(ex1_strong):
    for R in (0.2, 0.8, 1.3, -0.8):
        for r in band_grid(R, 60)[1:-1]:
            if min(r - abs(R), math.pi - abs(R) - r) < 1e-5:
                continue
            for branch in (+1, -1):
                kl, kr = indicatrix_curvature(ex1_strong, R, float(r), branch)
                assert kl > 0 and kr > 0
                assert abs(kl - kr) / max(kl, kr, 1.0) < 1e-12


def test_negative_curvature_found_for_bad_profile(bad_curvature):
    found = min(indicatrix_curvature(bad_curvature, 0.1, float(r), +1)[0]
                for r in np.linspace(2.6, 3.0, 25))
    assert found < 0


def test_curvature_excludes_turning_points(ex1):
    with pytest.raises(DomainError):
        indicatrix_curvature(ex1, 0.4, 0.4, +1)


# -- implicit polynomial ----------------------------------------------------------------------

def test_implicit_polynomial_example1(ex1):
    R = 0.7
    impl = implicit_polynomial(ex1, R)
    eps, q, c2 = 0.25, math.cos(R) ** 2, math.sin(R) ** 2
    assert impl.degree == 1
    assert impl.raw_top_exact == 0           # exact degree collapse
    assert impl.combined[0] == pytest.approx(eps * c2, abs=1e-16)
    assert impl.combined[1] == pytest.approx(-eps * q, abs=1e-16)


def test_implicit_polynomial_example2(ex2):
    R = 0.7
    impl = implicit_polynomial(ex2, R)
    q, s2 = math.cos(R) ** 2, math.sin(R) ** 2
    assert impl.degree == 2
    assert impl.raw_top_exact == 0
    assert impl.combined[0] == pytest.approx(s2 * s2, abs=1e-15)
    assert impl.combined[1] == pytest.approx(-2 * q * s2, abs=1e-15)
    assert impl.combined[2] == pytest.approx(-q * q / 3, abs=1e-15)


def test_implicit_polynomial_round_sphere(sphere):
    impl = implicit_polynomial(sphere, 0.7)
    assert impl.degree == -1
    assert impl.combined == ()


@given(v1=st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.just(0.5)),
       v2=st.floats(allow_nan=True, allow_infinity=True))
@example(v1=math.nan, v2=1.0)
@example(v1=1e200, v2=1.0)
@example(v1=0.5, v2=-math.inf)
@settings(max_examples=200, deadline=None)
def test_implicit_residual_is_finite_or_raises(v1, v2):
    """A non-finite vector or an overflowing residual raises DomainError
    (nan came back for (nan, 1) and (1e200, 1)); any other vector gives a
    finite residual.  The array call names the first bad vector."""
    prof = ZollProfile((1, -2, 1))
    try:
        out = implicit_residual(prof, 0.3, v1, v2)
    except DomainError as err:
        assert f"({v1}, {v2})" in str(err)
        with pytest.raises(DomainError, match=re.escape(f"({v1}, {v2})")):
            implicit_residual(prof, 0.3, [0.1, v1, 0.3, v1], [0.2, v2, 0.4, 1.0])
    else:
        assert math.isfinite(out)
        assert math.isfinite(v1) and math.isfinite(v2)


@given(v1=st.floats(allow_nan=True, allow_infinity=True),
       v2=st.floats(allow_nan=True, allow_infinity=True))
@example(v1=math.nan, v2=1.0)
@example(v1=1e200, v2=1.0)
@example(v1=math.inf, v2=1.0)
@example(v1=1e300, v2=1.0)
@settings(max_examples=200, deadline=None)
def test_implicit_methods_are_finite_or_raise(v1, v2):
    """residual, branch_gap and p_eval (here of w = v1) of the implicit
    polynomial give a finite value or raise DomainError naming their
    argument, with numpy's overflow, invalid-value and division errors
    raised (underflow is harmless here): residual(nan, 1) came back
    nan, and residual(1e200, 1), branch_gap(inf, 1, 1) and p_eval(1e300)
    warned."""
    impl = implicit_polynomial(ZollProfile((1, -2, 1)), 0.3)
    calls = [(impl.residual, (v1, v2)), (impl.branch_gap, (v1, v2, 1)), (impl.p_eval, (v1,))]
    for call, args in calls:
        named = "(" + ", ".join(map(str, args[:2])) + ")"
        try:
            with np.errstate(all="raise", under="ignore"):
                out = call(*args)
        except DomainError as err:
            assert named in str(err), call.__name__
        else:
            assert np.isfinite(out), call.__name__


def test_implicit_residual_trivial_points(ex1, sphere):
    R = 0.6
    v2_bottom = -(1.0 + ex1.h(math.cos(R))) / math.cos(R)
    assert abs(implicit_residual(ex1, R, 0.0, v2_bottom)) < 1e-14
    assert abs(implicit_residual(sphere, 0.0, 0.6, -0.8)) < 1e-15


@pytest.mark.parametrize("R", np.linspace(0.0, 1.3, 9))
def test_residual_on_parametric_samples(ex1_strong, ex2, R):
    for prof in (ex1_strong, ex2):
        for r in band_grid(float(R), 50):
            for branch in (+1, -1):
                s = indicatrix_parametric(prof, float(R), float(r), branch)
                assert abs(implicit_residual(prof, float(R), s.v1, s.v2)) < 1e-8


def test_branch_gap_sign_resolution(ex2):
    """The signed branch equation holds with sigma = sign(cos r)."""
    R = 0.5
    impl = implicit_polynomial(ex2, R)
    for r in (0.7, 1.2, 2.0, 2.5):
        s = indicatrix_regularized(ex2, R, r, +1)
        sigma = 1 if math.cos(r) > 0 else -1
        assert abs(impl.branch_gap(s.v1, s.v2, sigma)) < 1e-12


def test_dispatch_seam_continuity(ex1_strong, ex2):
    """The parametric evaluation hands off to the regularized form within
    1e-3 of the equator; both sides of the seam must agree far below the
    representation tolerance."""
    for prof in (ex1_strong, ex2):
        for R in (0.4, 1.2):
            for r in (math.pi / 2 - 2e-3, math.pi / 2 - 1.2e-3,
                      math.pi / 2 + 1.5e-3, math.pi / 2 + 3e-3):
                a = indicatrix_parametric(prof, R, r, +1)
                b = indicatrix_regularized(prof, R, r, +1)
                assert abs(a.v2 - b.v2) < 1e-9


def test_chart_mirror_symmetry(ex2):
    """All indicatrix formulas depend on R only through cos R and sin^2 R,
    so the curves at +-R coincide."""
    for r in band_grid(0.7, 21):
        a = indicatrix_regularized(ex2, 0.7, float(r), +1)
        b = indicatrix_regularized(ex2, -0.7, float(r), +1)
        assert a.v1 == b.v1 and a.v2 == b.v2
        p = indicatrix_parametric(ex2, -0.7, float(r), -1)
        q = indicatrix_parametric(ex2, 0.7, float(r), -1)
        assert p.v1 == q.v1 and abs(p.v2 - q.v2) < 1e-14


def test_coords_meridian_limit(ex1_strong):
    """Theta(c) approaches the c = 0 meridian convention linearly as c -> 0
    (the documented chart-continuity behavior)."""
    target = (0.3 - math.pi / 2) % TWO_PI
    for c, bound in ((1e-3, 1e-3), (1e-5, 1e-5), (1e-7, 1e-7)):
        pt = coords_of_geodesic(ex1_strong,
                                GeodesicState(math.pi / 2, 0.3, c, +1))
        assert abs(pt.Theta - target) < bound
        assert pt.R == pytest.approx(math.asin(c), abs=1e-15)


# -- the phase jet behind the closed-form Finsler tensor ----------------------------

def _point_at_phase(prof, R, u):
    """Curve point at signed phase u through the latitude-form regularized
    route, independent of the phase kernel."""
    r = math.acos(math.cos(R) * math.cos(u))
    s = indicatrix_regularized(prof, R, r, +1 if u >= 0 else -1)
    return np.array([s.v1, s.v2])


@pytest.mark.parametrize("R", [-0.9, 0.0, 0.3, 1.2])
def test_phase_jet_matches_central_differences(all_good, R):
    d1, d2 = 1e-5, 1e-4
    for prof in all_good:
        curve = CurveEval(prof, R)
        for u in (-2.5, -0.7, 0.4, 1.3, 2.9):
            p, p_u, p_uu, p_r, p_ur = (np.array(e) for e in curve.jet(u))
            scale = max(1.0, float(np.abs(p).max()))

            def pt(du, dr):
                return _point_at_phase(prof, R + dr, u + du)

            fd_u = (pt(d1, 0) - pt(-d1, 0)) / (2 * d1)
            fd_r = (pt(0, d1) - pt(0, -d1)) / (2 * d1)
            fd_uu = (pt(d2, 0) - 2 * pt(0, 0) + pt(-d2, 0)) / d2 ** 2
            fd_ur = (pt(d2, d2) - pt(d2, -d2) - pt(-d2, d2) + pt(-d2, -d2)) / (4 * d2 ** 2)
            assert np.abs(p - pt(0, 0)).max() < 1e-13 * scale
            assert np.abs(p_u - fd_u).max() < 1e-7 * scale
            assert np.abs(p_r - fd_r).max() < 1e-7 * scale
            assert np.abs(p_uu - fd_uu).max() < 1e-5 * scale
            assert np.abs(p_ur - fd_ur).max() < 1e-5 * scale


def test_phase_jet_regular_at_glue_points(ex2):
    """The jet is finite at u = 0 and u = pi, lands on the glue points, and
    mirrors across the v2 axis under u -> -u."""
    from zollfins.moduli import CurveEval
    curve = CurveEval(ex2, 0.8)
    bottom, top = curve.endpoint_values()
    for u, end in ((0.0, bottom), (math.pi, top)):
        jet = np.array(curve.jet(u))
        assert np.all(np.isfinite(jet))
        assert jet[0][1] == pytest.approx(end, rel=1e-14)
        assert abs(jet[1][1]) < 1e-12          # horizontal tangent on the axis
    for u in (0.3, 2.0):
        plus, minus = np.array(curve.jet(u)), np.array(curve.jet(-u))
        # P(-u) = M P(u) with M = diag(-1, 1); odd u-derivatives pick up -1.
        parity = np.array([1.0, -1.0, 1.0, 1.0, -1.0])[:, None]
        mirrored = parity * plus * np.array([-1.0, 1.0])
        assert np.allclose(minus, mirrored, rtol=1e-14, atol=1e-15)


RAY_PROFILES = ("0", "0.25,-0.25", "1,-2,1")
RAY_CHARTS = (-1.2, 0.0, 0.7, 1.5600000100725198)
RAY_DIRECTIONS = np.linspace(-math.pi, math.pi, 73)[:-1]
T21 = ("0.01953125,-1.50390625,32.484375,-321.75,1751.75,-5733.0,11760.0,"
       "-15232.0,12096.0,-5376.0,1024.0")


@pytest.mark.parametrize("R", [1.4, 1.5600000100725198])
def test_round_sphere_norm_is_exact_ellipse(sphere, R):
    """On the round sphere the indicatrix is the ellipse v1^2 + v2^2 cos^2 R
    = 1, so F is its gauge; 720 directions against mpmath.  Near the rim the
    curve is a 1:92 ellipse, where a root one ulp off costs ~1e-14; the
    grid-scan solver measured 2.0e-14 at R = 1.56."""
    cos_R = mpmath.cos(mpmath.mpf(R))
    worst = 0.0
    for a in np.linspace(0.0, TWO_PI, 721)[:-1].tolist():
        v1, v2 = math.cos(a), math.sin(a)
        exact = mpmath.sqrt(mpmath.mpf(v1) ** 2 + (mpmath.mpf(v2) * cos_R) ** 2)
        F = CurveEval(sphere, R).solve_ray(v1, v2)[0]
        worst = max(worst, float(abs(F - exact) / exact))
    assert worst <= 1e-14, worst


@pytest.mark.parametrize("coeffs", RAY_PROFILES)
def test_warm_solve_matches_cold_from_any_seed(coeffs, monkeypatch):
    """A warm solve is the cold one started elsewhere on the same bracket:
    from any seed it ends on the cold root and makes no cold solve.  At
    1,-2,1, R = 1.56, one root sits midway between two floats that are both
    Newton fixed points, 9.5e-15 apart in F, unless the solver takes the
    lower one from either side."""
    prof = ZollProfile.from_string(coeffs)
    curves = [CurveEval(prof, R) for R in RAY_CHARTS]
    cold = [[curve.solve_ray(math.cos(a), math.sin(a)) for a in RAY_DIRECTIONS]
            for curve in curves]

    def no_cold_solve(self, v1, v2):
        raise AssertionError("warm solve fell back to a cold one")

    monkeypatch.setattr(CurveEval, "_bracket_solve", no_cold_solve)
    for curve, roots in zip(curves, cold):
        for a, (scale, u_star) in zip(RAY_DIRECTIONS, roots):
            for seed in np.linspace(-math.pi, math.pi, 41):
                warm = curve.solve_ray(math.cos(a), math.sin(a), float(seed))
                assert abs(warm[0] - scale) <= 2e-15 * scale, (curve.R, a, seed)
                assert abs(warm[1] - u_star) <= 2e-15 * abs(u_star), (curve.R, a, seed)


@pytest.mark.parametrize("coeffs", RAY_PROFILES + (T21,))
def test_cold_solve_cross_product_budget(coeffs, monkeypatch):
    """A cold solve evaluates the cross product at most 32 times, also on
    the degree-21 profile, whose v2 carries ~1e-11 of roundoff, and none
    raises.  Here it takes at most 9, and 23 on degree 21; the grid scan
    and its crossing refinements took up to 50."""
    prof = ZollProfile.from_string(coeffs)
    calls = []
    cross = CurveEval._cross

    def counting(self, v1, v2, u):
        calls.append(u)
        return cross(self, v1, v2, u)

    monkeypatch.setattr(CurveEval, "_cross", counting)
    for R in RAY_CHARTS:
        curve = CurveEval(prof, R)
        for a in RAY_DIRECTIONS:
            calls.clear()
            curve.solve_ray(math.cos(a), math.sin(a))
            assert len(calls) <= 32, (R, a, len(calls))


#: The rays of the array-solve tests: 720 directions, then exactly vertical
#: rays and rays 1e-12 off vertical on all four sides of the v2 axis.
ARRAY_RAYS = np.array(
    [[math.cos(a), math.sin(a)] for a in np.linspace(-math.pi, math.pi, 721)[:-1]]
    + [[0.0, 1.0], [-0.0, 1.0], [0.0, -1.0], [-0.0, -0.5],
       [1e-12, 1.0], [-1e-12, 1.0], [1e-12, -1.0], [-1e-12, -1.0]]).T


@pytest.mark.parametrize("coeffs", RAY_PROFILES + (T21,))
def test_array_solve_matches_float_solves(coeffs):
    """An array of rays gets, ray by ray, the bits of the float solve, in
    scale and in u (its sign included): cold, from a float seed, and from
    arrays of the 41 seeds of the warm-start test, one per ray, in six
    rotations, so that every direction starts from six of them."""
    prof = ZollProfile.from_string(coeffs)
    v1, v2 = ARRAY_RAYS
    seeds = np.linspace(-math.pi, math.pi, 41)
    per_ray = [np.resize(np.roll(seeds, 7 * j), len(v1)) for j in range(6)]
    for R in RAY_CHARTS:
        curve = CurveEval(prof, R)
        for seed in [None, 1.0] + per_ray:
            scale, u_star = curve.solve_ray(v1, v2, seed)
            for k, (x, y) in enumerate(zip(v1.tolist(), v2.tolist())):
                one = curve.solve_ray(x, y, None if seed is None else float(
                    np.broadcast_to(seed, v1.shape)[k]))
                got = (float(scale[k]), float(u_star[k]))
                assert got == one and math.copysign(1.0, got[1]) == math.copysign(
                    1.0, one[1]), (R, seed, x, y)


def test_array_solve_typed_errors(ex1):
    """The array path raises the float path's errors, naming the first bad
    ray: DomainError for a zero or non-finite ray and for unequal arrays."""
    curve = CurveEval(ex1, 0.4)
    for bad in ((0.0, 0.0), (math.nan, 1.0), (1.0, math.inf)):
        v1, v2 = np.array([0.6, bad[0], -0.3]), np.array([0.8, bad[1], 0.2])
        with pytest.raises(DomainError, match=rf"\({bad[0]}, {bad[1]}\)"):
            curve.solve_ray(v1, v2)
    with pytest.raises(DomainError):
        curve.solve_ray(np.ones(3), np.ones(4))
    with pytest.raises(DomainError):
        curve.solve_ray(np.ones((2, 2)), np.ones((2, 2)))


@pytest.mark.parametrize("R", [0.3, 1.2, 1.5600000100725198])
def test_ray_root_lies_on_ray_near_glue_points(all_good, R):
    """Nearly vertical rays: the phase root the solver returns is the jet
    point the spray uses, to rounding.  A root found in the latitude and
    converted to u was off by up to 1.4e-8 rad here."""
    from zollfins.moduli import curve_cache
    for prof in all_good:
        curve = curve_cache(prof, R)
        for v1 in (1e-3, 1e-5, 1e-7, 3e-9):
            for v1s, v2 in ((v1, 1.0), (v1, -1.0), (-v1, 1.0), (-v1, -1.0)):
                _, u_star = curve.solve_ray(v1s, v2)
                p1, p2 = curve.jet(u_star)[0]
                angle = math.atan2(abs(v1s * p2 - v2 * p1), v1s * p1 + v2 * p2)
                assert angle <= 1e-14, (v1s, v2, angle)


def test_indicatrix_curve_glue_samples_on_axis():
    """Both glue samples sit on the v2 axis, also near the chart rim where
    asin(sin R) and |R| differ in the last digits."""
    from zollfins import example1
    curve = indicatrix_curve(example1(0.25), 1.5600000100725198, 64)
    assert curve[0].v1 == 0.0
    assert curve[63].v1 == 0.0


def test_curve_sequence_view_reads_arrays(ex2):
    curve = indicatrix_curve(ex2, -0.7, 64, Theta=0.4)
    assert isinstance(curve, IndicatrixCurve)
    assert len(curve) == 126 == len(curve.r) == len(curve.v1) == len(curve.v2)

    def fields(k):
        return IndicatrixSample(curve.R, curve.Theta, int(curve.branch[k]),
                                float(curve.r[k]), float(curve.v1[k]),
                                float(curve.v2[k]))

    assert curve[0] == fields(0) and curve[-1] == fields(125)
    assert curve[:10] == [fields(k) for k in range(10)]
    assert list(curve) == [fields(k) for k in range(126)]
    assert all(type(s.v1) is float and type(s.branch) is int for s in curve)


def _faulty_curve_eval(monkeypatch, depth, width=0.02, u0=0.5):
    """Raise v2 by a Gaussian bump about the phase u0 in array calls of
    CurveEval.v2_du (the ones indicatrix_curve makes).  Near the bottom of
    the curve that moves samples toward the origin: an inward dent."""
    v2_du = CurveEval.v2_du

    def faulty(self, cu, su):
        v2, v2_u = v2_du(self, cu, su)
        if isinstance(su, np.ndarray):
            v2 = v2 + depth * np.exp(-((np.arctan2(su, cu) - u0) / width) ** 2)
        return v2, v2_u

    monkeypatch.setattr(CurveEval, "v2_du", faulty)


def test_inward_dent_fails_convexity_check(monkeypatch, ex1):
    """A shallow dent keeps the polar angle monotone, so only the turn-sign
    check can catch it."""
    _faulty_curve_eval(monkeypatch, 1e-3)
    with pytest.raises(ConvexityViolation, match="concave arcs") as excinfo:
        indicatrix_curve(ex1, 0.4, 512)
    report = excinfo.value.report
    assert report and all(isinstance(s, IndicatrixSample) for s in report)


def test_fold_fails_winding_check(monkeypatch, ex1):
    """A deep narrow dent turns the polar angle back on its trailing edge."""
    _faulty_curve_eval(monkeypatch, 0.2)
    with pytest.raises(ConvexityViolation, match="star-shaped") as excinfo:
        indicatrix_curve(ex1, 0.4, 512)
    report = excinfo.value.report
    assert report and all(isinstance(s, IndicatrixSample) for s in report)
