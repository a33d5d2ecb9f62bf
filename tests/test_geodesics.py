import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson, solve_ivp

from zollfins import (BandError, DomainError, GeodesicState, ZollProfile,
                      closure_integrals, integrate_geodesic, surface_distance,
                      turning_latitude)
from zollfins.geodesics import band_radicand

C_GRID = [0.0, 0.1, -0.1, 0.3, -0.3, 0.5, -0.5, 0.7, -0.7, 0.9, -0.9]


def closure_oracle(profile, c, n=20001):
    """Simpson's rule on the substituted integrands; independent of the
    Gauss-Legendre path used by closure_integrals."""
    rc = math.asin(abs(c))
    u = np.linspace(0.0, math.pi, n)
    z = math.cos(rc) * np.cos(u)
    t_val = simpson(1.0 + profile.h(z), x=u)
    th = simpson(math.sin(rc) * (1.0 + profile.h(z)) / (1.0 - z * z), x=u) \
        if c != 0 else math.pi
    return t_val, th


# -- states and right-hand side ------------------------------------------------------

def test_turning_latitude():
    assert turning_latitude(0.0) == 0.0
    assert turning_latitude(1.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert turning_latitude(0.5) == pytest.approx(math.asin(0.5), abs=1e-15)
    assert turning_latitude(-0.5) == turning_latitude(0.5)
    with pytest.raises(DomainError):
        turning_latitude(1.1)


def test_non_finite_clairaut_constant_rejected(ex1):
    """NaN fails the |c| <= 1 checks instead of slipping through min(1, nan),
    which made closure_integrals(p, nan) return (pi, nan)."""
    with pytest.raises(DomainError):
        turning_latitude(math.nan)
    with pytest.raises(DomainError):
        closure_integrals(ex1, math.nan)
    with pytest.raises(DomainError):
        GeodesicState(1.0, 0.0, math.nan, +1)


def test_state_validation():
    GeodesicState(math.pi / 2, 0.0, 1.0, +1)
    with pytest.raises(BandError):
        GeodesicState(0.3, 0.0, 0.9, +1)     # sin(0.3) < 0.9
    with pytest.raises(DomainError):
        GeodesicState(1.0, 0.0, 0.5, 0)


def test_state_energy_residual(ex1):
    for r, c, sg in [(1.0, 0.5, +1), (2.0, -0.3, -1), (math.pi / 2, 0.9, +1)]:
        assert GeodesicState(r, 0.1, c, sg).energy_residual(ex1) < 1e-15


def test_band_radicand_exact_zeros():
    for c in (0.2, 0.7):
        rc = turning_latitude(c)
        assert band_radicand(c, rc) == 0.0
        assert band_radicand(c, math.pi - rc) == 0.0


# -- closure integrals -----------------------------------------------------------------

def test_closure_round_meridian(sphere):
    t_val, th = closure_integrals(sphere, 0.0)
    assert t_val == pytest.approx(math.pi, abs=1e-14)
    assert th == math.pi


@pytest.mark.parametrize("c", C_GRID)
def test_closure_grid(all_good, c):
    for prof in all_good:
        t_val, th = closure_integrals(prof, c)
        assert abs(t_val - math.pi) < 1e-8
        assert abs(th - math.pi) < 1e-8


def test_closure_against_simpson_oracle(ex1_strong):
    t_val, th = closure_integrals(ex1_strong, 0.9)
    t_ref, th_ref = closure_oracle(ex1_strong, 0.9)
    assert t_val == pytest.approx(t_ref, abs=1e-8)
    assert th == pytest.approx(th_ref, abs=1e-8)


def test_closure_rejects_equator(ex1):
    with pytest.raises(DomainError):
        closure_integrals(ex1, 1.0)


# -- trace integration -------------------------------------------------------------------

def test_meridian_round_sphere(sphere):
    state = GeodesicState(0.5, 1.0, 0.0, +1)
    trace = integrate_geodesic(sphere, state, 2 * math.pi, tol=1e-10)
    # r(t) = r0 + t until the south pole.
    mask = trace.t < math.pi - 0.5 - 1e-9
    assert np.allclose(trace.r[mask], 0.5 + trace.t[mask], atol=1e-9)
    # Longitude flips by pi at the pole crossing.
    after = (trace.t > math.pi - 0.5 + 1e-9) & (trace.t < 2 * math.pi - 0.5 - 1e-9)
    assert np.allclose(trace.theta[after] % (2 * math.pi),
                       (1.0 + math.pi) % (2 * math.pi), atol=1e-9)


def test_equator_closed_form(ex2):
    state = GeodesicState(math.pi / 2, 0.3, -1.0, +1)
    trace = integrate_geodesic(ex2, state, 5.0)
    assert np.allclose(trace.r, math.pi / 2)
    assert np.allclose(trace.theta, 0.3 - trace.t, atol=1e-15)


@pytest.mark.parametrize("c", [0.5, -0.5, 0.9])
def test_period_and_confinement(ex1, c):
    rc = turning_latitude(c)
    state = GeodesicState(rc, 0.7, c, +1)
    trace = integrate_geodesic(ex1, state, 2 * math.pi, tol=1e-10)
    dist = surface_distance(ex1, (state.r, state.theta),
                            (float(trace.r[-1]), float(trace.theta[-1])))
    assert dist < 1e-6
    assert int(trace.sign[-1]) == state.sign
    assert trace.r.min() >= rc - 1e-9
    assert trace.r.max() <= math.pi - rc + 1e-9
    # The latitude oscillation flips the radial sign twice per period.
    assert int(np.count_nonzero(np.diff(trace.sign))) == 2


@pytest.mark.parametrize("coeffs", [(1.0, -2.0, 1.0), (0.25, -0.25)])
def test_phase_matches_tight_reference(coeffs):
    """The phase carries the whole error of a trace: at the default tol it
    stays within 1e-8 of an rtol 1e-13 solution over 4 pi, on meridians, at
    tiny |c| (where the longitude rate peaks with width |c|) and near the
    equator, from the turning point and from both halves of the band."""
    profile = ZollProfile(coeffs)
    for c in (0.0, 1e-10, 1e-5, 0.5, -0.5, 0.99, -0.99):
        cos_rc = math.cos(turning_latitude(c))

        def rate(t, u):
            return [1.0 / (1.0 + profile.h(cos_rc * math.cos(u[0])))]

        for u0 in (0.0, 1.0, -2.5):
            sin_r = math.sqrt(c * c + (1 - c * c) * math.sin(u0) ** 2)
            state = GeodesicState(math.atan2(sin_r, cos_rc * math.cos(u0)), 0.3,
                                  c, -1 if u0 < 0 else +1)
            trace = integrate_geodesic(profile, state, 4 * math.pi)
            ref = solve_ivp(rate, (0.0, 4 * math.pi), [u0], method="DOP853",
                            rtol=1e-13, atol=1e-14, t_eval=trace.t)
            assert np.max(np.abs(trace.u - ref.y[0])) < 1e-8, (c, u0)


def test_clairaut_conservation_fd(ex1_strong):
    """(dtheta/dt) sin^2 r = c, with dtheta/dt reconstructed from the trace by
    a 4th-order stencil (honest cross-check; the u-chart keeps it exact
    structurally)."""
    c = 0.6
    state = GeodesicState(turning_latitude(c), 0.0, c, +1)
    trace = integrate_geodesic(ex1_strong, state, 2 * math.pi, tol=1e-10,
                               samples_per_period=4096)
    th, t = trace.theta, trace.t
    dt = t[1] - t[0]
    dth = (-th[4:] + 8 * th[3:-1] - 8 * th[1:-3] + th[:-4]) / (12 * dt)
    resid = np.abs(dth * np.sin(trace.r[2:-2]) ** 2 - c)
    assert resid.max() < 1e-6


def test_energy_conserved_along_trace(ex2):
    c = 0.4
    state = GeodesicState(turning_latitude(c), 0.0, c, +1)
    trace = integrate_geodesic(ex2, state, 2 * math.pi, tol=1e-10)
    for k in range(0, len(trace.t), 37):
        st = GeodesicState(float(np.clip(trace.r[k], turning_latitude(c), None)),
                           float(trace.theta[k]), c, int(trace.sign[k]))
        assert st.energy_residual(ex2) < 1e-10


def test_trace_monotone_time_and_tol_guard(ex1):
    state = GeodesicState(turning_latitude(0.5), 0.0, 0.5, +1)
    trace = integrate_geodesic(ex1, state, 1.0)
    assert np.all(np.diff(trace.t) > 0)
    with pytest.raises(DomainError):
        integrate_geodesic(ex1, state, 1.0, tol=1e-3)
    with pytest.raises(DomainError):
        integrate_geodesic(ex1, state, -1.0)


def test_closure_matches_trace(ex1):
    """The quadrature oracle and the ODE path agree on the half-period."""
    c = 0.5
    t_half, th_half = closure_integrals(ex1, c)
    state = GeodesicState(turning_latitude(c), 0.0, c, +1)
    trace = integrate_geodesic(ex1, state, t_half, tol=1e-11,
                               samples_per_period=2048)
    # After time T the latitude must be back at the opposite turning point.
    assert trace.r[-1] == pytest.approx(math.pi - turning_latitude(c), abs=1e-8)
    assert trace.theta[-1] == pytest.approx(th_half, abs=1e-8)


def test_closure_tiny_clairaut(ex1_strong):
    """The raw longitude-advance integrand peaks with width ~|c|; the
    factored form must stay accurate far below the standard grid."""
    for c in (1e-3, 1e-6, 1e-9, -1e-12):
        t_val, th = closure_integrals(ex1_strong, c)
        assert abs(t_val - math.pi) < 1e-13
        assert abs(th - math.pi) < 1e-13


def mp_theta(profile, c):
    """Theta = int_0^pi |c| (1 + h(z)) / (c^2 + (1 - c^2) sin^2 u) du, with
    z = sqrt(1 - c^2) cos u, at 30 digits on the raw integrand, with break
    points at |c| 8^k from both ends, where it peaks."""
    with mpmath.workdps(30):
        a = [mpmath.mpf(ak) for ak in profile.odd_coeffs]
        cm = mpmath.mpf(c)
        cos_rc = mpmath.sqrt(1 - cm * cm)

        def f(u):
            z = cos_rc * mpmath.cos(u)
            h = sum(ak * z ** (2 * j + 1) for j, ak in enumerate(a))
            return abs(cm) * (1 + h) / (cm * cm + (1 - cm * cm) * mpmath.sin(u) ** 2)

        steps = [abs(cm) * mpmath.mpf(8) ** k for k in range(-1, 14)]
        steps = [s for s in steps if s < 1]
        pts = [0] + steps + [mpmath.pi / 2] + [mpmath.pi - s for s in steps[::-1]] + [mpmath.pi]
        return mpmath.quad(f, pts)


@pytest.mark.parametrize("coeffs", [(0.25, -0.25), (1.0, -2.0, 1.0), (0.45, -0.45)])
@pytest.mark.parametrize("c", [1e-3, 1e-6, 1e-9, -1e-12])
def test_theta_matches_mpmath_raw_integrand(coeffs, c):
    profile = ZollProfile(coeffs)
    _, th = closure_integrals(profile, c)
    assert abs(th - float(mp_theta(profile, c))) <= 1e-14


def test_negative_c_reverses_longitude(ex2):
    c = -0.5
    state = GeodesicState(turning_latitude(c), 1.0, c, +1)
    t_half, th_half = closure_integrals(ex2, c)
    trace = integrate_geodesic(ex2, state, t_half, tol=1e-11,
                               samples_per_period=1024)
    # closure_integrals reports the magnitude; the actual advance is signed.
    assert trace.theta[-1] - trace.theta[0] == pytest.approx(-th_half, abs=1e-8)
