import math
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zollfins import (BandError, DomainError, ZollProfile, example1, example2,
                      jacobi_ode_check, jacobi_pair, turning_latitude)
from zollfins import jacobi
from zollfins.jacobi import (PhaseKernel, c1_coefficient, curvature_integral,
                             curvature_integral_full, curvature_integral_tail,
                             hpp_integral, hpp_integral_quad)

from oracles import jacobi_pair_direct


def interior(c, n=25, pad=1e-3):
    rc = turning_latitude(c)
    return np.linspace(rc + pad, math.pi - rc - pad, n)


# -- the basic field y = y1 / c1, with y1' / c1 = cos r / (1 + h(cos r)) ------------

def test_y_at_turning_point(ex1):
    rc = turning_latitude(0.5)
    assert jacobi_pair(ex1, 0.5, rc, +1).y1 == 0.0


def test_y_round_sphere(sphere):
    c1 = c1_coefficient(sphere, 0.0)
    for r in (0.3, 1.2, 2.7):
        pair = jacobi_pair(sphere, 0.0, r, +1)
        assert pair.y1 / c1 == pytest.approx(math.sin(r), abs=1e-15)
        assert pair.y1_prime / c1 == pytest.approx(math.cos(r), abs=1e-15)


def test_y_example1(ex1):
    y1 = jacobi_pair(ex1, 0.5, math.pi / 2, +1).y1
    assert y1 / c1_coefficient(ex1, 0.5) == pytest.approx(math.sqrt(0.75), abs=1e-15)


def test_y_band_guard(ex1):
    with pytest.raises(BandError):
        jacobi_pair(ex1, 0.5, 0.1, +1)


# -- initial conditions and round-sphere closed form --------------------------------

def test_initial_conditions_exact(ex2):
    for c in (0.2, 0.5, 0.8):
        pair = jacobi_pair(ex2, c, turning_latitude(c), +1)
        assert pair.y1 == 0.0
        assert pair.y1_prime == pytest.approx(1.0, abs=1e-15)
        assert pair.y2 == pytest.approx(1.0, abs=1e-15)
        assert pair.y2_prime == pytest.approx(0.0, abs=1e-14)


def test_round_sphere_closed_form(sphere):
    # c = 0: t = r on the ascending branch, so y1 = sin t and y2 = cos t;
    # the descending branch visits the same latitudes at t = 2 pi - r.
    for r in np.linspace(0.05, math.pi - 0.05, 29):
        up = jacobi_pair(sphere, 0.0, float(r), +1)
        assert up.y1 == pytest.approx(math.sin(r), abs=1e-14)
        assert up.y1_prime == pytest.approx(math.cos(r), abs=1e-14)
        assert up.y2 == pytest.approx(math.cos(r), abs=1e-14)
        assert up.y2_prime == pytest.approx(-math.sin(r), abs=1e-14)
        dn = jacobi_pair(sphere, 0.0, float(r), -1)
        t = 2 * math.pi - r
        assert dn.y1 == pytest.approx(math.sin(t), abs=1e-14)
        assert dn.y2 == pytest.approx(math.cos(t), abs=1e-14)
        assert dn.y2_prime == pytest.approx(-math.sin(t), abs=1e-14)


def test_round_sphere_time_recovery(sphere):
    """y2(r) equals cos t with t recovered from the travel-time integral."""
    from zollfins.quadrature import gl_adaptive
    c = 0.0
    for r in (0.4, 1.0, 2.2):
        t, _ = gl_adaptive(lambda u: 1.0 + sphere.h(np.cos(u)), 0.0, r)
        assert jacobi_pair(sphere, c, r, +1).y2 == pytest.approx(
            math.cos(t), abs=1e-8)


# -- Wronskian ------------------------------------------------------------------------

@pytest.mark.parametrize("c", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_wronskian_constant(all_good, c):
    for prof in all_good:
        for r in interior(c):
            for branch in (+1, -1):
                w = jacobi_pair(prof, c, float(r), branch).wronskian()
                assert abs(w + 1.0) < 1e-9


@given(c=st.floats(min_value=0.05, max_value=0.93),
       frac=st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
@settings(max_examples=120, deadline=None)
def test_wronskian_property(c, frac):
    prof = example2()
    rc = turning_latitude(c)
    r = rc + frac * (math.pi - 2 * rc)
    assert abs(jacobi_pair(prof, c, r, +1).wronskian() + 1.0) < 1e-9


def test_wronskian_spot_value(ex2):
    pair = jacobi_pair(ex2, 0.3, 1.2, +1)
    assert abs(pair.wronskian() + 1.0) < 1e-9
    # Same point through the literal quadrature route.
    direct = jacobi_pair_direct(ex2, 0.3, 1.2)
    assert abs(direct.wronskian() + 1.0) < 1e-9
    assert direct.y2 == pytest.approx(pair.y2, abs=1e-12)
    assert direct.y2_prime == pytest.approx(pair.y2_prime, abs=1e-12)


# -- the two evaluation routes agree -----------------------------------------------------

@pytest.mark.parametrize("c", [0.2, 0.5, 0.8])
def test_direct_route_matches_regularized(all_good, c):
    rc = turning_latitude(c)
    for prof in all_good:
        for r in np.linspace(rc + 1e-3, math.pi / 2 - 0.05, 15):
            a = jacobi_pair(prof, c, float(r), +1)
            b = jacobi_pair_direct(prof, c, float(r))
            assert b.y2 == pytest.approx(a.y2, abs=1e-12)
            assert b.y2_prime == pytest.approx(a.y2_prime, abs=1e-12)


def test_direct_route_refuses_upper_band(ex1):
    with pytest.raises(DomainError):
        jacobi_pair_direct(ex1, 0.3, 2.0)


def test_hpp_integral_closed_vs_quadrature(ex1_strong, ex2):
    for prof in (ex1_strong, ex2):
        for c in (0.15, 0.6):
            for r in interior(c, 11):
                closed = float(hpp_integral(prof, c, float(r)))
                quad = hpp_integral_quad(prof, c, float(r))
                assert closed == pytest.approx(quad, abs=1e-13)
    # Chart value R = 0.6, on both sides of the equator.
    for r in (1.0, 1.8, 2.4):
        closed = float(hpp_integral(ex2, math.sin(0.6), r))
        assert closed == pytest.approx(hpp_integral_quad(ex2, math.sin(0.6), r),
                                       abs=1e-13)


T21 = (0.01953125, -1.50390625, 32.484375, -321.75, 1751.75, -5733.0, 11760.0,
       -15232.0, 12096.0, -5376.0, 1024.0)


@pytest.mark.parametrize("coeffs", [(0.25, -0.25), (1.0, -2.0, 1.0), (0.3, 0.2, -0.5),
                                    T21])
@pytest.mark.parametrize("R", [0.0, 0.7, -1.2, 1.56])
def test_kernel_s_matches_exact_rational(coeffs, R):
    """PhaseKernel.sc and sc_q, the dS/dq that the jet reads, are the
    s-coefficients of S and dS/dq at the kernel's own q = cos^2 R: they
    match exact rational arithmetic on the odd coefficients to a few
    roundoffs of the sum of the terms' magnitudes."""
    prof = ZollProfile(coeffs)
    kernel = PhaseKernel(prof, R)
    assert kernel.q == math.cos(R) ** 2
    q = Fraction(kernel.q)
    a = [Fraction(ak) for ak in prof.odd_coeffs]
    b = [2 * (k + 1) * (2 * k + 3) * a[k + 1] for k in range(len(a) - 1)]
    assert len(kernel.sc) == len(kernel.sc_q) == len(b)
    slack = 4 * (len(b) + 1) * 2.0 ** -52
    for p in range(len(b)):
        terms = [bk * (-1) ** p * comb(k, p) / (2 * p + 3) for k, bk in enumerate(b)]
        s_exact = sum(t * q ** k for k, t in enumerate(terms))
        s_size = sum(abs(t) * q ** k for k, t in enumerate(terms))
        dq_exact = sum(k * t * q ** (k - 1) for k, t in enumerate(terms) if k)
        dq_size = sum(k * abs(t) * q ** (k - 1) for k, t in enumerate(terms) if k)
        assert abs(Fraction(kernel.sc[p]) - s_exact) <= slack * s_size
        assert abs(Fraction(kernel.sc_q[p]) - dq_exact) <= slack * dq_size


def test_kernel_construction_is_arithmetic_only(monkeypatch):
    """A kernel reads the profile's S table at its own q: no turning
    latitude, asin or binomial is computed."""
    prof = ZollProfile(T21)

    def forbidden(*args):
        raise AssertionError("called while building a kernel")

    for module, name in ((jacobi, "turning_latitude"), (math, "asin"), (math, "comb")):
        monkeypatch.setattr(module, name, forbidden)
    for R in (0.0, 0.7, -1.2, 1.56):
        PhaseKernel(prof, R)


def test_curvature_integral_bridge(ex2, all_good):
    """Above the equator the finite part of Phi is -tail(r): the full-band
    finite part -Psi(pi - r_c) / cos^2 r_c vanishes for odd h, since the
    phase integrand sin^2 u h''(cos r_c cos u) is odd about u = pi/2."""
    # -tail(r) against the regularized form of the finite part at r.
    c, r_probe = 0.35, 2.2
    tail = curvature_integral_tail(ex2, c, r_probe)
    rc = turning_latitude(c)
    q = math.cos(rc) ** 2
    x = math.cos(r_probe)
    y = math.sqrt(math.sin(r_probe - rc) * math.sin((math.pi - rc) - r_probe))
    reg = ((1.0 + ex2.h(x)) * y / x - ex2.h_prime(x) * y
           - float(hpp_integral(ex2, c, r_probe))) / q
    assert -tail == pytest.approx(reg, abs=1e-11)
    # The full-band Psi is 0 to 40 digits, and its quadrature to roundoff.
    for prof in all_good + [ZollProfile((1.0, -2.0, 1.0))]:
        hpp = [mpmath.mpf(b) for b in prof.hpp_table]
        for c in (0.0, 0.35, 0.7, 0.96):
            with mpmath.workdps(40):
                cos_rc = mpmath.sqrt(1 - mpmath.mpf(c) ** 2)

                def integrand(u):
                    z = cos_rc * mpmath.cos(u)
                    return mpmath.sin(u) ** 2 * z * mpmath.polyval(hpp[::-1], z * z)

                psi = mpmath.quad(integrand, [0, mpmath.pi / 2, mpmath.pi])
            assert abs(psi) < 1e-35
            assert abs(curvature_integral_full(prof, c)) <= 1e-15


def test_curvature_integral_monotone_below_equator(ex1):
    c = 0.4
    vals = [curvature_integral(ex1, c, r)
            for r in np.linspace(turning_latitude(c) + 1e-3, 1.5, 9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))  # integrand is positive


# -- the Jacobi equation -------------------------------------------------------------------

def test_ode_residual_round_sphere(sphere):
    res = jacobi_ode_check(sphere, 0.0, np.linspace(0.2, math.pi - 0.2, 9))
    assert res < 1e-6


@pytest.mark.parametrize("prof_name,c", [("ex1", 0.5), ("ex2", 0.7)])
def test_ode_residual_examples(request, prof_name, c):
    prof = request.getfixturevalue(prof_name)
    res = jacobi_ode_check(prof, c, interior(c, 9, pad=0.05))
    assert res < 1e-5


def test_c1_rejects_equators(ex1):
    with pytest.raises(DomainError):
        c1_coefficient(ex1, 1.0)
    with pytest.raises(DomainError):
        jacobi_pair(ex1, 1.0, math.pi / 2, +1)


def test_jacobi_pair_matches_ode_integration(ex1_strong, ex2):
    """Independent oracle: integrate y'' = -G(r(t)) y as an initial value
    problem in the regular phase variable and compare both normalized
    solutions against the closed quadrature forms across the whole band,
    descending branch included."""
    from scipy.integrate import solve_ivp
    from zollfins.profile import curvature_x

    for prof, c in ((ex1_strong, 0.45), (ex2, 0.25)):
        rc = turning_latitude(c)
        cos_rc = math.cos(rc)

        def rhs(u, state):
            z = cos_rc * math.cos(u)
            dt_du = 1.0 + prof.h(z)
            g_val = float(curvature_x(prof, z))
            y1, y1p, y2, y2p = state
            return [y1p * dt_du, -g_val * y1 * dt_du,
                    y2p * dt_du, -g_val * y2 * dt_du]

        u_grid = np.linspace(0.15, 2 * math.pi - 0.15, 23)
        sol = solve_ivp(rhs, (0.0, float(u_grid[-1])), [0.0, 1.0, 1.0, 0.0],
                        method="DOP853", rtol=1e-12, atol=1e-14,
                        t_eval=u_grid)
        assert sol.success
        for k, u in enumerate(u_grid):
            r = math.acos(cos_rc * math.cos(u))
            branch = +1 if math.sin(u) > 0 else -1
            pair = jacobi_pair(prof, c, r, branch)
            assert sol.y[0][k] == pytest.approx(pair.y1, abs=1e-9)
            assert sol.y[1][k] == pytest.approx(pair.y1_prime, abs=1e-9)
            assert sol.y[2][k] == pytest.approx(pair.y2, abs=1e-9)
            assert sol.y[3][k] == pytest.approx(pair.y2_prime, abs=1e-9)
