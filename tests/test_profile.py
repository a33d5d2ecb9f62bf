import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zollfins import (DegenerateMetricError, DomainError, ProfileError,
                      ZollProfile, check_positive_curvature,
                      curvature_critical_points, curvature_fd_check, example1,
                      example2, gauss_curvature, metric_coeffs)
from zollfins.profile import curvature_x, curvature_x_prime


def brute_h(coeffs, x):
    """Term-by-term oracle for h(x) = sum a_{2k+1} x^{2k+1}."""
    return math.fsum(a * x ** (2 * k + 1) for k, a in enumerate(coeffs))


def ex1_curvature(eps, x):
    """Closed curvature formula for the first worked deformation."""
    return -(2 * eps * x**3 + 1) / (eps * x**3 - eps * x - 1) ** 3


# -- construction ---------------------------------------------------------------

def test_from_string_variants():
    assert ZollProfile.from_string("0.25,-0.25").odd_coeffs == (0.25, -0.25)
    assert ZollProfile.from_string("1,-2,1").odd_coeffs == (1.0, -2.0, 1.0)
    assert ZollProfile.from_string("0").odd_coeffs == (0.0,)
    assert ZollProfile.from_string("").odd_coeffs == ()
    with pytest.raises(ProfileError):
        ZollProfile.from_string("1,oops")


def test_nonzero_sum_rejected():
    with pytest.raises(ProfileError):
        ZollProfile((0.25, -0.2499))


def test_large_amplitude_rejected():
    # 3(x - x^3) peaks at 2*3/(3*sqrt(3)) ~ 1.15 > 1.
    with pytest.raises(ProfileError):
        ZollProfile((3.0, -3.0))


@pytest.mark.parametrize("coeffs", [(math.nan, math.nan), (math.nan,),
                                    (math.inf, -math.inf), (math.inf,),
                                    (1e308, 1e308)])
def test_non_finite_coefficients_rejected(coeffs):
    with pytest.raises(ProfileError):
        ZollProfile(coeffs)


def test_bad_curvature_profile_still_constructs(bad_curvature):
    # |h| < 1 holds for eps = 0.6; only the curvature sign degrades.
    assert bad_curvature.odd_coeffs == (0.6, -0.6)


# -- evaluation -------------------------------------------------------------------

def test_eval_h_values(ex1, ex2):
    assert ex1.h(0.0) == 0.0
    assert abs(ex1.h(1.0)) <= 1e-12
    assert abs(ex1.h(-1.0)) <= 1e-12
    assert ex2.h(0.5) == pytest.approx(brute_h(ex2.odd_coeffs, 0.5), abs=1e-15)
    assert ex2.h(0.5) == pytest.approx(0.28125, abs=1e-15)


@given(x=st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_oddness_exact(x):
    # Horner in x^2 makes h(-x) == -h(x) hold bit-for-bit.
    prof = example2()
    assert prof.h(-x) == -prof.h(x)


@given(x=st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_eval_matches_brute_force(x):
    prof = example1(0.45)
    assert prof.h(x) == pytest.approx(brute_h(prof.odd_coeffs, x), abs=1e-14)


def test_domain_error():
    prof = example1(0.25)
    with pytest.raises(DomainError):
        prof.h(1.001)
    with pytest.raises(DomainError):
        prof.h_prime(-1.1)
    with pytest.raises(DomainError):
        prof.h_second(-1.1)
    for x in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(DomainError):
            prof.h(x)
        with pytest.raises(DomainError):
            gauss_curvature(prof, x)


@pytest.mark.parametrize("method", ["h", "h_prime", "h_second"])
def test_float_path_matches_array_path(sphere, ex1, ex2, method):
    xs = np.linspace(-1.0, 1.0, 1001)
    for prof in (sphere, ex1, ex2):
        f = getattr(prof, method)
        scalar = [f(float(x)) for x in xs]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(np.array(scalar), f(xs))
        # Same bits as numpy's polyval on the coefficient tables.
        table, odd = {"h": (prof.odd_coeffs, True), "h_prime": (prof.hp_table, False),
                      "h_second": (prof.hpp_table, True)}[method]
        ref = np.polynomial.polynomial.polyval(xs * xs, np.asarray(table or (0.0,)))
        assert np.array_equal(f(xs), xs * ref if odd else ref)


@pytest.mark.parametrize("method", ["h", "h_prime", "h_second"])
def test_float_path_domain_error(ex1, method):
    f = getattr(ex1, method)
    for x in (math.nan, 1.0 + 2e-12, -1.0 - 2e-12, math.inf):
        with pytest.raises(DomainError):
            f(x)
    assert f(1.0 + 0.5e-12) == f(np.array([1.0 + 0.5e-12]))[0]


def test_derivative_values(ex1, ex2):
    assert ex1.h_prime(0.0) == pytest.approx(0.25, abs=1e-15)  # eps (1 - 3 x^2) at 0
    assert ex1.h_second(0.0) == 0.0                            # h'' is odd
    assert ex2.h_second(1.0) == pytest.approx(8.0, abs=1e-12)  # -12 x + 20 x^3 at 1


@pytest.mark.parametrize("x", np.linspace(-0.95, 0.95, 21))
def test_derivatives_match_finite_differences(ex2, x):
    step = 1e-5
    fd_p = (ex2.h(x + step) - ex2.h(x - step)) / (2 * step)
    fd_pp = (ex2.h(x + step) - 2 * ex2.h(x) + ex2.h(x - step)) / step**2
    assert ex2.h_prime(x) == pytest.approx(fd_p, abs=1e-8)
    assert ex2.h_second(x) == pytest.approx(fd_pp, abs=1e-5)


def test_hpp_coeffs(ex1, ex2):
    # h'' = -6 eps x for the cubic profile, -12x + 20x^3 for the quintic.
    assert ex1.hpp_table == (-1.5,)
    assert ex2.hpp_table == (-12.0, 20.0)


@pytest.mark.parametrize("coeffs", [(), (0.25, -0.25), (1.0, -2.0, 1.0), (0.45, -0.45)])
def test_k_table_exact(coeffs):
    """h(z) = (1 - z^2) k(z) + (sum a) z^(2n+1) holds exactly, in rational
    arithmetic on the stored floats.  No closure check can see a fault in
    k: Theta - pi = |c| int_0^pi k(cos r_c cos u) du vanishes for every odd
    k, whatever its coefficients, so the table is checked here directly."""
    prof = ZollProfile(coeffs)
    a = [Fraction(ak) for ak in prof.odd_coeffs]
    m = [Fraction(mk) for mk in prof.k_table]
    assert len(m) == max(len(a) - 1, 0)
    for z in [Fraction(j, 16) for j in range(-16, 17)] + [Fraction(0.3), Fraction(-0.77)]:
        h = sum(ak * z ** (2 * j + 1) for j, ak in enumerate(a))
        k = sum(mk * z ** (2 * j + 1) for j, mk in enumerate(m))
        remainder = sum(a) * z ** (2 * len(a) - 1) if a else 0
        assert (1 - z * z) * k + remainder == h


#: 2^-10 (T_21(x) - x), T_21 the Chebyshev polynomial: convex, sum |a_j| = 5.3e4.
T21 = (0.01953125, -1.50390625, 32.484375, -321.75, 1751.75, -5733.0, 11760.0,
       -15232.0, 12096.0, -5376.0, 1024.0)


@pytest.mark.parametrize("coeffs", [(), (0.25, -0.25), (1.0, -2.0, 1.0),
                                    (0.5, -1.0, 0.75, -0.25), T21])
def test_s_table_exact(coeffs):
    """Row p of s_table holds the q-coefficients b_k (-1)^p C(k, p) / (2p + 3)
    of w^p in the reduced h'' sum S, b = hpp_table, each the rational value
    rounded once (the products b_k C(k, p) are exact for these profiles)."""
    prof = ZollProfile(coeffs)
    b = [Fraction(bk) for bk in prof.hpp_table]
    assert len(prof.s_table) == len(b)
    for p, row in enumerate(prof.s_table):
        assert row == tuple(float(bk * (-1) ** p * comb(k, p) / (2 * p + 3))
                            for k, bk in enumerate(b))


# -- curvature ----------------------------------------------------------------------

@pytest.mark.parametrize("eps", [0.25, 0.45])
def test_curvature_closed_form_example1(eps):
    prof = example1(eps)
    for x in np.linspace(-1.0, 1.0, 100):
        assert curvature_x(prof, float(x)) == pytest.approx(
            ex1_curvature(eps, float(x)), abs=1e-12)
    assert gauss_curvature(prof, math.pi) == pytest.approx(1 - 2 * eps, abs=1e-14)
    assert gauss_curvature(prof, math.pi / 2) == pytest.approx(1.0, abs=1e-14)


def test_round_sphere_curvature(sphere):
    rs = np.linspace(0.0, math.pi, 17)
    assert np.allclose(gauss_curvature(sphere, rs), 1.0, atol=1e-15)


def test_curvature_x_prime_matches_fd(ex2):
    for x in np.linspace(-0.9, 0.9, 19):
        step = 1e-6
        fd = (curvature_x(ex2, x + step) - curvature_x(ex2, x - step)) / (2 * step)
        assert curvature_x_prime(ex2, float(x)) == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_fd_curvature_oracle(sphere, ex1, ex2, all_good):
    assert curvature_fd_check(sphere, 1.0) == pytest.approx(1.0, abs=1e-7)
    assert curvature_fd_check(ex1, math.pi / 2) == pytest.approx(
        gauss_curvature(ex1, math.pi / 2), abs=1e-6)
    assert curvature_fd_check(ex2, 1.2) == pytest.approx(
        gauss_curvature(ex2, 1.2), abs=1e-6)
    for prof in all_good:
        for r in np.linspace(0.05, math.pi - 0.05, 100):
            cf = gauss_curvature(prof, float(r))
            fd = curvature_fd_check(prof, float(r))
            assert abs(fd - cf) / max(1.0, abs(cf)) < 1e-6


def test_fd_check_step_guards(ex1):
    """The nested differences reach 2 FD_STEP on each side of r."""
    with pytest.raises(DomainError):
        curvature_fd_check(ex1, 1e-5)


def test_positive_curvature_witnesses(ex2, ex1_strong, bad_curvature):
    ok, _ = check_positive_curvature(ex2)
    assert ok
    ok, _ = check_positive_curvature(ex1_strong)
    assert ok
    ok, (x_min, g_min) = check_positive_curvature(bad_curvature)
    assert not ok
    assert x_min == pytest.approx(-1.0, abs=1e-9)
    assert g_min == pytest.approx(-0.2, abs=1e-12)


def test_example2_critical_pairs(ex2):
    published = [(0.33, 0.56), (0.88, 1.42), (-0.35, 2.18), (-0.81, 0.36)]
    located = curvature_critical_points(ex2)
    assert len(located) == len(published)
    for x_ref, g_ref in published:
        best = min(located, key=lambda p: abs(p[0] - x_ref))
        assert abs(best[0] - x_ref) <= 0.01
        assert abs(best[1] - g_ref) <= 0.01


# -- metric -----------------------------------------------------------------------

def test_metric_coeffs(sphere, ex1, ex2):
    assert metric_coeffs(sphere, math.pi / 2) == pytest.approx((1.0, 1.0))
    assert metric_coeffs(ex1, math.pi / 2) == pytest.approx((1.0, 1.0))
    g_rr, g_tt = metric_coeffs(ex2, math.pi / 3)
    expected = (1.0 + brute_h(ex2.odd_coeffs, 0.5)) ** 2
    assert g_rr == pytest.approx(expected, abs=1e-14)
    assert g_rr == pytest.approx(1.28125 ** 2, abs=1e-14)
    assert g_tt == pytest.approx(0.75, abs=1e-15)


def test_metric_degenerates_at_poles(ex1):
    with pytest.raises(DegenerateMetricError):
        metric_coeffs(ex1, 0.0)
    with pytest.raises(DegenerateMetricError):
        metric_coeffs(ex1, math.pi)


# -- root bisection -------------------------------------------------------------

def bisect_80(f, lo, hi, iters=80):
    """The full 80-step bisection that _bisect_root stops early."""
    flo = float(f(lo))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = float(f(mid))
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


T21 = (0.01953125, -1.50390625, 32.484375, -321.75, 1751.75, -5733.0, 11760.0,
       -15232.0, 12096.0, -5376.0, 1024.0)


def seeded_profile(rng, degree):
    """Random odd coefficients up to ``degree`` with sum 0, scaled to max |h| = 0.9."""
    a = rng.standard_normal((degree + 1) // 2)
    xs = np.linspace(-1.0, 1.0, 4001)
    a *= 0.9 / np.max(np.abs(xs * np.polynomial.polynomial.polyval(xs * xs, a)))
    a[-1] = -math.fsum(a[:-1])
    return ZollProfile(a)


def test_bisect_root_keeps_the_80_step_bits():
    """_bisect_root stops once mid rounds to an end of the bracket; on the
    scan brackets of h' and dG/dx (and jittered brackets about their roots)
    it returns the 80-step loop's float, in at most 50 evaluations."""
    from zollfins.profile import _SCAN_POINTS, _bisect_root
    rng = np.random.default_rng(20261020)
    profiles = [ZollProfile(T21)] + [seeded_profile(rng, degree)
                                     for degree in (3, 5, 21) for _ in range(4)]
    xs = np.linspace(-1.0, 1.0, _SCAN_POINTS)
    dx = float(xs[1] - xs[0])
    brackets = 0
    for profile in profiles:
        for f in (profile.h_prime, lambda x, p=profile: curvature_x_prime(p, x)):
            fx = np.asarray(f(xs))
            flips = np.nonzero(np.sign(fx[:-1]) * np.sign(fx[1:]) < 0)[0]
            for i in flips:
                lo, hi = float(xs[i]), float(xs[i + 1])
                root = bisect_80(f, lo, hi)
                jitter = [(root - u * dx, root + v * dx) for u, v in rng.uniform(0.01, 1.0, (4, 2))]
                for a, b in [(lo, hi)] + jitter:
                    calls = []

                    def counted(x, f=f):
                        calls.append(x)
                        return f(x)

                    got = _bisect_root(counted, a, b)
                    assert repr(got) == repr(bisect_80(f, a, b)), (profile, a, b)
                    assert len(calls) <= 50, (profile, a, b, len(calls))
                    brackets += 1
    assert brackets > 300, brackets
