import math

import mpmath
import numpy as np
import pytest

from zollfins import (BandError, DomainError, ZollProfile, example1, example2, jacobi,
                      moduli, turning_latitude)
from zollfins.jacobi import curvature_integral, curvature_integral_tail
from zollfins.quadrature import PANEL_ORDER, _dyadic_panels, gl_fixed, gl_refined


def serial_refined(f, a, b, refine_b, order=PANEL_ORDER, min_width=1e-13):
    """Oracle: one gl_fixed call per dyadic panel, added in loop order."""
    if a == b:
        return 0.0
    length = b - a
    levels = max(4, int(math.ceil(math.log2(length / min_width))))
    fracs = [0.5 ** k for k in range(1, levels + 1)]
    total = 0.0
    if refine_b:
        left = a
        for frac in fracs:
            right = b - length * frac
            total += gl_fixed(f, left, right, order)
            left = right
        total += gl_fixed(f, left, b, order)
    else:
        right = b
        for frac in fracs:
            left = a + length * frac
            total += gl_fixed(f, left, right, order)
            right = left
        total += gl_fixed(f, a, right, order)
    return total


A, B, GAP = 0.2, 1.3, 1e-9


def double_poles(u):
    """Double poles GAP beyond both ends of [A, B], times a smooth factor."""
    return np.cos(u) * (1.0 / (B + GAP - u) ** 2 + 1.0 / (u - A + GAP) ** 2)


CASES = [
    (A, B, True, False),
    (A, B, False, True),
    (A, A, False, True),
]


@pytest.mark.parametrize("a, b, refine_a, refine_b", CASES)
def test_gl_refined_matches_serial_panel_loop(a, b, refine_a, refine_b):
    got = gl_refined(double_poles, a, b, refine="a" if refine_a else "b")
    want = serial_refined(double_poles, a, b, refine_b)
    assert abs(got - want) <= 1e-15 * abs(want)


def test_gl_refined_refines_one_end_of_a_forward_interval():
    with pytest.raises(DomainError):
        gl_refined(double_poles, np.array([A, B]), np.array([B, A]), refine="b")


def test_gl_refined_exact_double_pole():
    # int_a^b du / (p - u)^2 = 1/(p - b) - 1/(p - a), with p the float pole;
    # p - b and p - a are exact in floating point.  The pole stays 1e-3 away,
    # as in the curvature integral near the equator: rounding the nodes to
    # floats near a closer pole costs more than the rule's own error.
    pole = B + 1e-3
    exact = 1.0 / (pole - B) - 1.0 / (pole - A)
    got = gl_refined(lambda u: 1.0 / (pole - u) ** 2, A, B, refine="b")
    assert got == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("a, b, refine_a, refine_b", CASES[:2])
def test_gl_refined_calls_integrand_once(a, b, refine_a, refine_b):
    calls = []

    def counting(u):
        calls.append(u.shape)
        return double_poles(u)

    gl_refined(counting, a, b, refine="a" if refine_a else "b")
    assert len(calls) == 1
    assert len(calls[0]) == 1 and calls[0][0] % PANEL_ORDER == 0


def one_interval_panels(a, b, toward_b, min_width):
    """Reference: the per-interval panel construction, one call per
    interval, that the one-pass _dyadic_panels replaced."""
    if a == b:
        return np.empty((0, 2))
    length = b - a
    levels = max(4, int(math.ceil(math.log2(length / min_width))))
    offsets = length * 0.5 ** np.arange(1, levels + 1)
    if toward_b:
        cuts = np.concatenate(([a], b - offsets, [b]))
        edges = np.column_stack((cuts[:-1], cuts[1:]))
    else:
        cuts = np.concatenate(([b], a + offsets, [a]))
        edges = np.column_stack((cuts[1:], cuts[:-1]))
    return edges[edges[:, 0] != edges[:, 1]]


#: (a, b, min_width): empty intervals, 4-level ones, ~40-level ones and
#: one whose deepest panels round to zero width far from the origin.
PANEL_BATCH = [(0.3, 0.3, 1e-13), (0.2, 1.3, 0.5), (0.2, 1.3, 1e-13),
               (-0.7, 2.9, 3e-12), (1.0, 1.0, 0.1), (0.0, 1.5, 0.2),
               (1e3, 1e3 + 1e-9, 1e-25), (0.1, 0.6, 1e-12), (2.0, 2.0, 1e-13)]


@pytest.mark.parametrize("refine_b", [True, False])
def test_one_pass_panels_match_per_interval_calls(refine_b):
    a, b, w = (np.array(col) for col in zip(*PANEL_BATCH))
    lo, hi = _dyadic_panels(a, b, refine_b, w)
    keep = lo != hi
    edges, counts = np.column_stack((lo[keep], hi[keep])), keep.sum(axis=1)
    want = [one_interval_panels(*row[:2], refine_b, row[2]) for row in PANEL_BATCH]
    assert counts.tolist() == [len(rows) for rows in want]
    # Levels 0, 4, 44, 41, 0, 4, 54, 39, 0: the 54-level interval keeps 14
    # panels, since rounding at 1e3 empties the others.
    assert counts.tolist() == [0, 5, 45, 42, 0, 5, 14, 40, 0]
    assert np.array_equal(edges, np.concatenate(want))

    def f(u):
        return np.exp(np.sin(3.0 * u)) / (4.0 + u)

    refine = "b" if refine_b else "a"
    batch = gl_refined(f, a, b, refine=refine, min_width=w)
    assert batch.tolist() == [gl_refined(f, *row[:2], refine=refine, min_width=row[2])
                              for row in PANEL_BATCH]


def test_batched_checks_name_the_first_bad_latitude():
    """One array check per batch: the first latitude outside the band (or
    on the wrong side of the equator) raises its own typed error."""
    profile = example2()
    c, R = 0.3, math.asin(0.3)
    below = [0.5, 0.9, 0.2, 1.2, 0.1]          # 0.2 and 0.1 lie below r_c = 0.305
    with pytest.raises(BandError, match="latitude 0.2 outside"):
        curvature_integral(profile, c, below)
    with pytest.raises(BandError, match="latitude 2.9 outside"):  # pi - r_c = 2.84
        curvature_integral_tail(profile, c, [2.0, 2.9, 1.0])
    with pytest.raises(DomainError, match="diverges") as excinfo:
        curvature_integral(profile, c, [0.5, 1.7, 0.2])
    assert not isinstance(excinfo.value, BandError)
    with pytest.raises(DomainError, match="requires r > pi/2"):
        curvature_integral_tail(profile, c, [2.0, 1.0, 3.0])
    with pytest.raises(BandError, match="latitude 0.2 outside"):
        moduli.indicatrix_parametric(profile, R, below, [1] * 5)
    with pytest.raises(DomainError, match="branch must be"):
        moduli.indicatrix_parametric(profile, R, below, [1, 0, 1, 1, 1])
    with pytest.raises(BandError, match="latitude 0.2 outside"):
        moduli.indicatrix_parametric(profile, R, below, [1, 1, 1, 0, 1])
    with pytest.raises(BandError):
        moduli.indicatrix_parametric(profile, R, [0.5, math.nan], [1, 1])


# -- the curvature integral Phi against a 30-digit reference ---------------------

def mp_phi(profile, c, u_lo, u_hi):
    """int of [(1 + h(z)) - z h'(z)] / (cos r_c cos u)^2, z = cos r_c cos u, at 30
    digits, over the same float phase interval the double route integrates."""
    with mpmath.workdps(30):
        coeffs = [mpmath.mpf(a) for a in profile.odd_coeffs]
        cos_rc = mpmath.mpf(math.cos(turning_latitude(c)))

        def f(u):
            z = cos_rc * mpmath.cos(u)
            h = sum(a * z ** (2 * k + 1) for k, a in enumerate(coeffs))
            hp = sum((2 * k + 1) * a * z ** (2 * k) for k, a in enumerate(coeffs))
            return (1 + h - z * hp) / (cos_rc * mpmath.cos(u)) ** 2

        lo, hi = mpmath.mpf(u_lo), mpmath.mpf(u_hi)
        # Break points halve their distance toward the double pole at pi/2.
        steps = [(hi - lo) * mpmath.mpf(2) ** -k for k in range(1, 13)]
        if hi < mpmath.pi / 2:
            inner = [hi - s for s in steps]
        else:
            inner = [lo + s for s in steps]
        return mpmath.quad(f, sorted([lo, hi] + inner))


@pytest.mark.parametrize("profile", [example1(0.25), example2(), ZollProfile((-1.307, 2.91, -1.603))],
                         ids=["ex1", "ex2", "quintic"])
@pytest.mark.parametrize("c", [0.05, 0.3, 0.7, 0.95])
@pytest.mark.parametrize("gap", [2e-4, 1e-3, 0.02, 0.3])
def test_curvature_integral_matches_mpmath(profile, c, gap):
    """Panels that stop at a tenth of the pole distance keep 13 digits, from
    next to the pole to far from it, below the equator and on the tail.
    The worst is 8.0e-14 (7.5e-14 with order-48 panels), at gap 2e-4, where
    rounding the nodes next to the pole costs it.  The degree-21 profile
    2^-10 (T_21(x) - x) measures 1.1e-13 (2.3e-13 with order-48 panels)."""
    r = math.pi / 2 - gap
    want = mp_phi(profile, c, 0.0, jacobi._pole_panels(profile, c, r, True)[0])
    got = curvature_integral(profile, c, r)
    assert abs(got - float(want)) <= 1e-13 * abs(float(want))

    r = math.pi / 2 + gap
    want = mp_phi(profile, c, jacobi._pole_panels(profile, c, r, False)[0], math.pi)
    got = curvature_integral_tail(profile, c, r)
    assert abs(got - float(want)) <= 1e-13 * abs(float(want))


def test_curvature_integral_array_matches_scalar_calls():
    profile = example2()
    below = np.array([0.35, 0.9, 1.4, math.pi / 2 - 1e-3])
    above = math.pi - below
    assert curvature_integral(profile, 0.3, below).tolist() == [
        curvature_integral(profile, 0.3, float(r)) for r in below]
    assert curvature_integral_tail(profile, 0.3, above).tolist() == [
        curvature_integral_tail(profile, 0.3, float(r)) for r in above]


def test_one_integrand_call_per_array_call(monkeypatch):
    """Check 8's 64 samples at one chart value: one integrand call per array
    call of the Phi quadratures, and at most a quarter of the 130,848 nodes
    that one call per sample with 1e-13 panels took."""
    profile = ZollProfile((1.0, -2.0, 1.0))
    integrand = jacobi._phi_integrand
    seen = {"nodes": 0, "integrand": 0, "array": 0}

    def counting_integrand(*args):
        f = integrand(*args)

        def g(u):
            seen["integrand"] += 1
            seen["nodes"] += u.size
            return f(u)
        return g

    def counting(fn):
        def wrapped(profile, c, r):
            seen["array"] += 1
            assert np.ndim(r) == 1
            return fn(profile, c, r)
        return wrapped

    monkeypatch.setattr(jacobi, "_phi_integrand", counting_integrand)
    for name in ("curvature_integral", "curvature_integral_tail"):
        monkeypatch.setattr(moduli, name, counting(getattr(moduli, name)))
    R = 0.65
    u = np.linspace(0.0, math.pi, 64)
    rs = np.arccos(np.clip(math.cos(R) * np.cos(u), -1.0, 1.0))
    moduli.indicatrix_parametric(profile, R, rs, np.where(np.arange(64) % 2, -1, 1))
    assert seen["array"] == 2
    assert seen["integrand"] == seen["array"]
    assert seen["nodes"] <= 130848 / 4
