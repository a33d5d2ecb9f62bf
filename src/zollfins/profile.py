"""Odd polynomial profiles and the surface metric they generate.

A profile stores the coefficients a_1, a_3, ..., a_{2n+1} of an odd
polynomial h(x) = sum_k a_{2k+1} x^{2k+1} on [-1, 1].  The rotationally
symmetric metric it defines on the 2-sphere is

    g = (1 + h(cos r))^2 dr^2 + sin^2(r) dtheta^2,

with r in [0, pi] the polar latitude.  Admissible profiles must vanish at
x = +-1 (equivalently sum(a) = 0) and satisfy |h| < 1 so that 1 + h > 0
everywhere; both are enforced at construction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate
from math import comb
from typing import Iterable

import numpy as np

from .errors import DegenerateMetricError, DomainError, ProfileError

#: Absolute tolerance on sum(odd_coeffs) = 0, i.e. on h(+-1) = 0.
COEFF_SUM_TOL = 1e-12

#: Slack allowed on |x| <= 1 when evaluating h and its derivatives.
X_DOMAIN_TOL = 1e-12

#: Grid size for the |h| < 1 admissibility scan.  At 10^4 points the grid
#: spacing is 2e-4, small enough that a degree <= 21 polynomial with the
#: derivative bound implied by |coeffs| cannot hide an excursion between
#: samples.
_SCAN_POINTS = 10_001

#: Step of the nested central differences in curvature_fd_check: the
#: truncation error (~step^2) and the roundoff (~eps/step^2) meet near 1e-4.
FD_STEP = 1e-4


@dataclass(frozen=True)
class ZollProfile:
    """Coefficients (a_1, a_3, ...) of the odd deformation polynomial h."""

    odd_coeffs: tuple[float, ...]
    #: Derived once from odd_coeffs, outside eq/hash: the coefficients in
    #: w = x^2 of h'(x), of h''(x)/x and (below) of k(x)/x.
    hp_table: tuple[float, ...] = field(init=False, repr=False, compare=False)
    hpp_table: tuple[float, ...] = field(init=False, repr=False, compare=False)
    #: k(x) = x sum_j m_j x^(2j) with m_j = a_1 + ... + a_(2j+1): the quotient
    #: of h(x)/x, a polynomial in w = x^2, by 1 - w, so that
    #: h(x) = (1 - x^2) k(x) + (sum a) x^(2n+1), with a_(2n+1) the last
    #: coefficient.  The remainder is dropped.  It is odd, so it adds nothing
    #: to the longitude advance Theta of a band sweep, and |sum a| <=
    #: COEFF_SUM_TOL, so it adds less than pi * COEFF_SUM_TOL to a part of one
    #: (geodesics.longitude_advance, the anchor of a chart point).
    k_table: tuple[float, ...] = field(init=False, repr=False, compare=False)
    #: The reduced h'' sum S(w; q) = sum_k b_k q^k sum_p (-1)^p C(k, p) w^p
    #: / (2p + 3), b = hpp_table, of Psi = y^3 S (jacobi.hpp_integral): row p
    #: holds the ascending q-coefficients of w^p, so S and dS/dq at one q
    #: are the rows' values and q-derivatives there.
    s_table: tuple[tuple[float, ...], ...] = field(init=False, repr=False,
                                                   compare=False)

    def __init__(self, odd_coeffs: Iterable[float] = ()):
        a = tuple(float(ak) for ak in odd_coeffs)
        hp = tuple((2 * k + 1) * a[k] for k in range(len(a)))
        hpp = tuple(2.0 * (k + 1) * (2 * k + 3) * a[k + 1] for k in range(len(a) - 1))
        object.__setattr__(self, "odd_coeffs", a)
        object.__setattr__(self, "hp_table", hp)
        object.__setattr__(self, "hpp_table", hpp)
        object.__setattr__(self, "k_table", tuple(accumulate(a[:-1])))
        object.__setattr__(self, "s_table", tuple(
            tuple(hpp[k] * (-1) ** p * comb(k, p) / (2 * p + 3)
                  for k in range(len(hpp)))
            for p in range(len(hpp))))
        self._validate()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "ZollProfile":
        """Parse the CLI literal: comma-separated odd coefficients, ascending.

        ``"0.25,-0.25"`` means h(x) = 0.25 x - 0.25 x^3.  An empty string or
        ``"0"`` gives the round sphere h = 0.
        """
        text = text.strip()
        if not text:
            return cls(())
        try:
            coeffs = [float(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise ProfileError(f"cannot parse profile literal {text!r}") from exc
        return cls(coeffs)

    def _validate(self):
        coeffs = self.odd_coeffs
        try:
            total = math.fsum(coeffs)
        except (ValueError, OverflowError) as exc:   # inf - inf, or overflow
            raise ProfileError(f"odd coefficients {coeffs!r} have no finite sum") from exc
        # Written so that a NaN sum fails the test.
        if not abs(total) <= COEFF_SUM_TOL:
            raise ProfileError(
                f"sum of odd coefficients must vanish (h(1)=0); got {total:.3e}"
            )
        if not coeffs:
            return
        # |h| < 1 scan: dense grid plus bisection refinement on sign changes
        # of h', which brackets every interior extremum of the polynomial.
        worst = float(np.abs(self.h(np.linspace(-1.0, 1.0, _SCAN_POINTS))).max())
        for x_ext in _sign_change_roots(self.h_prime):
            worst = max(worst, abs(float(self.h(x_ext))))
        if not worst < 1.0:
            raise ProfileError(f"|h| must stay below 1 on [-1,1]; max |h| = {worst}")

    # -- basic queries -----------------------------------------------------

    @property
    def is_round(self) -> bool:
        return all(a == 0.0 for a in self.odd_coeffs)

    # -- evaluation (Horner in x^2, on a float or an array) --------------------

    def _check_domain(self, x):
        """x as a float (any scalar input) or a float array, checked in [-1, 1]."""
        if type(x) is not float:
            x = np.asarray(x, dtype=float)
            if not x.ndim:
                x = float(x)
        # Written so that NaN fails the test (no separate isfinite pass).
        bound = abs(x) if type(x) is float else np.max(np.abs(x))
        if not bound <= 1.0 + X_DOMAIN_TOL:
            raise DomainError(f"profile argument outside [-1, 1]: {x!r}")
        return x

    def h(self, x):
        x = self._check_domain(x)
        return x * horner(self.odd_coeffs, x * x)

    def h_prime(self, x):
        x = self._check_domain(x)
        return horner(self.hp_table, x * x)

    def h_second(self, x):
        x = self._check_domain(x)
        return x * horner(self.hpp_table, x * x)


def horner(coeffs: tuple[float, ...], w):
    """The polynomial with ascending ``coeffs`` at w (a float or an array)."""
    acc = 0.0 * w
    for a in reversed(coeffs):
        acc = acc * w + a
    return acc


def horner_jet(coeffs: tuple[float, ...], w):
    """(p, p', p'') of the polynomial with ascending ``coeffs`` at w."""
    p = dp = ddp = 0.0
    for a in reversed(coeffs):
        ddp = ddp * w + 2.0 * dp
        dp = dp * w + p
        p = p * w + a
    return p, dp, ddp


def elementwise(f, *arrays) -> np.ndarray:
    """f (a float function, such as one of the math module's) on the entries
    of equal-length arrays: each entry has the bits of its float call, which
    numpy's own transcendentals and powers need not give."""
    args = [np.asarray(a, dtype=float).ravel().tolist() for a in arrays]
    return np.fromiter(map(f, *args), float, len(args[0]))


def unwrap(values, like):
    """``values``, the result of an array path, as the Python float of its
    one entry when the call's argument ``like`` is a float (a one-entry
    call of the array path), else as it is."""
    return values if np.ndim(like) else float(values[0])


def _sign_change_roots(f) -> list[float]:
    """The roots of f bracketed by its sign changes on the _SCAN_POINTS grid
    over [-1, 1], each refined by _bisect_root; f takes a float or an array."""
    xs = np.linspace(-1.0, 1.0, _SCAN_POINTS)
    fs = np.asarray(f(xs))
    flips = np.nonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0)[0]
    return [_bisect_root(f, float(xs[i]), float(xs[i + 1])) for i in flips]


def _bisect_root(f, lo: float, hi: float, iters: int = 80) -> float:
    """A sign change of f in [lo, hi] by bisection, at most ``iters`` steps.

    Once mid rounds to lo or hi (adjacent floats), no later step can move
    the bracket, and the full loop would return that mid; so it stops there.
    """
    flo = float(f(lo))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fmid = float(f(mid))
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- module-level operations ------------------------------------------------

def curvature_x(profile: ZollProfile, x, power=operator.pow):
    """Gauss curvature as a function of x = cos r:

        G = (1 + h(x) - x h'(x)) / (1 + h(x))^3.

    Finite on [-1, 1] because admissible profiles keep |h| < 1.  ``power``
    takes the cube: np.float_power gives each entry of an array x the bits
    of its float call (libm pow), where numpy's ** may round differently.
    """
    one_h = 1.0 + profile.h(x)
    return (one_h - np.asarray(x) * profile.h_prime(x)) / power(one_h, 3)


def curvature_x_prime(profile: ZollProfile, x):
    """dG/dx, analytic."""
    x = np.asarray(x, dtype=float)
    h = profile.h(x)
    hp = profile.h_prime(x)
    hpp = profile.h_second(x)
    one_h = 1.0 + h
    num = -x * hpp * one_h - 3.0 * hp * (one_h - x * hp)
    out = num / one_h**4
    return out if out.ndim else float(out)


def gauss_curvature(profile: ZollProfile, r):
    """Gauss curvature G(r) of the surface at latitude r in [0, pi]."""
    r = np.asarray(r, dtype=float)
    if not (np.min(r) >= -X_DOMAIN_TOL and np.max(r) <= math.pi + X_DOMAIN_TOL):
        raise DomainError(f"latitude outside [0, pi]: {r!r}")
    out = curvature_x(profile, np.cos(r))
    return out if np.ndim(out) else float(out)


def curvature_critical_points(profile: ZollProfile) -> list[tuple[float, float]]:
    """Interior critical points of G on (-1, 1) as (x, G(x)) pairs.

    Located by sampling dG/dx on the admissibility grid and bisecting each
    sign change.
    """
    return [(x_star, float(curvature_x(profile, x_star))) for x_star
            in _sign_change_roots(lambda x: curvature_x_prime(profile, x))]


def check_positive_curvature(profile: ZollProfile) -> tuple[bool, tuple[float, float]]:
    """True iff min G > 0 over [-1, 1]; also returns the located minimum.

    The minimum is searched among the endpoints, the bisection-refined
    critical points, and the dense sampling grid (safety net).
    """
    candidates = [(-1.0, float(curvature_x(profile, -1.0))),
                  (1.0, float(curvature_x(profile, 1.0)))]
    candidates += curvature_critical_points(profile)
    xs = np.linspace(-1.0, 1.0, _SCAN_POINTS)
    gs = np.asarray(curvature_x(profile, xs))
    i = int(np.argmin(gs))
    candidates.append((float(xs[i]), float(gs[i])))
    x_min, g_min = min(candidates, key=lambda p: p[1])
    return g_min > 0.0, (x_min, g_min)


def metric_coeffs(profile: ZollProfile, r: float) -> tuple[float, float]:
    """(g_rr, g_thetatheta) = ((1 + h(cos r))^2, sin^2 r) at interior latitude."""
    if not 0.0 < r < math.pi:
        raise DegenerateMetricError(f"metric degenerates at r={r}")
    one_h = 1.0 + profile.h(math.cos(r))
    return one_h * one_h, math.sin(r) ** 2


def curvature_fd_check(profile: ZollProfile, r: float) -> float:
    """Finite-difference Gauss curvature, used as an independent test oracle.

    For the warped metric E dr^2 + Gt dtheta^2 the curvature is

        K = -(1 / sqrt(E Gt)) d/dr ( (d sqrt(Gt)/dr) / sqrt(E) ),

    evaluated with nested central differences of metric_coeffs only, at the
    step FD_STEP.
    """
    step = FD_STEP
    if not 2 * step < r < math.pi - 2 * step:
        raise DomainError(f"latitude {r} too close to a pole for step {step}")

    def sqrt_gt(rr: float) -> float:
        return math.sqrt(metric_coeffs(profile, rr)[1])

    def slope(rr: float) -> float:
        e = math.sqrt(metric_coeffs(profile, rr)[0])
        return (sqrt_gt(rr + step) - sqrt_gt(rr - step)) / (2.0 * step * e)

    e0, gt0 = metric_coeffs(profile, r)
    return -(slope(r + step) - slope(r - step)) / (2.0 * step * math.sqrt(e0 * gt0))


# Profiles used throughout the test-suite and the worked examples.
def example1(eps: float) -> ZollProfile:
    """h(x) = eps (1 - x^2) x = eps x - eps x^3."""
    return ZollProfile((eps, -eps))


def example2() -> ZollProfile:
    """h(x) = x (1 - x^2)^2 = x - 2 x^3 + x^5."""
    return ZollProfile((1.0, -2.0, 1.0))


def round_sphere() -> ZollProfile:
    return ZollProfile(())
