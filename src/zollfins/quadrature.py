"""Gauss-Legendre quadrature helpers.

Everything here is deterministic: fixed node sets, a fixed escalation
ladder, no randomness.  Integrands take an ndarray of nodes and must act
elementwise: :func:`gl_refined` passes the nodes of all its panels (of one
interval or of many) in one flat array, in a single call.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Literal

import numpy as np

from .errors import DomainError, QuadratureError

Integrand = Callable[[np.ndarray], np.ndarray]

#: Order ladder used by :func:`gl_adaptive`.  Its integrands in this package
#: are analytic on the whole interval, so escalation terminates early.
DEFAULT_ORDERS = (64, 128, 256, 512, 1024, 2048)

#: :func:`gl_adaptive` stops when two consecutive orders agree to within
#: max(ADAPTIVE_ATOL, ADAPTIVE_RTOL * |value|).
ADAPTIVE_RTOL = 1e-13
ADAPTIVE_ATOL = 1e-13


@lru_cache(maxsize=64)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_fixed(f: Integrand, a: float, b: float, n: int) -> float:
    """Fixed-order Gauss-Legendre estimate of the integral of f over [a, b]."""
    if a == b:
        return 0.0
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * float(np.dot(w, f(mid + half * x)))


def gl_adaptive(f: Integrand, a: float, b: float, *,
                orders=DEFAULT_ORDERS) -> tuple[float, float]:
    """Escalate the quadrature order until two consecutive estimates agree.

    Returns ``(value, error_estimate)`` where the estimate is the difference
    of the last two orders (a Richardson-style verification).  Raises
    QuadratureError when the ladder is exhausted.
    """
    prev = gl_fixed(f, a, b, orders[0])
    for n in orders[1:]:
        cur = gl_fixed(f, a, b, n)
        err = abs(cur - prev)
        if err <= max(ADAPTIVE_ATOL, ADAPTIVE_RTOL * abs(cur)):
            return cur, err
        prev = cur
    raise QuadratureError(
        f"quadrature ladder exhausted on [{a}, {b}]: last disagreement {err:.3e}"
    )


#: Gauss-Legendre order of every gl_refined panel (its docstring bounds the
#: error of one panel).
PANEL_ORDER = 16


def gl_refined(
    f: Integrand,
    a: float | np.ndarray,
    b: float | np.ndarray,
    *,
    refine: Literal["a", "b"],
    min_width: float | np.ndarray = 1e-13,
) -> float | np.ndarray:
    """Order-PANEL_ORDER panel quadrature over [a, b], a <= b, with dyadic
    refinement toward the end that ``refine`` names, "a" or "b".

    Used when the integrand is analytic inside (a, b) but has a pole just
    beyond the refined end: the curvature integral Phi below and above the
    equator.  Panel widths halve toward that end until they reach
    ``min_width``, so every panel sees the pole at a distance comparable to
    its own width or more, and fixed-order Gauss-Legendre converges to
    machine precision on each panel.  A panel whose nearest pole lies a
    panel width away or farther converges like rho^(-32) with
    rho >= 3 + sqrt(8), 3e-25 (Trefethen, ATAP, ch. 19), so a caller that
    knows the pole distance d can stop at ``min_width`` ~ d/10.

    ``a``, ``b`` and ``min_width`` may be 1-D arrays, broadcast together: the
    result is then the array of the integrals over the intervals [a_i, b_i].
    The Gauss-Legendre nodes of all panels of all intervals go to ``f`` in
    one flat array, in a single call, so ``f`` must act elementwise.  The
    panel estimates of all intervals form one rectangle, an interval's row
    padded with zero-width panels of estimate 0, and its columns are added
    one by one, outward from the unrefined end: each interval gives the same
    bits in a batch as alone.  An empty interval gives 0.
    """
    toward_b = {"a": False, "b": True}[refine]
    a, b, min_width = np.broadcast_arrays(a, b, min_width)
    if np.any(b < a):
        raise DomainError("gl_refined needs a <= b")
    lo, hi = _dyadic_panels(a.ravel(), b.ravel(), toward_b, min_width.ravel())
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x, w = _leggauss(PANEL_ORDER)
    nodes = mid[:, None] + half[:, None] * x
    estimates = np.zeros(keep.shape)
    # Only empty intervals: no call, as integrands may refuse an empty array.
    if len(nodes):
        # A per-row sum: one BLAS product over all rows may round a row
        # differently with the number of rows around it.
        estimates[keep] = half * (f(nodes.ravel()).reshape(nodes.shape) * w).sum(axis=1)
    sums = np.zeros(len(keep))
    for column in estimates.T:
        sums += column
    return sums if a.ndim else float(sums[0])


def _dyadic_panels(a: np.ndarray, b: np.ndarray, toward_b: bool,
                   min_width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) ends of the panels that refine each [a_i, b_i] toward
    one end, as two rectangles with one row per interval.

    The breakpoints sit at the fractions 0.5**k of the length from the
    refined end, k = 1 .. levels; a row runs outward from the unrefined
    end.  All intervals are cut in one array pass: one with fewer levels
    than the deepest is padded with its refined end.  Those panels of zero
    width, and the ones rounding makes (far from the origin), have left ==
    right; an empty interval has only such panels.
    """
    length = b - a
    levels = np.array([max(4, int(math.ceil(math.log2(span / width)))) if span else 0
                       for span, width in zip(length.tolist(), min_width.tolist())], dtype=int)
    k = np.arange(1, levels.max(initial=0) + 1)
    offsets = length[:, None] * np.where(k <= levels[:, None], 0.5 ** k, 0.0)
    if toward_b:
        cuts = np.hstack((a[:, None], b[:, None] - offsets, b[:, None]))
        return cuts[:, :-1], cuts[:, 1:]
    cuts = np.hstack((b[:, None], a[:, None] + offsets, a[:, None]))
    return cuts[:, 1:], cuts[:, :-1]
