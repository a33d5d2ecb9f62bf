"""Gauss-Legendre quadrature helpers.

Everything here is deterministic: fixed node sets, a fixed escalation
ladder, no randomness.  Integrands take an ndarray of nodes and must act
elementwise: :func:`gl_refined` passes the nodes of all its panels (of one
interval or of many) in one flat array, in a single call.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureError

Integrand = Callable[[np.ndarray], np.ndarray]

#: Order ladder used by :func:`gl_adaptive`.  The post-substitution
#: integrands in this package are analytic, so escalation terminates early
#: except for sharply peaked cases (small Clairaut constants).
DEFAULT_ORDERS = (64, 128, 256, 512, 1024, 2048)


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


def gl_adaptive(
    f: Integrand,
    a: float,
    b: float,
    *,
    rtol: float = 1e-13,
    atol: float = 1e-13,
    orders=DEFAULT_ORDERS,
) -> tuple[float, float]:
    """Escalate the quadrature order until two consecutive estimates agree.

    Returns ``(value, error_estimate)`` where the estimate is the difference
    of the last two orders (a Richardson-style verification).  Raises
    QuadratureError when the ladder is exhausted.
    """
    prev = gl_fixed(f, a, b, orders[0])
    for n in orders[1:]:
        cur = gl_fixed(f, a, b, n)
        err = abs(cur - prev)
        if err <= max(atol, rtol * abs(cur)):
            return cur, err
        prev = cur
    raise QuadratureError(
        f"quadrature ladder exhausted on [{a}, {b}]: last disagreement {err:.3e}"
    )


def gl_refined(
    f: Integrand,
    a: float | np.ndarray,
    b: float | np.ndarray,
    *,
    refine_a: bool = False,
    refine_b: bool = False,
    order: int = 48,
    min_width: float | np.ndarray = 1e-13,
) -> float | np.ndarray:
    """Panel quadrature with dyadic refinement toward one or both endpoints.

    Used when the integrand is analytic inside (a, b) but has a pole or sharp
    peak just beyond (or at) a refined endpoint.  Panel widths halve toward
    the refined end until they reach ``min_width``, so every panel sees the
    nearest singularity at a distance comparable to its own width or more,
    and fixed-order Gauss-Legendre converges to machine precision on each
    panel.  A panel whose nearest pole lies a panel width away or farther
    converges like rho^(-2 order) with rho >= 3 + sqrt(8) (Trefethen, ATAP,
    ch. 19), so a caller that knows the pole distance d can stop at
    ``min_width`` ~ d/10.  Refining both ends splits [a, b] at its midpoint
    and refines each half toward its own end.

    ``a``, ``b`` and ``min_width`` may be 1-D arrays, broadcast together: the
    result is then the array of the integrals over the intervals [a_i, b_i].
    The Gauss-Legendre nodes of all panels of all intervals go to ``f`` in
    one flat array, in a single call, so ``f`` must act elementwise.  Each
    interval's panel estimates are then added one by one in panel order:
    outward from the unrefined end, or, when both ends are refined, the left
    half's panels and then the right's.  An interval gives the same bits in a
    batch as alone.
    """
    a, b, min_width = np.broadcast_arrays(a, b, min_width)
    pieces = [_interval_panels(ai, bi, refine_a, refine_b, wi)
              for ai, bi, wi in zip(a.ravel().tolist(), b.ravel().tolist(),
                                    min_width.ravel().tolist())]
    edges = np.concatenate([rows for _, rows in pieces])
    lo, hi = edges.T
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x, w = _leggauss(order)
    nodes = mid[:, None] + half[:, None] * x
    # Only empty intervals: no call, as integrands may refuse an empty array.
    vals = f(nodes.ravel()).reshape(nodes.shape) if len(edges) else nodes
    sums = []
    start = 0
    for sign, rows in pieces:
        stop = start + len(rows)
        total = 0.0
        # One product per interval: BLAS may round a row differently with
        # the number of rows around it, and an interval keeps its own bits.
        for estimate in (half[start:stop] * (vals[start:stop] @ w)).tolist():
            total += estimate
        start = stop
        sums.append(sign * total)
    return np.array(sums) if a.ndim else sums[0]


def _interval_panels(a: float, b: float, refine_a: bool, refine_b: bool,
                     min_width: float) -> tuple[float, np.ndarray]:
    """(sign, panel rows) of one interval: its integral is sign times the sum
    of the panel integrals, in row order.  A reversed interval is refined as
    [b, a] with the end flags swapped; an unrefined one is a single panel."""
    sign = 1.0
    if b < a:
        a, b, refine_a, refine_b, sign = b, a, refine_b, refine_a, -1.0
    if refine_a and refine_b:
        mid = 0.5 * (a + b)
        rows = np.concatenate((_dyadic_panels(a, mid, False, min_width),
                               _dyadic_panels(mid, b, True, min_width)))
    elif refine_a or refine_b:
        rows = _dyadic_panels(a, b, refine_b, min_width)
    else:
        rows = np.array([[a, b]]) if a != b else np.empty((0, 2))
    return sign, rows


def _dyadic_panels(a: float, b: float, toward_b: bool, min_width: float) -> np.ndarray:
    """(left, right) rows of the panels that refine [a, b] toward one end.

    The breakpoints sit at the fractions 0.5**k of the length from the
    refined end, k = 1 .. levels; the rows run outward from the unrefined
    end.  Panels of zero width (rounding, far from the origin) are dropped.
    """
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
