"""Seeded inputs for the four benchmark workloads.

Everything the program receives is made here, from ``random.Random`` seeded
with the workload and seed, so a seed fixes the inputs of a run.  Draws are
stratified by op index: each run sees the same mix of profile families,
deformation strengths, chart values, Clairaut constants and Finsler trace
heights, and only the position inside each stratum depends on the seed.
That keeps runs with different seeds comparable without fixing the inputs.
The one exception is the small-|c| ops that open every zoll_geodesic run,
which follow a fixed ladder (see SmallC).

Profiles come from three sources:

* the three profiles the roadmap names (round, 0.25,-0.25 and 1,-2,1), used
  by the first three ops of every run;
* the cubic family eps*x*(1 - x^2) with |eps| <= 0.45;
* the quintic family t*x*(1 - x^2)^2 with |t| <= 1.

Both families keep the Gauss curvature positive, so every profile drawn
here is admissible and convex.

Finsler starts are placed by the largest chart latitude ("top") their
geodesic reaches, which sets the op time (~0.4 s at 0.2, ~2 s at 1.5).
sin R(t) is an exact sinusoid of period 2*pi along every geodesic of F, so
top = arcsin sqrt(sin^2 R0 + cos^2 R0 vR^2), with vR the R-component of the
F-unit start velocity.  Each op takes top from a Kronecker sequence over
[TOP_MIN, RIM_LATITUDE] with a seeded offset, draws R0, picks vR to match,
and takes the direction of the indicatrix point with that R-component.
Tops stay below RIM_LATITUDE: near the chart rim the spray's step size
collapses (a trace reaching 1.55 takes ~10 s, one reaching 1.56 over 40 s),
so such ops would measure that defect alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

NAMED_PROFILES = ("0", "0.25,-0.25", "1,-2,1")

EPS_MAX = 0.45          # cubic family bound (G > 0)
T_MAX = 1.0             # quintic family bound (G > 0)
STRENGTH_STRATA = 4     # signed-strength strata per family

R_START_MAX = 0.6       # finsler_trace start |R0| bound
TOP_MIN = 0.1           # finsler_trace geodesics top out in [TOP_MIN,
RIM_LATITUDE = 1.5      # RIM_LATITUDE]
CHART_SPAN = 1.4        # indicatrix chart values lie in (-1.4, 1.4)
CHART_VALUES = 8        # chart values per indicatrix op

SMALL_C_OPS = 9         # zoll_geodesic runs open with this many small-|c| ops
SMALL_C_DECADES = (-7, -3)    # log10 |c| range of the small-|c| ops

WORKLOADS = ("verify", "finsler_trace", "indicatrix", "zoll_geodesic")


@dataclass(frozen=True)
class OpInput:
    """One op's inputs; ``h`` is the profile literal passed as ``--h=``."""

    index: int
    h: str
    start: tuple[float, float] | None = None    # finsler_trace
    direction: float | None = None              # finsler_trace
    chart: tuple[float, ...] | None = None      # indicatrix
    c: float | None = None                      # zoll_geodesic

    def describe(self) -> str:
        parts = [f"op={self.index}", f"h={self.h}"]
        if self.start is not None:
            parts.append(f"start={self.start[0]!r},{self.start[1]!r}")
            parts.append(f"dir={self.direction!r}")
        if self.chart is not None:
            parts.append("R=" + ",".join(repr(v) for v in self.chart))
        if self.c is not None:
            parts.append(f"c={self.c!r}")
        return " ".join(parts)


def _stratum(rng: random.Random, k: int, strata: int, lo: float, hi: float) -> float:
    width = (hi - lo) / strata
    return lo + width * (k % strata + rng.random())


def _profile(rng: random.Random, index: int) -> str:
    if index < len(NAMED_PROFILES):
        return NAMED_PROFILES[index]
    k = index - len(NAMED_PROFILES)
    stratum = k // 2
    if k % 2 == 0:
        eps = _stratum(rng, stratum, STRENGTH_STRATA, -EPS_MAX, EPS_MAX)
        return f"{eps!r},{-eps!r}"
    t = _stratum(rng, stratum, STRENGTH_STRATA, -T_MAX, T_MAX)
    return f"{t!r},{-2.0 * t!r},{t!r}"


GOLDEN = 0.6180339887498949


def kronecker(offset: float, k: int) -> float:
    """k-th point of the Kronecker sequence offset + k*golden (mod 1); any
    run of consecutive points covers [0, 1) nearly evenly."""
    return (offset + k * GOLDEN) % 1.0


class SmallC:
    """|c| in [1e-7, 1e-3] with log10 |c| on a fixed Kronecker ladder, on
    the named profiles in turn.

    The op time roughly doubles from |c| = 1e-3 to 1e-7, so these ops are
    the same in every run, alternating in sign, and every run starts with
    all of them.  The ladder stops at 1e-7: below it the closure integrals
    miss pi by more than the check allows (roadmap open item 4), which the
    reference panel's ``closure_defect_max`` reports instead.  The zoll ops
    use no cache, so repeating a profile with a new c keeps them as cold as
    distinct profiles would.
    """

    def __init__(self):
        self.count = 0

    def draw(self) -> tuple[str, float]:
        lo, hi = SMALL_C_DECADES
        k = self.count
        self.count += 1
        magnitude = 10.0 ** (lo + (hi - lo) * kronecker(0.0, k))
        return NAMED_PROFILES[k % len(NAMED_PROFILES)], (-1.0) ** k * magnitude


def direction_for(h: str, r0: float, v_r: float, upper: bool) -> float:
    """Chart direction of the F-unit vector at R0 whose R-component is v_r.

    The indicatrix meets the line v1 = v_r twice; ``upper`` picks the point
    with the larger v2.  Branch +1 of ``indicatrix_curve`` runs from the
    bottom glue point (v2 < 0) over v1 = 1 at r = pi/2 to the top one, and
    the curve is symmetric about the v2 axis.
    """
    from zollfins import ZollProfile, indicatrix_curve

    samples = 256
    curve = indicatrix_curve(ZollProfile.from_string(h), r0, samples)[:samples]
    v1 = np.array([s.v1 for s in curve])
    v2 = np.array([s.v2 for s in curve])
    peak = int(np.argmax(v1))
    if upper:
        v2_at = np.interp(abs(v_r), v1[peak:][::-1], v2[peak:][::-1])
    else:
        v2_at = np.interp(abs(v_r), v1[:peak + 1], v2[:peak + 1])
    return math.atan2(v2_at, v_r) % (2.0 * math.pi)


class FinslerStarts:
    """Starts whose geodesics top out at Kronecker-spaced chart latitudes."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.offset = rng.random()
        self.count = 0

    def draw(self, h: str):
        top = TOP_MIN + (RIM_LATITUDE - TOP_MIN) * kronecker(self.offset, self.count)
        self.count += 1
        r_max = min(R_START_MAX, top)
        r0 = self.rng.uniform(-r_max, r_max)
        theta0 = self.rng.uniform(0.0, 2.0 * math.pi)
        v_r = math.sqrt(max(0.0, math.sin(top) ** 2 - math.sin(r0) ** 2)) / math.cos(r0)
        if self.rng.random() < 0.5:
            v_r = -v_r
        return (r0, theta0), direction_for(h, r0, v_r, self.rng.random() < 0.5)


class InputStream:
    """The op inputs of one run, in order (an endless iterator)."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.small_c = SmallC()
        self.starts = FinslerStarts(self.rng)
        self.uniform_c = 0
        self.index = 0

    def __iter__(self):
        return self

    def __next__(self) -> OpInput:
        index, rng = self.index, self.rng
        self.index += 1
        h = _profile(rng, index)
        if self.workload == "verify":
            return OpInput(index, h)
        if self.workload == "finsler_trace":
            start, direction = self.starts.draw(h)
            return OpInput(index, h, start=start, direction=direction)
        if self.workload == "indicatrix":
            chart = tuple(_stratum(rng, k, CHART_VALUES, -CHART_SPAN, CHART_SPAN)
                          for k in range(CHART_VALUES))
            return OpInput(index, h, chart=chart)
        if index < SMALL_C_OPS:
            h, c = self.small_c.draw()
            return OpInput(index, h, c=c)
        c = _stratum(rng, self.uniform_c, 8, -1.0, 1.0)
        self.uniform_c += 1
        while abs(c) >= 1.0 or c == 0.0:
            c = rng.uniform(-1.0, 1.0)
        return OpInput(index, h, c=c)
