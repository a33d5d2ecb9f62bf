"""Cross-module verification suites, shared by the CLI and the test-suite.

Each check compares an implemented quantity against an independent route
(finite differences, two-resolution quadrature, the algebraic identity the
construction must satisfy) and reports the measured defect against a fixed
tolerance.  The checks are the rows of ``CHECKS``, in report order; every
fold goes through ``_fold``, which keeps a NaN, so a NaN from an oracle fails.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import finsler, geodesics, jacobi, moduli, profile as profile_mod, quadrature
from .profile import ZollProfile

#: Chart values exercised by the representation checks.
R_GRID = tuple(np.linspace(0.0, 1.3, 9))

#: Clairaut constants exercised by the closure and Jacobi checks.
C_GRID = (0.0, 0.1, -0.1, 0.3, -0.3, 0.5, -0.5, 0.7, -0.7, 0.9, -0.9)

#: The bound of a positivity floor: such a check passes when measured > 0.
POSITIVE = "> 0"

#: Step of the 8th-order central difference of the pencil's longitude in
#: check 15, and its weights on the differences at 1..4 steps.
_D8_STEP = 1e-3
_D8_WEIGHTS = np.array([4 / 5, -1 / 5, 4 / 105, -1 / 280])


@dataclass
class Check:
    name: str
    status: str              # "pass" | "fail" | "skip"
    measured: float | None
    tolerance: float | None
    detail: str = ""


@dataclass
class VerificationReport:
    profile: tuple[float, ...]
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {"profile": list(self.profile),
                "passed": self.passed,
                "checks": [asdict(c) for c in self.checks]}

    def lines(self):
        for c in self.checks:
            if c.status == "skip":
                yield f"SKIP {c.name}: {c.detail}"
            else:
                yield (f"{c.status.upper()} {c.name}: measured {c.measured:.3e}"
                       f" (tolerance {c.tolerance:.0e}) {c.detail}".rstrip())


Result = namedtuple("Result", "measured detail bound", defaults=("", None))


class Row(NamedTuple):
    """``bounds`` maps each name the row reports, in order, to its bound: a
    float the defect must stay below, POSITIVE, or None, set by the Result
    that ``measure(prof, samples)`` yields per name (measured None: skip)."""
    bounds: dict
    measure: Callable
    needs_positive_curvature: bool = True

    def run(self, prof: ZollProfile, samples: int = 64, positive: bool = True) -> list[Check]:
        out = (self.measure(prof, samples) if positive or not self.needs_positive_curvature
               else [Result(None, "skipped: Gauss curvature not positive")] * len(self.bounds))
        checks = []
        for (name, bound), (measured, detail, own) in zip(self.bounds.items(), out, strict=True):
            if measured is None:
                checks.append(Check(name, "skip", None, None, detail))
                continue
            tol = 0.0 if bound is POSITIVE else own if bound is None else bound
            ok = measured > tol if bound is POSITIVE else measured < tol
            checks.append(Check(name, "pass" if ok else "fail", measured, tol, detail))
        return checks


def run_verification(prof: ZollProfile, samples: int = 64) -> VerificationReport:
    """The rows of CHECKS in order; the first one decides whether G > 0."""
    rep = VerificationReport(prof.odd_coeffs)
    for row in CHECKS:
        rep.checks += row.run(prof, samples, not rep.checks or rep.checks[0].status == "pass")
    return rep


def _fold(values, floor=False) -> float:
    """max (min for a floor) of all values; NaN if any is, unlike Python's max and min."""
    return float(np.min(values) if floor else np.max(values))


def _band_interior(R, n):
    return np.linspace(abs(R) + 1e-3, math.pi - abs(R) - 1e-3, n)


def _gauss_curvature(prof, samples):
    """1. Positive Gauss curvature (with witness)."""
    x_min, g_min = profile_mod.check_positive_curvature(prof)[1]
    yield Result(g_min, f"min G = {g_min:.6f} at x = {x_min:.6f}")


def _curvature_fd(prof, samples):
    """2. Closed-form curvature vs finite-difference oracle."""
    rs = np.linspace(0.15, math.pi - 0.15, 25).tolist()
    cfs = [profile_mod.gauss_curvature(prof, r) for r in rs]
    yield Result(_fold([abs(profile_mod.curvature_fd_check(prof, r) - cf) / max(1.0, abs(cf))
                        for r, cf in zip(rs, cfs)]))


def _indicatrix_curvature(prof, samples):
    """3. Indicatrix convexity <-> curvature identity, both from one scan,
    one array call per chart value."""
    sides = [moduli.indicatrix_curvature(prof, R, _band_interior(R, 41), +1)
             for R in (0.1, 0.4, 0.9, 1.3)]
    ratios = [np.abs(kl - kr) / np.maximum(np.maximum(np.abs(kl), np.abs(kr)), 1.0)
              for kl, kr in sides]
    yield Result(_fold(np.hstack(ratios)))
    k_min = _fold(np.hstack([kl for kl, _ in sides]), floor=True)
    yield Result(k_min, f"min curve curvature = {k_min:.6f}")


def _closure_integrals(prof, samples):
    """4. Closure integrals over the Clairaut grid."""
    yield Result(_fold([abs(v - math.pi) for c in C_GRID
                        for v in geodesics.closure_integrals(prof, c)]))


def _geodesic_closure(prof, samples):
    """5. Each row of a Zoll trace over one period against its travel time
    int_{u_0}^{u_k} (1 + h(cos r_c cos s)) ds, by order-64 Gauss-Legendre
    (roundoff over 2 pi up to deg h = 21) on 129 rows at once.  The return
    distance goes in the detail: the closed-form phase time returns at 2 pi for
    any coefficients.  Both routes sum h in the monomial basis, whose roundoff
    grows with sum |a_j|, and so does the bound: ~100x the worst defect on the
    named profiles (2.7e-15 on 1,-2,1, sum |a_j| = 4), capped at 1e-10 (a
    convex degree-21 profile with sum |a_j| = 5.3e4 measures 1.1e-12)."""
    state = geodesics.GeodesicState(geodesics.turning_latitude(0.5), 0.25, 0.5, +1)
    trace = geodesics.integrate_geodesic(prof, state, 2 * math.pi, samples_per_period=128)
    x, wq = quadrature._leggauss(64)
    half = 0.5 * (trace.u - trace.u[0])
    s = (trace.u[0] + half)[:, None] + half[:, None] * x
    rate = 1.0 + prof.h(math.cos(state.r) * np.cos(s))
    dist = geodesics.surface_distance(prof, (state.r, state.theta),
                                      (float(trace.r[-1]), float(trace.theta[-1])))
    yield Result(_fold(np.abs(half * (rate @ wq) - trace.t)),
                 f"phase time vs quadrature; return distance {dist:.2e}",
                 min(1e-10, 5e-14 * (1.0 + math.fsum(map(abs, prof.odd_coeffs)))))


def _wronskian(prof, samples):
    """6. Wronskian of the normalized Jacobi pair, one array call per
    Clairaut constant and branch, and the pair's initial values y1 = 0,
    y1' = 1, y2 = 1, y2' = 0 at the turning latitude, which heads the
    branch +1 call.  A wrong c1 scales y1 by c1 and y2 by 1/c1: the
    Wronskian does not see it, the initial values do."""
    defects = []
    for c in (0.1, 0.3, 0.5, 0.7, 0.9):
        rs = _band_interior(math.asin(c), 21)
        start = jacobi.jacobi_pair(prof, c, np.insert(rs, 0, geodesics.turning_latitude(c)), +1)
        for pair in (start, jacobi.jacobi_pair(prof, c, rs, -1)):
            defects.append(np.abs(pair.wronskian() + 1.0))
        defects.append(np.abs([start.y1[0], start.y1_prime[0] - 1.0,
                               start.y2[0] - 1.0, start.y2_prime[0]]))
    yield Result(_fold(np.hstack(defects)))


def _jacobi_ode(prof, samples):
    """7. Jacobi ODE residual, three array calls of jacobi_pair per Clairaut
    constant (jacobi_ode_check)."""
    yield Result(_fold([jacobi.jacobi_ode_check(prof, c, _band_interior(math.asin(c), 9))
                        for c in (0.2, 0.5, 0.8)]))


def _representation(prof, samples):
    """8. Parametric samples satisfy the implicit polynomial equation.  Each
    latitude is sampled once, the branches alternating: v2 does not depend on
    the branch, v1 only changes sign and the residual is even in v1, so the
    other branch would repeat it bit for bit.  One array call per chart
    value (one quadrature below and one above the equator), one residual."""
    u = np.linspace(0.0, math.pi, samples)
    branches = np.where(np.arange(samples) % 2, -1, 1)
    residuals = []
    for R in R_GRID:
        rs = np.arccos(np.clip(math.cos(abs(R)) * np.cos(u), -1.0, 1.0))
        s = moduli.indicatrix_parametric(prof, float(R), rs, branches)
        residuals.append(np.abs(moduli.implicit_residual(prof, float(R), s.v1, s.v2)))
    yield Result(_fold(residuals))


def _regularization(prof, samples):
    """9. Parametric vs regularized v2 away from the equator, one array call
    of each route per chart value."""
    defects = []
    for R in (0.2, 0.8, 1.3):
        rs = _band_interior(R, 41)
        rs = rs[np.abs(rs - math.pi / 2) > 0.1]
        parametric = moduli.indicatrix_parametric(prof, R, rs, +1)
        regular = moduli.indicatrix_regularized(prof, R, rs, +1)
        defects.append(np.abs(parametric.v2 - regular.v2))
    yield Result(_fold(np.hstack(defects)))


def _ellipse(prof, samples):
    """10. Round-sphere degeneration (ellipse identity); only meaningful at h=0."""
    if not prof.is_round:
        yield Result(None, "profile is not the round sphere")
        return
    curves = [(R, moduli.indicatrix_curve(prof, R, 500)) for R in (0.0, math.pi / 6, math.pi / 3)]
    yield Result(_fold([np.abs(c.v1 ** 2 + math.cos(R) ** 2 * c.v2 ** 2 - 1.0) for R, c in curves]))


def _homogeneity(prof, samples):
    """11. Homogeneity of F."""
    defects = []
    for R, v in itertools.product((0.3, 1.1), ((0.3, -0.5), (1.0, 0.2), (-0.4, 0.9))):
        f1 = finsler.finsler_F(prof, R, 0.0, v).F
        defects += [abs(finsler.finsler_F(prof, R, 0.0, (lam * v[0], lam * v[1])).F - lam * f1)
                    / (lam * f1) for lam in (1e-3, 0.5, 2.0, 1e3)]
    yield Result(_fold(defects))


def _unit_norm(prof, samples):
    """12. F = 1 on indicatrix samples, one block of rays over the three
    chart values."""
    curves = [moduli.indicatrix_curve(prof, R, 64) for R in (0.0, 0.6, 1.2)]
    R = np.hstack([np.full(len(c), c.R) for c in curves])
    v = np.hstack([c.v1 for c in curves]), np.hstack([c.v2 for c in curves])
    yield Result(_fold(np.abs(finsler.finsler_F(prof, R, 0.0, v).F - 1.0)))


def _fundamental_tensor(prof, samples):
    """13. Fundamental tensor positive definite, 24 directions at each of
    three chart values in one block."""
    angles = np.tile(np.linspace(0.0, 2 * math.pi, 25)[:-1], 3)
    R = np.repeat((0.2, 0.7, 1.2), 24)
    eig_min = _fold(np.linalg.eigvalsh(finsler.fundamental_tensor(
        prof, R, 0.0, (np.cos(angles), np.sin(angles))).tensor()), floor=True)
    yield Result(eig_min, f"min eigenvalue = {eig_min:.6f}")


def _invariants(prof, samples):
    """14. Invariants: zero in the round case, fiber-transport defect otherwise."""
    if prof.is_round:
        pairs = [finsler.invariants_IJ(prof, r, phi)
                 for r in np.linspace(0.2, math.pi - 0.2, 21).tolist()
                 for phi in np.linspace(0.0, 2 * math.pi, 9).tolist()]
        yield Result(_fold([abs(p.I) + abs(p.J) for p in pairs]),
                     "round sphere: I and J must vanish", 1e-12)
    else:
        yield Result(_fold([finsler.invariant_flow_check(prof, r, phi)
                            for r in (0.8, 1.0, 1.3, 2.0) for phi in (0.0, 0.7, 2.0, 4.0)]),
                     "fiber-transport relation at dphi = 1e-5", 1e-4)


def _finsler_closure(prof, samples):
    """15. The closed-form Finsler trace (finsler_geodesic, from the point
    pencil) plugged into the geodesic spray of F (finsler._spray) instead of
    integrated: one array pass over the 257 rows, each at its state (R, u),
    u the phase of p on the row's geodesic from this check's own (r_p,
    phi0 + t).  The spray's udot must match the rate of that phase, its
    Thetadot an 8th-order central difference of the pencil's longitude
    (reflected), and its velocity the trace's.  Each row (R, Theta) of the
    trace must lie on the pencil of p, its longitude reflected about
    Theta0, which gates the trace's longitude on every row (the spray's
    Thetadot reads only R and u); the pencil's first row is the start
    (R0, Theta0), and the first velocity must be v0.  Distances are in the
    chart metric of chart_distance.  The start is the chart point of the
    geodesic through p = (r_p, th_p) in the direction phi0, with the
    indicatrix point at latitude r_p (branch +1) as velocity, so the closed
    form's map back to (p, phi0) is tested too.  The detail gives the
    largest pencil deviation and the trace's return distance.  Bound: ~100x
    the worst defect over the named profiles and the cubic and quintic
    families, 1.5e-12, set by the roundoff of the difference."""
    r_p, th_p, phi0 = 1.1, 0.7, 0.9
    R0, th0 = (float(a[0]) for a in moduli.pencil_chart(prof, r_p, th_p, [phi0]))
    s = moduli.indicatrix_regularized(prof, R0, r_p, +1)
    ftr = finsler.finsler_geodesic(prof, (R0, th0), (s.v1, s.v2), 2 * math.pi)
    phi = phi0 + ftr.t
    sin_rp, cos_rp = math.sin(r_p), math.cos(r_p)
    s_u = np.cos(phi) * sin_rp                  # cos R sin u
    (v_r, v_th), u_dot = finsler._spray(moduli.CurveEval(prof, ftr.R),
                                        np.arctan2(s_u, cos_rp))
    u_rate = -sin_rp * cos_rp * np.sin(phi) / (cos_rp * cos_rp + s_u * s_u)
    pen_R, pen_th = moduli.pencil_chart(prof, r_p, th_p,
                                        phi[:, None] + _D8_STEP * np.arange(-4, 5))
    # theta(phi + k h) - theta(phi - k h), k = 1..4, across the wrap at 2 pi.
    spread = (pen_th[:, 5:] - pen_th[:, 3::-1] + math.pi) % (2 * math.pi) - math.pi
    th_rate = -(spread @ _D8_WEIGHTS) / _D8_STEP
    cos_r, cos_0 = np.cos(ftr.R), math.cos(R0)
    # The trace against the pencil of p, its longitude reflected about th0.
    lon = (ftr.Theta - 2 * th0 + pen_th[:, 4] + math.pi) % (2 * math.pi) - math.pi
    pencil = np.hypot(ftr.R - pen_R[:, 4], cos_r * lon)
    worst = _fold(np.hstack([
        np.abs(u_dot - u_rate), cos_r * np.abs(v_th - th_rate),
        np.hypot(ftr.vR - v_r, cos_r * (ftr.vTheta - v_th)), pencil,
        [math.hypot(ftr.vR[0] - s.v1, cos_0 * (ftr.vTheta[0] - s.v2))]]))
    dist = finsler.chart_distance((float(ftr.R[-1]), float(ftr.Theta[-1])), (R0, th0))
    yield Result(worst, f"spray residual; pencil deviation {_fold(pencil):.2e}; "
                 f"closure distance {dist:.2e}")


#: The checks in report order.  When G is not positive (the first row), the
#: convexity check still runs (it is the equivalence being demonstrated) and
#: the rows that need G > 0 are skipped.
CHECKS = (
    Row({"gauss_curvature_positive": POSITIVE}, _gauss_curvature, False),
    Row({"curvature_fd_agreement": 1e-6}, _curvature_fd, False),
    Row({"indicatrix_curvature_sides": 1e-6, "indicatrix_convexity": POSITIVE},
        _indicatrix_curvature, False),
    Row({"closure_integrals": 1e-8}, _closure_integrals),
    Row({"geodesic_closure": None}, _geodesic_closure),
    Row({"wronskian": 1e-9}, _wronskian),
    Row({"jacobi_ode": 1e-5}, _jacobi_ode),
    Row({"representation_agreement": 1e-8}, _representation),
    Row({"regularization_agreement": 1e-10}, _regularization),
    Row({"ellipse_degeneration": 1e-10}, _ellipse),
    Row({"finsler_homogeneity": 1e-10}, _homogeneity),
    Row({"indicatrix_unit_norm": 1e-9}, _unit_norm),
    Row({"fundamental_tensor_pd": POSITIVE}, _fundamental_tensor),
    Row({"invariants": None}, _invariants),
    Row({"finsler_closure": 2e-10}, _finsler_closure),
)
