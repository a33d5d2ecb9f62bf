"""Cross-module verification suites, shared by the CLI and the test-suite.

Each check compares an implemented quantity against an independent route
(finite differences, two-resolution quadrature, the algebraic identity the
construction must satisfy) and reports the measured defect against a fixed
tolerance.  When the positivity of the Gauss curvature fails, the convexity
check still runs (it is the equivalence being demonstrated) and the
remaining checks are skipped, since they presuppose a positive-definite
norm.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import finsler, geodesics, jacobi, moduli, profile as profile_mod
from .profile import ZollProfile

#: Chart values exercised by the representation checks.
R_GRID = tuple(np.linspace(0.0, 1.3, 9))

#: Clairaut constants exercised by the closure and Jacobi checks.
C_GRID = (0.0, 0.1, -0.1, 0.3, -0.3, 0.5, -0.5, 0.7, -0.7, 0.9, -0.9)


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

    def add(self, name, measured, tolerance, detail="", ok=None):
        if ok is None:
            ok = measured < tolerance
        self.checks.append(Check(name, "pass" if ok else "fail",
                                 measured, tolerance, detail))

    def skip(self, name, detail=""):
        self.checks.append(Check(name, "skip", None, None, detail))

    def to_dict(self) -> dict:
        return {"profile": list(self.profile),
                "passed": self.passed,
                "checks": [asdict(c) for c in self.checks]}

    def lines(self):
        for c in self.checks:
            if c.status == "skip":
                yield f"SKIP {c.name}: {c.detail}"
            else:
                mark = "PASS" if c.status == "pass" else "FAIL"
                yield (f"{mark} {c.name}: measured {c.measured:.3e}"
                       f" (tolerance {c.tolerance:.0e}) {c.detail}".rstrip())


def _band_interior(R, n):
    rc = abs(R)
    return np.linspace(rc + 1e-3, math.pi - rc - 1e-3, n)


def run_verification(prof: ZollProfile, samples: int = 64) -> VerificationReport:
    rep = VerificationReport(prof.odd_coeffs)

    # 1. Positive Gauss curvature (with witness).
    ok, (x_min, g_min) = profile_mod.check_positive_curvature(prof)
    rep.add("gauss_curvature_positive", g_min, 0.0,
            detail=f"min G = {g_min:.6f} at x = {x_min:.6f}", ok=ok)

    # 2. Closed-form curvature vs finite-difference oracle.
    worst = 0.0
    for r in np.linspace(0.15, math.pi - 0.15, 25):
        fd = profile_mod.curvature_fd_check(prof, float(r), 1e-4)
        cf = profile_mod.gauss_curvature(prof, float(r))
        worst = max(worst, abs(fd - cf) / max(1.0, abs(cf)))
    rep.add("curvature_fd_agreement", worst, 1e-6)

    # 3. Indicatrix convexity <-> curvature identity (runs even when G <= 0:
    # the negative side is the demonstration).
    sides_diff = 0.0
    k_min = math.inf
    for R in (0.1, 0.4, 0.9, 1.3):
        for r in _band_interior(R, 41):
            kl, kr = moduli.indicatrix_curvature(prof, R, float(r), +1)
            sides_diff = max(sides_diff, abs(kl - kr) / max(abs(kl), abs(kr), 1.0))
            k_min = min(k_min, kl)
    rep.add("indicatrix_curvature_sides", sides_diff, 1e-6)
    rep.add("indicatrix_convexity", k_min, 0.0,
            detail=f"min curve curvature = {k_min:.6f}", ok=k_min > 0.0)

    if not ok:
        for name in ("closure_integrals", "geodesic_closure", "wronskian",
                     "jacobi_ode", "representation_agreement",
                     "regularization_agreement", "ellipse_degeneration",
                     "finsler_homogeneity", "indicatrix_unit_norm",
                     "fundamental_tensor_pd", "invariants", "finsler_closure"):
            rep.skip(name, "skipped: Gauss curvature not positive")
        return rep

    # 4. Closure integrals over the Clairaut grid.
    worst = 0.0
    for c in C_GRID:
        t_val, th_val = geodesics.closure_integrals(prof, c)
        worst = max(worst, abs(t_val - math.pi), abs(th_val - math.pi))
    rep.add("closure_integrals", worst, 1e-8)

    # 5. Geodesic trace closes after one period.
    state = geodesics.GeodesicState(geodesics.turning_latitude(0.5), 0.25, 0.5, +1)
    trace = geodesics.integrate_geodesic(prof, state, 2 * math.pi, tol=1e-10)
    dist = geodesics.surface_distance(prof, (state.r, state.theta),
                                      (float(trace.r[-1]), float(trace.theta[-1])))
    rep.add("geodesic_closure", dist, 1e-6)

    # 6. Wronskian of the normalized Jacobi pair.
    worst = 0.0
    for c in (0.1, 0.3, 0.5, 0.7, 0.9):
        for r in _band_interior(math.asin(c), 21):
            for branch in (+1, -1):
                worst = max(worst, abs(
                    jacobi.jacobi_pair(prof, c, float(r), branch).wronskian() + 1.0))
    rep.add("wronskian", worst, 1e-9)

    # 7. Jacobi ODE residual.
    res = max(jacobi.jacobi_ode_check(prof, c, _band_interior(math.asin(c), 9))
              for c in (0.2, 0.5, 0.8))
    rep.add("jacobi_ode", res, 1e-5)

    # 8. Parametric samples satisfy the implicit polynomial equation.  Each
    # latitude is sampled once, the branches alternating: v2 does not depend
    # on the branch and v1 only changes sign, and the residual is even in v1,
    # so the other branch would repeat the same number bit for bit.  One
    # batched call per chart value (one quadrature below and one above the
    # equator) and one array residual.
    worst = 0.0
    for R in R_GRID:
        rc = abs(R)
        u = np.linspace(0.0, math.pi, samples)
        rs = np.arccos(np.clip(math.cos(rc) * np.cos(u), -1.0, 1.0))
        batch = moduli.indicatrix_parametric_samples(
            prof, float(R), rs, [(+1, -1)[k % 2] for k in range(len(rs))])
        res = moduli.implicit_residual(prof, float(R), [s.v1 for s in batch],
                                       [s.v2 for s in batch])
        worst = max(worst, float(np.max(np.abs(res))))
    rep.add("representation_agreement", worst, 1e-8)

    # 9. Parametric vs regularized v2 away from the equator.
    worst = 0.0
    for R in (0.2, 0.8, 1.3):
        rs = [float(r) for r in _band_interior(R, 41) if abs(r - math.pi / 2) > 0.1]
        batch = moduli.indicatrix_parametric_samples(prof, R, rs, [+1] * len(rs))
        for r, a in zip(rs, batch):
            b = moduli.indicatrix_regularized(prof, R, r, +1)
            worst = max(worst, abs(a.v2 - b.v2))
    rep.add("regularization_agreement", worst, 1e-10)

    # 10. Round-sphere degeneration (ellipse identity); only meaningful at h=0.
    if prof.is_round:
        worst = 0.0
        for R in (0.0, math.pi / 6, math.pi / 3):
            curve = moduli.indicatrix_curve(prof, R, 500)
            worst = max(worst, float(np.max(np.abs(
                curve.v1 ** 2 + math.cos(R) ** 2 * curve.v2 ** 2 - 1.0))))
        rep.add("ellipse_degeneration", worst, 1e-10)
    else:
        rep.skip("ellipse_degeneration", "profile is not the round sphere")

    # 11. Homogeneity of F.
    worst = 0.0
    for R in (0.3, 1.1):
        for v in ((0.3, -0.5), (1.0, 0.2), (-0.4, 0.9)):
            f1 = finsler.finsler_F(prof, R, 0.0, v).F
            for lam in (1e-3, 0.5, 2.0, 1e3):
                f2 = finsler.finsler_F(prof, R, 0.0,
                                       (lam * v[0], lam * v[1])).F
                worst = max(worst, abs(f2 - lam * f1) / (lam * f1))
    rep.add("finsler_homogeneity", worst, 1e-10)

    # 12. F = 1 on indicatrix samples.
    worst = 0.0
    for R in (0.0, 0.6, 1.2):
        curve = moduli.indicatrix_curve(prof, R, 64)
        for v in zip(curve.v1.tolist(), curve.v2.tolist()):
            worst = max(worst, abs(finsler.finsler_F(prof, R, 0.0, v).F - 1.0))
    rep.add("indicatrix_unit_norm", worst, 1e-9)

    # 13. Fundamental tensor positive definite over a direction grid.
    eig_min = math.inf
    for R in (0.2, 0.7, 1.2):
        for a in np.linspace(0.0, 2 * math.pi, 25)[:-1]:
            fe = finsler.fundamental_tensor(prof, R, 0.0,
                                            (math.cos(a), math.sin(a)))
            eig_min = min(eig_min, float(np.linalg.eigvalsh(fe.tensor()).min()))
    rep.add("fundamental_tensor_pd", eig_min, 0.0,
            detail=f"min eigenvalue = {eig_min:.6f}", ok=eig_min > 0.0)

    # 14. Invariants: zero in the round case, fiber-transport defect otherwise.
    if prof.is_round:
        worst = 0.0
        for r in np.linspace(0.2, math.pi - 0.2, 21):
            for phi in np.linspace(0.0, 2 * math.pi, 9):
                pair = finsler.invariants_IJ(prof, float(r), float(phi))
                worst = max(worst, abs(pair.I) + abs(pair.J))
        rep.add("invariants", worst, 1e-12,
                detail="round sphere: I and J must vanish")
    else:
        worst = 0.0
        for r in (0.8, 1.0, 1.3, 2.0):
            for phi in (0.0, 0.7, 2.0, 4.0):
                worst = max(worst, finsler.invariant_flow_check(
                    prof, r, phi, 1e-5))
        rep.add("invariants", worst, 1e-4,
                detail="fiber-transport relation at dphi = 1e-5")

    # 15. A Finsler geodesic runs through the point pencil of its start
    # (moduli.pencil_chart), row by row, with the longitude reflected.  The
    # start is the chart point of the geodesic through p = (r_p, th_p) in
    # the direction phi0, with the velocity of p on it: the indicatrix point
    # at latitude r_p on the branch sign(cos phi0) = +1.
    r_p, th_p, phi0 = 1.1, 0.7, 0.9
    R0, th0 = (float(a[0]) for a in moduli.pencil_chart(prof, r_p, th_p, [phi0]))
    s = moduli.indicatrix_regularized(prof, R0, r_p, +1)
    ftr = finsler.finsler_geodesic(prof, (R0, th0), (s.v1, s.v2), 2 * math.pi, tol=1e-7)
    pen_R, pen_th = moduli.pencil_chart(prof, r_p, th_p, phi0 + ftr.t)
    worst = max(finsler.chart_distance((R, 2 * th0 - th), (pr, pth))
                for R, th, pr, pth in zip(ftr.R.tolist(), ftr.Theta.tolist(),
                                          pen_R.tolist(), pen_th.tolist()))
    dist = finsler.chart_distance((float(ftr.R[-1]), float(ftr.Theta[-1])), (R0, th0))
    rep.add("finsler_closure", worst, 1e-6,
            detail=f"pencil deviation; closure distance {dist:.2e}")
    return rep
