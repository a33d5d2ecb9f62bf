"""End-to-end acceptance criteria.

Each test exercises one contract of the build at its stated tolerance and
prints a single PASS line with the measured defect (run with ``pytest -s``
to see them).  The worked profiles are the round sphere, the cubic
deformation at eps in {0.25, 0.45}, and the quintic deformation; the cubic
at eps = 0.6 serves as the deliberately invalid case.
"""

import math
import time

import numpy as np
import pytest

from zollfins import (SIGMA_ROTATION, chart_distance, closure_integrals,
                      curvature_critical_points, curvature_fd_check, example1,
                      example2, f_polynomial, finsler_F, finsler_geodesic,
                      fundamental_tensor, gauss_curvature, implicit_residual,
                      indicatrix_curvature, indicatrix_parametric,
                      invariant_flow_check, invariants_IJ, round_sphere,
                      turning_latitude, unit_direction)
from zollfins.cli import main
from zollfins.profile import curvature_x

SPHERE = round_sphere()
EX1_A = example1(0.25)
EX1_B = example1(0.45)
EX2 = example2()
PROFILES = (SPHERE, EX1_A, EX1_B, EX2)
BAD = example1(0.6)

C_GRID = (0.0, 0.1, -0.1, 0.3, -0.3, 0.5, -0.5, 0.7, -0.7, 0.9, -0.9)
R_GRID = tuple(float(R) for R in np.linspace(0.0, 1.3, 9))


def band(R, n):
    rc = abs(R)
    u = np.linspace(0.0, math.pi, n)
    return np.arccos(np.clip(math.cos(rc) * np.cos(u), -1.0, 1.0))


def report(name, measured, tolerance, extra=""):
    print(f"[acceptance] {name}: PASS (measured {measured:.3e},"
          f" tolerance {tolerance:.0e}){' ' + extra if extra else ''}")


def test_criterion_1_closure_integrals():
    """Every geodesic closes: both band integrals equal pi for all profiles
    and Clairaut constants, within 1e-8, in under 5 seconds."""
    t0 = time.monotonic()
    worst = 0.0
    for prof in PROFILES:
        for c in C_GRID:
            t_val, th_val = closure_integrals(prof, c)
            worst = max(worst, abs(t_val - math.pi), abs(th_val - math.pi))
    elapsed = time.monotonic() - t0
    assert worst < 1e-8
    assert elapsed < 5.0
    report("closure integrals", worst, 1e-8, f"runtime {elapsed:.2f}s")


def test_criterion_2_curvature_cross_checks():
    t0 = time.monotonic()
    # (a) closed form vs the cubic profile's explicit curvature formula
    worst_formula = 0.0
    for eps in (0.25, 0.45):
        prof = example1(eps)
        for x in np.linspace(-1.0, 1.0, 100):
            ref = -(2 * eps * x**3 + 1) / (eps * x**3 - eps * x - 1) ** 3
            worst_formula = max(worst_formula,
                                abs(curvature_x(prof, float(x)) - ref))
    assert worst_formula < 1e-12
    # (b) closed form vs the finite-difference oracle
    worst_fd = 0.0
    for prof in PROFILES:
        for r in np.linspace(0.05, math.pi - 0.05, 50):
            cf = gauss_curvature(prof, float(r))
            fd = curvature_fd_check(prof, float(r))
            worst_fd = max(worst_fd, abs(fd - cf) / max(1.0, abs(cf)))
    assert worst_fd < 1e-6
    # (c) the quintic profile's critical pairs
    published = [(0.33, 0.56), (0.88, 1.42), (-0.35, 2.18), (-0.81, 0.36)]
    located = curvature_critical_points(EX2)
    worst_crit = 0.0
    for x_ref, g_ref in published:
        best = min(located, key=lambda p: abs(p[0] - x_ref))
        worst_crit = max(worst_crit, abs(best[0] - x_ref), abs(best[1] - g_ref))
    assert worst_crit <= 0.01
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report("curvature cross-checks", max(worst_formula, worst_fd), 1e-6,
           f"critical pairs within {worst_crit:.4f}; runtime {elapsed:.2f}s")


def test_criterion_3_round_sphere_degeneration():
    worst = 0.0
    for R in (0.0, math.pi / 6, math.pi / 3):
        q = math.cos(R) ** 2
        for r in band(R, 500):
            for branch in (+1, -1):
                s = indicatrix_parametric(SPHERE, R, float(r), branch)
                worst = max(worst, abs(s.v1 ** 2 + q * s.v2 ** 2 - 1.0))
    assert worst < 1e-10
    report("round-sphere ellipse degeneration", worst, 1e-10,
           "1000 samples per chart value")


def test_criterion_4_representation_agreement():
    worst = 0.0
    for prof in (EX1_A, EX1_B, EX2):
        for R in R_GRID:
            for r in band(R, 200):
                for branch in (+1, -1):
                    s = indicatrix_parametric(prof, R, float(r), branch)
                    worst = max(worst, abs(implicit_residual(prof, R, s.v1, s.v2)))
    assert worst < 1e-8
    report("parametric/implicit representation agreement", worst, 1e-8,
           "9 chart values x 200 samples x 2 branches x 3 profiles")


def test_criterion_5_convexity_iff_positive_curvature():
    worst_rel = 0.0
    k_min = math.inf
    for prof in PROFILES:
        for R in (0.1, 0.4, 0.9, 1.3):
            rc = abs(R)
            for r in np.linspace(rc + 1e-3, math.pi - rc - 1e-3, 60):
                kl, kr = indicatrix_curvature(prof, R, float(r), +1)
                worst_rel = max(worst_rel, abs(kl - kr) / max(abs(kl), abs(kr)))
                k_min = min(k_min, kl, kr)
    assert worst_rel < 1e-6
    assert k_min > 0.0
    # The invalid profile must exhibit a negative curve curvature.
    k_bad = min(indicatrix_curvature(BAD, 0.1, float(r), +1)[0]
                for r in np.linspace(2.6, 3.0, 40))
    assert k_bad < 0.0
    report("convexity <-> curvature", worst_rel, 1e-6,
           f"min k = {k_min:.4f} (valid), {k_bad:.2f} (eps=0.6)")


def test_criterion_6_jacobi_structure():
    from zollfins import jacobi_ode_check, jacobi_pair
    worst_w = 0.0
    for prof in PROFILES:
        for c in (0.1, 0.3, 0.5, 0.7, 0.9):
            rc = turning_latitude(c)
            for r in np.linspace(rc + 1e-4, math.pi - rc - 1e-4, 40):
                for branch in (+1, -1):
                    w = jacobi_pair(prof, c, float(r), branch).wronskian()
                    worst_w = max(worst_w, abs(w + 1.0))
    assert worst_w < 1e-9
    worst_ode = 0.0
    for prof in PROFILES:
        for c in (0.2, 0.5, 0.8):
            rc = turning_latitude(c)
            grid = np.linspace(rc + 0.05, math.pi - rc - 0.05, 9)
            worst_ode = max(worst_ode, jacobi_ode_check(prof, c, grid))
    assert worst_ode < 1e-5
    report("Jacobi structure", worst_w, 1e-9,
           f"ODE residual {worst_ode:.3e} < 1e-5")


def test_criterion_7_finsler_function():
    # Homogeneity.
    worst_h = 0.0
    for prof in (EX1_A, EX2):
        for R in (0.3, 1.1):
            for v in ((0.3, -0.5), (1.0, 0.2), (-0.4, 0.9)):
                f1 = finsler_F(prof, R, 0.0, v).F
                for lam in (1e-3, 0.5, 2.0, 1e3):
                    f2 = finsler_F(prof, R, 0.0, (lam * v[0], lam * v[1])).F
                    worst_h = max(worst_h, abs(f2 - lam * f1) / (lam * f1))
    assert worst_h < 1e-10
    # Unit value on indicatrix samples.
    worst_u = 0.0
    for prof in (EX1_A, EX1_B, EX2):
        for R in (0.0, 0.6, 1.3):
            for r in band(R, 50):
                for branch in (+1, -1):
                    s = indicatrix_parametric(prof, R, float(r), branch)
                    worst_u = max(worst_u,
                                  abs(finsler_F(prof, R, 0.0, (s.v1, s.v2)).F - 1.0))
    assert worst_u < 1e-9
    # Positive definiteness on direction grids.
    eig_min = math.inf
    for prof in (EX1_A, EX1_B, EX2):
        for R in (0.2, 0.7, 1.2):
            for a in np.linspace(0.0, 2 * math.pi, 101)[:-1]:
                g = fundamental_tensor(prof, R, 0.0,
                                       (math.cos(a), math.sin(a))).tensor()
                eig_min = min(eig_min, float(np.linalg.eigvalsh(g).min()))
    assert eig_min > 0.0
    # Exact polynomial degrees of the norm equation.
    deg4 = f_polynomial(EX1_A, 0.4, 0.3, -0.5)
    deg8 = f_polynomial(EX2, 0.4, 0.3, -0.5)
    assert len(deg4.coeffs_exact) - 1 == 4 and deg4.coeffs_exact[-1] != 0
    assert len(deg8.coeffs_exact) - 1 == 8 and deg8.coeffs_exact[-1] != 0
    report("Finsler function", max(worst_h, worst_u), 1e-9,
           f"min eig {eig_min:.3f}; F-equation degrees 4 and 8 exact")


def test_criterion_8_constant_curvature_consequences():
    """Finsler geodesics close with period 2 pi and geodesics from a common
    point meet again at parameter pi, within 1e-3, in under 30 seconds."""
    t0 = time.monotonic()
    worst_close = 0.0
    worst_meet = 0.0
    for prof in (EX1_A, EX1_B, EX2):
        start = (0.2, 0.0)
        v0 = unit_direction(prof, *start, 0.9)
        trace = finsler_geodesic(prof, start, v0, 2 * math.pi, samples_per_period=64)
        worst_close = max(worst_close, chart_distance(
            (float(trace.R[-1]), float(trace.Theta[-1])), start))
        va = unit_direction(prof, *start, 0.4)
        vb = unit_direction(prof, *start, 2.1)
        ta = finsler_geodesic(prof, start, va, math.pi, samples_per_period=64)
        tb = finsler_geodesic(prof, start, vb, math.pi, samples_per_period=64)
        worst_meet = max(worst_meet, chart_distance(
            (float(ta.R[-1]), float(ta.Theta[-1])),
            (float(tb.R[-1]), float(tb.Theta[-1]))))
    elapsed = time.monotonic() - t0
    assert worst_close < 1e-3
    assert worst_meet < 1e-3
    assert elapsed < 30.0
    report("unit-curvature consequences", max(worst_close, worst_meet), 1e-3,
           f"closure {worst_close:.2e}, meeting {worst_meet:.2e},"
           f" runtime {elapsed:.1f}s")


def test_criterion_9_invariant_flow_relation():
    worst = 0.0
    for prof in (EX1_A, EX1_B, EX2):
        for r in (0.8, 1.0, 1.3, 2.0):
            for phi in (0.0, 0.7, 2.0, 4.0):
                worst = max(worst, invariant_flow_check(prof, r, phi))
    assert worst < 1e-4
    worst_round = 0.0
    for r in np.linspace(0.2, math.pi - 0.2, 21):
        for phi in np.linspace(0.0, 2 * math.pi, 9):
            pair = invariants_IJ(SPHERE, float(r), float(phi))
            worst_round = max(worst_round, abs(pair.I) + abs(pair.J))
    assert worst_round < 1e-12
    report("invariant flow relation", worst, 1e-4,
           f"round-sphere invariants {worst_round:.1e} < 1e-12;"
           f" sigma = {SIGMA_ROTATION}")


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["--h", "0.45,-0.45", "--out", str(out), "indicatrix",
                     "--R", "0.2,0.6,1.0,1.3", "--samples", "200"]) == 0
        assert main(["--h", "0.45,-0.45", "--out", str(out),
                     "curvature"]) == 0
        outputs.append(out)
    names = ["curvature.csv", "indicatrices.svg"] + \
        [f"indicatrix_R{tag}.csv" for tag in ("0.2", "0.6", "1", "1.3")]
    for name in names:
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"nondeterministic output: {name}"
    report("byte determinism", 0.0, 1.0, f"{len(names)} files compared")
