"""Each verify check must be able to fail: a small fault planted in the
production code it guards turns it to FAIL on the 0.25,-0.25 profile."""

import dataclasses

import pytest

from zollfins import ZollProfile, example1, finsler, geodesics, jacobi, moduli
from zollfins.moduli import CurveEval
from zollfins.verify import run_verification


def _status(name):
    report = run_verification(example1(0.25))
    return {c.name: c.status for c in report.checks}[name]


def test_jet_curvature_fault_fails_curvature_sides(monkeypatch):
    """P_uu of the phase jet carries the spray's fundamental tensor."""
    jet = CurveEval.jet

    def faulty(self, u):
        p, p_u, (a1, a2), p_r, p_ur = jet(self, u)
        return p, p_u, (a1 * (1 + 1e-5), a2 * (1 + 1e-5)), p_r, p_ur

    monkeypatch.setattr(CurveEval, "jet", faulty)
    assert _status("indicatrix_curvature_sides") == "fail"


@pytest.fixture
def s_table_fault(monkeypatch):
    """Scales the reduced h'' table S (ZollProfile.s_table), which every
    phase kernel reads, by 1 + rel on the profiles built after the plant.
    A kernel reads the table when a curve is built, and profiles that differ
    only in it compare equal, so the curve cache is emptied before the
    fault, and after it, so that no faulty curve outlives it."""
    init = ZollProfile.__init__

    def plant(rel):
        def faulty(self, odd_coeffs=()):
            init(self, odd_coeffs)
            object.__setattr__(self, "s_table", tuple(
                tuple(b * (1 + rel) for b in row) for row in self.s_table))

        monkeypatch.setattr(ZollProfile, "__init__", faulty)

    moduli.curve_cache.cache_clear()
    yield plant
    moduli.curve_cache.cache_clear()


def test_s_table_fault_fails_regularization_and_wronskian(s_table_fault):
    """The S table of the phase kernel behind the regularized samples and
    the Jacobi pair."""
    s_table_fault(1e-6)
    assert _status("regularization_agreement") == "fail"
    assert _status("wronskian") == "fail"


def test_v2_rate_fault_fails_wronskian(monkeypatch):
    """dv2/du alone, which gives the Jacobi pair its y2'."""
    v2_du = jacobi.PhaseKernel.v2_du

    def faulty(self, cu, su):
        v2, v2_u = v2_du(self, cu, su)
        return v2, v2_u * (1 + 1e-6)

    monkeypatch.setattr(jacobi.PhaseKernel, "v2_du", faulty)
    assert _status("wronskian") == "fail"


def test_large_s_table_fault_fails_jacobi_ode(s_table_fault):
    """A fault the Jacobi equation sees at its stencil's resolution.  The
    trace of check 15 starts from a regularized sample, which reads the
    same kernel as the ray solve, so verification still returns a report."""
    s_table_fault(1e-4)
    assert _status("jacobi_ode") == "fail"


def test_branch_minus_fault_fails_representation_agreement(monkeypatch):
    """Only branch -1 samples carry the fault: the check must still sample
    that branch."""
    parametric = moduli.indicatrix_parametric_samples

    def faulty(*args):
        return [dataclasses.replace(s, v2=s.v2 + 1e-6) if s.branch == -1 else s
                for s in parametric(*args)]

    monkeypatch.setattr(moduli, "indicatrix_parametric_samples", faulty)
    assert _status("representation_agreement") == "fail"


def test_tail_fault_fails_representation_agreement(monkeypatch):
    """The tail quadrature that bridges the parametric v2 over the pole."""
    tail = moduli.curvature_integral_tail
    monkeypatch.setattr(moduli, "curvature_integral_tail",
                        lambda *args: tail(*args) * (1 + 1e-6))
    assert _status("representation_agreement") == "fail"


def test_phi_integrand_fault_fails_representation_agreement(monkeypatch):
    """The integrand of both Phi quadratures, below and above the equator."""
    integrand = jacobi._phi_integrand

    def faulty(*args):
        f = integrand(*args)
        return lambda u: f(u) * (1 + 1e-6)

    monkeypatch.setattr(jacobi, "_phi_integrand", faulty)
    assert _status("representation_agreement") == "fail"


def test_time_quadrature_fault_fails_closure_integrals(monkeypatch):
    """The quadrature behind the travel time T.  Theta = pi + |c| int k is
    not affected: the k integral vanishes for odd k, so a relative fault in
    it cannot show, and T carries the check."""
    adaptive = geodesics.gl_adaptive

    def faulty(*args, **kwargs):
        value, err = adaptive(*args, **kwargs)
        return value * (1 + 1e-7), err

    monkeypatch.setattr(geodesics, "gl_adaptive", faulty)
    assert _status("closure_integrals") == "fail"


def test_phase_time_fault_fails_geodesic_closure(monkeypatch):
    """The coefficients of the closed-form phase time, which a Zoll trace
    inverts for its phase: the latitude and the longitude both follow the
    phase.  The return at t = 2 pi holds for any coefficients, so only the
    row-by-row comparison with the quadrature of the travel time sees this."""
    series = geodesics._sin_series
    odd = example1(0.25).odd_coeffs

    def faulty(table, c):
        w = series(table, c)
        return [wi * (1 + 1e-6) for wi in w] if table == odd else w

    monkeypatch.setattr(geodesics, "_sin_series", faulty)
    assert _status("geodesic_closure") == "fail"


def test_f_r_fault_fails_finsler_closure(monkeypatch):
    """F_R of the closed-form fiber terms, inside the bundle flow: the ODE
    leaves the closed-form trace it must follow."""
    terms = finsler._fiber_terms

    def faulty(curve, u):
        p, p_r, g, f_r, ell, dell, mu = terms(curve, u)
        return p, p_r, g, f_r * (1 + 1e-6), ell, dell, mu

    monkeypatch.setattr(finsler, "_fiber_terms", faulty)
    assert _status("finsler_closure") == "fail"


def test_phi0_fault_fails_finsler_closure(monkeypatch):
    """The map of the closed-form trace's start (R0, u0) back to the
    direction phi0 at the surface point, off by 1e-5."""
    start = finsler._pencil_start

    def faulty(R0, u0):
        r_p, phi0, delta = start(R0, u0)
        return r_p, phi0 + 1e-5, delta

    monkeypatch.setattr(finsler, "_pencil_start", faulty)
    assert _status("finsler_closure") == "fail"
