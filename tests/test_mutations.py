"""Each verify check must be able to fail: a small fault planted in the
production code it guards turns it to FAIL on the 0.25,-0.25 profile."""

import dataclasses

from zollfins import example1, finsler, geodesics, jacobi, moduli
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


def test_psi_fault_fails_regularization_agreement(monkeypatch):
    """The closed-form h'' integral behind the regularized bracket."""
    closed = jacobi.hpp_integral
    monkeypatch.setattr(jacobi, "hpp_integral",
                        lambda *args: closed(*args) * (1 + 1e-6))
    assert _status("regularization_agreement") == "fail"


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


def test_phi_full_fault_fails_representation_agreement(monkeypatch):
    """The full-band finite part that the samples above the equator share.
    For odd h it is zero up to roundoff (the h'' integrand is odd about
    u = pi/2), so a relative fault would not show; the fault is absolute."""
    full = moduli.curvature_integral_full
    monkeypatch.setattr(moduli, "curvature_integral_full",
                        lambda *args: full(*args) + 1e-6)
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


def test_phase_rate_fault_fails_geodesic_closure(monkeypatch):
    """The phase ODE, the one integrated component of a Zoll geodesic: the
    latitude and the closed-form longitude both follow the phase."""
    solve = geodesics.solve_ivp

    def faulty(fun, *args, **kwargs):
        return solve(lambda t, y: [v * (1 + 1e-6) for v in fun(t, y)], *args, **kwargs)

    monkeypatch.setattr(geodesics, "solve_ivp", faulty)
    assert _status("geodesic_closure") == "fail"


def test_f_r_fault_fails_finsler_closure(monkeypatch):
    """F_R of the closed-form fiber terms, inside the bundle flow: the trace
    leaves the point pencil it must follow."""
    terms = finsler._fiber_terms

    def faulty(curve, u):
        p, p_r, g, f_r, ell, dell, mu = terms(curve, u)
        return p, p_r, g, f_r * (1 + 1e-6), ell, dell, mu

    monkeypatch.setattr(finsler, "_fiber_terms", faulty)
    assert _status("finsler_closure") == "fail"
