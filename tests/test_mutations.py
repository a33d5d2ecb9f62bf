"""Each verify check must be able to fail: a small fault planted in the
production code it guards turns it to FAIL on the 0.25,-0.25 profile."""

import dataclasses

from zollfins import example1, jacobi, moduli
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
    parametric = moduli.indicatrix_parametric

    def faulty(*args):
        s = parametric(*args)
        if s.branch == -1:
            return dataclasses.replace(s, v2=s.v2 + 1e-6)
        return s

    monkeypatch.setattr(moduli, "indicatrix_parametric", faulty)
    assert _status("representation_agreement") == "fail"


def test_tail_fault_fails_representation_agreement(monkeypatch):
    """The tail quadrature that bridges the parametric v2 over the pole."""
    tail = moduli.curvature_integral_tail
    monkeypatch.setattr(moduli, "curvature_integral_tail",
                        lambda *args: tail(*args) * (1 + 1e-6))
    assert _status("representation_agreement") == "fail"
