"""Each verify check must be able to fail: a small fault planted in the
production code it guards turns it to FAIL on the 0.25,-0.25 profile."""

from zollfins import example1, jacobi
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
