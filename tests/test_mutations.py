"""Each verify check must be able to fail: a small fault planted in the
production code it guards turns it to FAIL on the 0.25,-0.25 profile.

A planted fault is a test decorated with ``guards(*names)``: once the test
has planted its fault, each named check, run alone from its row of
``verify.CHECKS``, must FAIL.  ``test_every_check_has_a_fault_or_is_listed``
walks the table, so a new check needs a planted fault here or an entry in
``UNFAULTED``.  The NaN tests at the end plant no fault: they show that a
NaN from an oracle fails its check rather than being dropped."""

import dataclasses
import functools
import itertools
import math

import pytest

import zollfins.profile as profile_mod
from zollfins import ZollProfile, example1, finsler, geodesics, jacobi, moduli
from zollfins.moduli import CurveEval
from zollfins.verify import CHECKS

#: The checks that no planted fault guards yet.
UNFAULTED = {"gauss_curvature_positive", "indicatrix_convexity", "ellipse_degeneration",
             "finsler_homogeneity", "indicatrix_unit_norm", "fundamental_tensor_pd",
             "invariants"}

#: The checks that a planted fault below guards, filled by ``guards``.
GUARDED = set()


def _statuses(*names):
    """The status of each named check, each row run alone on 0.25,-0.25."""
    statuses = {}
    for row in CHECKS:
        if any(name in row.bounds for name in names):
            statuses.update((c.name, c.status) for c in row.run(example1(0.25)))
    return [statuses[name] for name in names]


def guards(*names):
    """Records that the decorated test plants a fault that the checks
    ``names`` must see, and asserts that each of them FAILs once it has."""
    GUARDED.update(names)

    def decorate(plant):
        @functools.wraps(plant)
        def test(*args, **kwargs):
            plant(*args, **kwargs)
            assert _statuses(*names) == ["fail"] * len(names), names
        return test
    return decorate


def test_every_check_has_a_fault_or_is_listed():
    """A new check fails this until it has a planted fault or an UNFAULTED
    entry, and a check that gains a fault must leave UNFAULTED."""
    names = {name for row in CHECKS for name in row.bounds}
    assert GUARDED <= names, GUARDED - names
    assert names - GUARDED == UNFAULTED


@guards("curvature_fd_agreement")
def test_curvature_fault_fails_curvature_fd(monkeypatch):
    """The closed-form Gauss curvature G, 1e-5 too large against the
    finite-difference oracle.  G stays positive, so the positivity check
    still passes: only the second route sees the fault."""
    curvature_x = profile_mod.curvature_x
    monkeypatch.setattr(profile_mod, "curvature_x",
                        lambda *args: curvature_x(*args) * (1 + 1e-5))
    assert _statuses("gauss_curvature_positive") == ["pass"]


@guards("indicatrix_curvature_sides")
def test_jet_curvature_fault_fails_curvature_sides(monkeypatch):
    """P_uu of the phase jet carries the spray's fundamental tensor."""
    jet = CurveEval.jet

    def faulty(self, u):
        p, p_u, (a1, a2), p_r, p_ur = jet(self, u)
        return p, p_u, (a1 * (1 + 1e-5), a2 * (1 + 1e-5)), p_r, p_ur

    monkeypatch.setattr(CurveEval, "jet", faulty)


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


@guards("regularization_agreement", "wronskian")
def test_s_table_fault_fails_regularization_and_wronskian(s_table_fault):
    """The S table of the phase kernel behind the regularized samples and
    the Jacobi pair."""
    s_table_fault(1e-6)


@guards("wronskian")
def test_v2_rate_fault_fails_wronskian(monkeypatch):
    """dv2/du alone, which gives the Jacobi pair its y2'."""
    v2_du = jacobi.PhaseKernel.v2_du

    def faulty(self, cu, su):
        v2, v2_u = v2_du(self, cu, su)
        return v2, v2_u * (1 + 1e-6)

    monkeypatch.setattr(jacobi.PhaseKernel, "v2_du", faulty)


@guards("jacobi_ode")
def test_large_s_table_fault_fails_jacobi_ode(s_table_fault):
    """A fault the Jacobi equation sees at its stencil's resolution."""
    s_table_fault(1e-4)


@guards("representation_agreement")
def test_branch_minus_fault_fails_representation_agreement(monkeypatch):
    """Only branch -1 samples carry the fault: the check must still sample
    that branch."""
    parametric = moduli.indicatrix_parametric_samples

    def faulty(*args):
        return [dataclasses.replace(s, v2=s.v2 + 1e-6) if s.branch == -1 else s
                for s in parametric(*args)]

    monkeypatch.setattr(moduli, "indicatrix_parametric_samples", faulty)


@guards("representation_agreement")
def test_tail_fault_fails_representation_agreement(monkeypatch):
    """The tail quadrature that bridges the parametric v2 over the pole."""
    tail = moduli.curvature_integral_tail
    monkeypatch.setattr(moduli, "curvature_integral_tail",
                        lambda *args: tail(*args) * (1 + 1e-6))


@guards("representation_agreement")
def test_phi_integrand_fault_fails_representation_agreement(monkeypatch):
    """The integrand of both Phi quadratures, below and above the equator."""
    integrand = jacobi._phi_integrand

    def faulty(*args):
        f = integrand(*args)
        return lambda u: f(u) * (1 + 1e-6)

    monkeypatch.setattr(jacobi, "_phi_integrand", faulty)


@guards("closure_integrals")
def test_time_quadrature_fault_fails_closure_integrals(monkeypatch):
    """The quadrature behind the travel time T.  Theta = pi + |c| int k is
    not affected: the k integral vanishes for odd k, so a relative fault in
    it cannot show, and T carries the check."""
    adaptive = geodesics.gl_adaptive

    def faulty(*args, **kwargs):
        value, err = adaptive(*args, **kwargs)
        return value * (1 + 1e-7), err

    monkeypatch.setattr(geodesics, "gl_adaptive", faulty)


@guards("geodesic_closure")
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


@guards("finsler_closure")
def test_f_r_fault_fails_finsler_closure(monkeypatch):
    """F_R of the closed-form fiber terms, inside the bundle flow: the ODE
    leaves the closed-form trace it must follow."""
    terms = finsler._fiber_terms

    def faulty(curve, u):
        p, p_r, g, f_r, ell, dell, mu = terms(curve, u)
        return p, p_r, g, f_r * (1 + 1e-6), ell, dell, mu

    monkeypatch.setattr(finsler, "_fiber_terms", faulty)


@guards("finsler_closure")
def test_phi0_fault_fails_finsler_closure(monkeypatch):
    """The map of the closed-form trace's start (R0, u0) back to the
    direction phi0 at the surface point, off by 1e-5."""
    start = finsler._pencil_start

    def faulty(R0, u0):
        r_p, phi0, delta = start(R0, u0)
        return r_p, phi0 + 1e-5, delta

    monkeypatch.setattr(finsler, "_pencil_start", faulty)


def _nan_on_third_call(fn, pick):
    """fn, except that its third call returns pick(out) for its output out."""
    calls = itertools.count(1)

    def faulty(*args, **kwargs):
        out = fn(*args, **kwargs)
        return pick(out) if next(calls) == 3 else out
    return faulty


@pytest.mark.parametrize("owner, attr, names, pick", [
    (profile_mod, "curvature_fd_check", ["curvature_fd_agreement"], lambda out: math.nan),
    (moduli, "indicatrix_curvature", ["indicatrix_curvature_sides", "indicatrix_convexity"],
     lambda out: (math.nan, out[1])),
    (jacobi.JacobiPair, "wronskian", ["wronskian"], lambda out: math.nan),
    (finsler, "invariant_flow_check", ["invariants"], lambda out: math.nan),
    (jacobi, "jacobi_pair", ["jacobi_ode"], lambda out: dataclasses.replace(out, y1=math.nan)),
], ids=["curvature_fd_check", "indicatrix_curvature", "wronskian", "invariant_flow_check",
        "jacobi_ode_check"])
def test_nan_from_an_oracle_fails_its_check(monkeypatch, owner, attr, names, pick):
    """One NaN among an oracle's values, on its third call, turns each check
    that folds those values to FAIL: a fold that dropped it would PASS, on
    the other values alone.  jacobi_ode_check folds its own residuals, over
    the Jacobi pairs of its stencil."""
    monkeypatch.setattr(owner, attr, _nan_on_third_call(getattr(owner, attr), pick))
    assert _statuses(*names) == ["fail"] * len(names)
