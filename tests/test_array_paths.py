"""The array paths give each entry the bits of its own one-entry call.

jacobi_pair, indicatrix_curvature and indicatrix_regularized take arrays of
latitudes, and a float latitude is a one-entry call of that path; their
properties compare an n-entry call with the n one-entry calls, so that no
entry depends on the others.  fundamental_tensor treats a single vector as
a one-column block in the same way.  CurveEval.jet and finsler_F keep a
float path beside their array one: there each entry is compared with that
float call.  Each property draws the Clairaut constant or chart values over
the band, with the glue points, the EQUATOR_GUARD band about r = pi/2 and,
for the norms, vertical rays among the draws, and compares bits, sign of
zero included.  The typed errors name the first offending entry, and a
float call returns Python floats."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zollfins import (BandError, DomainError, ZollProfile, example2, finsler_F,
                      fundamental_tensor, indicatrix_curvature, indicatrix_regularized,
                      jacobi_ode_check, jacobi_pair, turning_latitude)
from zollfins.geodesics import signed_phase
from zollfins.jacobi import EQUATOR_GUARD, ODE_CHECK_STEP, gl_fixed
from zollfins.moduli import curve_block, curve_cache
from zollfins.profile import curvature_x

T21 = (0.01953125, -1.50390625, 32.484375, -321.75, 1751.75, -5733.0, 11760.0,
       -15232.0, 12096.0, -5376.0, 1024.0)

#: The named profiles and the degree-21 one, where roundoff is largest.
PROFILES = [ZollProfile(a) for a in ((), (0.25, -0.25), (0.45, -0.45), (1, -2, 1),
                                     (-1.307, 2.91, -1.603), T21)]

#: Chart values near the rim, where the curve is a 1:92 ellipse.
RIM = 1.5600000100725198

profiles = st.sampled_from(PROFILES)
branches = st.sampled_from((+1, -1))
clairaut = st.one_of(st.sampled_from((0.0, 0.1, -0.5, 0.9, -0.999, math.sin(RIM))),
                     st.floats(-0.999, 0.999))
charts = st.one_of(st.sampled_from((0.0, -0.0, 0.2, -0.8, 1.3, RIM, -RIM)),
                   st.floats(-RIM, RIM))


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def same_entries(array, floats):
    """Each entry of ``array`` (or a scalar standing for all) has the bits of
    the float in ``floats`` at its index."""
    assert bits(np.broadcast_to(array, (len(floats),))) == bits(floats)


@st.composite
def latitudes(draw, rc, pad=0.0, size=12):
    """Latitudes in the band [rc + pad, pi - rc - pad]: the band's ends, the
    EQUATOR_GUARD band about pi/2 and uniform draws."""
    lo, hi = rc + pad, math.pi - rc - pad
    pick = st.one_of(st.sampled_from((lo, hi, math.pi / 2)),
                     st.floats(-EQUATOR_GUARD, EQUATOR_GUARD).map(lambda d: math.pi / 2 + d),
                     st.floats(0.0, 1.0).map(lambda t: lo + t * (hi - lo)))
    return np.array(draw(st.lists(pick, min_size=1, max_size=size)))


# -- latitude arrays ---------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(profiles, clairaut, branches, st.data())
def test_jacobi_pair_array_matches_float_calls(prof, c, sign, data):
    rs = data.draw(latitudes(turning_latitude(c)))
    pair = jacobi_pair(prof, c, rs, sign)
    one = [jacobi_pair(prof, c, r, sign) for r in rs.tolist()]
    for field in ("y1", "y1_prime", "y2", "y2_prime"):
        same_entries(getattr(pair, field), [getattr(p, field) for p in one])
    same_entries(pair.wronskian(), [p.wronskian() for p in one])


@settings(max_examples=60, deadline=None)
@given(profiles, st.sampled_from((0.0, 0.2, -0.5, 0.8, 0.95)), st.data())
def test_jacobi_ode_check_matches_float_stencils(prof, c, data):
    """The three stencil rows in three array calls give the residual of the
    stencil built from float calls, point by point: over the grid, and on
    each latitude alone, where the grid's maximum cannot hide a point."""
    rs = data.draw(latitudes(turning_latitude(c), pad=1e-3, size=6))
    cos_rc = math.cos(turning_latitude(c))

    def dt_du(u):
        return 1.0 + prof.h(cos_rc * np.cos(u))

    residuals, per_point = [], []
    for r, u in zip(rs.tolist(), signed_phase(c, rs).tolist()):
        du = ODE_CHECK_STEP / float(dt_du(np.asarray(u)))
        a, b = gl_fixed(dt_du, u - du, u, 8), gl_fixed(dt_du, u, u + du, 8)
        g_val = float(curvature_x(prof, math.cos(r)))
        pairs = [jacobi_pair(prof, c, rr, +1) for rr in
                 (r, math.acos(cos_rc * math.cos(u - du)), math.acos(cos_rc * math.cos(u + du)))]
        for attr in ("y1", "y2"):
            f0, fm, fp = (getattr(p, attr) for p in pairs)
            second = 2.0 * (a * fp + b * fm - (a + b) * f0) / (a * b * (a + b))
            residuals.append(abs(second + g_val * f0))
        per_point.append(max(residuals[-2:]))
    assert jacobi_ode_check(prof, c, rs) == max(residuals)
    assert [jacobi_ode_check(prof, c, rs[k:k + 1]) for k in range(len(rs))] == per_point


@settings(max_examples=150, deadline=None)
@given(profiles, charts, st.lists(st.one_of(
    st.sampled_from((0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, 1e-9, -3e-12)),
    st.floats(-math.pi, math.pi)), min_size=1, max_size=12))
def test_jet_array_matches_float_calls(prof, R, us):
    curve = curve_cache(prof, R)
    jet = curve.jet(np.array(us))
    one = [curve.jet(u) for u in us]
    for k, entry in enumerate(jet):
        for j in (0, 1):
            same_entries(entry[j], [o[k][j] for o in one])


@settings(max_examples=150, deadline=None)
@given(profiles, charts, branches, st.data())
def test_indicatrix_curvature_array_matches_float_calls(prof, R, branch, data):
    rs = data.draw(latitudes(abs(R), pad=2e-6))
    left, right = indicatrix_curvature(prof, R, rs, branch)
    one = [indicatrix_curvature(prof, R, r, branch) for r in rs.tolist()]
    same_entries(left, [kl for kl, _ in one])
    same_entries(right, [kr for _, kr in one])


@settings(max_examples=150, deadline=None)
@given(profiles, charts, branches, st.data())
def test_indicatrix_regularized_array_matches_float_calls(prof, R, branch, data):
    rs = data.draw(latitudes(abs(R)))
    sample = indicatrix_regularized(prof, R, rs, branch, Theta=0.5)
    one = [indicatrix_regularized(prof, R, r, branch, Theta=0.5) for r in rs.tolist()]
    same_entries(sample.r, [s.r for s in one])
    same_entries(sample.v1, [s.v1 for s in one])
    same_entries(sample.v2, [s.v2 for s in one])
    assert (sample.R, sample.Theta, sample.branch) == (R, 0.5, branch)


def test_latitude_arrays_name_the_first_bad_entry(ex1):
    """An array with a latitude off the band (or NaN) raises the error of
    that latitude's own call, naming the first one."""
    R, c = 0.4, math.sin(0.4)
    rs = np.array([1.0, 1.2, 3.0, math.nan, 0.1])
    with pytest.raises(BandError, match="latitude 3.0 outside"):
        jacobi_pair(ex1, c, rs)
    with pytest.raises(BandError, match="latitude nan outside"):
        jacobi_pair(ex1, c, rs[3:])
    for call in (indicatrix_regularized, indicatrix_curvature):
        with pytest.raises(BandError, match="latitude 3.0 outside"):
            call(ex1, R, rs)
        with pytest.raises(BandError, match="latitude nan outside"):
            call(ex1, R, rs[3:])
        with pytest.raises(DomainError, match="branch must be"):
            call(ex1, R, rs[:2], 0)
        with pytest.raises(DomainError, match="too close to pi/2"):
            call(ex1, 1.5708, rs[:2])
    with pytest.raises(DomainError, match="singular at the turning points"):
        indicatrix_curvature(ex1, R, np.array([1.0, R + 1e-7]))
    with pytest.raises(DomainError, match="branch sign"):
        jacobi_pair(ex1, c, rs[:2], 2)


def test_float_calls_return_python_floats(ex1):
    """A one-entry call made with a float (a single vector for the tensor)
    returns Python floats, not numpy scalars or arrays."""
    R, c = 0.4, math.sin(0.4)
    pair = jacobi_pair(ex1, c, 1.0)
    sample = indicatrix_regularized(ex1, R, 1.0)
    tensor = fundamental_tensor(ex1, R, 0.0, (0.3, -0.5))
    values = [pair.y1, pair.y1_prime, pair.y2, pair.y2_prime, sample.r, sample.v1, sample.v2,
              *indicatrix_curvature(ex1, R, 1.0),
              tensor.v1, tensor.v2, tensor.F, tensor.g11, tensor.g12, tensor.g22]
    assert [type(x) for x in values] == [float] * len(values)


# -- blocks across chart values ------------------------------------------------------

#: Directions of the block draws: slanted, exactly vertical and 1e-12 off it.
directions = st.one_of(
    st.floats(-math.pi, math.pi).map(lambda a: (math.cos(a), math.sin(a))),
    st.sampled_from(((0.0, 1.0), (-0.0, -1.0), (0.0, -0.5), (1e-12, 1.0), (-1e-12, -1.0),
                     (3.0, 0.0), (-2.0, 0.0))))


@settings(max_examples=100, deadline=None)
@given(profiles, st.lists(st.tuples(charts, directions), min_size=1, max_size=10))
def test_norm_block_across_charts_matches_float_calls(prof, columns):
    R = np.array([Rk for Rk, _ in columns])
    v = np.array([vk for _, vk in columns]).T
    F = finsler_F(prof, R, 0.0, v).F
    same_entries(F, [finsler_F(prof, Rk, 0.0, vk).F for Rk, vk in columns])


@settings(max_examples=40, deadline=None)
@given(profiles, st.lists(st.tuples(charts, directions), min_size=1, max_size=6))
def test_tensor_block_across_charts_matches_float_calls(prof, columns):
    R = np.array([Rk for Rk, _ in columns])
    v = np.array([vk for _, vk in columns]).T
    fe = fundamental_tensor(prof, R, 0.0, v)
    one = [fundamental_tensor(prof, Rk, 0.0, vk) for Rk, vk in columns]
    for name in ("F", "g11", "g12", "g22"):
        same_entries(getattr(fe, name), [getattr(o, name) for o in one])
    assert bits(fe.R) == bits(R)


def test_block_solve_matches_each_charts_evaluator(ex2):
    """curve_block gives each ray its own chart value's constants, those of
    the float evaluator (at 0.0587..., numpy's square of cos R is not
    libm's pow): the array solve on the block, cold and warm, equals the
    float solves on each ray's evaluator, scale and phase."""
    charts_ = np.array([0.3, -1.2, 0.05870435217608805, RIM, 0.0, -1.2])
    a = np.linspace(-3.0, 3.0, len(charts_))
    block = curve_block(ex2, charts_)
    for k, Rk in enumerate(charts_.tolist()):
        one = curve_cache(ex2, Rk)
        for name in ("R", "c", "cos_R", "q", "inv_q"):
            assert getattr(block, name)[k] == getattr(one, name), (Rk, name)
        assert [s[k] for s in block.sc + block.sc_q] == one.sc + one.sc_q, Rk
    for seed in (None, 1.0):
        scale, u_star = block.solve_ray(np.cos(a), np.sin(a), seed)
        for k, (Rk, ak) in enumerate(zip(charts_.tolist(), a.tolist())):
            one = curve_cache(ex2, Rk).solve_ray(math.cos(ak), math.sin(ak), seed)
            assert (scale[k], u_star[k]) == one


def test_block_errors_name_the_first_bad_column(ex1):
    """A chart value off the chart names itself; chart values that do not
    match the columns one to one, and a bad column, raise DomainError."""
    v = np.array([[0.6, 0.2, -0.3], [0.8, 1.0, 0.2]])
    for call in (finsler_F, fundamental_tensor):
        with pytest.raises(DomainError, match="1.5708"):
            call(ex1, np.array([0.3, 1.5708, 2.0]), 0.0, v)
        with pytest.raises(DomainError, match="nan"):
            call(ex1, np.array([0.3, math.nan, 0.1]), 0.0, v)
        with pytest.raises(DomainError, match="chart values of shape"):
            call(ex1, np.array([0.3, 0.1]), 0.0, v)
        with pytest.raises(DomainError, match="chart values of shape"):
            call(ex1, np.array([0.3]), 0.0, (0.6, 0.8))
    with pytest.raises(DomainError, match="fundamental tensor undefined at v = 0"):
        fundamental_tensor(ex1, np.array([0.3, 0.2, 0.1]), 0.0,
                           np.array([[0.6, 0.0, -0.3], [0.8, 0.0, 0.2]]))


@example(v=(1e300, 1.0))
@example(v=(1.0, -1e200))
@given(v=st.tuples(st.floats(1e156, 1e307), st.floats(-1.0, 1.0)).map(
    lambda v: v if v[1] > 0 else v[::-1]))
@settings(max_examples=30, deadline=None)
def test_tensor_overflow_raises(v):
    """F^2 beyond the float range: DomainError on the float and the block
    path alike, naming the first such column (g11 = nan before)."""
    prof = example2()
    with pytest.raises(DomainError, match="overflows"):
        fundamental_tensor(prof, 0.3, 0.0, v)
    with pytest.raises(DomainError, match=re.escape(f"overflows at v = ({v[0]}, {v[1]})")):
        fundamental_tensor(prof, 0.3, 0.0, np.array([[0.6, v[0], 2e300], [0.8, v[1], 1.0]]))
