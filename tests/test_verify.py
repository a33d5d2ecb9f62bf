import pytest

from zollfins import ZollProfile, moduli
from zollfins.verify import run_verification


@pytest.mark.parametrize("coeffs", ["0.25,-0.25", "-0.45,0.45", "0.45,-0.45",
                                    "-1,2,-1", "1,-2,1", "-1.307,2.91,-1.603"])
def test_verification_passes(coeffs):
    """Every check passes on 0.25,-0.25 (the profile tests/test_mutations.py
    plants its faults in), at the ends of the cubic (eps (1 - x^2) x,
    |eps| <= 0.45) and quintic (t x (1 - x^2)^2, |t| <= 1) families, and on
    a strongly curved quintic (min G = 0.10, |(I, J)| up to 16.5), where a
    forward difference of the invariants missed its bound."""
    report = run_verification(ZollProfile.from_string(coeffs))
    failed = [c.name for c in report.checks if c.status == "fail"]
    assert report.passed, failed


def test_verification_repeats_bit_for_bit_with_warm_caches():
    """A second run in the same process, with the curve caches the first
    one filled, reports the same numbers: no result may depend on what an
    earlier call left behind."""
    prof = ZollProfile.from_string("0.25,-0.25")
    for cache in (moduli.curve_cache, moduli.implicit_polynomial):
        cache.cache_clear()
    cold = run_verification(prof).to_dict()
    assert moduli.curve_cache.cache_info().currsize > 0
    assert run_verification(prof).to_dict() == cold


def test_geodesic_closure_bound_follows_coefficient_size():
    """2^-10 (T_21(x) - x), T_21 the Chebyshev polynomial, is convex with
    sum |a_j| = 5.3e4.  Both routes of the geodesic_closure check sum h in
    the monomial basis, so they part by ~1e-12 there, a roundoff that the
    bound's growth with sum |a_j| admits."""
    prof = ZollProfile.from_string(
        "0.01953125,-1.50390625,32.484375,-321.75,1751.75,-5733.0,11760.0,"
        "-15232.0,12096.0,-5376.0,1024.0")
    check, = (c for c in run_verification(prof).checks if c.name == "geodesic_closure")
    assert check.status == "pass", (check.measured, check.tolerance)
    assert check.measured > 1e-13 and check.tolerance <= 1e-10
