import pytest

from zollfins import ZollProfile
from zollfins.verify import run_verification


@pytest.mark.parametrize("coeffs", ["0.25,-0.25", "-0.45,0.45", "0.45,-0.45",
                                    "-1,2,-1", "1,-2,1"])
def test_verification_passes(coeffs):
    """Every check passes on 0.25,-0.25 (the profile tests/test_mutations.py
    plants its faults in) and at the ends of the cubic (eps (1 - x^2) x,
    |eps| <= 0.45) and quintic (t x (1 - x^2)^2, |t| <= 1) families."""
    report = run_verification(ZollProfile.from_string(coeffs))
    failed = [c.name for c in report.checks if c.status == "fail"]
    assert report.passed, failed
