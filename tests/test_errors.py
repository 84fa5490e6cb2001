"""The one result check: finite() and quotient()."""

from fractions import Fraction

import pytest

from timedata_lab.errors import DomainError, finite, quotient


@pytest.mark.parametrize("numerator,denominator,message", [
    (1.0, 0.0, "q not finite: inf"),
    (-1.0, 0.0, "q not finite: -inf"),
    (0.0, 0.0, "q not finite: nan"),
    (1e308, 1e-10, "q not finite: inf"),
    (10**400, 1, "q not finite: inf"),
    (-10**400, 3, "q not finite: -inf"),
])
def test_quotient_out_of_range(numerator, denominator, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        quotient(numerator, denominator, "q")


def test_finite_passes_floats_ints_and_fractions_in_range():
    assert finite(Fraction(1, 3), "x") == 1 / 3
    assert finite(10**300, "x") == 1e300
    assert quotient(1, 4, "x") == 0.25
    with pytest.raises(DomainError, match="^x not finite: -inf$"):
        finite(-Fraction(10**400), "x")
