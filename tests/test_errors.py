"""The one number rule: finite_float(), finite(), quotient() and finite_text()."""

import math
import re
from fractions import Fraction

import pytest

from timedata_lab import analysis, errors
from timedata_lab.errors import DomainError, finite, quotient


def test_the_sheet_pipeline_reads_and_prints_numbers_through_errors():
    assert analysis.finite_float is errors.finite_float
    assert analysis.finite_text is errors.finite_text


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


@pytest.mark.parametrize("value,message", [
    (None, "x not a number: None"), ("abc", "x not a number: 'abc'"),
    (1j, "x not a number: 1j")])
def test_finite_refuses_what_float_cannot_read(value, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        finite(value, "x")


def test_finite_text_prints_numbers_only():
    assert errors.finite_text(0.1) == "0.1"
    for sentinel in (analysis.DIV0, analysis.DIVERGES):
        with pytest.raises(DomainError, match="^result not a number: '#"):
            errors.finite_text(sentinel)


def test_finite_passes_floats_ints_and_fractions_in_range():
    assert finite(Fraction(1, 3), "x") == 1 / 3
    assert finite(10**300, "x") == 1e300
    assert quotient(1, 4, "x") == 0.25
    with pytest.raises(DomainError, match="^x not finite: -inf$"):
        finite(-Fraction(10**400), "x")


# An int operand beyond the float range with a float or zero denominator.
@pytest.mark.parametrize("numerator,denominator,message", [
    (10**400, 2.0, "x not finite: inf"),
    (-10**400, 2.0, "x not finite: -inf"),
    (10**400, 0, "x not finite: inf"),
    (10**400, 0.0, "x not finite: inf"),
    (-10**400, 0, "x not finite: -inf"),
    (math.inf, -10**400, "x not finite: -inf"),
    (math.nan, 10**400, "x not finite: nan"),
    (10**400, math.nan, "x not finite: nan"),
], ids=["big/2.0", "-big/2.0", "big/0", "big/0.0", "-big/0", "inf/-big", "nan/big", "big/nan"])
def test_quotient_of_a_huge_int_is_a_domain_error(numerator, denominator, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        quotient(numerator, denominator, "x")


def test_quotient_of_a_huge_int_is_exact_when_it_fits():
    assert quotient(10**400, 1e300, "x") == 1e100
    assert quotient(10**400, 10**399, "x") == 10.0
    assert quotient(1.0, 10**400, "x") == 0.0
    assert quotient(10**400, Fraction(10**398), "x") == 100.0
    # As for 1e300 / inf, the quotient of a finite operand by inf is zero.
    for denominator in (math.inf, -math.inf):
        value = quotient(10**400, denominator, "x")
        assert (value, math.copysign(1.0, value)) == (0.0, math.copysign(1.0, denominator))
