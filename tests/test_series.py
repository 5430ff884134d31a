from fractions import Fraction

import pytest

from gradedalg.parsing import parse_series
from gradedalg.series import (LaurentPoly, SeriesExpr, DualityParams, NotAlmostCM,
                              check_cm_functional_equation, solve_almost_cm)


def test_geometric_expansion():
    s = parse_series("1/(1-t)")
    assert s.expand(0, 6) == [Fraction(1)] * 7


def test_expansion_with_shift_and_sum():
    s = parse_series("(1+t^5)/(1-t^2)+t^2")
    # dims of the depth-zero example: 1,0,2,0,1,1,1,1,1
    assert s.expand(0, 8) == [Fraction(c) for c in [1, 0, 2, 0, 1, 1, 1, 1, 1]]


def test_laurent_inverse_substitution():
    p = LaurentPoly({1: Fraction(1), -2: Fraction(3)})
    q = p.subs_inv()
    assert q.coeffs == {-1: Fraction(1), 2: Fraction(3)}


def test_series_field_operations():
    a = parse_series("1/(1-t)")
    b = parse_series("t/(1-t)")
    assert (a - b) == parse_series("1")
    assert (a * parse_series("1-t")) == parse_series("1")
    assert (a / a) == parse_series("1")


def test_negative_exponents_allowed():
    assert parse_series("1/t^2") == parse_series("t^-2")


@pytest.mark.parametrize("src,r,a", [
    ("1/(1-t)", 1, 0),
    ("1/(1-t)^4", 4, 0),
    ("(1+2*t+2*t^2+t^3)/(1-t^4)", 1, 0),
    ("1/(1-t)^2", 2, 0),
    ("(1-t+t^2)/((1-t)^3*(1+t^2))", 3, 0),
    ("(1-t^6)/((1-t^2)*(1-t^3)^2)", 2, 0),
])
def test_functional_equation_holds(src, r, a):
    assert check_cm_functional_equation(parse_series(src), DualityParams(r, a))


@pytest.mark.parametrize("src,r,a", [
    ("1/((1-t)^2*(1+t^2))", 2, 0),
    ("(1+t^5)/(1-t^2)+t^2", 1, -4),
    ("1/(1-t)", 2, 0),
])
def test_functional_equation_fails(src, r, a):
    assert not check_cm_functional_equation(parse_series(src), DualityParams(r, a))


def test_second_equation_pair_with_depth_one_drop():
    p = parse_series("1/((1-t)^2*(1+t^2))")
    q = solve_almost_cm(p, DualityParams(2, 0))
    assert q == parse_series("t^2/((1-t)*(1+t^2))")


def test_second_equation_pair_is_a_monomial_here():
    p = parse_series("(1+t^5)/(1-t^2)+t^2")
    q = solve_almost_cm(p, DualityParams(1, -4))
    assert q == parse_series("1/t^2")


def test_almost_cm_correction_of_a_true_cm_series_is_zero():
    q = solve_almost_cm(parse_series("1/(1-t)"), DualityParams(1, 0))
    assert q == parse_series("0")


def test_almost_cm_rejects_a_pole_at_minus_one():
    with pytest.raises(NotAlmostCM):
        solve_almost_cm(parse_series("1/(1-t^2)"), DualityParams(1, 0))


def test_canonical_print_reparses():
    for src in ["1/(1-t)^3", "(1+2*t+2*t^2+t^3)/(1-t^4)", "t^2/((1-t)*(1+t^2))",
                "(1+t^5)/(1-t^2)+t^2", "1/t^2"]:
        s = parse_series(src)
        assert parse_series(s.to_str()) == s


def test_pole_detection():
    s = parse_series("1/(1-t)")
    with pytest.raises(ZeroDivisionError):
        s.evaluate(Fraction(1))
    assert s.evaluate(Fraction(1, 2)) == Fraction(2)
