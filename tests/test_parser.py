"""Potential expression grammar: coverage and error reporting."""

from fractions import Fraction

import pytest

from qvlasov.parser import MAX_NESTING, ParseError, parse_potential
from qvlasov.ring import Coefficient, Monomial, RingElem

from conftest import random_ring_elem


def test_goldstone_expression():
    v = parse_potential("-q^2/2 + q^4/4")
    expected = RingElem.x(2).scale(Fraction(-1, 2)) + RingElem.x(4).scale(Fraction(1, 4))
    assert v == expected


def test_zero_literal():
    assert parse_potential("0").is_zero()


def test_modulated_harmonic_wavenumber():
    v = parse_potential("q^2/2*(1 + 1/2*cos(2*pi*q))")
    expected = (RingElem.x(2).scale(Fraction(1, 2))
                + RingElem.trig("cos", Coefficient.pi_power(1, 2), xpow=2,
                                coeff=Fraction(1, 4)))
    assert v == expected
    cos_terms = [m for m, _ in v.items() if m.trig == "cos"]
    assert cos_terms == [Monomial(2, "cos", Coefficient.pi_power(1, 2))]


def test_decimal_literal_is_exact():
    assert parse_potential("0.5*q^2") == parse_potential("q^2/2")


def test_whitespace_and_parens():
    assert parse_potential(" ( q + 1 ) ^ 2 ") == parse_potential("q^2 + 2*q + 1")


def test_leading_plus():
    assert parse_potential("+q^2") == RingElem.x(2)


def test_pi_powers():
    v = parse_potential("pi^2*q - q/pi")
    expected = (RingElem.x().scale(Coefficient.pi_power(2))
                + RingElem.x().scale(Coefficient.pi_power(-1, -1)))
    assert v == expected


def test_trig_of_plain_q():
    assert parse_potential("sin(q)") == RingElem.trig("sin", 1)


def test_trig_of_zero_argument():
    assert parse_potential("cos(0*q)") == RingElem.one()
    assert parse_potential("sin(0*q)").is_zero()


def test_division_by_pi_constant():
    assert parse_potential("q/(2*pi)") == RingElem.x().scale(
        Coefficient.pi_power(-1, Fraction(1, 2)))


@pytest.mark.parametrize("text,fragment", [
    ("q^-2", "negative exponent"),
    ("sin(q^2)", "nonlinear trig argument"),
    ("sin(q + 1)", "nonlinear trig argument"),
    ("q/q", "division by non-constant"),
    ("q/0", "division by zero"),
    ("q +", "syntax error"),
    ("(q", "syntax error"),
    ("q @ 2", "syntax error"),
    ("q q", "unexpected token"),
    ("q)", "unexpected token"),
    ("exp(q)", "syntax error"),
    ("q^(1/2)", "syntax error"),
    ("q^65", "exponent 65 exceeds 64"),
    ("(sin(q) + 1)^65", "exponent 65 exceeds 64"),
    ("(q^2 + 1)^33", "x-degree 66 exceeds 64"),
    ("((q + 1)^8)^9", "x-degree 72 exceeds 64"),
    ("((sin(q) + cos(2*q))^64)^2", "16641 monomial pairs exceeds 4096"),
    ("(sin(q) + cos(3*q))^32 * (sin(q) + cos(3*q))^32",
     "9025 monomial pairs exceeds 4096"),
    ("(q + 1)^64 * (q + 1)^64", "4225 monomial pairs exceeds 4096"),
    ("q^64 * q", "product of x-degree 65 exceeds 64"),
    ("q^40 * (1 + q^40)", "product of x-degree 80 exceeds 64"),
    ("q^64" + " * q^64" * 50, "product of x-degree 128 exceeds 64"),
])
def test_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_potential(text)
    assert fragment in str(err.value)


def test_powers_at_the_cap_parse():
    assert parse_potential("((q + 1)^8)^8") == parse_potential("(q + 1)^64")
    assert parse_potential("q^32 * (q + 1)^32").x_degree() == 64
    assert parse_potential("cos(q)^64").x_degree() == 0
    # its last product forms 128 x 2 pairs, far below MAX_PRODUCT_PAIRS
    assert parse_potential("(sin(q) + cos(2*q))^64").term_count() == 129


def test_nesting_is_bounded():
    assert parse_potential("(" * MAX_NESTING + "q" + ")" * MAX_NESTING) == RingElem.x()
    assert parse_potential("sin(" + "(" * (MAX_NESTING - 1) + "q"
                           + ")" * MAX_NESTING) == RingElem.trig("sin", 1)
    # the depth counts open parentheses, not all of them
    assert parse_potential(" + ".join(["sin((q))"] * 100)) == parse_potential("100*sin(q)")
    for text in ["(" * 300 + "q" + ")" * 300, "sin(" * 300 + "q" + ")" * 300,
                 "cos(" + "(" * MAX_NESTING + "q" + ")" * (MAX_NESTING + 1)]:
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}"):
            parse_potential(text)


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_potential("q + sin(q*q)")
    assert err.value.position == 4


def test_division_by_mixed_constant_rejected():
    with pytest.raises(ParseError):
        parse_potential("q/(1 + pi)")


def test_print_parse_roundtrip_random(rng):
    for _ in range(100):
        e = random_ring_elem(rng)
        assert parse_potential(str(e)) == e
