"""Exact arithmetic, differentiation and antidifferentiation in the ring."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvlasov.parser import MAX_POWER, parse_potential
from qvlasov.ring import MAX_X_POWER, Coefficient, Monomial, RingElem, RingError
from qvlasov.series import MAX_ORDER

from conftest import (WAVENUMBERS, random_family_elem, random_ring_elem,
                      value_at_zero)


def frac(n, d=1):
    return Fraction(n, d)


# ---------------------------------------------------------------- Coefficient
#
# Coefficient carries a constant in and out of the ring; constants compute
# as RingElem.constant elements.

def test_coefficient_zero_is_empty():
    assert Coefficient.pi_power(0, 0).is_zero()
    two = RingElem.constant(2)
    assert (two - two).is_zero() and (two - two).constant_value().is_zero()


def test_coefficient_arithmetic():
    two_pi = Coefficient.pi_power(1, 2)
    square = RingElem.constant(two_pi) * RingElem.constant(two_pi)
    assert square.constant_value() == Coefficient.pi_power(2, 4)
    assert float(two_pi) == pytest.approx(2 * np.pi)
    assert two_pi.inverse() == Coefficient.pi_power(-1, frac(1, 2))
    assert RingElem.constant(two_pi).scale(two_pi.inverse()).constant_value() == 1


def test_coefficient_inverse_rejects_multi_term():
    mixed = (RingElem.one() + RingElem.constant(Coefficient.pi_power(1))).constant_value()
    assert mixed == Coefficient({0: 1, 1: 1})
    with pytest.raises(RingError, match="multi-term"):
        mixed.inverse()
    with pytest.raises(RingError, match="division by zero"):
        Coefficient().inverse()


def test_coefficient_sign_and_text():
    assert Coefficient.pi_power(0, frac(-1, 2)).as_text() == "-1/2"
    assert Coefficient({0: 1, 1: -1}).as_text() == "-pi + 1"
    assert Coefficient.pi_power(1, 2).as_text() == "2*pi"
    assert Coefficient.pi_power(-2, frac(3, 4)).as_text() == "3/4/pi^2"


# ------------------------------------------------------------------- algebra

def test_trig_square_product_to_sum():
    c = RingElem.trig("cos", 2)
    expected = RingElem.constant(frac(1, 2)) + RingElem.trig("cos", 4, coeff=frac(1, 2))
    assert c * c == expected


def test_sin_squared_plus_cos_squared_is_one():
    s = RingElem.trig("sin", Coefficient.pi_power(1, 2))
    c = RingElem.trig("cos", Coefficient.pi_power(1, 2))
    assert s * s + c * c == RingElem.one()


def test_monomial_product():
    assert RingElem.x(2) * RingElem.x(3) == RingElem.x(5)


def test_negative_wavenumber_normalization():
    assert RingElem.trig("sin", -2) == RingElem.trig("sin", 2, coeff=-1)
    assert RingElem.trig("cos", -2) == RingElem.trig("cos", 2)
    assert RingElem.trig("sin", 0).is_zero()
    assert RingElem.trig("cos", 0) == RingElem.one()


def test_goldstone_square_matches_pointwise(rng):
    v = parse_potential("-q^2/2 + q^4/4")
    square = v * v
    for x in rng.uniform(-3, 3, 5):
        assert square.evaluate(x) == pytest.approx(v.evaluate(x) ** 2, rel=1e-12)


# -------------------------------------------------------------- differentiate

def test_ddx_power_rule():
    assert RingElem.x(3).ddx() == RingElem.x(2).scale(3)


def test_ddx_product_rule_on_x_cos():
    e = parse_potential("q*cos(2*pi*q)")
    expected = parse_potential("cos(2*pi*q) - 2*pi*q*sin(2*pi*q)")
    assert e.ddx() == expected


def test_goldstone_fifth_derivative_vanishes():
    v = parse_potential("-q^2/2 + q^4/4")
    for _ in range(5):
        v = v.ddx()
    assert v.is_zero()


# ----------------------------------------------------------------- integrate

def test_integrate_power():
    assert RingElem.x(2).scale(3).integrate() == RingElem.x(3)


def test_integrate_cos():
    e = parse_potential("cos(2*pi*q)")
    expected = RingElem.trig("sin", Coefficient.pi_power(1, 2),
                             coeff=Coefficient.pi_power(-1, frac(1, 2)))
    assert e.integrate() == expected


def test_integrate_x_cos_general_wavenumber():
    # (x/k) sin(kx) + (1/k^2) cos(kx) - 1/k^2, for a symbolic rational-pi k
    k = Coefficient.pi_power(1, 2)
    e = RingElem.trig("cos", k, xpow=1)
    f = e.integrate()
    inv_k, inv_k2 = k.inverse(), Coefficient.pi_power(-2, frac(1, 4))
    expected = (RingElem.trig("sin", k, xpow=1, coeff=inv_k)
                + RingElem.trig("cos", k, coeff=inv_k2)
                - RingElem.constant(inv_k2))
    assert f == expected
    assert f.ddx() == e


def test_integrate_anchors_value_at_zero(rng):
    for _ in range(50):
        e = random_ring_elem(rng)
        f = e.integrate()
        assert value_at_zero(f) == {}


def test_ddx_int_roundtrip_random(rng):
    for _ in range(200):
        e = random_ring_elem(rng)
        assert e.integrate().ddx() == e


def test_int_ddx_recovers_up_to_constant(rng):
    for _ in range(100):
        e = random_ring_elem(rng)
        back = e.ddx().integrate()
        diff = e - back
        assert diff.is_constant()


# ------------------------------------------------------------------- numeric

def test_eval_goldstone_at_one():
    v = parse_potential("-q^2/2 + q^4/4")
    assert v.evaluate(1.0) == pytest.approx(-0.25)


def test_eval_modulated_at_zero():
    v = parse_potential("q^2/2*(1 + cos(2*pi*q))")
    assert v.evaluate(0.0) == 0.0


def test_eval_matches_finite_difference(rng):
    for _ in range(20):
        e = random_ring_elem(rng)
        d = e.ddx()
        x = float(rng.uniform(-2, 2))
        step = 1e-6
        approx = (e.evaluate(x + step) - e.evaluate(x - step)) / (2 * step)
        scale = max(abs(d.evaluate(x)), 1.0)
        assert abs(d.evaluate(x) - approx) <= 2e-6 * scale


def test_eval_homomorphism(rng):
    for _ in range(10):
        a = random_ring_elem(rng, max_terms=3)
        b = random_ring_elem(rng, max_terms=3)
        prod = a * b
        xs = rng.uniform(-3, 3, 20)
        va, vb, vp = a.evaluate(xs), b.evaluate(xs), prod.evaluate(xs)
        scale = np.maximum(np.abs(va * vb), 1e-6)
        assert np.all(np.abs(vp - va * vb) <= 1e-12 * scale)


def test_eval_array_matches_scalar(rng):
    e = random_ring_elem(rng)
    xs = rng.uniform(-3, 3, 11)
    arr = e.evaluate(xs)
    for i, x in enumerate(xs):
        assert arr[i] == e.evaluate(x)


def test_wavenumbers_invertible_only_at_one_pi_power():
    # every integer combination of r * pi^e of one e is invertible; a
    # multi-term wavenumber, or two pi powers, gives one that is not
    one, half, pi = (Coefficient.pi_power(0, 1), Coefficient.pi_power(0, Fraction(1, 2)),
                     Coefficient.pi_power(1, 1))
    RingElem.x(2).check_wavenumbers_invertible()
    (RingElem.trig("sin", one) + RingElem.trig("cos", half)).check_wavenumbers_invertible()
    mixed = RingElem.trig("cos", pi) + RingElem.trig("sin", one)
    with pytest.raises(RingError, match=r"multi-term pi sum: pi - 1\)"):
        mixed.check_wavenumbers_invertible()
    with pytest.raises(RingError, match=r"multi-term pi sum: pi [+-] 1\)"):
        (mixed * mixed).integrate()
    with pytest.raises(RingError, match=r"multi-term pi sum: pi \+ 1\)"):
        RingElem.trig("sin", Coefficient({0: 1, 1: 1})).check_wavenumbers_invertible()


# ---------------------------------------------------- hypothesis properties

coeff_strategy = st.builds(
    Coefficient.pi_power,
    st.integers(min_value=-1, max_value=2),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


def _term(coeff, xpow, trig_choice):
    if trig_choice == 0:
        return RingElem.x(xpow).scale(coeff)
    kind = "sin" if trig_choice == 1 else "cos"
    return RingElem.trig(kind, WAVENUMBERS[xpow % len(WAVENUMBERS)],
                         xpow=xpow, coeff=coeff)


elem_strategy = st.lists(
    st.builds(_term, coeff_strategy, st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=2)),
    min_size=1, max_size=4,
).map(lambda parts: sum(parts, RingElem()))


@settings(max_examples=60, deadline=None)
@given(elem_strategy, elem_strategy)
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(elem_strategy, elem_strategy, elem_strategy)
def test_mul_associates_and_distributes(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(elem_strategy)
def test_roundtrip_integrate_then_ddx(e):
    assert e.integrate().ddx() == e


@settings(max_examples=60, deadline=None)
@given(elem_strategy)
def test_print_parse_identity(e):
    assert parse_potential(str(e)) == e


# ------------------------------------------ constant algebra vs dicts

_ratio = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 24))
_single = st.builds(lambda e, r: {e: r}, st.integers(-3, 3), _ratio)
_multi = st.dictionaries(st.integers(-3, 3), _ratio, min_size=2, max_size=3)
pi_sums = st.one_of(_single, _multi)


def _dict_add(a, b):
    out = dict(a)
    for e, r in b.items():
        out[e] = out.get(e, 0) + r
    return {e: r for e, r in out.items() if r}


def _dict_neg(a):
    return {e: -r for e, r in a.items()}


def _dict_mul(a, b):
    out = {}
    for e1, r1 in a.items():
        for e2, r2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + r1 * r2
    return {e: r for e, r in out.items() if r}


def _const(terms: dict) -> RingElem:
    return RingElem.constant(Coefficient(terms))


def _value(elem: RingElem) -> dict:
    return dict(elem.constant_value().items())


@settings(max_examples=100, deadline=None)
@given(pi_sums, pi_sums)
def test_fast_coefficient_algebra_matches_dict_algebra(a, b):
    ca, cb = _const(a), _const(b)
    assert _value(ca) == a
    assert _value(ca + cb) == _dict_add(a, b)
    assert _value(ca - cb) == _dict_add(a, _dict_neg(b))
    assert _value(ca * cb) == _dict_mul(a, b)
    assert _value(ca.scale(Coefficient(b))) == _dict_mul(a, b)
    assert _value(-ca) == _dict_neg(a)


@settings(max_examples=50, deadline=None)
@given(pi_sums)
def test_sum_with_negation_is_canonical_zero(a):
    c = _const(a)
    for zero in (c + (-c), (-c) + c, c - c):
        assert zero.is_zero() and not zero and zero.items() == []
        assert zero == RingElem() and hash(zero) == hash(RingElem())
        value = zero.constant_value()
        assert value == Coefficient() and hash(value) == hash(Coefficient())


@settings(max_examples=100, deadline=None)
@given(pi_sums, pi_sums)
def test_equal_values_hash_equal(a, b):
    ca, cb = _const(a), _const(b)
    before = hash(ca), hash(cb)
    pairs = [(ca + cb, _const(_dict_add(a, b))),
             (ca * cb, _const(_dict_mul(a, b)))]
    if len(a) == 1:
        ((e, r),) = a.items()
        pairs.append((RingElem.constant(Coefficient(a).inverse()), _const({-e: 1 / r})))
    for fast, general in pairs:
        assert fast == general and hash(fast) == hash(general)
        value, expected = fast.constant_value(), general.constant_value()
        assert value == expected and hash(value) == hash(expected)
    assert (hash(ca), hash(cb)) == before


def _trig_oracle(terms) -> dict:
    """{(trig, k items): coefficient} of a sum of (trig, k dict, c) terms
    c * trig(k x), canonical as the ring keeps it: sin(0) = 0, cos(0) = 1,
    and k with a positive coefficient on its highest pi power."""
    out: dict = {}
    for trig, k, c in terms:
        if not k:
            if trig == "sin":
                continue
            trig, key = None, None
        else:
            if k[max(k)] < 0:
                k, c = _dict_neg(k), -c if trig == "sin" else c
            key = tuple(sorted(k.items()))
        out[(trig, key)] = out.get((trig, key), 0) + c
    return {key: Coefficient.pi_power(0, c) for key, c in out.items() if c}


def _trig_product(a, b):
    """cos(a x) cos(b x) + sin(a x) cos(b x) in the ring, and as the oracle
    gives it: (cos((a-b) x) + cos((a+b) x) + sin((a+b) x) + sin((a-b) x)) / 2."""
    ka, kb = Coefficient(a), Coefficient(b)
    prod = (RingElem.trig("cos", ka) + RingElem.trig("sin", ka)) * RingElem.trig("cos", kb)
    total, diff = _dict_add(a, b), _dict_add(a, _dict_neg(b))
    half = Fraction(1, 2)
    return prod, _trig_oracle([("cos", diff, half), ("cos", total, half),
                               ("sin", total, half), ("sin", diff, half)])


@settings(max_examples=100, deadline=None)
@given(pi_sums, pi_sums)
def test_trig_product_wavenumbers_match_dict_algebra(a, b):
    # k1 + k2 and k1 - k2 of a product are formed on the wavenumbers' term
    # tuples; a zero sum or difference leaves a polynomial (or no) term
    for left, right in ((a, b), (a, a), (a, _dict_neg(a))):
        prod, expected = _trig_product(left, right)
        got = {(m.trig, None if m.wavenumber is None else tuple(m.wavenumber.items())): c
               for m, c in prod.items()}
        assert all(m.xpow == 0 for m, _ in prod.items())
        assert got == expected


@settings(max_examples=50, deadline=None)
@given(pi_sums, pi_sums)
def test_monomials_from_either_form_share_a_key(a, b):
    # a wavenumber formed by a product and the same value built from the
    # dict oracle give one Monomial key, and their terms cancel
    prod, expected = _trig_product(a, b)
    general = {Monomial(0, trig, None if k is None else Coefficient(dict(k))): c
               for (trig, k), c in expected.items()}
    table = {m: "hit" for m, _ in prod.items()}
    assert all(table[m] == "hit" for m in general)
    built = sum((RingElem.x(m.xpow).scale(c) if m.trig is None else
                 RingElem.trig(m.trig, m.wavenumber, xpow=m.xpow, coeff=c)
                 for m, c in general.items()), RingElem())
    assert (prod - built).is_zero()


# ------------------------------------------------------------- serialization

def test_ring_json_roundtrip(rng):
    # half the elements from one wavenumber family, so negative and mixed pi
    # powers reach the wavenumbers' text and JSON too
    for i in range(100):
        e = random_family_elem(rng) if i % 2 else random_ring_elem(rng)
        assert RingElem.from_json(e.to_json()) == e
        assert parse_potential(str(e)) == e


def test_x_power_cap_at_every_constructor():
    # groups are dense in x: the cap is checked before any group is built,
    # and on every kernel result, so no element holds a power its own JSON
    # cannot bring back
    with pytest.raises(RingError, match="MAX_X_POWER"):
        RingElem.x(10**9)
    big = MAX_X_POWER + 1
    top = RingElem.x(MAX_X_POWER)
    for build in (lambda: RingElem.x(big),
                  lambda: RingElem.x(-1),
                  lambda: RingElem.trig("cos", 2, xpow=big),
                  lambda: RingElem.x(big).scale(Coefficient.pi_power(0, 3)),
                  lambda: RingElem.from_json([{"xpow": big, "trig": None,
                                               "wavenumber": None,
                                               "coefficient": [[0, "1"]]}]),
                  lambda: top * top,
                  lambda: top.integrate()):
        with pytest.raises(RingError, match="MAX_X_POWER"):
            build()
    assert top.x_degree() == MAX_X_POWER
    assert RingElem.from_json(top.to_json()) == top


def test_unknown_trig_rejected():
    # a trig name other than sin or cos used to be kept, or with no
    # wavenumber read as cos(0) = 1
    for build in (lambda: RingElem.trig("tan", 1),
                  lambda: RingElem.trig("tan", Coefficient.pi_power(0, 1)),
                  lambda: RingElem.from_json([{"xpow": 1, "trig": "tan",
                                               "wavenumber": None,
                                               "coefficient": [[0, "1"]]}])):
        with pytest.raises(RingError, match="unknown trig function 'tan'"):
            build()


def test_float_readout_beyond_range_names_the_coefficient():
    with pytest.raises(RingError, match=r"coefficient 3\*pi\^700 is beyond the float"):
        RingElem.x(2).scale(Coefficient.pi_power(700, 3)).evaluate(0.5)
    with pytest.raises(RingError, match=r"pi\^640"):
        float(Coefficient.pi_power(640))
    with pytest.raises(RingError, match="beyond the float range"):
        float(Coefficient.pi_power(1, 10**308))     # 1e308 * pi rounds to inf
    with pytest.raises(RingError, match="beyond the float range"):
        RingElem.trig("cos", Coefficient.pi_power(640)).evaluate(0.5)


def test_x_power_cap_admits_every_series_document():
    # WignerSeries.from_json_dict allows x powers up to (2 deg V + 1) * order
    assert (2 * MAX_POWER + 1) * MAX_ORDER == 3870 <= MAX_X_POWER


def test_monomial_canonical_fields():
    m = Monomial(2, "cos", Coefficient.pi_power(1, 2))
    assert m.xpow == 2 and m.trig == "cos"
    assert Monomial(1).wavenumber is None
