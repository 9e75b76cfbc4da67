"""Integer group kernels of the ring against a plain per-monomial oracle.

The oracle is a dict {(n, trig, k): {e: Fraction}} for the sum of
r * pi^e * x^n * trig(k x), with k a sorted tuple of (pi power, Fraction)
pairs whose highest term is positive.  Its arithmetic is written out here
term by term, independent of the ring's group layout.
"""

import math
from fractions import Fraction

import pytest

from qvlasov.ring import Coefficient, RingElem, RingError, linear_sum, sum_of_products

from conftest import (WAVENUMBER_FAMILIES, random_coefficient, random_family_elem,
                      random_fraction)

ROUNDS = 150


# ------------------------------------------------------------------ oracle

def _pi_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for e, r in b.items():
        out[e] = out.get(e, 0) + sign * r
    return {e: r for e, r in out.items() if r}


def _pi_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, r1 in a.items():
        for e2, r2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + r1 * r2
    return {e: r for e, r in out.items() if r}


def _add_term(out: dict, n: int, trig, k: dict | None, c: dict) -> None:
    """Add c * x^n * trig(k x) to out with sin(0) = 0, cos(0) = 1, k > 0."""
    if trig is not None:
        if not k:
            if trig == "sin":
                return
            trig, k = None, None
        elif k[max(k)] < 0:
            k = {e: -r for e, r in k.items()}
            if trig == "sin":
                c = {e: -r for e, r in c.items()}
    key = (n, trig, None if k is None else tuple(sorted(k.items())))
    total = _pi_add(out.get(key, {}), c)
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def o_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for (n, trig, k), c in b.items():
        _add_term(out, n, trig, None if k is None else dict(k), c)
    return out


def o_neg(a: dict) -> dict:
    return {key: {e: -r for e, r in c.items()} for key, c in a.items()}


def o_scale(a: dict, f: dict) -> dict:
    out: dict = {}
    for (n, trig, k), c in a.items():
        _add_term(out, n, trig, None if k is None else dict(k), _pi_mul(c, f))
    return out


def o_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (n1, t1, k1), c1 in a.items():
        for (n2, t2, k2), c2 in b.items():
            n, c = n1 + n2, _pi_mul(c1, c2)
            if t1 is None or t2 is None:
                trig, k = (t2, k2) if t1 is None else (t1, k1)
                _add_term(out, n, trig, None if k is None else dict(k), c)
                continue
            half = {e: r / 2 for e, r in c.items()}
            neg = {e: -r for e, r in half.items()}
            diff, total = _pi_add(dict(k1), dict(k2), -1), _pi_add(dict(k1), dict(k2))
            if t1 == "sin" and t2 == "sin":
                terms = [("cos", diff, half), ("cos", total, neg)]
            elif t1 == "cos" and t2 == "cos":
                terms = [("cos", diff, half), ("cos", total, half)]
            elif t1 == "sin":
                terms = [("sin", total, half), ("sin", diff, half)]
            else:
                terms = [("sin", total, half), ("sin", diff, neg)]
            for trig, k, part in terms:
                _add_term(out, n, trig, k, part)
    return out


def o_ddx(a: dict) -> dict:
    out: dict = {}
    for (n, trig, k), c in a.items():
        kd = None if k is None else dict(k)
        if n:
            _add_term(out, n - 1, trig, kd, {e: n * r for e, r in c.items()})
        if trig == "sin":
            _add_term(out, n, "cos", kd, _pi_mul(c, kd))
        elif trig == "cos":
            _add_term(out, n, "sin", kd, {e: -r for e, r in _pi_mul(c, kd).items()})
    return out


def o_at_zero(a: dict) -> dict:
    total: dict = {}
    for (n, trig, _), c in a.items():
        if n == 0 and trig != "sin":
            total = _pi_add(total, c)
    return total


def o_integrate(a: dict) -> dict:
    """Integration by parts, one x power at a time, then F(0) = 0."""
    out: dict = {}
    for (n, trig, k), c in a.items():
        if trig is None:
            _add_term(out, n + 1, None, None, {e: r / (n + 1) for e, r in c.items()})
            continue
        ((ek, rk),) = k
        inv_k = {-ek: 1 / rk}
        kd = dict(k)
        for i in range(n, -1, -1):
            c = _pi_mul(c, inv_k)
            if trig == "sin":
                trig, c = "cos", {e: -r for e, r in c.items()}
            else:
                trig = "sin"
            _add_term(out, i, trig, kd, c)
            c = {e: -i * r for e, r in c.items()}
    _add_term(out, 0, None, None, {e: -r for e, r in o_at_zero(out).items()})
    return out


# ------------------------------------------------------------------ checks

def oracle(elem: RingElem) -> dict:
    return {(m.xpow, m.trig, None if m.wavenumber is None
             else tuple(m.wavenumber.items())): dict(c.items())
            for m, c in elem.items()}


def from_oracle(terms: dict) -> RingElem:
    return sum((RingElem.x(n).scale(Coefficient(c)) if trig is None else
                RingElem.trig(trig, Coefficient(dict(k)), xpow=n, coeff=Coefficient(c))
                for (n, trig, k), c in terms.items()), RingElem())


def expected_omega(terms: dict) -> int:
    powers = {tuple(e for e, _ in k) for _, _, k in terms if k is not None}
    if len(powers) == 1 and len(next(iter(powers))) == 1:
        return next(iter(powers))[0]
    return 0


def check(elem: RingElem, terms: dict) -> None:
    """elem has the oracle's value, canonical groups and the right omega,
    and equals (with an equal hash) the element built from the oracle."""
    assert oracle(elem) == terms
    assert elem._omega == expected_omega(terms)
    for (trig, k, s), (c, d) in elem._groups.items():
        assert d > 0 and c and c[-1] != 0, (trig, k, s)
        assert math.gcd(d, *c) == 1, (trig, k, s)
    rebuilt = from_oracle(terms)
    assert elem == rebuilt and hash(elem) == hash(rebuilt)
    assert elem.term_count() == len(terms)


def pairs(rng, rounds=ROUNDS):
    for _ in range(rounds):
        yield random_family_elem(rng), random_family_elem(rng)


# ------------------------------------------------------------------ kernels

def test_constructor_round_trips_plain_terms(rng):
    for _ in range(ROUNDS):
        family = WAVENUMBER_FAMILIES[int(rng.integers(0, len(WAVENUMBER_FAMILIES)))]
        terms: dict = {}
        for _ in range(int(rng.integers(1, 6))):
            trig = rng.choice([None, "sin", "cos"]) if family else None
            k = None
            if trig is not None:
                k = dict(family[int(rng.integers(0, len(family)))].items())
            _add_term(terms, int(rng.integers(0, 5)), trig, k,
                      dict(random_coefficient(rng).items()))
        check(from_oracle(terms), terms)


def test_sum_difference_and_negation_match_oracle(rng):
    for a, b in pairs(rng):
        ta, tb = oracle(a), oracle(b)
        check(a + b, o_add(ta, tb))
        check(a - b, o_add(ta, o_neg(tb)))
        check(-a, o_neg(ta))
        assert (a - a).is_zero() and (a - a)._omega == 0


def test_scale_matches_oracle(rng):
    for _ in range(ROUNDS):
        a, f = random_family_elem(rng), random_coefficient(rng)
        check(a.scale(f), o_scale(oracle(a), dict(f.items())))


def test_product_matches_oracle(rng):
    for a, b in pairs(rng):
        check(a * b, o_mul(oracle(a), oracle(b)))


def o_sum_of_products(items) -> dict:
    out: dict = {}
    for a, b, f in items:
        out = o_add(out, o_scale(o_mul(oracle(a), oracle(b)), {0: Fraction(f)}))
    return out


def test_sum_of_products_matches_oracle(rng):
    # each operand from its own family: polynomial-only, pi-wavenumber and
    # mixed elements meet in one call; factors carry signs and denominators
    # 1-4, which do not all divide each other
    for _ in range(ROUNDS // 2):
        items = []
        for _ in range(int(rng.integers(1, 5))):
            a, b = (random_family_elem(rng, max_terms=3) for _ in range(2))
            f = random_fraction(rng) if rng.integers(0, 2) else int(rng.integers(-3, 4))
            items.append((a, b, f))
        check(sum_of_products(items), o_sum_of_products(items))


def test_sum_of_products_rescales_its_running_denominator():
    # 1/3 then 1/2 and 1/5: neither later denominator divides the running one
    third, half = RingElem.x().scale(Fraction(1, 3)), RingElem.x().scale(Fraction(1, 2))
    items = [(third, RingElem.x(), 1), (half, RingElem.x(), Fraction(-7, 5)),
             (RingElem.trig("cos", 2), third, Fraction(3, 4)),
             (RingElem.trig("cos", 2), half, 2)]
    total = sum_of_products(items)
    check(total, o_sum_of_products(items))
    assert total == (RingElem.x(2).scale(Fraction(1, 3) - Fraction(7, 10))
                     + RingElem.trig("cos", 2, xpow=1, coeff=Fraction(5, 4)))


def test_sum_of_products_cancels_to_a_lower_omega():
    two_pi = Coefficient.pi_power(1, 2)
    s, c = RingElem.trig("sin", two_pi), RingElem.trig("cos", two_pi)
    poly = RingElem.x(2).scale(Fraction(-2, 3)) + RingElem.one()
    # sin^2 + cos^2 split over items, and over halves of each item
    for items in ([(s, s, 1), (c, c, 1)],
                  [(s, s, Fraction(1, 2)), (c, c, Fraction(1, 2)),
                   (c, c, Fraction(1, 2)), (s, s, Fraction(1, 2))],
                  [(s, s, -3), (poly, poly, 1), (c, c, -3)]):
        total = sum_of_products(items)
        check(total, o_sum_of_products(items))
        assert not total.has_trig() and total._omega == 0
    assert sum_of_products([(s, s, 1), (c, c, 1)]) == RingElem.one()


def test_sum_of_products_of_nothing_is_zero():
    s = RingElem.trig("sin", Coefficient.pi_power(1, 2))
    for items in ([], [(s, RingElem(), 1)], [(s, s, 0)],
                  [(RingElem(), s, Fraction(1, 2))]):
        total = sum_of_products(items)
        assert total.is_zero() and total._omega == 0 and total == RingElem()


def o_linear_sum(items) -> dict:
    out: dict = {}
    for a, f in items:
        factor = dict(f.items()) if isinstance(f, Coefficient) else {0: Fraction(f)}
        out = o_add(out, o_scale(oracle(a), factor))
    return out


def test_linear_sum_matches_oracle(rng):
    # each operand from its own family, so omegas differ within a call;
    # factors are signed ints, Fractions and sums of pi powers
    for _ in range(ROUNDS // 2):
        items = []
        for _ in range(int(rng.integers(1, 5))):
            kind = int(rng.integers(0, 3))
            f = (int(rng.integers(-3, 4)) if kind == 0 else
                 random_fraction(rng) if kind == 1 else random_coefficient(rng))
            items.append((random_family_elem(rng, max_terms=3), f))
        check(linear_sum(items), o_linear_sum(items))


def test_linear_sum_cancels_and_moves_omega():
    two_pi = Coefficient.pi_power(1, 2)
    ripple = RingElem.trig("cos", two_pi, xpow=2)
    mixed = ripple + RingElem.trig("sin", 1)
    poly = RingElem.x(3).scale(Coefficient.pi_power(2, 5)) + RingElem.x(1)
    assert (ripple._omega, mixed._omega, poly._omega) == (1, 0, 0)
    ripple_poly = ripple + poly
    assert ripple_poly._omega == 1
    for items, rest in (
            # operands of omegas 1, 0 and 1, at int, pi-power and Fraction factors
            ([(ripple, 3), (mixed, Coefficient.pi_power(-1, 2)),
              (ripple_poly, Fraction(-1, 2))], None),
            # to zero
            ([(ripple, 2), (poly, Fraction(1, 3)), (ripple, -2),
              (poly, Fraction(-1, 3))], RingElem()),
            # from omega 1 to the lower omega 0
            ([(ripple_poly, Fraction(2, 3)), (ripple, Fraction(-2, 3))],
             poly.scale(Fraction(2, 3))),
            # from omega 0 to 1
            ([(mixed, 1), (RingElem.trig("sin", 1), -1)], ripple)):
        total = linear_sum(items)
        check(total, o_linear_sum(items))
        if rest is not None:
            assert total._omega == rest._omega
            assert total._groups == rest._groups and hash(total) == hash(rest)


def test_linear_sum_of_one_item_at_factor_one_is_that_item():
    a = RingElem.trig("cos", Coefficient.pi_power(1, 2), xpow=2) + RingElem.x(1)
    for items in ([(a, 1)], [(a, Fraction(1))], [(a, Coefficient.pi_power(0, 1))],
                  [(RingElem(), 5), (a, 1), (a, 0)]):
        assert linear_sum(items) is a
    assert a + RingElem() is a and RingElem() + a is a and a.scale(1) is a
    assert linear_sum([]) == RingElem() and linear_sum([(a, 2)]) is not a


def test_ddx_matches_oracle(rng):
    for _ in range(ROUNDS):
        a = random_family_elem(rng)
        check(a.ddx(), o_ddx(oracle(a)))


def test_integrate_matches_oracle(rng):
    for _ in range(ROUNDS):
        a = random_family_elem(rng)
        f = a.integrate()
        check(f, o_integrate(oracle(a)))
        assert f.ddx() == a
        assert o_at_zero(oracle(f)) == {}


def _check_integral(a: RingElem) -> None:
    f = a.integrate()
    check(f, o_integrate(oracle(a)))
    assert f.ddx() == a
    assert o_at_zero(oracle(f)) == {}


def test_high_degree_trig_integral_matches_oracle():
    # long groups put every sign of the recurrence to work; k = p/q pi^e with
    # p, q > 1 keeps both of its factors in every term, and the sparse groups
    # set only odd or only top x powers
    shapes = (range(41), range(1, 41, 2), range(36, 41))
    for k in (Coefficient.pi_power(1, Fraction(5, 3)), Coefficient.pi_power(0, Fraction(7, 2)),
              Coefficient.pi_power(-1, Fraction(3, 4))):
        for kind in ("sin", "cos"):
            for powers in shapes:
                _check_integral(sum((RingElem.trig(kind, k, xpow=n, coeff=Coefficient(
                    {n % 3 - 1: Fraction(n + 1, 3)})) for n in powers), RingElem()))
    # wavenumbers of mixed pi powers, at omega 0, with a polynomial part
    mixed = (RingElem.trig("sin", Coefficient.pi_power(1, Fraction(5, 3)), xpow=40)
             + RingElem.trig("cos", Fraction(7, 2), xpow=39, coeff=Fraction(-2, 9))
             + RingElem.trig("cos", Coefficient.pi_power(-1, Fraction(3, 4)), xpow=17)
             + RingElem.x(5).scale(Coefficient.pi_power(2, 3)))
    assert mixed._omega == 0
    _check_integral(mixed)


def test_integrate_rejects_multi_term_wavenumber():
    with pytest.raises(RingError):
        RingElem.trig("cos", Coefficient({0: 1, 1: 1})).integrate()


# ------------------------------------------------- equal values, equal groups

def test_equal_values_by_different_routes_have_equal_groups(rng):
    for _ in range(ROUNDS // 3):
        a, b, c = (random_family_elem(rng, max_terms=3) for _ in range(3))
        routes = [a * (b + c), a * b + a * c, (c + b) * a,
                  sum_of_products([(a, b, 1), (c, a, 1)]),
                  from_oracle(o_mul(oracle(a), o_add(oracle(b), oracle(c))))]
        for route in routes[1:]:
            assert route._groups == routes[0]._groups
            assert route._omega == routes[0]._omega
            assert hash(route) == hash(routes[0])
        back = (a + b) - b
        assert back._groups == a._groups and hash(back) == hash(a)


def test_cancellation_moves_omega():
    poly = RingElem.x(3).scale(Coefficient.pi_power(2, 5)) + RingElem.x(1)
    two_pi = Coefficient.pi_power(1, 2)
    ripple = RingElem.trig("cos", two_pi, xpow=2)
    mixed = ripple + RingElem.trig("sin", 1)
    assert ripple._omega == 1 and mixed._omega == 0 and poly._omega == 0
    for total, rest in ((poly + ripple - ripple, poly),
                        (mixed - RingElem.trig("sin", 1), ripple),
                        (poly * ripple - ripple * poly + poly, poly)):
        assert total._omega == rest._omega
        assert total._groups == rest._groups and hash(total) == hash(rest)
    # sin^2 + cos^2 = 1 leaves only the omega-0 constant
    s, c = RingElem.trig("sin", two_pi), RingElem.trig("cos", two_pi)
    one = s * s + c * c
    assert one == RingElem.one() and one._omega == 0
