"""Shared generators for randomized algebra tests."""

from fractions import Fraction

import numpy as np
import pytest

from qvlasov.ring import Coefficient, RingElem

# wavenumbers kept to single pi-terms so every element is integrable
WAVENUMBERS = [
    Coefficient.pi_power(0, 1),
    Coefficient.pi_power(0, 2),
    Coefficient.pi_power(0, Fraction(3, 2)),
    Coefficient.pi_power(1, 1),
    Coefficient.pi_power(1, 2),
    Coefficient.pi_power(-1, 3),
]


def random_fraction(rng) -> Fraction:
    num = int(rng.integers(-6, 7))
    if num == 0:
        num = 1
    return Fraction(num, int(rng.integers(1, 5)))


def random_coefficient(rng) -> Coefficient:
    terms: dict = {}
    for _ in range(int(rng.integers(1, 3))):
        e = int(rng.integers(-1, 3))
        terms[e] = terms.get(e, 0) + random_fraction(rng)
    return Coefficient(terms)


# wavenumber families by their shared pi power: 0, 1, -1, none at all, and
# mixed powers; elements drawn from one family have that omega (or 0)
WAVENUMBER_FAMILIES = (
    WAVENUMBERS[:3],
    [Coefficient.pi_power(1, 1), Coefficient.pi_power(1, 2),
     Coefficient.pi_power(1, Fraction(1, 2))],
    [Coefficient.pi_power(-1, 3), Coefficient.pi_power(-1, 1)],
    [],
    WAVENUMBERS,
)


def random_ring_elem(rng, max_terms: int = 5, max_xpow: int = 4,
                     wavenumbers=WAVENUMBERS) -> RingElem:
    elem = RingElem()
    for _ in range(int(rng.integers(1, max_terms + 1))):
        xpow = int(rng.integers(0, max_xpow + 1))
        trig = rng.choice([None, "sin", "cos"]) if wavenumbers else None
        if trig is None:
            part = RingElem() + RingElem.x(xpow).scale(random_coefficient(rng))
        else:
            k = wavenumbers[int(rng.integers(0, len(wavenumbers)))]
            part = RingElem.trig(trig, k, xpow=xpow,
                                 coeff=random_coefficient(rng))
        elem = elem + part
    return elem


def random_family_elem(rng, max_terms: int = 5, max_xpow: int = 4) -> RingElem:
    """A random element whose wavenumbers come from one random family."""
    family = WAVENUMBER_FAMILIES[int(rng.integers(0, len(WAVENUMBER_FAMILIES)))]
    return random_ring_elem(rng, max_terms, max_xpow, wavenumbers=family)


def value_at_zero(elem: RingElem) -> dict:
    """{pi power: rational} of elem's value at x = 0, read from its monomials:
    those of x^0, with cos(0) = 1 and sin(0) = 0."""
    total: dict = {}
    for mono, coeff in elem.items():
        if mono.xpow == 0 and mono.trig != "sin":
            for e, r in coeff.items():
                total[e] = total.get(e, 0) + r
    return {e: r for e, r in total.items() if r}


def is_even(elem: RingElem) -> bool:
    """Whether elem is an even function of x: every monomial x^n trig(kx) is."""
    return all(mono.xpow % 2 == (mono.trig == "sin") for mono, _ in elem.items())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
