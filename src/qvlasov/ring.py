"""Exact differential ring of poly-trig functions of one position variable.

Elements are finite sums of basis monomials x^n, x^n*sin(k*x), x^n*cos(k*x)
with coefficients (and wavenumbers k) drawn from Q[pi, 1/pi]: finite sums of
rational multiples of integer powers of pi.  The ring is closed under
addition, multiplication, d/dx and antidifferentiation, and every operation
is exact, so expansion coefficients built on top of it can be compared for
equality instead of within a float tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np


class RingError(ArithmeticError):
    """Raised when an operation would leave the poly-trig ring."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Coefficient:
    """Exact constant: finitely many terms r * pi^e with rational r, integer e.

    Stored as a tuple of (e, numerator, denominator) sorted by e, in lowest
    terms with positive denominators and no zero terms, so equal values have
    equal tuples.  Sums and products with a single-term operand, the only
    kind build_series forms, use integer arithmetic on that tuple.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        self._terms = _canonical({int(e): _as_fraction(r)
                                  for e, r in (terms or {}).items()})
        self._hash = None

    @classmethod
    def _of(cls, terms: tuple) -> "Coefficient":
        """Trusted constructor: terms is already canonical."""
        self = object.__new__(cls)
        self._terms = terms
        self._hash = None
        return self

    @classmethod
    def rational(cls, value) -> "Coefficient":
        return cls({0: _as_fraction(value)})

    @classmethod
    def pi_power(cls, exponent: int, value=1) -> "Coefficient":
        return cls({exponent: _as_fraction(value)})

    def items(self):
        return [(e, Fraction(n, d)) for e, n, d in self._terms]

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == ((0, 1, 1),)

    def is_negative(self) -> bool:
        """Canonical sign: the sign of the coefficient of the highest pi power."""
        return bool(self._terms) and self._terms[-1][1] < 0

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, Coefficient):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Coefficient.rational(other)._terms
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._terms)
        return self._hash

    def __add__(self, other):
        other = _coerce(other)
        a, b = self._terms, other._terms
        if len(a) == 1 == len(b) and a[0][0] == b[0][0]:
            (e, n1, d1), (_, n2, d2) = a[0], b[0]
            n, d = n1 * d2 + n2 * d1, d1 * d2
            if not n:
                return ZERO
            g = math.gcd(n, d)
            return Coefficient._of(((e, n // g, d // g),))
        terms = dict(self.items())
        for e, r in other.items():
            terms[e] = terms.get(e, 0) + r
        return Coefficient._of(_canonical(terms))

    __radd__ = __add__

    def __neg__(self):
        return Coefficient._of(tuple((e, -n, d) for e, n, d in self._terms))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        a, b = self._terms, other._terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # shifting every term by one pi power keeps the order by e
            ((e2, n2, d2),) = b
            out = []
            for e1, n1, d1 in a:
                g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
                out.append((e1 + e2, (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)))
            return Coefficient._of(tuple(out))
        return sum((self * Coefficient._of((t,)) for t in b), ZERO)

    __rmul__ = __mul__

    def inverse(self) -> "Coefficient":
        """Exact reciprocal; defined only for single-term values r*pi^e."""
        if not self._terms:
            raise RingError("division by zero constant")
        if len(self._terms) > 1:
            raise RingError(
                "constant is not invertible in the coefficient ring "
                f"(multi-term pi sum: {self.as_text()})"
            )
        ((e, n, d),) = self._terms
        return Coefficient._of(((-e, d, n) if n > 0 else (-e, -d, -n),))

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __float__(self):
        # n / d is float(Fraction(n, d)): integer true division, rounded once
        return float(sum(n / d * math.pi**e for e, n, d in self._terms))

    def sort_key(self):
        return self._terms

    def as_text(self, parenthesize: bool = False) -> str:
        """Render as an expression the potential grammar accepts."""
        if not self._terms:
            return "0"
        parts = []
        for e, r in reversed(self.items()):
            body = _pi_term_text(e, abs(r))
            if not parts:
                parts.append(body if r > 0 else "-" + body)
            else:
                parts.append((" + " if r > 0 else " - ") + body)
        text = "".join(parts)
        if parenthesize and len(self._terms) > 1:
            return "(" + text + ")"
        return text

    def to_json(self):
        return [[e, str(r)] for e, r in self.items()]

    @classmethod
    def from_json(cls, data) -> "Coefficient":
        return cls({int(e): Fraction(r) for e, r in data})

    def __repr__(self):
        return f"Coefficient({self.as_text()})"


def _canonical(terms: dict) -> tuple:
    """Canonical term tuple of a {pi power: Fraction} dict."""
    return tuple((e, r.numerator, r.denominator) for e, r in sorted(terms.items()) if r)


def _coerce(value) -> Coefficient:
    if isinstance(value, Coefficient):
        return value
    if isinstance(value, int):
        return Coefficient._of(((0, int(value), 1),) if value else ())
    if isinstance(value, Fraction):
        return Coefficient.rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Coefficient")


def _pi_term_text(e: int, r: Fraction) -> str:
    # r assumed positive; sign handled by the caller
    if e == 0:
        return str(r)
    pi_text = "pi" if abs(e) == 1 else f"pi^{abs(e)}"
    if e > 0:
        return pi_text if r == 1 else f"{r}*{pi_text}"
    return f"{r}/{pi_text}"


ZERO = Coefficient()
ONE = Coefficient.rational(1)
HALF = Coefficient.rational(Fraction(1, 2))

_TRIG_RANK = {None: 0, "cos": 1, "sin": 2}


class Monomial(NamedTuple):
    """Basis monomial x^n, x^n*sin(k*x) or x^n*cos(k*x), in canonical form."""

    xpow: int
    trig: str | None = None
    wavenumber: Coefficient | None = None

    def sort_key(self):
        k = self.wavenumber.sort_key() if self.wavenumber is not None else ()
        return (_TRIG_RANK[self.trig], k, self.xpow)

    def is_constant(self) -> bool:
        return self.xpow == 0 and self.trig is None


def _accumulate(terms: dict, xpow: int, trig: str | None, k: Coefficient | None,
                coeff: Coefficient) -> None:
    """Add coeff * x^xpow * trig(k x) to terms, canonicalizing trig sign."""
    if coeff.is_zero():
        return
    if trig is not None:
        if k is None or k.is_zero():
            if trig == "sin":
                return  # sin(0) = 0
            trig, k = None, None  # cos(0) = 1
        elif k.is_negative():
            k = -k
            if trig == "sin":
                coeff = -coeff
    _add_term(terms, Monomial(xpow, trig, k), coeff)


def _add_term(terms: dict, mono: Monomial, coeff: Coefficient) -> None:
    total = terms.get(mono)
    if total is None:
        terms[mono] = coeff
        return
    total = total + coeff
    if total._terms:
        terms[mono] = total
    else:
        del terms[mono]


class RingElem:
    """Finite sum of canonical monomials with Coefficient weights."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, Coefficient] | None = None):
        self._terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def _of(cls, terms: dict) -> "RingElem":
        """Trusted constructor: terms has no zero coefficients."""
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def zero(cls) -> "RingElem":
        return cls()

    @classmethod
    def one(cls) -> "RingElem":
        return cls({Monomial(0): ONE})

    @classmethod
    def constant(cls, value) -> "RingElem":
        return cls({Monomial(0): _coerce(value)})

    @classmethod
    def x(cls, power: int = 1) -> "RingElem":
        return cls({Monomial(power): ONE})

    @classmethod
    def trig(cls, kind: str, wavenumber, xpow: int = 0, coeff=1) -> "RingElem":
        terms: dict[Monomial, Coefficient] = {}
        _accumulate(terms, xpow, kind, _coerce(wavenumber), _coerce(coeff))
        return cls(terms)

    def items(self):
        return sorted(self._terms.items(), key=lambda mc: mc[0].sort_key())

    def is_zero(self) -> bool:
        return not self._terms

    def has_trig(self) -> bool:
        return any(m.trig is not None for m in self._terms)

    def is_constant(self) -> bool:
        return all(m.is_constant() for m in self._terms)

    def constant_value(self) -> Coefficient:
        """The value of a constant element (raises if x-dependent)."""
        if not self.is_constant():
            raise RingError("element is not a constant")
        return self._terms.get(Monomial(0), ZERO)

    def x_degree(self) -> int:
        return max((m.xpow for m in self._terms), default=0)

    def is_even_in_x(self) -> bool:
        """True when the element is an even function of x."""
        for m in self._terms:
            odd = m.xpow % 2 == 1
            if m.trig == "sin":
                odd = not odd
            if odd:
                return False
        return True

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        terms = dict(self._terms)
        for m, c in other._terms.items():
            _add_term(terms, m, c)
        return RingElem._of(terms)

    def __neg__(self):
        return RingElem._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor) -> "RingElem":
        factor = _coerce(factor)
        if factor.is_zero():
            return RingElem()
        # Q[pi, 1/pi] has no zero divisors, so no product vanishes
        return RingElem._of({m: c * factor for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Coefficient)):
            return self.scale(other)
        terms: dict[Monomial, Coefficient] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                _mul_terms(terms, m1, m2, c1 * c2)
        return RingElem._of(terms)

    __rmul__ = __mul__

    def ddx(self) -> "RingElem":
        """Exact derivative with respect to x."""
        terms: dict[Monomial, Coefficient] = {}
        for m, c in self._terms.items():
            if m.xpow > 0:
                _accumulate(terms, m.xpow - 1, m.trig, m.wavenumber, c * m.xpow)
            if m.trig == "sin":
                _accumulate(terms, m.xpow, "cos", m.wavenumber, c * m.wavenumber)
            elif m.trig == "cos":
                _accumulate(terms, m.xpow, "sin", m.wavenumber, -(c * m.wavenumber))
        return RingElem._of(terms)

    def integrate(self) -> "RingElem":
        """Exact antiderivative F with ddx(F) = self, anchored so F(0) = 0."""
        terms: dict[Monomial, Coefficient] = {}
        for m, c in self._terms.items():
            if m.trig is None:
                _accumulate(terms, m.xpow + 1, None, None, c / (m.xpow + 1))
            else:
                _integrate_trig(terms, m.xpow, m.trig, m.wavenumber, c)
        result = RingElem._of(terms)
        at_zero = result.eval_exact(Fraction(0))
        if not at_zero.is_zero():
            result = result - RingElem.constant(at_zero)
        return result

    def eval_exact(self, x0: Fraction) -> Coefficient:
        """Exact value at a rational point; trig terms only allowed at x0 = 0."""
        x0 = _as_fraction(x0)
        total = ZERO
        for m, c in self._terms.items():
            if m.trig is not None and x0 != 0:
                raise RingError("exact evaluation of trig terms requires x = 0")
            if m.trig == "sin":
                continue  # sin(0) = 0
            if x0 == 0:
                if m.xpow == 0:
                    total = total + c
            else:
                total = total + c * (x0**m.xpow)
        return total

    def evaluate(self, x):
        """Numeric value at x (scalar or numpy array), pi at double precision.

        Terms are grouped by trig factor and each group's polynomial part is
        evaluated by Horner's rule in a fixed order, so results are
        deterministic and identical for scalar and array inputs.
        """
        groups: dict = {}
        for m, c in self._terms.items():
            key = (m.trig, m.wavenumber.sort_key() if m.wavenumber else ())
            poly = groups.setdefault(key, [{}, m.wavenumber])[0]
            poly[m.xpow] = poly.get(m.xpow, 0.0) + float(c)
        total = 0.0
        for key in sorted(groups, key=lambda t: (_TRIG_RANK[t[0]], t[1])):
            poly, k = groups[key]
            val = 0.0
            for n in range(max(poly), -1, -1):
                val = val * x + poly.get(n, 0.0)
            trig = key[0]
            if trig == "sin":
                val = val * np.sin(float(k) * x)
            elif trig == "cos":
                val = val * np.cos(float(k) * x)
            total = total + val
        if not groups:
            total = np.zeros_like(np.asarray(x, dtype=float))
            if total.ndim == 0:
                total = 0.0
        return total

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for m, c in self.items():
            negative = c.is_negative()
            mag = -c if negative else c
            body = _term_text(m, mag)
            if not parts:
                parts.append("-" + body if negative else body)
            else:
                parts.append((" - " if negative else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"RingElem({self})"

    def to_json(self):
        out = []
        for m, c in self.items():
            out.append({
                "xpow": m.xpow,
                "trig": m.trig,
                "wavenumber": m.wavenumber.to_json() if m.wavenumber else None,
                "coefficient": c.to_json(),
            })
        return out

    @classmethod
    def from_json(cls, data) -> "RingElem":
        terms: dict[Monomial, Coefficient] = {}
        for rec in data:
            k = Coefficient.from_json(rec["wavenumber"]) if rec["wavenumber"] else None
            _accumulate(terms, int(rec["xpow"]), rec["trig"], k,
                        Coefficient.from_json(rec["coefficient"]))
        return cls(terms)

    def term_count(self) -> int:
        return len(self._terms)


def _mul_terms(terms: dict, m1: Monomial, m2: Monomial, coeff: Coefficient) -> None:
    xpow = m1.xpow + m2.xpow
    t1, t2 = m1.trig, m2.trig
    if t1 is None and t2 is None:
        _accumulate(terms, xpow, None, None, coeff)
    elif t2 is None:
        _accumulate(terms, xpow, t1, m1.wavenumber, coeff)
    elif t1 is None:
        _accumulate(terms, xpow, t2, m2.wavenumber, coeff)
    else:
        k1, k2 = m1.wavenumber, m2.wavenumber
        half = coeff * HALF
        if t1 == "sin" and t2 == "sin":
            _accumulate(terms, xpow, "cos", k1 - k2, half)
            _accumulate(terms, xpow, "cos", k1 + k2, -half)
        elif t1 == "cos" and t2 == "cos":
            _accumulate(terms, xpow, "cos", k1 - k2, half)
            _accumulate(terms, xpow, "cos", k1 + k2, half)
        elif t1 == "sin":  # sin * cos
            _accumulate(terms, xpow, "sin", k1 + k2, half)
            _accumulate(terms, xpow, "sin", k1 - k2, half)
        else:  # cos * sin
            _accumulate(terms, xpow, "sin", k1 + k2, half)
            _accumulate(terms, xpow, "sin", k1 - k2, -half)


def _integrate_trig(terms: dict, n: int, trig: str, k: Coefficient,
                    coeff: Coefficient) -> None:
    """Integration by parts for x^n sin(kx) and x^n cos(kx), one x power a step:
    the integral of x^n sin(kx) is -x^n cos(kx)/k + n/k times that of
    x^(n-1) cos(kx), and of x^n cos(kx) it is x^n sin(kx)/k - n/k times that of
    x^(n-1) sin(kx)."""
    inv_k = k.inverse()
    for i in range(n, -1, -1):
        out = coeff * inv_k
        if trig == "sin":
            trig, out = "cos", -out
        else:
            trig = "sin"
        _add_term(terms, Monomial(i, trig, k), out)     # k is already canonical
        coeff = out * -i


def _term_text(m: Monomial, coeff: Coefficient) -> str:
    parts = []
    if not coeff.is_one():
        parts.append(coeff.as_text(parenthesize=True))
    if m.xpow == 1:
        parts.append("q")
    elif m.xpow > 1:
        parts.append(f"q^{m.xpow}")
    if m.trig is not None:
        k = m.wavenumber
        arg = "q" if k.is_one() else f"{k.as_text(parenthesize=True)}*q"
        parts.append(f"{m.trig}({arg})")
    if not parts:
        return "1"
    return "*".join(parts)
