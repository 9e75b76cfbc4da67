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
from dataclasses import dataclass
from fractions import Fraction

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
    """Exact constant: finitely many terms r * pi^e with rational r, integer e."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[int, Fraction] = {}
        if terms:
            for e, r in terms.items():
                r = _as_fraction(r)
                if r:
                    clean[int(e)] = r
        self._terms = clean

    @classmethod
    def rational(cls, value) -> "Coefficient":
        return cls({0: _as_fraction(value)})

    @classmethod
    def pi_power(cls, exponent: int, value=1) -> "Coefficient":
        return cls({exponent: _as_fraction(value)})

    def items(self):
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: Fraction(1)}

    def is_negative(self) -> bool:
        """Canonical sign: the sign of the coefficient of the highest pi power."""
        if not self._terms:
            return False
        return self._terms[max(self._terms)] < 0

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, Coefficient):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Coefficient.rational(other)._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        other = _coerce(other)
        terms = dict(self._terms)
        for e, r in other._terms.items():
            terms[e] = terms.get(e, Fraction(0)) + r
        return Coefficient(terms)

    __radd__ = __add__

    def __neg__(self):
        return Coefficient({e: -r for e, r in self._terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        terms: dict[int, Fraction] = {}
        for e1, r1 in self._terms.items():
            for e2, r2 in other._terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, Fraction(0)) + r1 * r2
        return Coefficient(terms)

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
        ((e, r),) = self._terms.items()
        return Coefficient({-e: 1 / r})

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __float__(self):
        return float(sum(float(r) * math.pi**e for e, r in self.items()))

    def sort_key(self):
        return tuple((e, r.numerator, r.denominator) for e, r in self.items())

    def as_text(self, parenthesize: bool = False) -> str:
        """Render as an expression the potential grammar accepts."""
        if not self._terms:
            return "0"
        parts = []
        for e, r in sorted(self._terms.items(), reverse=True):
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


def _coerce(value) -> Coefficient:
    if isinstance(value, Coefficient):
        return value
    if isinstance(value, (int, Fraction)):
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


@dataclass(frozen=True)
class Monomial:
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
    mono = Monomial(xpow, trig, k)
    total = terms.get(mono, ZERO) + coeff
    if total.is_zero():
        terms.pop(mono, None)
    else:
        terms[mono] = total


class RingElem:
    """Finite sum of canonical monomials with Coefficient weights."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, Coefficient] | None = None):
        self._terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

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
            total = terms.get(m, ZERO) + c
            if total.is_zero():
                terms.pop(m, None)
            else:
                terms[m] = total
        return RingElem(terms)

    def __neg__(self):
        return RingElem({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor) -> "RingElem":
        factor = _coerce(factor)
        if factor.is_zero():
            return RingElem()
        return RingElem({m: c * factor for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Coefficient)):
            return self.scale(other)
        terms: dict[Monomial, Coefficient] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                _mul_terms(terms, m1, m2, c1 * c2)
        return RingElem(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise RingError("negative powers are outside the ring")
        out = RingElem.one()
        for _ in range(n):
            out = out * self
        return out

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
        return RingElem(terms)

    def integrate(self) -> "RingElem":
        """Exact antiderivative F with ddx(F) = self, anchored so F(0) = 0."""
        terms: dict[Monomial, Coefficient] = {}
        for m, c in self._terms.items():
            if m.trig is None:
                _accumulate(terms, m.xpow + 1, None, None, c / (m.xpow + 1))
            else:
                _integrate_trig(terms, m.xpow, m.trig, m.wavenumber, c)
        result = RingElem(terms)
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
    """Integration-by-parts recursion for x^n sin(kx) and x^n cos(kx)."""
    inv_k = k.inverse()
    if trig == "sin":
        _accumulate(terms, n, "cos", k, -(coeff * inv_k))
        if n > 0:
            _integrate_trig(terms, n - 1, "cos", k, coeff * inv_k * n)
    else:
        _accumulate(terms, n, "sin", k, coeff * inv_k)
        if n > 0:
            _integrate_trig(terms, n - 1, "sin", k, -(coeff * inv_k * n))


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
