"""Exact differential ring of poly-trig functions of one position variable.

Elements are finite sums of basis monomials x^n, x^n*sin(k*x), x^n*cos(k*x)
with coefficients (and wavenumbers k) drawn from Q[pi, 1/pi]: finite sums of
rational multiples of integer powers of pi.  The ring is closed under
addition, multiplication, d/dx and antidifferentiation, and every operation
is exact, so expansion coefficients built on top of it can be compared for
equality instead of within a float tolerance.

Internally an element is a set of integer polynomial groups, one per
(trig, k, s), in the manner of FLINT's fmpq_poly: a tuple of Python ints
over one positive denominator, kept primitive.  A group holds
sum_n c[n]/d * pi^(s + omega*n) * x^n * trig(k*x), where omega is the pi
power shared by all wavenumbers of the element (0 when it has none, or
when their powers differ).  With omega equal to the wavenumbers' pi power,
the x-powers of one antiderivative land in one group, and products of
groups are plain integer convolutions.  One integer accumulator (a list
of ints over a running denominator per output group) serves every sum:
sum_of_products for products, linear_sum for linear combinations (+, -
and scale among them), and series cells through series._cell_sum.  Each
group is reduced once, when its sum is done.  Every exact read-out
(items(), the JSON form and the text) comes from one table of monomial
rows, formed from the groups in one pass (RingElem._monomials); the float
coefficients of the numeric layer come from the groups directly
(RingElem._float_groups).  The module needs no numpy:
evaluate.cell_values reads elements out to floats.

Every constant inside the module, the wavenumber k of a group key included,
is a canonical term tuple ((e, numerator, denominator), ...) of sum n/d pi^e.
Coefficient wraps such a tuple only where a value enters or leaves the ring.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple


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
    equal tuples.  It is the value the ring takes in and reads out, and has
    no arithmetic of its own: constants compute as RingElem.constant elements.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = _canonical({int(e): _as_fraction(r)
                                  for e, r in (terms or {}).items()})

    @classmethod
    def _of(cls, terms: tuple) -> "Coefficient":
        """Trusted constructor: terms is already canonical."""
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def pi_power(cls, exponent: int, value=1) -> "Coefficient":
        return cls({exponent: _as_fraction(value)})

    def items(self):
        return [(e, Fraction(n, d)) for e, n, d in self._terms]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, Coefficient):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == _terms_of(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._terms)

    def inverse(self) -> "Coefficient":
        """Exact reciprocal; defined only for single-term values r*pi^e."""
        e, n, d = _single_term(self._terms)
        return Coefficient._of(((-e, d, n) if n > 0 else (-e, -d, -n),))

    def __float__(self):
        return _terms_float(self._terms)

    def as_text(self) -> str:
        """Render as an expression the potential grammar accepts."""
        return _terms_text(self._terms)

    def __repr__(self):
        return f"Coefficient({self.as_text()})"


# ------------------------------------------------------------ term tuples

_ONE = ((0, 1, 1),)     # the term tuple of 1


def _canonical(terms: dict) -> tuple:
    """Canonical term tuple of a {pi power: Fraction} dict."""
    return tuple((e, r.numerator, r.denominator) for e, r in sorted(terms.items()) if r)


def _terms_of(value) -> tuple:
    """The canonical term tuple of an int, Fraction or Coefficient."""
    if isinstance(value, Coefficient):
        return value._terms
    if isinstance(value, int):
        return ((0, int(value), 1),) if value else ()
    if isinstance(value, Fraction):
        return ((0, value.numerator, value.denominator),) if value else ()
    raise TypeError(f"cannot coerce {type(value).__name__} to Coefficient")


def _terms_from_json(data) -> tuple:
    """The term tuple of a [[e, "n/d"], ...] list, each pi power e given once."""
    if type(data) is not list:
        raise ValueError(f"malformed series document: {data!r} is not a list")
    terms = {json_int(e): json_ratio(r) for e, r in data}
    if len(terms) != len(data):
        raise ValueError(f"malformed series document: a pi power appears twice "
                         f"in {data!r}")
    return _canonical(terms)


def json_int(value) -> int:
    """An integer field of a series document: a JSON integer, not a bool."""
    if type(value) is not int:
        raise ValueError(f"malformed series document: {value!r} is not an integer")
    return value


# A ratio as str(Fraction) writes it; an exponent ("1e999999999") has no size bound.
_RATIO = re.compile(r"-?[0-9]+(/[0-9]+)?")


def json_ratio(value) -> Fraction:
    """A ratio field of a series document: a JSON string "n" or "n/d"."""
    if not (isinstance(value, str) and _RATIO.fullmatch(value)):
        raise ValueError(f"malformed series document: {value!r} is not a ratio")
    return Fraction(value)


def _add_terms(a: tuple, b: tuple, sign: int = 1) -> tuple:
    """The term tuple of a + sign * b, for sign +1 or -1."""
    terms = {e: (n, d) for e, n, d in a}
    for e, n, d in b:
        n *= sign
        if e in terms:
            n0, d0 = terms[e]
            n, d = n0 * d + n * d0, d0 * d
            g = math.gcd(n, d)
            n, d = n // g, d // g
        terms[e] = (n, d)
    return tuple((e, n, d) for e, (n, d) in sorted(terms.items()) if n)


def _single_term(terms: tuple) -> tuple:
    """The one (e, n, d) of a single-term value r*pi^e, the only values with
    an inverse in Q[pi, 1/pi]; RingError for any other."""
    if not terms:
        raise RingError("division by zero constant")
    if len(terms) > 1:
        raise RingError("constant is not invertible in the coefficient ring "
                        f"(multi-term pi sum: {_terms_text(terms)})")
    return terms[0]


def _terms_float(terms: tuple) -> float:
    """sum n/d * pi^e in increasing e; n / d is float(Fraction(n, d)), rounded
    once.  RingError when the value, or a term of it, is beyond the float range."""
    try:
        value = float(sum(n / d * math.pi**e for e, n, d in terms))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise RingError(f"coefficient {_terms_text(terms)} is beyond the float range")
    return value


def _terms_json(terms: tuple) -> list:
    """[[e, "n/d"], ...], each ratio as str(Fraction(n, d)) writes it."""
    return [[e, str(n) if d == 1 else f"{n}/{d}"] for e, n, d in terms]


def _terms_text(terms: tuple, parenthesize: bool = False) -> str:
    """The terms as an expression the potential grammar accepts, highest pi
    power first; in parentheses when asked and there is more than one."""
    parts = []
    for e, n, d in reversed(terms):
        body = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
        if e:
            pi_text = "pi" if abs(e) == 1 else f"pi^{abs(e)}"
            if e < 0:
                body = f"{body}/{pi_text}"
            else:
                body = pi_text if body == "1" else f"{body}*{pi_text}"
        parts.append((n < 0, body))
    text = _signed_sum(parts)
    return f"({text})" if parenthesize and len(terms) > 1 else text


def _signed_sum(parts) -> str:
    """(negative, magnitude text) pairs joined as a - b + c; "0" for none."""
    text = ""
    for negative, body in parts:
        if text:
            text += (" - " if negative else " + ") + body
        else:
            text = "-" + body if negative else body
    return text or "0"


_TRIG_RANK = {None: 0, "cos": 1, "sin": 2}

# Highest x power an element can hold.  Groups are dense in x, so x^n holds
# n + 1 ints; series documents the CLI accepts stay within
# (2 * parser.MAX_POWER + 1) * series.MAX_ORDER = 3870.  Constructor entries
# are checked before any group is allocated, kernel results as they are reduced.
MAX_X_POWER = 4096


class Monomial(NamedTuple):
    """Basis monomial x^n, x^n*sin(k*x) or x^n*cos(k*x), in canonical form."""

    xpow: int
    trig: str | None = None
    wavenumber: Coefficient | None = None


# ------------------------------------------------------------ group kernels
#
# A group is (c, d): a tuple of ints c, c[-1] != 0, over a denominator d > 0
# with gcd(d, *c) == 1.  One accumulator serves every sum: a dict from each
# output key to [ints, running denominator], fed by _accumulate and turned
# into groups by _reduced, which reduces each key once.  sum_of_products
# feeds it products, linear_sum (and so +, -, scale) linear combinations,
# and ddx, integrate and the constructors their parts, each with (1,) as
# the second operand; series.SeriesTerm sums its cells through linear_sum,
# and every product the series build forms is a sum_of_products call.
# Each of them hands its groups to RingElem._checked, the one place that
# makes an element and moves it to the omega of its wavenumbers.

def _reduce(c: list, d: int):
    """The primitive group of c/d, or None when it is zero.  RingError when
    its x power passes MAX_X_POWER."""
    while c and not c[-1]:
        c.pop()
    if not c:
        return None
    if len(c) > MAX_X_POWER + 1:
        raise RingError(f"x power {len(c) - 1} exceeds MAX_X_POWER = {MAX_X_POWER}")
    g = math.gcd(d, *c)
    if g != 1:
        return tuple([v // g for v in c]), d // g
    return tuple(c), d


def _accumulate(acc: dict, key, c1, c2, num: int, den: int) -> None:
    """Add num/den * (c1 convolved with c2) to acc's [ints, D] entry at key.

    D is a running common denominator, rescaled in place only when den does
    not divide it; D // den joins num in the factor of each row of the
    convolution, so it costs no extra pass over the integers.  A row is c1
    times one entry of c2, and the zeros of c1 are skipped: c2 is (1,) in a
    linear sum and a power or derivative of V in the recursion source, so
    rows are few, while a series cell's group often has no low x powers."""
    n = len(c1) + len(c2) - 1
    entry = acc.get(key)
    if entry is None:
        total = [0] * n
        acc[key] = [total, den]
        f = num
    else:
        total, d = entry
        if d % den:
            grow = den // math.gcd(d, den)
            total[:] = [grow * v for v in total]
            d *= grow
            entry[1] = d
        f = num * (d // den)
        if len(total) < n:
            total.extend([0] * (n - len(total)))
    for j, bj in enumerate(c2):
        if bj:
            r = bj * f
            for i, ai in enumerate(c1, j):
                if ai:
                    total[i] += r * ai


def _reduced(acc: dict) -> dict:
    """The groups of an accumulator, each key reduced once, zero sums dropped."""
    return {key: group for key, (c, d) in acc.items()
            if (group := _reduce(c, d)) is not None}


def convolve(a, b) -> list:
    """Coefficients of the product of two integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


def _omega_of(wavenumbers) -> int:
    """The pi power shared by all wavenumbers; 0 if none or mixed."""
    omega = None
    for k in wavenumbers:
        if k is None:
            continue
        if len(k) != 1 or (omega is not None and k[0][0] != omega):
            return 0
        omega = k[0][0]
    return omega or 0


def _group_omega(groups) -> int:
    return _omega_of(k for _, k, _ in groups)


def _entries_to_groups(entries, omega: int) -> dict:
    """Groups at omega from (trig, k, n, e, numerator, denominator) entries,
    each one the term numerator/denominator * pi^e * x^n * trig(k x)."""
    acc: dict = {}
    for t, k, n, e, num, den in entries:
        _accumulate(acc, (t, k, e - omega * n), (0,) * n + (num,), (1,), 1, den)
    return _reduced(acc)


def _regroup(groups: dict, old: int, new: int) -> dict:
    """The same value's groups under another omega; groups of x^0 alone,
    such as a constant's, hold under every omega."""
    if old == new or all(len(c) == 1 for c, _ in groups.values()):
        return groups
    return _entries_to_groups(((t, k, n, s + old * n, v, d)
                               for (t, k, s), (c, d) in groups.items()
                               for n, v in enumerate(c) if v), new)


def _canonical_trig(trig, k, sign: int):
    """(trig, k, sign) with k > 0, or None when the term vanishes."""
    if not k:
        return None if trig == "sin" else (None, None, sign)
    if k[-1][1] < 0:
        return (trig, _add_terms((), k, -1), -sign if trig == "sin" else sign)
    return (trig, k, sign)


def _trig_products(k1: tuple, k2: tuple) -> dict:
    """{(trig1, trig2): trig1(k1 x) * trig2(k2 x) as (trig, k, sign) terms,
    each times 1/2}, from k1 + k2 and k1 - k2 formed once."""
    total, diff = _add_terms(k1, k2), _add_terms(k1, k2, -1)
    terms = {("sin", "sin"): (("cos", diff, 1), ("cos", total, -1)),
             ("cos", "cos"): (("cos", diff, 1), ("cos", total, 1)),
             ("sin", "cos"): (("sin", total, 1), ("sin", diff, 1)),
             ("cos", "sin"): (("sin", total, 1), ("sin", diff, -1))}
    return {pair: tuple(filter(None, (_canonical_trig(*t) for t in row)))
            for pair, row in terms.items()}


def _group_order(item) -> tuple:
    """Listing order of a (trig, k, s) group: trig rank, k's terms, s."""
    (t, k, s), _ = item
    return (_TRIG_RANK[t], () if k is None else k, s)


class RingElem:
    """Finite sum of canonical monomials with Q[pi, 1/pi] weights, stored as
    primitive integer groups keyed by (trig, k, s), k a term tuple (see the
    module notes)."""

    __slots__ = ("_groups", "_omega", "_hash", "_count", "_floats", "_rows")

    def __init__(self):
        """The zero element; the classmethods build the others."""
        self._set({}, 0)

    def _set(self, groups: dict, omega: int) -> None:
        self._groups = groups
        self._omega = omega
        self._hash = self._count = self._floats = self._rows = None

    @classmethod
    def _checked(cls, groups: dict, omega: int) -> "RingElem":
        """The element of canonical groups at omega, moved to the omega of
        their wavenumbers: the one place that makes an element."""
        actual = _group_omega(groups)
        self = object.__new__(cls)
        self._set(_regroup(groups, omega, actual), actual)
        return self

    @classmethod
    def one(cls) -> "RingElem":
        return _from_entries([(0, None, None, _ONE)])

    @classmethod
    def constant(cls, value) -> "RingElem":
        return _from_entries([(0, None, None, _terms_of(value))])

    @classmethod
    def x(cls, power: int = 1) -> "RingElem":
        return _from_entries([(power, None, None, _ONE)])

    @classmethod
    def trig(cls, kind: str, wavenumber, xpow: int = 0, coeff=1) -> "RingElem":
        return _from_entries([(xpow, kind, _terms_of(wavenumber), _terms_of(coeff))])

    def _monomials(self) -> tuple:
        """(trig, k, n, terms) rows, terms the canonical term tuple of the
        coefficient of x^n trig(k x), in listing order: trig rank, k, n.
        The one place that orders, reduces and groups monomials, for every
        exact reader; formed once per element, since expand reads each cell
        twice (the JSON form and the listing).  Groups come in (trig rank,
        k, s) order, so each row's pi powers e = s + omega * n come in
        increasing order."""
        if self._rows is None:
            w = self._omega
            waves: dict = {}
            for (t, k, s), (c, d) in sorted(self._groups.items(), key=_group_order):
                rows = waves.setdefault((t, k), {})
                for n, v in enumerate(c):
                    if v:
                        g = math.gcd(v, d)
                        rows.setdefault(n, []).append((s + w * n, v // g, d // g))
            self._rows = tuple((t, k, n, tuple(rows[n]))
                               for (t, k), rows in waves.items() for n in sorted(rows))
        return self._rows

    def items(self):
        return [(Monomial(n, t, None if k is None else Coefficient._of(k)),
                 Coefficient._of(terms))
                for t, k, n, terms in self._monomials()]

    def is_zero(self) -> bool:
        return not self._groups

    def has_trig(self) -> bool:
        return any(t is not None for t, _, _ in self._groups)

    def check_wavenumbers_invertible(self) -> None:
        """RingError, as integrate raises it, unless every integer
        combination of the wavenumbers, which is all that products and
        derivatives form, is invertible: all are terms r*pi^e of one e."""
        waves = sorted({k for t, k, _ in self._groups if t is not None})
        for k in waves:
            _single_term(k)
        for k in waves[1:]:
            _single_term(_add_terms(k, waves[0], -1))

    def is_constant(self) -> bool:
        return all(t is None and len(c) == 1
                   for (t, _, _), (c, _) in self._groups.items())

    def constant_value(self) -> Coefficient:
        """The value of a constant element (raises if x-dependent)."""
        if not self.is_constant():
            raise RingError("element is not a constant")
        # a primitive one-entry group (c0,) over d has gcd(c0, d) = 1
        return Coefficient._of(tuple(sorted((s, c[0], d) for (_, _, s), (c, d)
                                            in self._groups.items())))

    def x_degree(self) -> int:
        return max((len(c) - 1 for c, _ in self._groups.values()), default=0)

    def __bool__(self):
        return bool(self._groups)

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self._groups == other._groups

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._groups.items()))
        return self._hash

    def __add__(self, other):
        return linear_sum([(self, 1), (other, 1)])

    def __neg__(self):
        return linear_sum([(self, -1)])

    def __sub__(self, other):
        return linear_sum([(self, 1), (other, -1)])

    def scale(self, factor) -> "RingElem":
        return linear_sum([(self, factor)])

    def __mul__(self, other):
        return sum_of_products([(self, other, 1)])

    def ddx(self) -> "RingElem":
        """Exact derivative with respect to x."""
        w = self._omega
        acc: dict = {}
        for (t, k, s), (c, d) in self._groups.items():
            if len(c) > 1:
                _accumulate(acc, (t, k, s + w), [n * c[n] for n in range(1, len(c))],
                            (1,), 1, d)
            if t is not None:
                t2, sign = ("cos", 1) if t == "sin" else ("sin", -1)
                for e, p, q in k:
                    _accumulate(acc, (t2, k, s + e), c, (1,), sign * p, d * q)
        return RingElem._checked(_reduced(acc), w)

    def integrate(self) -> "RingElem":
        """Exact antiderivative F with ddx(F) = self, anchored so F(0) = 0.

        x^n integrates term by term; a trig group P(x) trig(kx) uses
        int P sin kx = -cos kx E(x) + sin kx O(x) + E(0)
        and int P cos kx = sin kx E(x) + cos kx O(x) - O(0), where
        E = sum_i (-1)^i P^(2i)/k^(2i+1) and O = sum_i (-1)^i P^(2i+1)/k^(2i+2).
        At the omega of k = p/q * pi^e every term of E and O lands on one
        key, so one Horner-type pass forms both in O(deg P) operations: over
        the common denominator d * p^(deg P + 1), E[n] + i O[n] = q Z[n] with
        Z[deg P + 1] = 0 and Z[n] = p^(deg P) c[n] + (n + 1) (i q / p) Z[n + 1],
        each division by p exact.  An element whose wavenumbers have mixed
        pi powers integrates each power's groups at their own omega.
        """
        w = self._omega
        # 1/k must stay in Q[pi, 1/pi]
        powers = {_single_term(k)[0] for t, k, _ in self._groups if t is not None}
        if len(powers) > 1:     # so omega is 0
            parts: dict = {}    # pi power of the wavenumbers (None for x^n): its groups
            for (t, k, s), group in self._groups.items():
                parts.setdefault(None if t is None else k[0][0], {})[t, k, s] = group
            return linear_sum([(RingElem._checked(groups, w).integrate(), 1)
                               for groups in parts.values()])
        acc: dict = {}
        for (t, k, s), (c, d) in self._groups.items():
            if t is None:
                den = math.lcm(*range(1, len(c) + 1))
                _accumulate(acc, (None, None, s - w),
                            [0] + [v * (den // (n + 1)) for n, v in enumerate(c)],
                            (1,), 1, d * den)
                continue
            ((e, p, q),) = k
            deg = len(c) - 1
            top = p ** deg
            even, odd = [0] * (deg + 1), [0] * (deg + 1)
            re = im = 0
            for n in range(deg, -1, -1):
                re, im = top * c[n] - (n + 1) * q * (im // p), (n + 1) * q * (re // p)
                even[n], odd[n] = q * re, q * im
            den, key = d * p * top, s - e
            for trig, sign, total in ((("cos", -1, even), ("sin", 1, odd)) if t == "sin"
                                      else (("sin", 1, even), ("cos", 1, odd))):
                _accumulate(acc, (trig, k, key), total, (1,), sign, den)
                if trig == "cos":     # anchor F(0) = 0: minus the value at 0
                    _accumulate(acc, (None, None, key), total[:1], (1,), -sign, den)
        return RingElem._checked(_reduced(acc), w)

    def _float_groups(self) -> tuple:
        """(trig, float k, float coefficients from the top x power down) per
        (trig, k), in (trig rank, k) order; formed once per element, for the
        read-out kernel (evaluate.cell_values).

        The coefficient of x^n sums v/d * pi^(s + omega*n) from 0.0 over the
        groups of (trig, k) in increasing s, with the bits of _terms_float's
        sum of the monomial's terms from int 0.  Int true division is
        correctly rounded, so v/d of a group's unreduced pair is the double
        of the reduced one, and no gcd is taken."""
        if self._floats is None:
            w, out = self._omega, []
            for (t, k), groups in groupby(sorted(self._groups.items(), key=_group_order),
                                          key=lambda item: item[0][:2]):
                groups = [(s, c, d) for (_, _, s), (c, d) in groups]
                coeffs = [0.0] * max(len(c) for _, c, _ in groups)
                try:
                    for s, c, d in groups:
                        for n, v in enumerate(c):
                            if v:
                                coeffs[n] += v / d * math.pi ** (s + w * n)
                    coeffs.reverse()
                except OverflowError:
                    coeffs = [math.inf]
                if not all(map(math.isfinite, coeffs)):
                    # the same sums, monomial by monomial: the first beyond
                    # the float range raises, naming its reduced terms
                    for *_, terms in self._monomials():
                        _terms_float(terms)
                out.append((t, None if k is None else _terms_float(k), coeffs))
            self._floats = tuple(out)
        return self._floats

    def evaluate(self, x):
        """Numeric value at x (scalar or numpy array), pi at double precision,
        read out by evaluate.cell_values."""
        from .evaluate import cell_values

        return cell_values([self], x)[0]

    def __str__(self):
        args: dict = {}     # k: the text of trig(k*q)'s argument
        return _signed_sum(_monomial_text(*row, args) for row in self._monomials())

    def __repr__(self):
        return f"RingElem({self})"

    def to_json(self):
        return [{"xpow": n,
                 "trig": t,
                 "wavenumber": None if k is None else _terms_json(k),
                 "coefficient": _terms_json(terms)}
                for t, k, n, terms in self._monomials()]

    @classmethod
    def from_json(cls, data) -> "RingElem":
        return _from_entries(
            (json_int(rec["xpow"]), rec["trig"],
             None if rec["wavenumber"] is None else _terms_from_json(rec["wavenumber"]),
             _terms_from_json(rec["coefficient"])) for rec in data)

    def term_count(self) -> int:
        """Number of monomials x^n trig(kx) with a nonzero coefficient."""
        if self._count is None:
            self._count = len({(t, k, n) for (t, k, _), (c, _) in self._groups.items()
                               for n, v in enumerate(c) if v})
        return self._count


def sum_of_products(items, trig_table: dict | None = None) -> RingElem:
    """The sum of factor * a * b over (a, b, factor) items, factor an int or
    Fraction: the ring's one product loop.

    Each product of two groups is their integer convolution, added straight
    into one integer accumulator per output (trig, k, s) key (_accumulate).
    Each key is reduced once, at the end.  Each distinct operand is split by
    wavenumber once per call.  trig_table maps a wavenumber pair (k1, k2) to
    its trig products, k1 +- k2 formed once per pair in the table: calls that
    share one dict, such as those of one series build, form each pair once;
    a call without one keeps a table of its own.  Each value is stored
    whole."""
    items = [(a, b, f) for a, b, f in items if f and a._groups and b._groups]
    w = _sum_omega([e for a, b, _ in items for e in (a, b)])
    split: dict = {}    # id of an operand: [(k, [(trig, s, ints, denominator)])] at w
    trig = {} if trig_table is None else trig_table     # (k1, k2): their trig products
    acc: dict = {}      # output key: [ints, running denominator]

    def by_wavenumber(e):
        parts = split.get(id(e))
        if parts is None:
            waves: dict = {}
            for (t, k, s), (c, d) in _regroup(e._groups, e._omega, w).items():
                waves.setdefault(k, []).append((t, s, c, d))
            parts = split[id(e)] = list(waves.items())
        return parts

    for a, b, f in items:
        p, q = f.numerator, f.denominator
        right = by_wavenumber(b)
        for k1, left in by_wavenumber(a):
            for k2, groups in right:
                if k1 is None or k2 is None:
                    products = None
                else:
                    products = trig.get((k1, k2))
                    if products is None:
                        products = trig[k1, k2] = _trig_products(k1, k2)
                for t1, s1, c1, d1 in left:
                    for t2, s2, c2, d2 in groups:
                        s, d = s1 + s2, d1 * d2 * q
                        if t1 is None:
                            _accumulate(acc, (t2, k2, s), c1, c2, p, d)
                        elif t2 is None:
                            _accumulate(acc, (t1, k1, s), c1, c2, p, d)
                        else:
                            for t, k, sign in products[t1, t2]:
                                _accumulate(acc, (t, k, s), c1, c2, sign * p, 2 * d)
    return RingElem._checked(_reduced(acc), w)


def linear_sum(items) -> RingElem:
    """The sum of factor * a over (a, factor) items, factor an int, Fraction
    or Coefficient: the ring's one linear combination, +, - and scale
    included.  It sums at the omega sum_of_products chooses, in the same
    accumulator, each x power of a group times each pi power of its factor.
    A lone item of factor 1 is its element itself."""
    items = [(a, terms) for a, f in items if (terms := _terms_of(f)) and a._groups]
    if len(items) == 1 and items[0][1] == _ONE:
        return items[0][0]
    w = _sum_omega([a for a, _ in items])
    acc: dict = {}
    for a, factor in items:
        for (t, k, s), (c, d) in _regroup(a._groups, a._omega, w).items():
            for e, p, q in factor:
                _accumulate(acc, (t, k, s + e), c, (1,), p, d * q)
    return RingElem._checked(_reduced(acc), w)


def _sum_omega(elems) -> int:
    """The omega a sum over elems accumulates at: the one they share, else
    that of all their wavenumbers (0 for none)."""
    omegas = {e._omega for e in elems}
    return omegas.pop() if len(omegas) == 1 else _group_omega(
        [key for e in elems for key in e._groups])


def _from_entries(entries) -> RingElem:
    """The element summing (x power, trig, k, coefficient) entries, k and the
    coefficient as term tuples, with trig signs canonicalised: sin(0) = 0,
    cos(0) = 1 and k > 0.  The one path from inputs to elements, behind
    RingElem's classmethods and from_json; each entry's x power is checked
    before any group is allocated."""
    rows = []
    for n, t, k, terms in entries:
        if not 0 <= n <= MAX_X_POWER:
            raise RingError(f"x power {n} outside 0..MAX_X_POWER = {MAX_X_POWER}")
        sign = 1
        if t is None:
            k = None
        elif t not in _TRIG_RANK:
            raise RingError(f"unknown trig function {t!r}: expected sin or cos")
        else:
            canon = _canonical_trig(t, k, 1)
            if canon is None:
                continue
            t, k, sign = canon
        if terms:
            rows.append((t, k, n, sign, terms))
    # omega of the entries; sums that cancel on one (trig, k) can move it
    omega = _omega_of(k for _, k, _, _, _ in rows)
    groups = _entries_to_groups(((t, k, n, e, sign * v, d)
                                 for t, k, n, sign, terms in rows
                                 for e, v, d in terms), omega)
    return RingElem._checked(groups, omega)


def _monomial_text(t, k, n: int, terms: tuple, args: dict) -> tuple:
    """(negative, |coefficient| * q^n * trig(k*q)) of one row; the sign is
    that of the highest pi power.  args keeps each k's argument text, formed
    once for every row of one element."""
    negative = terms[-1][1] < 0
    if negative:
        terms = tuple((e, -v, d) for e, v, d in terms)
    parts = [] if terms == _ONE else [_terms_text(terms, parenthesize=True)]
    if n:
        parts.append("q" if n == 1 else f"q^{n}")
    if t is not None:
        arg = args.get(k)
        if arg is None:
            arg = args[k] = "q" if k == _ONE else f"{_terms_text(k, parenthesize=True)}*q"
        parts.append(f"{t}({arg})")
    return negative, "*".join(parts) or "1"
