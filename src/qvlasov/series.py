"""Order-by-order construction of the semiclassical expansion terms.

The stationary kinetic equation, written in position/energy variables
(x, H = p^2/2 + V), turns into a recursion: the x-derivative of each
expansion term is a finite combination of odd potential derivatives,
powers of (H - V) and H-derivatives of the lower-order terms, so every
order is obtained by a single quadrature in x.  Terms are kept
seed-independent: a SeriesTerm maps (H-power m, derivative order j) to an
exact ring element c_{m,j}(x), meaning sum c_{m,j}(x) * H^m * f0^(j)(H).

Each order is only defined up to adding an arbitrary function of H.  Every
quadrature is anchored to vanish at x = 0; the "paper" convention uses the
closed form for the first correction and these antiderivatives above, while
the "uniform" convention integrates every correction, so all of them vanish
identically at x = 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import comb, factorial, inf

from .parser import parse_potential
from .ring import RingElem, json_int, json_ratio, linear_sum, sum_of_products

CONVENTIONS = ("paper", "uniform")

# Largest truncation order.  Goldstone L=30 builds in about 0.85 s of
# process time on a 2-vCPU VM, and the seed derivatives of such a series
# (order 3L = 90, plus 2 j + 1 more for a residual truncated at j <= L + 1,
# so at most 153) stay within seeds.MAX_DERIV_ORDER = 159.
MAX_ORDER = 30

# Most monomials a built series may hold, the order-l source included.
TERM_BUDGET = 10**6


class TermBudgetError(RuntimeError):
    """Series construction exceeded TERM_BUDGET monomials."""


class OrderError(ValueError):
    """A series order, or a cell's derivative order, beyond the supported range."""


class SeriesTerm:
    """One expansion order: finite sum of c_{m,j}(x) * H^m * f0^(j)(H)."""

    __slots__ = ("_cells",)

    def __init__(self, cells: dict[tuple[int, int], RingElem] | None = None):
        self._cells = {mj: c for mj, c in (cells or {}).items() if not c.is_zero()}

    @classmethod
    def unit(cls) -> "SeriesTerm":
        """The abstract seed itself: 1 * H^0 * f0^(0)."""
        return cls({(0, 0): RingElem.one()})

    def cells(self):
        return sorted(self._cells.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def is_zero(self) -> bool:
        return not self._cells

    def max_deriv_order(self) -> int:
        return max((j for _, j in self._cells), default=0)

    def term_count(self) -> int:
        return sum(c.term_count() for c in self._cells.values())

    def __eq__(self, other):
        if not isinstance(other, SeriesTerm):
            return NotImplemented
        return self._cells == other._cells

    def __sub__(self, other):
        return _cell_sum((mj, c, f) for t, f in ((self, 1), (other, -1))
                         for mj, c in t._cells.items())

    def d_dh(self) -> "SeriesTerm":
        """Derivative with respect to the energy variable: cell (m, j) is
        (m + 1) c(m + 1, j) + c(m, j - 1), formed in one linear_sum."""
        items = []
        for (m, j), c in self._cells.items():
            if m > 0:
                items.append(((m - 1, j), c, m))
            items.append(((m, j + 1), c, 1))
        return _cell_sum(items)

    def d_dx(self) -> "SeriesTerm":
        return SeriesTerm({mj: c.ddx() for mj, c in self._cells.items()})

    def evaluate(self, seed, x, h):
        """Numeric value with a concrete seed at the points (x, h), x
        broadcastable to h; read out by evaluate.term_derivatives."""
        from .evaluate import term_derivatives

        return term_derivatives([self], seed, x, h)[0, 0]

    def to_json(self):
        return [{"m": m, "j": j, "ring": c.to_json()}
                for (m, j), c in self.cells()]

    @classmethod
    def from_json(cls, data) -> "SeriesTerm":
        return _cell_sum(((json_int(rec["m"]), json_int(rec["j"])),
                          RingElem.from_json(rec["ring"]), 1) for rec in data)

    def __repr__(self):
        body = ", ".join(f"H^{m}*f0^({j}): {c}" for (m, j), c in self.cells())
        return f"SeriesTerm({body})"


def _cell_sum(items) -> SeriesTerm:
    """The sum of factor * c * H^m f0^(j) over ((m, j), c, factor) items,
    one linear_sum per cell; a cell of one item of factor 1 keeps its c."""
    cells: dict = {}
    for mj, c, factor in items:
        cells.setdefault(mj, []).append((c, factor))
    return SeriesTerm({mj: linear_sum(parts) for mj, parts in cells.items()})


def _neg_powers(potential: RingElem, power: int, trig_table: dict) -> list[RingElem]:
    """[(-V)^0, ..., (-V)^power]."""
    out = [RingElem.one()]
    for _ in range(power):
        out.append(sum_of_products([(out[-1], potential, -1)], trig_table))
    return out


def recursion_weight(j: int, k: int) -> Fraction:
    """Exact weight 1 / (2^(2k) k! (2j - 2k + 1)!) of the (j, k) source term."""
    return Fraction(1, 2 ** (2 * k) * factorial(k) * factorial(2 * j - 2 * k + 1))


def potential_derivatives(potential: RingElem, up_to: int) -> list[RingElem]:
    """[V, V', ..., V^(up_to)] by repeated exact differentiation."""
    derivs = [potential]
    for _ in range(up_to):
        derivs.append(derivs[-1].ddx())
    return derivs


def recursion_rhs(potential: RingElem, terms, l: int,
                  v_derivs: list[RingElem] | None = None,
                  j_cap: int | None = None, chains: dict | None = None,
                  budget: int | None = None,
                  trig_table: dict | None = None) -> SeriesTerm:
    """Exact x-derivative of the order-l term, from the lower orders in terms.

    Implements the source sum over j of
    (-1/2)^j V^(2j+1) sum_k w(j,k) (H-V)^(j-k) d^(2j-k+1)/dH^(2j-k+1) f_{l-j},
    with j from max(1, l - len(terms) + 1) to min(l, j_cap): orders missing
    from terms count as zero, and j_cap (default l) truncates the sum.
    chains maps i to the d/dH chain [f_i, d/dH f_i, ...] of terms[i]; it is
    extended here, so calls on the same terms may share one dict.
    trig_table is the wavenumber pairs' trig products of
    ring.sum_of_products, which calls of one build may share as well.  A
    source that grows past budget monomials raises TermBudgetError.
    """
    if l < 1:
        raise ValueError("recursion starts at order 1")
    j_top = l if j_cap is None else min(l, j_cap)
    if v_derivs is None:
        v_derivs = potential_derivatives(potential, 2 * j_top + 1)
    if chains is None:
        chains = {}
    if trig_table is None:
        trig_table = {}
    neg_v_pow = _neg_powers(potential, j_top, trig_table)
    outer: dict[tuple[int, int], list] = {}     # cell: (part, odd derivative) items
    for j in range(max(1, l - len(terms) + 1), j_top + 1):
        odd_deriv = v_derivs[2 * j + 1]
        if odd_deriv.is_zero():
            continue
        dh = chains.setdefault(l - j, [terms[l - j]])
        while len(dh) < 2 * j + 2:
            dh.append(dh[-1].d_dh())
        inner: dict[tuple[int, int], list] = {}
        for k in range(j + 1):
            # (H - V)^(j-k) by the binomial, weighted
            weight = recursion_weight(j, k) * Fraction(-1, 2) ** j
            for i in range(j - k + 1):
                factor = weight * comb(j - k, i)
                for (m, jj), c in dh[2 * j - k + 1]._cells.items():
                    inner.setdefault((m + i, jj), []).append(
                        (c, neg_v_pow[j - k - i], factor))
        for mj, items in inner.items():
            outer.setdefault(mj, []).append(
                (sum_of_products(items, trig_table), odd_deriv, 1))
    source = SeriesTerm({mj: sum_of_products(items, trig_table)
                         for mj, items in outer.items()})
    if budget is not None and source.term_count() > budget:
        raise TermBudgetError(f"order-{l} source exceeded the remaining budget "
                              f"of {budget} monomials")
    return source


def integrate_term(t: SeriesTerm) -> SeriesTerm:
    """Quadrature in x of a source term, cell by cell.  Each antiderivative
    is anchored at x = 0 (RingElem.integrate), which fixes the additive
    function of H the same way under either convention."""
    return SeriesTerm({mj: c.integrate() for mj, c in t.cells()})


def closed_form_f1(potential: RingElem, trig_table: dict | None = None) -> SeriesTerm:
    """First correction in closed form (additive function of H set to zero):

    f1 = -(1/2) V'' [ (H - V)/6 * f0^(3) + 1/4 * f0^(2) ] - (1/24) (V')^2 f0^(3)
       = -V''/12 H f0^(3) + (V V''/12 - (V')^2/24) f0^(3) - V''/8 f0^(2)

    trig_table is the wavenumber pairs' trig products, as in recursion_rhs.
    """
    v1 = potential.ddx()
    v2 = v1.ddx()
    return SeriesTerm({
        (1, 3): v2.scale(Fraction(-1, 12)),
        (0, 3): sum_of_products([(potential, v2, Fraction(1, 12)),
                                 (v1, v1, Fraction(-1, 24))], trig_table),
        (0, 2): v2.scale(Fraction(-1, 8)),
    })


@dataclass(frozen=True)
class WignerSeries:
    """Seed-independent expansion terms for one potential and convention."""

    potential: RingElem
    order: int
    convention: str
    terms: tuple[SeriesTerm, ...]

    def max_deriv_order(self) -> int:
        return max(t.max_deriv_order() for t in self.terms)

    def term_count(self) -> int:
        return sum(t.term_count() for t in self.terms)

    def to_json_dict(self) -> dict:
        return {
            "potential": str(self.potential),
            "order": self.order,
            "convention": self.convention,
            "x_ref": "0",   # every quadrature is anchored at x = 0
            "terms": [t.to_json() for t in self.terms],
        }

    @classmethod
    def from_json_dict(cls, data) -> "WignerSeries":
        """Inverse of to_json_dict.  OrderError when the order exceeds
        MAX_ORDER or a cell's derivative order exceeds 3 * order; ValueError
        on any other malformed document (an integer field that is not a JSON
        integer, a ratio that is not a string "n" or "n/d", a sum of pi
        powers that is not a list or gives a power twice, a zero
        denominator, an x_ref other than 0, a cell power out of bounds), or
        one whose order or convention does not fit its terms."""
        try:
            if json_ratio(data["x_ref"]) != 0:
                raise ValueError(f"malformed series document: x_ref "
                                 f"{data['x_ref']!r} is not 0")
            potential = parse_potential(data["potential"])
            order = json_int(data["order"])
            if order > MAX_ORDER:
                raise OrderError(f"series order {order} exceeds {MAX_ORDER}")
            _check_cells(data["terms"], order, (2 * potential.x_degree() + 1) * order)
            series = cls(
                potential=potential,
                order=order,
                convention=data["convention"],
                terms=tuple(SeriesTerm.from_json(t) for t in data["terms"]),
            )
        except (TypeError, KeyError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed series document: {exc!r}") from None
        if series.order != len(series.terms) - 1:
            raise ValueError(f"series order {series.order} does not match its "
                             f"{len(series.terms)} terms")
        if series.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {series.convention!r}")
        return series

    @classmethod
    def from_json(cls, text: str) -> "WignerSeries":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("malformed series document: nested too deeply") from None
        return cls.from_json_dict(data)


def _check_cells(terms, order: int, max_xpow: int) -> None:
    """Bounds on a series document's cells, checked before any is built.

    A derivative order beyond 3 * order is an OrderError.  An H power
    outside 0..order is a ValueError: every built f_l has H powers at most
    l, and the read-out forms a list of m + 1 coefficients per cell.  An x
    power beyond max_xpow is a ValueError too: the order-l source
    multiplies f_{l-j} by (H - V)^(j-k) and an odd derivative of V, and the
    quadrature adds one power, at most D (j + 1) + 1 <= (2 D + 1) j in all
    for D = deg V, so no built series passes (2 D + 1) * order.
    """
    for term in terms:
        for rec in term:
            j = json_int(rec["j"])
            if not 0 <= j <= 3 * order:
                raise OrderError(f"series cell of derivative order {j} is "
                                 f"outside 0..{3 * order} (3 * order)")
            m = json_int(rec["m"])
            if not 0 <= m <= order:
                raise ValueError(f"series cell H power {m} is outside "
                                 f"0..{order} (order)")
            for mono in rec["ring"]:
                if not 0 <= json_int(mono["xpow"]) <= max_xpow:
                    raise ValueError(f"series cell x power {mono['xpow']} is "
                                     f"outside 0..{max_xpow}")


def build_series(potential: RingElem, order: int,
                 convention: str = "paper") -> WignerSeries:
    """Build expansion terms f_0..f_order for a potential.

    The zeroth term is the abstract seed.  Under "paper" the first correction
    uses the closed form and higher orders integrate the recursion source;
    under "uniform" every correction is integrated.  Each quadrature vanishes
    at x = 0.  Deterministic and seed-independent.  A series past
    TERM_BUDGET monomials raises TermBudgetError.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_ORDER:
        raise OrderError(f"order {order} exceeds {MAX_ORDER}")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    if order >= (2 if convention == "paper" else 1):    # a quadrature will run
        potential.check_wavenumbers_invertible()
    v_derivs = potential_derivatives(potential, 2 * order + 1)
    terms = [SeriesTerm.unit()]
    chains: dict[int, list[SeriesTerm]] = {}
    trig_table: dict = {}   # this build's trig products, dropped with it
    count = terms[0].term_count()
    for l in range(1, order + 1):
        if convention == "paper" and l == 1:
            f_l = closed_form_f1(potential, trig_table)
        else:
            source = recursion_rhs(potential, terms, l, v_derivs, chains=chains,
                                   budget=TERM_BUDGET - count, trig_table=trig_table)
            f_l = integrate_term(source)
        if f_l.max_deriv_order() > 3 * l:
            raise AssertionError(
                f"order-{l} term has derivative order {f_l.max_deriv_order()} > {3 * l}")
        count += f_l.term_count()
        if count > TERM_BUDGET:
            raise TermBudgetError(
                f"series exceeded {TERM_BUDGET} monomials at order {l}")
        terms.append(f_l)
    return WignerSeries(potential=potential, order=order, convention=convention,
                        terms=tuple(terms))


# Chunks the JSON writer joins into one write: a small batch, so a document
# is never held whole.
JSON_BATCH = 256


def write_json(path, data) -> None:
    """Write data to path as json.dumps(data, indent=2) + "\\n" writes it.

    With indent, the stdlib encodes in pure Python through one generator per
    container; this recursion appends each piece of text to one list and
    writes the list out whenever a container closes with JSON_BATCH pieces
    pending, so it holds about a batch plus the items of one container.
    """
    with open(path, "w") as fh:
        out: list[str] = []
        _write_value(data, "\n", out, fh)
        out.append("\n")
        fh.write("".join(out))


def _scalar_text(value) -> str:
    """The JSON text of a scalar as json.dumps writes it: floats, subclasses
    too, by float.__repr__; TypeError for what it cannot write."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == inf:
            return "Infinity"
        if value == -inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    f"is not JSON serializable")


def _write_value(value, indent: str, out: list, fh) -> None:
    """Append the text of value, its lines after the first starting with
    indent, to out; write out and empty it once it holds JSON_BATCH chunks."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        comma = "," + inner
        sep = "{" + inner
        for key, item in value.items():
            head = sep + encode_basestring_ascii(
                key if isinstance(key, str) else _scalar_text(key)) + ": "
            cls = item.__class__
            if cls is str:
                out.append(head + encode_basestring_ascii(item))
            elif cls is int:
                out.append(head + int.__repr__(item))
            elif isinstance(item, (dict, list, tuple)):
                out.append(head)
                _write_value(item, inner, out, fh)
            else:
                out.append(head + _scalar_text(item))
            sep = comma
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        comma = "," + inner
        sep = "[" + inner
        for item in value:
            cls = item.__class__
            if cls is str:
                out.append(sep + encode_basestring_ascii(item))
            elif cls is int:
                out.append(sep + int.__repr__(item))
            elif isinstance(item, (dict, list, tuple)):
                out.append(sep)
                _write_value(item, inner, out, fh)
            else:
                out.append(sep + _scalar_text(item))
            sep = comma
        out.append(indent + "]")
    else:
        out.append(_scalar_text(value))
        return
    if len(out) >= JSON_BATCH:
        fh.write("".join(out))
        out.clear()
