"""Series engine: recursion, quadrature conventions, closed forms."""

import hashlib
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qvlasov.cli import _provenance, _series_listing, build_config
from qvlasov.parser import parse_potential
from qvlasov.potentials import resolve_potential
import qvlasov.ring as ring_module
import qvlasov.series as series_module
from qvlasov.ring import RingElem
from qvlasov.series import (JSON_BATCH, MAX_ORDER, OrderError, SeriesTerm,
                            TermBudgetError, WignerSeries, build_series,
                            closed_form_f1, integrate_term, recursion_rhs,
                            write_json, write_series_json)

from conftest import is_even, random_ring_elem, value_at_zero


def cells_of(**kwargs):
    """Build a SeriesTerm from m<m>j<j>='expr' keyword cells."""
    cells = {}
    for key, expr in kwargs.items():
        m, j = key[1:].split("j")
        cells[(int(m), int(j))] = parse_potential(expr)
    return SeriesTerm(cells)


GOLDSTONE = parse_potential("-q^2/2 + q^4/4")


# frozen reference expansion of the double well's first correction:
# (1/48) [ (6 - 18 x^2) f0^(2) + (4H - 12H x^2 - 3x^4 + x^6) f0^(3) ]
F1_EXPECTED = cells_of(
    m0j2="(6 - 18*q^2)/48",
    m1j3="(4 - 12*q^2)/48",
    m0j3="(-3*q^4 + q^6)/48",
)

# frozen reference for the second correction, split by powers of H:
# (x^2/4608) [ 252(-2+3x^2) f0^(4) - 18(32H + (6-48H)x^2 - 16x^4 + 5x^6) f0^(5)
#   + (-96H^2 + 24H(-1+6H)x^2 + 80Hx^4 + (9-24H)x^6 - 6x^8 + x^10) f0^(6) ]
F2_EXPECTED = cells_of(
    m0j4="q^2/4608 * 252*(-2 + 3*q^2)",
    m1j5="q^2/4608 * (-18)*(32 - 48*q^2)",
    m0j5="q^2/4608 * (-18)*(6*q^2 - 16*q^4 + 5*q^6)",
    m2j6="q^2/4608 * (-96 + 144*q^2)",
    m1j6="q^2/4608 * (-24*q^2 + 80*q^4 - 24*q^6)",
    m0j6="q^2/4608 * (9*q^6 - 6*q^8 + q^10)",
)


# -------------------------------------------------------------- SeriesTerm ops

def test_dh_of_seed():
    assert SeriesTerm.unit().d_dh() == SeriesTerm({(0, 1): RingElem.one()})


def test_dh_product_rule():
    t = SeriesTerm({(2, 0): RingElem.one()})
    expected = SeriesTerm({(1, 0): RingElem.constant(2), (2, 1): RingElem.one()})
    assert t.d_dh() == expected


def test_dh_mixed_cell():
    t = SeriesTerm({(1, 3): RingElem.x(2)})
    expected = SeriesTerm({(0, 3): RingElem.x(2), (1, 4): RingElem.x(2)})
    assert t.d_dh() == expected


# ---------------------------------------------------------------- recursion

def test_rhs_zero_for_quadratic_potential():
    v = parse_potential("1 + 2*q + 3*q^2")
    terms = [SeriesTerm.unit()]
    for l in range(1, 5):
        source = recursion_rhs(v, terms, l)
        assert source.is_zero()
        terms.append(integrate_term(source))


def test_rhs_zero_for_zero_potential():
    terms = [SeriesTerm.unit()]
    for l in (1, 2, 3):
        assert recursion_rhs(RingElem(), terms, l).is_zero()
        terms.append(SeriesTerm())


def test_rhs_order_one_is_ddx_of_closed_form():
    source = recursion_rhs(GOLDSTONE, [SeriesTerm.unit()], 1)
    assert source == closed_form_f1(GOLDSTONE).d_dx()


def test_integrate_term_roundtrip(rng):
    t = SeriesTerm({(0, 2): random_ring_elem(rng), (1, 4): random_ring_elem(rng)})
    assert integrate_term(t).d_dx() == t


def test_integrate_term_uniform_vanishes_at_reference():
    source = recursion_rhs(GOLDSTONE, [SeriesTerm.unit()], 1)
    f1 = integrate_term(source)
    for _, c in f1.cells():
        assert value_at_zero(c) == {}


# ------------------------------------------------------------- closed forms

def test_closed_form_f1_goldstone_matches_reference():
    assert closed_form_f1(GOLDSTONE) == F1_EXPECTED


def test_closed_form_f1_quadratic():
    a, b, c = Fraction(1), Fraction(2), Fraction(3)
    v = parse_potential("1 + 2*q + 3*q^2")
    expected = SeriesTerm({
        (0, 2): RingElem.constant(-c / 4),
        (0, 3): RingElem.constant((4 * a * c - b * b) / 24),
        (1, 3): RingElem.constant(-4 * c / 24),
    })
    assert closed_form_f1(v) == expected


def test_closed_form_f1_zero_potential():
    assert closed_form_f1(RingElem()).is_zero()


# ------------------------------------------------------------- build_series

def test_build_series_goldstone_f2_matches_reference():
    series = build_series(GOLDSTONE, 2, "paper")
    assert series.terms[1] == F1_EXPECTED
    assert series.terms[2] == F2_EXPECTED


def test_f2_coefficients_vanish_quadratically_at_origin():
    series = build_series(GOLDSTONE, 2, "paper")
    for _, c in series.terms[2].cells():
        assert value_at_zero(c) == {}
        assert value_at_zero(c.ddx()) == {}


def test_build_series_quadratic_uniform_degenerates(rng):
    for _ in range(5):
        a, b, c = (Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                   for _ in range(3))
        v = (RingElem.constant(a) + RingElem.x().scale(b)
             + RingElem.x(2).scale(c))
        series = build_series(v, 4, "uniform")
        assert all(t.is_zero() for t in series.terms[1:])


def test_build_series_zeroth_term_is_seed():
    for conv in ("paper", "uniform"):
        series = build_series(GOLDSTONE, 3, conv)
        assert series.terms[0] == SeriesTerm.unit()


def test_uniform_terms_vanish_at_reference():
    series = build_series(GOLDSTONE, 3, "uniform")
    for term in series.terms[1:]:
        for _, c in term.cells():
            assert value_at_zero(c) == {}


def test_conventions_differ_by_function_of_h_only():
    paper = build_series(GOLDSTONE, 1, "paper")
    uniform = build_series(GOLDSTONE, 1, "uniform")
    assert paper.terms[1].d_dx() == uniform.terms[1].d_dx()
    diff = paper.terms[1] - uniform.terms[1]
    for _, c in diff.cells():
        assert c.is_constant()


def test_max_deriv_order_bound():
    series = build_series(GOLDSTONE, 5, "paper")
    for l, term in enumerate(series.terms):
        assert term.max_deriv_order() <= 3 * l
    assert series.terms[5].max_deriv_order() <= 15


def test_parity_even_potentials():
    for text in ("goldstone", "quartic", "modulated:a=1/2"):
        series = build_series(resolve_potential(text), 2, "uniform")
        for term in series.terms:
            for _, c in term.cells():
                assert is_even(c), text


def test_term_budget_enforced(monkeypatch):
    monkeypatch.setattr(series_module, "TERM_BUDGET", 10)
    with pytest.raises(TermBudgetError):
        build_series(GOLDSTONE, 3, "paper")


@pytest.mark.parametrize("budget", [48, 59])
def test_term_budget_stops_a_series_its_quadrature_grows(monkeypatch, budget):
    # orders 0-1 hold 10 monomials, the order-2 source 38 and f_2 50: from a
    # budget of 48 the source fits, and below 60 the integrated order does not
    v = parse_potential("q^2/2 + sin(q)/5")
    series = build_series(v, 2)
    assert [t.term_count() for t in series.terms] == [1, 9, 50]
    assert recursion_rhs(v, series.terms[:2], 2).term_count() == 38
    monkeypatch.setattr(series_module, "TERM_BUDGET", budget)
    with pytest.raises(TermBudgetError,
                       match=f"series exceeded {budget} monomials at order 2"):
        build_series(v, 2)


def test_term_budget_stops_inside_the_order_source(monkeypatch):
    # recursion_rhs checks the budget once, on the finished order-5 source,
    # before that source is integrated: a budget 1,000 above the series
    # through order 4 stops it there
    v = resolve_potential("modulated:a=1/2")
    budget = build_series(v, 4).term_count() + 1000
    integrated = []
    integrate = series_module.integrate_term
    monkeypatch.setattr(series_module, "integrate_term",
                        lambda t: integrated.append(t) or integrate(t))
    monkeypatch.setattr(series_module, "TERM_BUDGET", budget)
    with pytest.raises(TermBudgetError, match="order-5 source"):
        build_series(v, 5)
    assert len(integrated) == 3     # orders 2-4; order 1 is the closed form


def test_build_reduces_each_source_group_once(monkeypatch):
    # every sum, the d/dH chains' included, adds into one accumulator per
    # output group and reduces each group once: the modulated L=5 build
    # reduces 4,513 groups and goldstone L=20 9,545.  Forming f_1 and the
    # powers of -V by chained products takes them to 4,561 and 9,758,
    # scaling each d/dH cell and then adding cells in pairs to 5,599 and
    # 13,538, and reducing every product as well modulated L=5 to 13,542
    calls = []
    reduce = ring_module._reduce
    monkeypatch.setattr(ring_module, "_reduce",
                        lambda c, d: calls.append(1) or reduce(c, d))
    for potential, order, bound in (("modulated:a=1/2", 5, 5700),
                                    ("goldstone", 20, 10_000)):
        calls.clear()
        build_series(resolve_potential(potential), order)
        assert len(calls) <= bound, potential


def test_build_forms_each_trig_product_once(monkeypatch):
    # one table of wavenumber pairs serves every product of a build: one
    # table per sum_of_products call formed modulated L=5's 21 pairs 867
    # times, L=3's 7 pairs 85 times and the 12,288 pairs of the L=2 build
    # below 65,536 times.  A second build forms them all again, so the
    # table is dropped with its build.
    calls = []
    products = ring_module._trig_products
    monkeypatch.setattr(ring_module, "_trig_products",
                        lambda k1, k2: calls.append((k1, k2)) or products(k1, k2))
    for potential, order, builds, pairs in (("modulated:a=1/2", 5, 2, 21),
                                            ("modulated:a=1/2", 3, 2, 7),
                                            ("cos(q)^32*sin(3*q)^32", 2, 1, 12_288)):
        v = resolve_potential(potential)
        for _ in range(builds):
            calls.clear()
            build_series(v, order)
            assert len(calls) == len(set(calls)) == pairs, (potential, order)


def test_build_series_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_series(GOLDSTONE, -1)
    with pytest.raises(ValueError):
        build_series(GOLDSTONE, 1, "mixed")
    with pytest.raises(OrderError, match="order 31 exceeds 30"):
        build_series(GOLDSTONE, MAX_ORDER + 1)


def _set_cell(l, key, value):
    def edit(doc):
        doc["terms"][l][0][key] = value
    return edit


def _set_xpow(value):
    def edit(doc):
        doc["terms"][2][0]["ring"][0]["xpow"] = value
    return edit


@pytest.mark.parametrize("edit, error, message", [
    (lambda doc: doc.update(order=MAX_ORDER + 1), OrderError, "exceeds 30"),
    (_set_cell(2, "j", 200), OrderError, "derivative order 200"),
    (_set_cell(1, "j", 7), OrderError, "derivative order 7"),
    (_set_cell(1, "j", -1), OrderError, "derivative order -1"),
    (_set_xpow(10**9), ValueError, "x power 1000000000"),
    (_set_xpow(19), ValueError, "x power 19 is outside 0..18"),
    (_set_xpow(-1), ValueError, "x power -1"),
    (_set_cell(1, "m", -1), ValueError, "H power -1 is outside 0..2"),
    (_set_cell(1, "m", 3), ValueError, "H power 3 is outside 0..2"),
    (lambda doc: doc.update(x_ref="1/2"), ValueError, "x_ref '1/2' is not 0"),
], ids=["order-over-cap", "j-200", "j-over-3-order", "negative-j",
        "huge-xpow", "xpow-over-bound", "negative-xpow", "negative-m",
        "m-over-order", "x-ref-not-zero"])
def test_series_document_out_of_bounds_rejected(edit, error, message):
    # goldstone L=2: x-degree at most (2 deg V + 1) * order = 18, j <= 6,
    # H power at most 2
    doc = json.loads(json.dumps(build_series(GOLDSTONE, 2).to_json_dict()))
    WignerSeries.from_json_dict(json.loads(json.dumps(doc)))
    edit(doc)
    with pytest.raises(error, match=message):
        WignerSeries.from_json_dict(doc)


def test_built_series_stay_inside_document_bounds():
    for text, order in (("goldstone", 10), ("modulated:a=1/2", 5), ("q^6 - q", 5),
                        ("sin(q) + q^4/4 + cos(2*q)*q", 3)):
        series = build_series(resolve_potential(text), order)
        degree = 2 * series.potential.x_degree() + 1
        for l, term in enumerate(series.terms):
            assert term.max_deriv_order() <= 3 * l
            assert all(m <= l for (m, _), _ in term.cells())
            assert all(c.x_degree() <= degree * l for _, c in term.cells())


# ------------------------------------------------------- linearity of terms

def test_representation_linearity_over_seeds(rng):
    # coefficients never depend on the seed, so evaluation is linear in it
    from qvlasov.seeds import CombinedSeed, SeedDistribution

    series = build_series(GOLDSTONE, 2, "paper")
    s1 = SeedDistribution("fd", z=1.0)
    s2 = SeedDistribution("mb", z=1.0)
    combo = CombinedSeed([(2.0, s1), (-1.0 / 3.0, s2)])
    xs = rng.uniform(-2, 2, 40)
    hs = rng.uniform(-1, 3, 40)
    for term in series.terms:
        lhs = term.evaluate(combo, xs, hs)
        rhs = 2.0 * term.evaluate(s1, xs, hs) - term.evaluate(s2, xs, hs) / 3.0
        scale = np.maximum(np.abs(rhs), 1e-12)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


# ------------------------------------------------------------ serialization

def test_series_json_roundtrip_is_exact():
    for text, conv in (("goldstone", "paper"), ("modulated:a=1/2", "uniform")):
        series = build_series(resolve_potential(text), 2, conv)
        doc = json.dumps(series.to_json_dict())
        back = WignerSeries.from_json(doc)
        assert back.potential == series.potential
        assert back.order == series.order
        assert back.convention == series.convention
        assert all(a == b for a, b in zip(back.terms, series.terms))
        assert json.dumps(back.to_json_dict()) == doc


def test_series_cells_text_roundtrip():
    # every cell's listing text parses back to the cell: pi powers mix in the
    # modulated cells' coefficients and wavenumbers
    series = build_series(resolve_potential("modulated:a=1/2"), 3, "paper")
    cells = [c for term in series.terms for _, c in term.cells()]
    assert len(cells) == 31
    assert all(parse_potential(str(c)) == c for c in cells)


def test_series_json_is_deterministic():
    a = json.dumps(build_series(GOLDSTONE, 3, "paper").to_json_dict())
    b = json.dumps(build_series(GOLDSTONE, 3, "paper").to_json_dict())
    assert a == b


GOLDEN = json.loads((Path(__file__).parent / "data" / "series_digests.json").read_text())
# SHA-256 of cli._series_listing (series.txt, RingElem.__str__) for the same keys
GOLDEN_LISTING = json.loads(
    (Path(__file__).parent / "data" / "listing_digests.json").read_text())


def test_series_bytes_match_golden_digests():
    # SHA-256 of json.dumps(WignerSeries.to_json_dict()), recorded before the
    # exact core was optimised: goldstone, quartic and harmonic at L <= 5 and
    # modulated:a=1/2 at L <= 3, both conventions; recorded before the integer
    # group layout: modulated:a=1/2 at L = 4..6 (paper) and 4..5 (uniform),
    # and two potentials whose pi powers mix inside one (trig, k) group, both
    # conventions.  The listing digests were recorded for the same keys before
    # the ring's writers moved onto its monomial table.
    assert len(GOLDEN) == 2 * (3 * 6 + 4) + 5 + 2 * 2
    assert GOLDEN_LISTING.keys() == GOLDEN.keys()
    for key, digest in GOLDEN.items():
        spec, order, convention = key.rsplit(" ", 2)
        series = build_series(resolve_potential(spec), int(order[2:]), convention)
        text = json.dumps(series.to_json_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == digest, key
        listing = _series_listing(series)
        assert hashlib.sha256(listing.encode()).hexdigest() == GOLDEN_LISTING[key], key


WRITER_CASES = {
    "empty": [[], {}, [[]], {"a": {}}, [{}, [[], {}]], ()],
    "tuples": (1, (2, ("three",)), {"t": (4.5, ())}),
    "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e16,
               5e-324, 1.0 / 3, np.float64(0.1), -np.float64(2.5e-300)],
    "strings": ["", "plain", "h\u0101r \u2207 \U0001d53c", 'quote " here',
                "back\\slash", "ctl \x00\x01\x1f\x7f \n\r\t\b\f"],
    "scalars": [True, False, None, 0, -1, 10 ** 300, -(10 ** 300)],
    "keys": {"": 1, "k\u00e9y \"q\"": [2], 3: "int", 1.5: "float",
             True: "bool", None: "null"},
    "scalar": 3.25,
    "batches": [{"n": i, "cells": [[i, f"{i}/7"]] * 3} for i in range(JSON_BATCH)],
}


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_write_json_matches_stdlib_indented(tmp_path, name):
    doc = WRITER_CASES[name]
    write_json(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_text() == json.dumps(doc, indent=2) + "\n"


def series_text(series, config) -> str:
    """series.json as json.dumps writes it, config appended last."""
    doc = series.to_json_dict()
    doc["config"] = config
    return json.dumps(doc, indent=2) + "\n"


# a config block with every kind of value expand's holds, and some it does not
SERIES_CONFIG = {"command": "expand", "potential": "q^2/2 \u2207", "order": 3,
                 "convention": "paper", "seed": "fd:z=1", "hbar": None,
                 "hbar_list": (0.5, float("inf")), "grid": {"q_min": -4.0, "n_q": 401},
                 "empty": {}}


@pytest.mark.parametrize("order", [0, 1, 3])
@pytest.mark.parametrize("convention", ["paper", "uniform"])
@pytest.mark.parametrize("potential", [
    "goldstone", "quartic", "harmonic", "modulated:a=1/2",
    "(pi + 1)*q^2/2 + cos(2*pi*q)/pi^2"])
def test_write_series_json_matches_stdlib(tmp_path, potential, convention, order):
    # harmonic's corrections are all zero: empty terms
    series = build_series(resolve_potential(potential), order, convention)
    write_series_json(tmp_path / "series.json", series, SERIES_CONFIG)
    assert (tmp_path / "series.json").read_text() == series_text(series, SERIES_CONFIG)


def test_write_series_json_of_no_terms_matches_stdlib(tmp_path):
    series = WignerSeries(GOLDSTONE, -1, "paper", ())
    write_series_json(tmp_path / "series.json", series, SERIES_CONFIG)
    assert (tmp_path / "series.json").read_text() == series_text(series, SERIES_CONFIG)


def test_write_json_matches_stdlib_on_a_series_document(tmp_path):
    # the benchmark's expand: order 5, with the config block expand writes
    cfg = build_config(["expand", "--potential", "modulated:a=1/2", "--order", "5"])
    series = build_series(cfg.potential_elem, cfg.order)
    write_series_json(tmp_path / "series.json", series, _provenance(cfg))
    assert (tmp_path / "series.json").read_text() == series_text(series, _provenance(cfg))


def test_write_series_json_holds_one_cell_at_a_time(tmp_path):
    # goldstone L=12: a 577 KB file of 455 cells, the largest of 13
    # monomials.  The second write finds every cell's monomial rows formed;
    # it peaked at 29 KB, and a writer that joins the document holds all of it.
    series = build_series(GOLDSTONE, 12)
    path = tmp_path / "series.json"
    write_series_json(path, series, SERIES_CONFIG)
    tracemalloc.start()
    try:
        write_series_json(path, series, SERIES_CONFIG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 500_000
    assert peak < path.stat().st_size / 10


@pytest.mark.parametrize("doc", [{1, 2}, {"cells": [1, {2}]}, {(1, 2): 3}, b"x"])
def test_write_json_rejects_what_the_stdlib_rejects(tmp_path, doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        write_json(tmp_path / "doc.json", doc)


def test_deeply_nested_series_document_is_malformed():
    with pytest.raises(ValueError, match="malformed series document"):
        WignerSeries.from_json("[" * 100000 + "]" * 100000)
