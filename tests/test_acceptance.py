"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 8 runs its stated configuration verbatim and is expected
to fail; see the analysis in its docstring.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from qvlasov.evaluate import GridSpec, eval_field, eval_point, eval_points
from qvlasov.diagnostics import marginals, q_functional
from qvlasov.parser import parse_potential
from qvlasov.potentials import resolve_potential
from qvlasov.ring import RingElem
from qvlasov.seeds import CombinedSeed, SeedDistribution, chi_from_z
from qvlasov.series import SeriesTerm, WignerSeries, build_series
from qvlasov.verify import residual_numeric, residual_symbolic

from conftest import random_ring_elem

GOLDSTONE = parse_potential("-q^2/2 + q^4/4")
QUARTIC = parse_potential("q^4/4")
FD1 = SeedDistribution("fd", z=1.0)
ACCEPTANCE_GRID = GridSpec(-4.0, 4.0, 401, -4.0, 4.0, 401)


def report(n, label):
    print(f"ACCEPTANCE {n}: PASS - {label}")


def term_from(**kwargs):
    cells = {}
    for key, expr in kwargs.items():
        m, j = key[1:].split("j")
        cells[(int(m), int(j))] = parse_potential(expr)
    return SeriesTerm(cells)


@pytest.fixture(scope="module")
def goldstone_l5():
    return build_series(GOLDSTONE, 5, "paper")


def test_criterion_1_first_correction_exact():
    start = time.perf_counter()
    series = build_series(GOLDSTONE, 1, "paper")
    expected = term_from(
        m0j2="(6 - 18*q^2)/48",
        m1j3="(4 - 12*q^2)/48",
        m0j3="(-3*q^4 + q^6)/48",
    )
    elapsed = time.perf_counter() - start
    assert series.terms[1] == expected
    assert elapsed < 1.0
    report(1, f"first correction matches the frozen reference exactly ({elapsed:.3f}s)")


def test_criterion_2_second_correction_exact():
    start = time.perf_counter()
    series = build_series(GOLDSTONE, 2, "paper")
    expected = term_from(
        m0j4="q^2/4608 * 252*(-2 + 3*q^2)",
        m1j5="q^2/4608 * (-18)*(32 - 48*q^2)",
        m0j5="q^2/4608 * (-18)*(6*q^2 - 16*q^4 + 5*q^6)",
        m2j6="q^2/4608 * (-96 + 144*q^2)",
        m1j6="q^2/4608 * (-24*q^2 + 80*q^4 - 24*q^6)",
        m0j6="q^2/4608 * (9*q^6 - 6*q^8 + q^10)",
    )
    elapsed = time.perf_counter() - start
    assert series.terms[2] == expected
    assert elapsed < 5.0
    report(2, f"second correction matches the frozen reference exactly ({elapsed:.3f}s)")


def test_criterion_3_quadratic_degeneracy():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a, b, c = (Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))
                   for _ in range(3))
        v = (RingElem.constant(a) + RingElem.x().scale(b)
             + RingElem.x(2).scale(c))
        uniform = build_series(v, 4, "uniform")
        assert all(t.is_zero() for t in uniform.terms[1:5])
        expected_f1 = SeriesTerm({
            (0, 2): RingElem.constant(-c / 4),
            (0, 3): RingElem.constant((4 * a * c - b * b) / 24),
            (1, 3): RingElem.constant(Fraction(-4) * c / 24),
        })
        paper = build_series(v, 1, "paper")
        assert paper.terms[1] == expected_f1
    report(3, "quadratic potentials: uniform corrections vanish, "
              "paper first correction is the H-only closed form")


def test_criterion_4_symbolic_residual_orders():
    start = time.perf_counter()
    for potential in (GOLDSTONE, QUARTIC):
        for order in range(1, 6):
            for convention in ("paper", "uniform"):
                series = build_series(potential, order, convention)
                rep = residual_symbolic(series)
                assert rep.observed_order is None or \
                    rep.observed_order == 2 * order + 2, \
                    (str(potential), order, convention, rep.observed_order)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, f"symbolic residual order is 2L+2 for both quartic wells, "
              f"L=1..5, both conventions ({elapsed:.1f}s)")


def test_criterion_5_degeneracy_calibration():
    chi = chi_from_z(1.0)
    assert abs(chi - 1.01) <= 0.01
    report(5, f"chi(z=1) = {chi:.4f} within 1.01 +- 0.01")


def test_criterion_6_negativity_onset(goldstone_l5):
    start = time.perf_counter()
    field_06 = eval_field(goldstone_l5, FD1, 0.6, ACCEPTANCE_GRID)
    assert field_06.values.min() < 0
    field_07 = eval_field(goldstone_l5, FD1, 0.7, ACCEPTANCE_GRID)
    p_q_07, _ = marginals(field_07)
    assert p_q_07.min() < 0
    field_03 = eval_field(goldstone_l5, FD1, 0.3, ACCEPTANCE_GRID)
    p_q_03, _ = marginals(field_03)
    assert p_q_03.min() >= -1e-3 * p_q_03.max()
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, f"negative f at hbar=0.6, negative P_q at 0.7, clean P_q at "
              f"0.3 ({elapsed:.1f}s)")


def test_criterion_7_uncertainty_bound_crossing(goldstone_l5):
    bounds = []
    for hbar in np.arange(0.1, 0.95, 0.1):
        field = eval_field(goldstone_l5, FD1, float(hbar), ACCEPTANCE_GRID)
        _, bound, _ = q_functional(field)
        bounds.append(bound)
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[2] < 1.0          # still inside the bound at hbar = 0.3
    assert bounds[-1] > 1.0         # violated by hbar = 0.9
    report(7, "2*pi*hbar*Q nondecreasing, crossing 1 inside (0.3, 1.0)")


@pytest.mark.xfail(
    strict=True,
    reason="stated expected slope 8 +- 0.5 is unattainable at L=2: the "
           "truncation leaves a genuine hbar^6 residual (the order that "
           "criterion 4 asserts symbolically), so the honest window slope "
           "is a 6/8 blend near 7.3; slope 8 belongs to L=3")
def test_criterion_8_numeric_residual_scaling():
    """Criterion 8 verbatim: modulated ripple potential, L=2, j_max=6,
    hbar in {0.05, 0.0707, 0.1, 0.141, 0.2}, fitted slope = 8 +- 0.5.

    Fails against the stated expectation: the truncation at L=2 leaves a
    genuine hbar^6 residual (the same 2L+2 order that criterion 4 asserts
    symbolically), so the honest fitted slope over this window is a 6/8
    blend (about 7.3 with the default sample set; 6.2-7.4 over any
    reasonable sampling).  A slope near 8 would require the hbar^6 term to
    vanish, which only happens one order higher (L=3 gives exactly 8.0 for
    quartic wells, where the residual is a pure power).  See the quartic
    slope tests in test_verify.py for the sound version of this oracle, and
    test_criterion_8_reference_behavior below for the defensible properties
    of this exact configuration.
    """
    series = build_series(resolve_potential("modulated:a=1/2"), 2, "paper")
    rep = residual_numeric(series, FD1, [0.05, 0.0707, 0.1, 0.141, 0.2],
                           j_max=6)
    assert abs(rep.slope - 8.0) <= 0.5, \
        (f"fitted slope {rep.slope:.3f} is not 8 +- 0.5; truncation at L=2 "
         f"scales at order {rep.claimed_order}, not 8 (defective expectation, "
         f"see test docstring)")
    report(8, f"numeric residual slope {rep.slope:.2f} within 8 +- 0.5")


def test_criterion_8_reference_behavior():
    """The sound scaling facts at criterion 8's exact configuration: the
    fitted slope never undershoots the claimed order 2L+2, and raising the
    truncation by one (where the stated slope 8 actually lives) passes."""
    hbars = [0.05, 0.0707, 0.1, 0.141, 0.2]
    series = build_series(resolve_potential("modulated:a=1/2"), 2, "paper")
    rep = residual_numeric(series, FD1, hbars, j_max=6)
    assert rep.slope >= rep.claimed_order - 0.5
    assert rep.passed
    deeper = build_series(resolve_potential("modulated:a=1/2"), 3, "paper")
    rep3 = residual_numeric(deeper, FD1, hbars, j_max=6)
    assert rep3.claimed_order == 8
    assert rep3.slope >= 8 - 0.5
    report("8-ref", f"slope {rep.slope:.2f} >= claimed {rep.claimed_order}; "
                    f"L=3 slope {rep3.slope:.2f} >= 7.5")


def test_criterion_9_classical_limit():
    rng = np.random.default_rng(7)
    potentials = [GOLDSTONE, QUARTIC, resolve_potential("modulated:a=1/2"),
                  resolve_potential("harmonic")]
    seeds = [SeedDistribution("mb"), SeedDistribution("fd", z=1.0),
             SeedDistribution("be", z=0.5)]
    qs = rng.uniform(-2.0, 2.0, 10_000)
    ps = rng.uniform(-2.0, 2.0, 10_000)
    for potential in potentials:
        series = build_series(potential, 2, "paper")
        h = 0.5 * ps**2 + potential.evaluate(qs)
        for seed in seeds:
            values = eval_points(series, seed, 0.0, qs, ps)
            expected = seed.f0(h)
            assert np.array_equal(values, expected), \
                (str(potential), seed.kind)
    report(9, "hbar=0 evaluation equals the bare seed bit-for-bit at 1e4 "
              "points for every potential/seed pairing")


def test_criterion_10_linearity_in_seed(goldstone_l5):
    rng = np.random.default_rng(11)
    s1 = SeedDistribution("fd", z=1.0)
    s2 = SeedDistribution("mb")
    alpha, beta = 2.0, -1.0 / 3.0
    combo = CombinedSeed([(alpha, s1), (beta, s2)])
    for _ in range(100):
        q = float(rng.uniform(-2.5, 2.5))
        p = float(rng.uniform(-2.5, 2.5))
        lhs = eval_point(goldstone_l5, combo, 0.4, q, p)
        rhs = (alpha * eval_point(goldstone_l5, s1, 0.4, q, p)
               + beta * eval_point(goldstone_l5, s2, 0.4, q, p))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)
    report(10, "evaluation is linear in the seed to 1e-12 relative")


def test_criterion_11_roundtrips():
    rng = np.random.default_rng(3)
    for _ in range(500):
        elem = random_ring_elem(rng)
        assert elem.integrate().ddx() == elem
        assert parse_potential(str(elem)) == elem
    for text, convention in (("goldstone", "paper"),
                             ("modulated:a=1/2", "uniform")):
        series = build_series(resolve_potential(text), 2, convention)
        doc = series.to_json()
        back = WignerSeries.from_json(doc)
        assert back.to_json() == doc
        assert all(a == b for a, b in zip(back.terms, series.terms))
        assert back.potential == series.potential
    report(11, "serialization, parsing and antiderivative round-trips are "
               "exact (500 random elements)")
