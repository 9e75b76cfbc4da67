"""Phase-space evaluation: classical limit, symmetry, normalization."""

import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from qvlasov import evaluate
from qvlasov.diagnostics import diagnose, q_functional, spikiness
from qvlasov.evaluate import (BLOCK_POINTS, DEFAULT_GRID, GridSpec,
                              HbarOverflowError, NormalizationError,
                              WignerField, _distinct_bits, _unit_trapezoid,
                              cell_values, eval_field,
                              eval_point, eval_points, order_grids,
                              order_moments, term_derivatives, write_field_csv)
from qvlasov.parser import parse_potential
from qvlasov.potentials import PRESETS, resolve_potential
from qvlasov.ring import RingElem, _terms_float
from qvlasov.seeds import CombinedSeed, SeedDistribution, parse_seed_spec
from qvlasov.series import SeriesTerm, WignerSeries, build_series
from qvlasov.verify import _sample_points

GOLDSTONE = parse_potential("-q^2/2 + q^4/4")
CUBIC = parse_potential("q^2/2 + q^3/10")   # no two q rows share V(q)
FD = SeedDistribution("fd", z=1.0)
SMALL_GRID = GridSpec(-3.0, 3.0, 61, -3.0, 3.0, 61)


@pytest.fixture(scope="module")
def goldstone_l2():
    return build_series(GOLDSTONE, 2, "paper")


@pytest.fixture(scope="module")
def goldstone_l5():
    return build_series(GOLDSTONE, 5, "paper")


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, 10, -1.0, 1.0, 10)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 1.0, 1, -1.0, 1.0, 10)
    # an axis is formed as (k - (n - 1)/2) (b - a) / (n - 1), so its width
    # times (n - 1)/2 must stay finite, even where the width itself is
    with pytest.raises(ValueError, match="q axis' width"):
        GridSpec(-1e308, 1e308, 3, -1.0, 1.0, 10)
    with pytest.raises(ValueError, match="p axis' width"):
        GridSpec(-1.0, 1.0, 10, -1e306, 1e306, 2001)
    assert np.isfinite(GridSpec(-1e306, 1e306, 179, -1.0, 1.0, 10).q_axis()).all()


def test_classical_limit_is_plain_seed(goldstone_l5, rng):
    for _ in range(200):
        q = float(rng.uniform(-3, 3))
        p = float(rng.uniform(-3, 3))
        h = 0.5 * p * p + GOLDSTONE.evaluate(p * 0 + q)
        assert eval_point(goldstone_l5, FD, 0.0, q, p) == FD.f0(h)


def test_eval_point_first_order_matches_direct_substitution(goldstone_l2):
    # independent check: f0 + hbar^2 * [first-correction coefficients by hand]
    hbar, q, p = 0.5, 0.0, 0.0
    h = 0.5 * p * p + GOLDSTONE.evaluate(q)
    c2 = (6 - 18 * q**2) / 48
    c3 = (4 * h - 12 * h * q**2 - 3 * q**4 + q**6) / 48
    direct = (FD.f0(h)
              + hbar**2 * (c2 * FD.f0_deriv(2, h) + c3 * FD.f0_deriv(3, h)))
    series_l1 = build_series(GOLDSTONE, 1, "paper")
    assert eval_point(series_l1, FD, hbar, q, p) == pytest.approx(direct, rel=1e-13)


def test_field_matches_pointwise_eval(goldstone_l2, rng):
    field = eval_field(goldstone_l2, FD, 0.6, SMALL_GRID, normalize=False)
    values = field.values
    q, p = SMALL_GRID.q_axis(), SMALL_GRID.p_axis()
    for _ in range(100):
        i = int(rng.integers(0, SMALL_GRID.n_q))
        k = int(rng.integers(0, SMALL_GRID.n_p))
        assert values[i, k] == eval_point(goldstone_l2, FD, 0.6,
                                          float(q[i]), float(p[k]))


def test_field_symmetric_in_p(goldstone_l5):
    # the p axis is bitwise antisymmetric, so p^2 and the field are even in
    # every bit
    field = eval_field(goldstone_l5, FD, 0.6, SMALL_GRID)
    assert np.array_equal(field.values, field.values[:, ::-1])


@pytest.mark.parametrize("potential", ["goldstone", "quartic", "harmonic", "modulated"])
@pytest.mark.parametrize("n", [61, 60])
def test_even_potential_field_symmetric_in_q(potential, n):
    # on a bitwise antisymmetric q axis, V(q) and the cells of an even
    # potential agree in every bit at mirrored points, so the fill holds
    # one row of each mirrored pair and the field is even in q bit for bit
    series = build_series(resolve_potential(potential), 2)
    grid = GridSpec(-3.0, 3.0, n, -3.0, 3.0, 61)
    field = eval_field(series, FD, 0.6, grid)
    assert field.row_values.shape == ((n + 1) // 2, 61)
    assert np.array_equal(field.values, field.values[::-1])


def _ulps_from_exact(axis, a, b, n):
    """Each point's distance in ulps from the correctly rounded
    a + k (b - a)/(n - 1), taken exactly."""
    out = []
    for k, x in enumerate(axis.tolist()):
        exact = float(Fraction(a) + k * (Fraction(b) - Fraction(a)) / (n - 1))
        out.append(abs(Fraction(x) - Fraction(exact)) / Fraction(np.spacing(abs(exact))))
    return np.array(out, dtype=float)


@pytest.mark.parametrize("a, b, n", [(-4.0, 4.0, 401), (-4.0, 4.0, 400), (-3.0, 3.0, 61),
                                     (-1.0, 1.0, 2), (-2.0, 2.0, 1000), (-1e300, 1e300, 5),
                                     (-4.0, 4.0, 1001), (-4.0, 4.0, 2001)])
def test_symmetric_axis_is_antisymmetric_and_near_exact(a, b, n):
    # bitwise antisymmetric, ends exactly a and b, 0.0 at the centre of an
    # odd axis, and every point the exactly rounded grid point
    axis = evaluate.axis_points(a, b, n)
    assert axis.shape == (n,) and axis[0] == a and axis[-1] == b
    half = n // 2
    assert _bits(axis[:half]).tolist() == _bits(-axis[::-1][:half]).tolist()
    if n % 2:
        assert _bits(axis[half]) == _bits(0.0)
    assert np.all(np.diff(axis) > 0)
    assert _ulps_from_exact(axis, a, b, n).max() == 0


@pytest.mark.parametrize("a, b, n, worst", [
    (-4.0, 4.0, 401, 0), (-2.5, 3.7, 101, 6), (-2.5, 3.7, 133, 48),
    (-3.0, 3.3, 87, 21), (0.1, 0.7, 7, 1), (-5.0, 5.0, 21, 0)])
def test_axis_is_no_farther_from_exact_than_linspace(a, b, n, worst):
    # the farthest point of the axis is at most worst ulps from the exact
    # grid point, never farther than linspace's farthest (133, 37, 144, 619,
    # 1 and 0 ulps on these ranges); on the default axis and (-5, 5, 21)
    # every point is exact
    ulps = _ulps_from_exact(evaluate.axis_points(a, b, n), a, b, n)
    assert ulps.max() == worst
    assert ulps.max() <= _ulps_from_exact(np.linspace(a, b, n), a, b, n).max()


def unit_weights(grid):
    """The q and p axes' trapezoid weights in units of their steps."""
    return _unit_trapezoid(grid.n_q), _unit_trapezoid(grid.n_p)


def test_normalization_residual(goldstone_l5):
    field = eval_field(goldstone_l5, FD, 0.6, SMALL_GRID)
    assert abs(field.grid.integral(field.values, np.arange(field.grid.n_q)) - 1.0) <= 1e-9


def test_classical_field_positive(goldstone_l5):
    grid = GridSpec(-3.0, 3.0, 301, -3.0, 3.0, 301)
    field = eval_field(goldstone_l5, FD, 0.0, grid)
    assert field.values.min() > 0


def test_quantum_field_develops_negativity(goldstone_l5):
    field = eval_field(goldstone_l5, FD, 0.6, SMALL_GRID)
    assert field.values.min() < 0


def test_norm_constant_grid_converged(goldstone_l2):
    coarse = eval_field(goldstone_l2, FD, 0.4, GridSpec(-4, 4, 201, -4, 4, 201))
    fine = eval_field(goldstone_l2, FD, 0.4, GridSpec(-4, 4, 401, -4, 4, 401))
    rel = abs(fine.norm_constant - coarse.norm_constant) / coarse.norm_constant
    assert rel < 1e-4


def test_eval_is_polynomial_in_hbar_squared(goldstone_l2):
    # third finite difference in u = hbar^2 of a degree-2 polynomial vanishes
    q, p = 0.7, -0.4
    du = 0.05
    values = [eval_point(goldstone_l2, FD, np.sqrt(u), q, p)
              for u in (0.1 + i * du for i in range(4))]
    third = values[3] - 3 * values[2] + 3 * values[1] - values[0]
    assert abs(third) <= 1e-10 * max(abs(v) for v in values)


def test_series_term_injection_is_additive(goldstone_l2):
    # summing per-order contributions equals evaluating the full series
    from qvlasov.series import WignerSeries

    hbar, q, p = 0.5, 0.9, -1.1
    total = eval_point(goldstone_l2, FD, hbar, q, p)
    acc = 0.0
    for l, term in enumerate(goldstone_l2.terms):
        single = WignerSeries(potential=goldstone_l2.potential, order=0,
                              convention="paper",
                              terms=(term,))
        acc += hbar ** (2 * l) * eval_point(single, FD, 0.0, q, p)
    assert total == pytest.approx(acc, rel=1e-13)


def test_non_normalizable_field_raises(goldstone_l2):
    # a pure odd-in-H seed surrogate makes the integral vanish: fake it by
    # asking for normalization on a field that integrates to ~zero
    class NullSeed:
        def derivative_table(self, H, j_max):
            return [np.zeros_like(np.asarray(H, dtype=float))] * (j_max + 1)

    with pytest.raises(NormalizationError):
        eval_field(goldstone_l2, NullSeed(), 0.3, SMALL_GRID)


def test_negative_hbar_rejected(goldstone_l2):
    for hbar in (-0.1, math.nan, math.inf, np.float64(math.nan)):
        for call in (lambda: eval_point(goldstone_l2, FD, hbar, 0.1, 0.2),
                     lambda: eval_points(goldstone_l2, FD, hbar, [0.1], [0.2]),
                     lambda: eval_field(goldstone_l2, FD, hbar, SMALL_GRID)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                call()


@pytest.mark.parametrize("evaluate", [
    lambda series, hbar: eval_point(series, FD, hbar, 0.1, 0.2),
    lambda series, hbar: eval_points(series, FD, hbar, [0.1, 0.3], [0.2, -0.4]),
    lambda series, hbar: eval_field(series, FD, hbar, SMALL_GRID)],
    ids=["eval_point", "eval_points", "eval_field"])
def test_numpy_hbar_beyond_float_range_raises(goldstone_l2, evaluate):
    # a numpy float's power overflows to inf with a RuntimeWarning where a
    # float's raises, which once gave nan fields
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HbarOverflowError, match="order-1 weight"):
            evaluate(goldstone_l2, np.float64(1e200))


def test_field_csv_format(goldstone_l2, tmp_path):
    grid = GridSpec(-1.0, 1.0, 3, -1.0, 1.0, 3)
    field = eval_field(goldstone_l2, FD, 0.2, grid)
    path = tmp_path / "field.csv"
    write_field_csv(field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "q,p,f"
    assert len(lines) == 1 + 9
    q0, p0, f0 = lines[1].split(",")
    assert float(q0) == -1.0 and float(p0) == -1.0
    assert float(f0) == field.values[0, 0]


def _gathered(orders):
    # every grid point's value of the field, gathered from the distinct rows
    # and columns
    return orders.values[orders.rows][:, orders.cols]


def test_sweep_from_order_grids_is_bit_identical(goldstone_l5):
    # the fill at each hbar, 0 included, holds one field at the distinct
    # rows and columns, with the bits of eval_points and of eval_field
    qq, pp = np.meshgrid(SMALL_GRID.q_axis(), SMALL_GRID.p_axis(), indexing="ij")
    for hbar in (0.0, 0.1, 0.3, 0.6, 0.9):
        orders = order_grids(goldstone_l5, FD, SMALL_GRID, hbar)
        assert orders.hbar == hbar
        assert orders.values.shape == (orders.rows.max() + 1, orders.cols.max() + 1)
        points = eval_points(goldstone_l5, FD, hbar, qq, pp)
        assert np.array_equal(_gathered(orders), points)
        plain = eval_field(goldstone_l5, FD, hbar, SMALL_GRID)
        shared = eval_field(goldstone_l5, FD, hbar, SMALL_GRID, orders=orders)
        assert np.array_equal(plain.values, shared.values)
        assert np.array_equal(plain.values, points / plain.norm_constant)
        assert plain.norm_constant == shared.norm_constant


def test_orders_of_another_grid_are_refused(goldstone_l2):
    # same shape, other bounds: the gathered field would be silently wrong
    orders = order_grids(goldstone_l2, FD, SMALL_GRID, 0.3)
    other = GridSpec(-4.0, 4.0, 61, -4.0, 4.0, 61)
    with pytest.raises(ValueError, match=r"q_min=-3\.0.*q_min=-4\.0"):
        eval_field(goldstone_l2, FD, 0.3, other, orders=orders)
    # and orders of this grid at another hbar
    with pytest.raises(ValueError, match=r"at hbar = 0\.3, not on .* at hbar = 0\.4"):
        eval_field(goldstone_l2, FD, 0.4, SMALL_GRID, orders=orders)


def test_field_is_a_record_of_its_numbers(goldstone_l2):
    field = eval_field(goldstone_l2, FD, 0.3, SMALL_GRID)
    assert [f.name for f in dataclasses.fields(field)] == [
        "grid", "hbar", "row_values", "rows", "cols", "norm_constant",
        "normalized"]
    # the full grid is gathered once, on the first read, and stays read-only
    assert field.values is field.values
    assert not field.values.flags.writeable
    assert np.array_equal(field.values,
                          np.take(field.row_values, field.rows, axis=0))
    # run labels go to the sidecar writer, not to the field
    with pytest.raises(TypeError, match="seed_spec"):
        eval_field(goldstone_l2, FD, 0.3, SMALL_GRID, seed_spec="fd:z=1")


def test_blocked_grid_matches_pointwise(goldstone_l5):
    # more points than one block, in both the grid and the point path
    grid = GridSpec(-3.0, 3.0, 203, -3.0, 3.0, 101)
    assert grid.n_q * grid.n_p > BLOCK_POINTS
    field = eval_field(goldstone_l5, FD, 0.6, grid, normalize=False)
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis(), indexing="ij")
    values = field.values
    assert np.array_equal(eval_points(goldstone_l5, FD, 0.6, qq, pp), values)
    for i, k in ((0, 0), (80, 50), (81, 7), (202, 100)):
        assert eval_point(goldstone_l5, FD, 0.6, qq[i, k], pp[i, k]) == values[i, k]


@pytest.mark.parametrize("p_min, p_max, n_p", [(-3.0, 3.0, 61), (-3.0, 3.0, 60),
                                                (-2.5, 3.7, 133), (-3.0, 3.0, 2)],
                         ids=["odd", "even", "asymmetric", "two"])
def test_grid_fill_at_distinct_p2_matches_points(goldstone_l5, p_min, p_max, n_p):
    # the grid is filled at the distinct p^2 of the p axis and gathered back
    _assert_grid_fill_matches_points(goldstone_l5, GridSpec(-3.0, 3.0, 23, p_min, p_max, n_p))


def _assert_grid_fill_matches_points(series, grid):
    # order_grids' sizes are the largest |F_l| of the read-out at the
    # points, its fields equal eval_points, and so does eval_field with and
    # without them, bit for bit
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis(), indexing="ij")
    hh = 0.5 * pp ** 2 + series.potential.evaluate(qq)
    per_order = term_derivatives(series.terms, FD, qq, hh)[:, 0]
    for hbar in (0.0, 0.6):
        orders = order_grids(series, FD, grid, hbar)
        assert orders.sizes.tolist() == np.abs(per_order).max(axis=(1, 2)).tolist()
        points = eval_points(series, FD, hbar, qq, pp)
        assert np.array_equal(_gathered(orders), points)
    assert np.array_equal(eval_field(series, FD, 0.6, grid, normalize=False).values,
                          points)
    assert np.array_equal(eval_field(series, FD, 0.6, grid, normalize=False,
                                     orders=orders).values, points)


@pytest.fixture(scope="module")
def cubic_l3():
    return build_series(CUBIC, 3, "paper")


@pytest.mark.parametrize("q_min, q_max, n_q", [(-3.0, 3.0, 61), (-3.0, 3.0, 60),
                                                (-2.5, 3.7, 133)],
                         ids=["odd", "even", "asymmetric"])
@pytest.mark.parametrize("case", ["goldstone", "cubic", "even-v-odd-cells"])
def test_grid_fill_at_distinct_rows_matches_points(goldstone_l5, cubic_l3, case,
                                                   q_min, q_max, n_q):
    # the grid is filled at the distinct rows of V(q) and the cells and
    # gathered back; goldstone has duplicate rows and the cubic none, and
    # the cubic's cells on goldstone's V share V(q) bits but not cell bits
    series = {"goldstone": goldstone_l5, "cubic": cubic_l3,
              "even-v-odd-cells": WignerSeries(GOLDSTONE, 3, "paper",
                                               cubic_l3.terms)}[case]
    _assert_grid_fill_matches_points(series, GridSpec(q_min, q_max, n_q, -3.0, 3.0, 31))


@pytest.mark.parametrize("case", ["goldstone", "cubic", "goldstone-asymmetric"])
def test_field_at_held_rows_matches_full_grid(goldstone_l5, cubic_l3, case):
    # a field is held at its grid's distinct rows (201 of 401 for an even
    # potential on the default grid, all of them for the cubic or off a
    # symmetric axis); normalized or not, its values and norm, and over a
    # sweep its Q, bound and diagnostics, equal those of the full grid
    series, grid, held = {
        "goldstone": (goldstone_l5, DEFAULT_GRID, (201, 401)),
        "cubic": (cubic_l3, DEFAULT_GRID, (401, 401)),
        "goldstone-asymmetric": (goldstone_l5, GridSpec(-2.5, 3.7, 101, -3.0, 3.3, 87),
                                 (101, 87))}[case]
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis(), indexing="ij")
    u_q, u_p = unit_weights(grid)
    h_q, h_p = grid.steps()

    def integral(values):
        # the full grid's double trapezoid on the uniform steps: each row
        # summed over p, the row sums over q, then the steps' product
        return float(((values * u_p).sum(axis=1) * u_q).sum()) * (h_q * h_p)

    for hbar in (0.0, 0.3, 0.6):
        orders = order_grids(series, FD, grid, hbar)
        points = eval_points(series, FD, hbar, qq, pp)
        norm = integral(points)
        raw = eval_field(series, FD, hbar, grid, normalize=False, orders=orders)
        field = eval_field(series, FD, hbar, grid, orders=orders)
        assert field.row_values.shape == raw.row_values.shape == held
        assert raw.norm_constant == field.norm_constant == norm
        assert np.array_equal(raw.values, points)
        values = points / norm
        assert np.array_equal(field.values, values)
        q_value = integral(values ** 2) / integral(values) ** 2
        assert q_functional(field)[:2] == (q_value, 2.0 * np.pi * hbar * q_value)
        full = WignerField(grid, hbar, values, np.arange(grid.n_q),
                           np.arange(grid.n_p), norm, True)
        assert q_functional(field) == q_functional(full)
        assert diagnose(field).to_json_dict() == diagnose(full).to_json_dict()


ASYMMETRIC_P = GridSpec(-4.0, 4.0, 81, -2.0, 4.0, 61)   # 49 distinct p^2


@pytest.mark.parametrize("case", ["goldstone", "asymmetric-p", "cubic"])
def test_field_columns_of_one_p2_hold_equal_bits(goldstone_l5, cubic_l3, case):
    # the field carries the fill's column map: grid columns that share the
    # bits of p^2 share a group, and hold the same bits in every held row
    series, grid, distinct = {"goldstone": (goldstone_l5, DEFAULT_GRID, 201),
                              "asymmetric-p": (goldstone_l5, ASYMMETRIC_P, 49),
                              "cubic": (cubic_l3, DEFAULT_GRID, 201)}[case]
    field = eval_field(series, FD, 0.6, grid)
    _, first, group = np.unique(field.cols, return_index=True, return_inverse=True)
    assert first.size == distinct == _distinct_bits(grid.p_axis() ** 2)[0].size
    p2 = (grid.p_axis() ** 2).view(np.uint64)
    assert np.array_equal(p2[first][group], p2)
    bits = field.row_values.view(np.uint64)
    assert np.array_equal(bits[:, first][:, group], bits)


def test_distinct_bits_keeps_cells_and_signed_zeros_apart():
    # rows 0 and 3 agree in every bit; rows 1 and 2 share V's bits with
    # them but differ in the sign of a zero or in one cell coefficient
    v = np.array([1.0, 1.0, 1.0, 1.0, 2.0])
    cell = np.array([0.5, 0.5, 0.25, 0.5, 0.5])
    zeros = np.array([0.0, -0.0, 0.0, 0.0, 0.0])
    first, inverse = _distinct_bits(v, cell, zeros)
    assert first[inverse].tolist() == [0, 1, 2, 0, 4]
    first, inverse = _distinct_bits(np.array([0.0, -0.0, 0.0]))
    assert first[inverse].tolist() == [0, 1, 0]


class CountingSeed(SeedDistribution):
    """fd seed that records the points of each derivative table."""

    def __init__(self):
        super().__init__("fd")
        self.points = []

    def derivative_table(self, H, j_max):
        self.points.append(np.size(H))
        return super().derivative_table(H, j_max)


def test_grid_fill_takes_seed_table_at_distinct_p2_only(goldstone_l2):
    # 201 of the default axis' 401 p^2 are distinct (the axis is bitwise
    # antisymmetric), and so are 201 of its rows for an even potential
    seed = CountingSeed()
    assert order_grids(goldstone_l2, seed, DEFAULT_GRID, 0.6).values.shape == (201, 201)
    assert sum(seed.points) == 201 * 201
    # and so does the fill of the order moments
    seed = CountingSeed()
    order_moments(goldstone_l2, seed, DEFAULT_GRID)
    assert sum(seed.points) == 201 * 201
    # a single-hbar field without orders takes the same one fill
    seed = CountingSeed()
    eval_field(goldstone_l2, seed, 0.6, DEFAULT_GRID)
    assert sum(seed.points) == 201 * 201


def test_grid_fill_takes_every_row_of_odd_potential():
    # over the fill's 11 blocks of 40 rows, sizes take the largest |F_l| of
    # each order on the full grid, and 0 for an order that vanishes
    series = WignerSeries(CUBIC, 2, "paper",
                          build_series(CUBIC, 1, "paper").terms + (SeriesTerm(),))
    seed = CountingSeed()
    orders = order_grids(series, seed, DEFAULT_GRID, 0.5)
    assert orders.values.shape == (401, 201)
    assert sum(seed.points) == 401 * 201
    assert 401 > 10 * (BLOCK_POINTS // 201)
    qq, pp = np.meshgrid(DEFAULT_GRID.q_axis(), DEFAULT_GRID.p_axis(), indexing="ij")
    per_order = term_derivatives(series.terms, SeedDistribution("fd"), qq,
                                 0.5 * pp ** 2 + CUBIC.evaluate(qq))[:, 0]
    assert orders.sizes.tolist() == np.abs(per_order).max(axis=(1, 2)).tolist()
    assert orders.sizes[2] == 0.0


def _traced_peak(call):
    """(call(), the peak traced memory while it ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_fill_memory_does_not_grow_with_the_hbar_count(goldstone_l5):
    # peak traced memory of a field's fill is its one output grid plus a
    # fixed multiple of one block's seed table: 2.57 tables here (141 x 141
    # distinct points in three blocks of 58 rows, j_max 15), against 4.4
    # for a fill whose pole sums held a complex power per pole.  A sweep's
    # fill holds no grid: its moments buffer is 0.375 tables, and it peaks
    # at 2.58 tables whether it then takes the integrals of 1 hbar or of
    # 1000, so no array per hbar (a grid is 0.15 tables) comes back.  The
    # bound leaves 8%, so two more complex arrays of the block's points
    # near the poles fail it
    grid = GridSpec(-4.0, 4.0, 281, -4.0, 4.0, 281)
    order_grids(goldstone_l5, FD, grid, 0.3)   # the seed's cached polynomials
    orders, peak = _traced_peak(lambda: order_grids(goldstone_l5, FD, grid, 0.3))
    n_q, n_p = orders.values.shape
    assert (n_q, n_p) == (141, 141) and BLOCK_POINTS // n_p == 58
    table = (goldstone_l5.max_deriv_order() + 1) * 58 * n_p * 8
    assert peak <= orders.values.nbytes + 2.8 * table

    def sweep(count):
        moments = order_moments(goldstone_l5, FD, grid)
        for n in range(1, count + 1):
            moments.integrals(0.6 * n / count)

    peaks = [_traced_peak(lambda: sweep(count))[1] for count in (1, 1000)]
    assert max(peaks) <= 2.8 * table
    assert peaks[1] <= peaks[0] + 1024


class NanDerivatives(SeedDistribution):
    """fd seed whose derivatives are NaN from order 1 on, so that every
    order above F_0 is NaN wherever it reads one."""

    def __init__(self):
        super().__init__("fd")

    def derivative_table(self, H, j_max):
        f0, *higher = super().derivative_table(H, j_max)
        return [f0] + [np.full_like(row, np.nan) for row in higher]


@pytest.mark.parametrize("case", ["goldstone", "cubic", "goldstone-asymmetric"])
def test_order_moments_give_each_fields_integrals(goldstone_l5, cubic_l3, case):
    # gram and mass, on the distinct points with their summed weights, give
    # the double trapezoid integrals of the field and of its square at each
    # hbar, up to roundoff, and Q to roundoff of the field route's; sizes
    # are those of the field's fill, bit for bit
    series, grid = {
        "goldstone": (goldstone_l5, SMALL_GRID),
        "cubic": (cubic_l3, SMALL_GRID),
        "goldstone-asymmetric": (goldstone_l5, GridSpec(-2.5, 3.7, 101, -3.0, 3.3, 87))}[case]
    moments = order_moments(series, FD, grid)
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis(), indexing="ij")
    w_q, w_p = (u * h for u, h in zip(unit_weights(grid), grid.steps()))
    for hbar in (0.0, 0.3, 0.6):
        orders = order_grids(series, FD, grid, hbar)
        assert moments.sizes.tolist() == orders.sizes.tolist()
        points = eval_points(series, FD, hbar, qq, pp)
        total, second = moments.integrals(hbar)
        assert total * moments.unit == pytest.approx(w_q @ points @ w_p, rel=1e-13)
        assert second * moments.unit ** 2 == pytest.approx(w_q @ points ** 2 @ w_p,
                                                           rel=1e-13)
        q_value, bound, verdict = spikiness(total, second, hbar)
        field = eval_field(series, FD, hbar, grid, orders=orders)
        assert (q_value, bound, verdict) == pytest.approx(q_functional(field), rel=1e-13)


def test_sweep_at_hbar_zero_skips_orders_that_are_not_finite(goldstone_l5):
    # as the field at hbar = 0 is F_0 where a higher order is NaN, the
    # quadratic form at hbar = 0 reads gram[0, 0] and mass[0] alone, with
    # no numpy warning; at hbar > 0 the NaN integral is not normalizable
    seed = NanDerivatives()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = order_moments(goldstone_l5, seed, SMALL_GRID)
        assert np.isnan(moments.gram[1:]).all() and np.isnan(moments.mass[1:]).all()
        total, second = moments.integrals(0.0)
        assert (total, second) == (moments.mass[0], moments.gram[0, 0])
        q_value = spikiness(total, second, 0.0)[0]
        assert math.isfinite(q_value)
        field = eval_field(goldstone_l5, seed, 0.0, SMALL_GRID)
        assert q_value == pytest.approx(q_functional(field)[0], rel=1e-14)
        with pytest.raises(NormalizationError, match="nan is not normalizable"):
            moments.integrals(0.3)


@pytest.mark.parametrize("potential, seed, q_max", [
    ("0-q^4", SeedDistribution("mb"), 5.0), ("q^2+360", FD, 2.0)])
def test_order_moments_keep_huge_and_tiny_fields_in_range(potential, seed, q_max):
    # exp(-H) reaches 1e271 where -q^4 is deep, and the fd seed 1e-156 on
    # q^2 + 360, so F_l^2 would overflow or fall to subnormals; the moments
    # are held in units of a power of two near max |F_l|, and the sweep's Q
    # stays that of the field route, as it is at moderate sizes
    series = build_series(parse_potential(potential), 2, "paper")
    grid = GridSpec(-q_max, q_max, 21, -4.0, 4.0, 21)
    moments = order_moments(series, seed, grid)
    assert not 1e-150 < moments.sizes.max() < 1e150
    assert moments.unit == 2.0 ** np.frexp(moments.sizes.max())[1]
    for hbar in (0.0, 0.3):
        q_value = spikiness(*moments.integrals(hbar), hbar)[0]
        field = eval_field(series, seed, hbar, grid)
        assert q_value == pytest.approx(q_functional(field)[0], rel=1e-13)


@pytest.fixture(scope="module")
def goldstone_l10():
    return build_series(GOLDSTONE, 10, "paper")


@pytest.mark.parametrize("n, hbar", [(20, 0.8), (21, 0.47)])
def test_sweep_q_is_no_farther_from_mpmath_than_the_field_route(goldstone_l10, n, hbar):
    # the L = 10 series at hbar = 0.8 is far past its smallest term; on the
    # 21-point grid, hbar = 0.47 is just below the root of the field's
    # integral, so Q = 1.4e6 and the integral cancels to 1/2500 of the
    # integral of |f|.  The reference takes the fill's own F_l and weights
    # hbar^(2l), and forms the field and Q at 50 digits on the grid's one
    # trapezoid rule, on its uniform steps (as the benchmark's check does),
    # so it measures how the two routes sum on that rule: the sweep's Q
    # from the order moments, summed with TwoSum error terms, is at least as
    # close to it as q_functional of the field, summed pairwise
    grid = GridSpec(-4.0, 4.0, n, -4.0, 4.0, n)
    seed = SeedDistribution("fd", z=1.0)
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis(), indexing="ij")
    orders = term_derivatives(goldstone_l10.terms, seed, qq,
                              0.5 * pp ** 2 + GOLDSTONE.evaluate(qq))[:, 0]
    weights = evaluate.hbar_weights(hbar, range(len(orders)))
    w_q, w_p = (u * h for u, h in zip(unit_weights(grid), grid.steps()))
    with mpmath.workdps(50):
        field = [mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(f) for w, f in zip(weights, point))
                 for point in orders.reshape(len(orders), -1).T.tolist()]
        cell = [mpmath.mpf(a) * mpmath.mpf(b) for a in w_q.tolist() for b in w_p.tolist()]
        total = mpmath.fsum(c * f for c, f in zip(cell, field))
        reference = mpmath.fsum(c * f * f for c, f in zip(cell, field)) / total ** 2
        moments = order_moments(goldstone_l10, seed, grid)
        sweep = spikiness(*moments.integrals(hbar), hbar)[0]
        route = q_functional(eval_field(goldstone_l10, seed, hbar, grid))[0]
        assert abs(sweep - reference) <= abs(route - reference)
        assert abs(sweep - reference) <= 2e-13 * reference


@pytest.mark.parametrize("hbar", [0.7, 0.8])
def test_field_route_and_sweep_agree_on_q(goldstone_l10, hbar):
    # a single-hbar diagnose and a sweep take one trapezoid rule, so past
    # the L = 10 series' smallest term (Q = 2e11 and 5e11) their Q differ
    # by the field's own pointwise roundoff alone, 1.9e-11 and 1.1e-11;
    # on np.trapezoid's steps between the rounded axis points the field
    # route was 1.4e-10 and 2.3e-10 off the sweep
    grid = GridSpec(-4.0, 4.0, 201, -4.0, 4.0, 201)
    seed = SeedDistribution("fd", z=1.0)
    route = q_functional(eval_field(goldstone_l10, seed, hbar, grid))[0]
    sweep = spikiness(*order_moments(goldstone_l10, seed, grid).integrals(hbar), hbar)[0]
    assert abs(route - sweep) <= 5e-11 * sweep


def test_order_moments_mass_is_faithfully_rounded(goldstone_l10, monkeypatch):
    # on a symmetric axis each unit-weighted value is exact, and Sum2 within
    # and across blocks (six here, of two rows each) leaves mass[l] within
    # 1 ulp of the exactly rounded sum of those values times the steps,
    # where a plain sum in the blocks is 18 ulps off and one across them 4
    monkeypatch.setattr(evaluate, "BLOCK_POINTS", 42)
    grid = GridSpec(-4.0, 4.0, 21, -4.0, 4.0, 21)
    seed = SeedDistribution("fd", z=1.0)
    moments = order_moments(goldstone_l10, seed, grid)
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis(), indexing="ij")
    orders = term_derivatives(goldstone_l10.terms, seed, qq,
                              0.5 * pp ** 2 + GOLDSTONE.evaluate(qq))[:, 0]
    w_q, w_p = unit_weights(grid)
    h_q, h_p = grid.steps()
    for mass, order in zip(moments.mass, orders):
        exact = math.fsum((np.outer(w_q, w_p) * order / moments.unit).ravel().tolist())
        assert abs(mass - exact * (h_q * h_p)) <= np.spacing(abs(exact * (h_q * h_p)))


def test_combined_seed_of_one_gives_same_value(goldstone_l5):
    combo = CombinedSeed([(1.0, FD)])
    assert eval_point(goldstone_l5, combo, 0.6, 0.3, -0.4) == \
        eval_point(goldstone_l5, FD, 0.6, 0.3, -0.4)


def _mp_polynomial(elem, x):
    # polynomial ring elements only: sum of rational * pi^e * x^n
    total = mpmath.mpf(0)
    for mono, coeff in elem.items():
        assert mono.trig is None
        c = mpmath.fsum(mpmath.mpf(r.numerator) / r.denominator * mpmath.pi ** e
                        for e, r in coeff.items())
        total += c * x ** mono.xpow
    return total


def test_degenerate_fd_field_matches_mpmath(goldstone_l5, rng):
    # fd:chi=10 puts mu near 9.9, so most of the grid sits below it, where the
    # unreflected P_j(g) of orders up to 15 lost up to 8 digits (2.9e-8 of
    # the field's maximum on 48 points of the 401 x 401 grid)
    seed = parse_seed_spec("fd:chi=10")
    hbar = 0.3
    q = rng.uniform(-4.0, 4.0, 24)
    p = rng.uniform(-4.0, 4.0, 24)
    got = eval_points(goldstone_l5, seed, hbar, q, p)
    ref = []
    with mpmath.workdps(50):
        for qi, pi in zip(q, p):
            x, pm = mpmath.mpf(float(qi)), mpmath.mpf(float(pi))
            h = pm * pm / 2 + _mp_polynomial(goldstone_l5.potential, x)
            g = 1 / (1 + mpmath.exp(h - mpmath.log(mpmath.mpf(seed.z))))
            derivs = [mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator
                                      for c in seed.derivative_polynomial(j)][::-1], g)
                      for j in range(goldstone_l5.max_deriv_order() + 1)]
            ref.append(mpmath.fsum(
                mpmath.mpf(hbar) ** (2 * l) * _mp_polynomial(c, x) * h ** m * derivs[j]
                for l, term in enumerate(goldstone_l5.terms)
                for (m, j), c in term.cells()))
        scale = max(abs(r) for r in ref)
        err = max(abs(mpmath.mpf(float(v)) - r) for v, r in zip(got, ref))
    assert float(err / scale) < 1e-12


def _per_row_csv(field, path):
    # the writer as it was before it formatted whole rows at once
    q = field.q_axis()
    p = field.p_axis()
    with open(path, "w") as fh:
        fh.write("q,p,f\n")
        values = field.values
        for i in range(field.grid.n_q):
            qi = repr(float(q[i]))
            row = values[i]
            for k in range(field.grid.n_p):
                fh.write(f"{qi},{float(p[k])!r},{float(row[k])!r}\n")


def _nan(payload):
    return np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(np.float64)[0]


def test_csv_bytes_match_per_row_writer(goldstone_l5, tmp_path):
    # one row holds signed zeros, non-finite values and repeats, whose text
    # must follow their bits, not their float value
    field = eval_field(goldstone_l5, FD, 0.6, GridSpec(-4.0, 4.0, 41, -3.5, 2.5, 401))
    with pytest.raises(ValueError):    # the gathered grid is read-only
        field.values[0, 0] = 0.0
    values = field.values.copy()
    values[0, :11] = [-0.0, 1e-300, 1.0 / 3.0, 0.0, -0.0, np.nan, np.inf,
                      -np.inf, 1.0 / 3.0, 0.0, -np.nan]
    values[20, :3] = [0.0, -0.0, 0.0]
    # grid rows that map to one held row share its text: the first row's at
    # 17, 29 and the last row, so its text is held past its second use, and
    # row 5's at 33; rows 9 and 26 are held apart from row 3 and from each
    # other, equal but for one 0.0 against -0.0, as are rows 12 and 14 but
    # for a NaN payload
    rows = np.arange(41)
    rows[[17, 29, 40]] = 0
    rows[33] = 5
    values[[9, 26]] = values[3]
    values[9, 7], values[26, 7] = 0.0, -0.0
    values[[12, 14]] = values[6]
    values[12, 200], values[14, 200] = _nan(1), _nan(2)
    held, rows = np.unique(rows, return_inverse=True)
    field = WignerField(field.grid, field.hbar, values[held], rows,
                        np.arange(field.grid.n_p), field.norm_constant,
                        field.normalized)
    assert field.row_values.shape == (37, 401)
    _assert_csv_matches_per_row_writer(field, tmp_path)


def test_default_grid_csv_bytes_match_per_row_writer(goldstone_l2, tmp_path):
    # mirrored rows of the default grid are often equal, and far apart
    _assert_csv_matches_per_row_writer(eval_field(goldstone_l2, FD, 0.3, DEFAULT_GRID),
                                       tmp_path)


@pytest.mark.parametrize("case", ["asymmetric-p", "unnormalized-cubic"])
def test_csv_bytes_at_a_partial_column_map(goldstone_l5, cubic_l3, tmp_path, case):
    # only some of the p^2 pair up, 12 pairs among 61 columns, and not as
    # mirror images about the middle column
    if case == "asymmetric-p":
        field = eval_field(goldstone_l5, FD, 0.6, ASYMMETRIC_P)
    else:
        field = eval_field(cubic_l3, parse_seed_spec("be:z=0.5"), 0.6,
                           GridSpec(-3.0, 3.0, 200, -2.0, 4.0, 61), normalize=False)
    assert np.unique(field.cols).size == 49
    _assert_csv_matches_per_row_writer(field, tmp_path)
    # so does the same field built column by column
    field = WignerField(field.grid, field.hbar, field.row_values, field.rows,
                        np.arange(field.grid.n_p), field.norm_constant,
                        field.normalized)
    _assert_csv_matches_per_row_writer(field, tmp_path)


def test_csv_writer_memory_stays_at_its_held_rows(goldstone_l2, tmp_path):
    # the writer holds each held row's text, one string, until the last grid
    # row that maps to it: up to 400 of the 401 held rows of (-4, 4, 801)^2,
    # a 9.2 MB traced peak.  A writer that held lists of line strings
    # (27.8 MB), or joined the whole file (94 MB), fails the bound
    field = eval_field(goldstone_l2, FD, 0.3, GridSpec(-4.0, 4.0, 801, -4.0, 4.0, 801))
    assert field.row_values.shape == (401, 801)
    _, peak = _traced_peak(lambda: write_field_csv(field, tmp_path / "field.csv"))
    assert peak <= 12e6


def _assert_csv_matches_per_row_writer(field, tmp_path):
    write_field_csv(field, tmp_path / "new.csv")
    _per_row_csv(field, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("spec, order", [("goldstone", 4), ("modulated:a=1/2", 2)])
@pytest.mark.parametrize("seed", [SeedDistribution("mb"), FD], ids=["mb", "fd"])
def test_term_derivatives_match_exact_dh_chain(spec, order, seed, rng):
    # the Leibniz read-out of d^r f_l/dH^r equals the plain read-out of the
    # exact d/dH chain of f_l, for every order and r <= 7
    series = build_series(resolve_potential(spec), order, "paper")
    xs = rng.uniform(-2.0, 2.0, 24)
    hs = rng.uniform(-1.0, 3.0, 24)
    derivs = term_derivatives(series.terms, seed, xs, hs, 7)
    assert derivs.shape == (order + 1, 8, 24)
    for l, term in enumerate(series.terms):
        chain = [term]
        while len(chain) < 8:
            chain.append(chain[-1].d_dh())
        reference = term_derivatives(chain, seed, xs, hs)[:, 0]
        scale = np.abs(reference).max()
        assert np.abs(derivs[l] - reference).max() <= 1e-12 * scale, l


# Bits of verify's read-out (r_max = 2, terms and their x-derivatives),
# recorded before the fill's orders buffer was reused across blocks.
DERIVATIVE_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "readout_digests.json").read_text())["term_derivatives"]


def term_derivative_digest(spec: str, order: int, seed_spec: str) -> str:
    series = build_series(resolve_potential(spec), order, "paper")
    terms = list(series.terms) + [t.d_dx() for t in series.terms]
    xs, hs = np.linspace(-2.0, 2.0, 49), np.linspace(-6.0, 6.0, 49)
    derivs = term_derivatives(terms, parse_seed_spec(seed_spec), xs, hs, 2)
    assert derivs.shape == (len(terms), 3, 49)
    return hashlib.sha256(derivs.tobytes()).hexdigest()


@pytest.mark.parametrize("spec, order, seed_spec", [
    ("goldstone", 4, "mb"), ("goldstone", 4, "fd:z=1"),
    ("modulated:a=1/2", 2, "fd:z=40")])
def test_term_derivative_bits_are_pinned(spec, order, seed_spec):
    key = f"{spec} {order} {seed_spec}"
    assert term_derivative_digest(spec, order, seed_spec) == DERIVATIVE_DIGESTS[key]


def test_term_derivative_bits_at_verify_depth_are_pinned():
    # verify-modulated's read-out: the terms and their x-derivatives to
    # r_max = 13 (--j-max 6) at verify's 48 sample points, recorded before
    # the Leibniz orders were added in one broadcast
    series = build_series(resolve_potential("modulated:a=3/7"), 3, "paper")
    terms = list(series.terms) + [t.d_dx() for t in series.terms]
    xs, hs = _sample_points(48)
    derivs = term_derivatives(terms, parse_seed_spec("fd:z=1"), xs, hs, 13)
    assert derivs.shape == (len(terms), 14, 48)
    assert hashlib.sha256(derivs.tobytes()).hexdigest() == \
        DERIVATIVE_DIGESTS["modulated:a=3/7 3 fd:z=1 r_max=13"]


class QuadraticSeed:
    # f0 = H^2, whose constant and vanishing derivatives are scalar rows when
    # full is False, and rows of H's shape when it is True
    def __init__(self, full: bool):
        self.full = full

    def derivative_table(self, H, j_max):
        H = np.asarray(H, dtype=float)
        rows = [H * H, 2.0 * H, 2.0] + [0.0] * (j_max - 2)
        if self.full:
            rows = [np.broadcast_to(row, H.shape).copy() for row in rows]
        return rows[:j_max + 1]


@pytest.mark.parametrize("r_max", [0, 1, 7])
def test_term_derivatives_take_scalar_seed_rows(r_max, rng):
    # a seed may give a derivative that is constant in H as one scalar; the
    # read-out broadcasts it as it does a row of H's shape, bit for bit
    series = build_series(resolve_potential("goldstone"), 3, "paper")
    terms = list(series.terms) + [t.d_dx() for t in series.terms]
    xs = rng.uniform(-2.0, 2.0, 24)
    hs = rng.uniform(-1.0, 3.0, 24)
    scalar = term_derivatives(terms, QuadraticSeed(False), xs, hs, r_max)
    full = term_derivatives(terms, QuadraticSeed(True), xs, hs, r_max)
    assert scalar.shape == (len(terms), r_max + 1, 24)
    assert np.isfinite(full).all() and np.abs(full).max() > 0
    assert np.array_equal(scalar, full)


def test_modulated_potential_field(rng):
    series = build_series(resolve_potential("modulated:a=1/2"), 2, "paper")
    field = eval_field(series, FD, 0.3, GridSpec(-3, 3, 121, -3, 3, 121))
    values = field.values
    assert np.isfinite(values).all()
    assert values.min() > -1.0
    q, p = field.q_axis(), field.p_axis()
    for _ in range(20):
        i, k = int(rng.integers(0, 121)), int(rng.integers(0, 121))
        expect = eval_point(series, FD, 0.3, float(q[i]), float(p[k]))
        assert values[i, k] * field.norm_constant == pytest.approx(
            expect, rel=1e-12, abs=1e-300)


def _reference_value(elem, x):
    """elem at x as each element was read out on its own: per (trig, k)
    group, Horner's rule from 0.0, times sin(k x) or cos(k x), the groups
    added from 0.0 in order; zeros for the zero element."""
    total = 0.0
    for trig, k, coeffs in elem._float_groups():
        val = 0.0
        for c in coeffs:
            val = val * x + c
        if trig == "sin":
            val = val * np.sin(k * x)
        elif trig == "cos":
            val = val * np.cos(k * x)
        total = total + val
    return np.broadcast_to(total, np.shape(x))


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


@pytest.fixture(scope="module")
def readout_elems():
    """Every preset's potential and cells at L=4, with their x-derivatives,
    a potential whose cells hold several pi powers per (trig, k), the zero
    element and sin(q), which is -0.0 at -0.0 until the sum adds it to 0.0."""
    presets = [*PRESETS, "modulated", "q^2/2*(1 + pi/3*cos(q)) + sin(q)/5"]
    elems = [RingElem(), RingElem.trig("sin", 1)]
    for spec in presets:
        series = build_series(resolve_potential(spec), 4)
        elems += [series.potential, *(c for term in series.terms for _, c in term.cells())]
    return elems + [e.ddx() for e in elems]


def test_float_groups_match_monomial_floats(readout_elems):
    """Each float coefficient has the bits of _terms_float over the reduced
    terms of its _monomials row, 0.0 for a missing x power; (trig, k) with
    one group and with several pi powers over groups both occur."""
    group_counts = set()
    for elem in readout_elems:
        rows: dict = {}
        for t, k, n, terms in elem._monomials():
            rows.setdefault((t, k), {})[n] = _terms_float(terms)
        waves: dict = {}
        for t, k, _ in elem._groups:
            waves[t, k] = waves.get((t, k), 0) + 1
        group_counts.update(waves.values())
        floats = elem._float_groups()
        assert len(floats) == len(rows)
        for (t, k), (trig, k_float, coeffs) in zip(rows, floats):
            assert trig == t
            assert k_float == (None if k is None else _terms_float(k))
            expect = [rows[t, k].get(n, 0.0) for n in range(len(coeffs))][::-1]
            assert _bits(coeffs).tolist() == _bits(expect).tolist()
    assert 1 in group_counts and max(group_counts) > 1


READOUT_POINTS = {
    "q-axis": DEFAULT_GRID.q_axis(),
    "verify-samples": _sample_points(48)[0],
    "meshgrid": np.meshgrid(np.linspace(-3.0, 3.0, 13), np.linspace(-1.0, 2.0, 7))[1],
    "scalar": np.float64(-0.7),
    "signed-zeros": np.array([0.0, -0.0, 1.25, -1.25, -0.0]),
}


@pytest.mark.parametrize("points", READOUT_POINTS)
def test_cell_values_match_per_element_readout(readout_elems, points):
    x = READOUT_POINTS[points]
    values = cell_values(readout_elems, x)
    assert values.shape == (len(readout_elems),) + np.shape(x)
    for elem, row in zip(readout_elems, values):
        assert np.array_equal(_bits(row), _bits(_reference_value(elem, x)))


def test_cell_values_in_chunks_match_one_pass(readout_elems, monkeypatch):
    x = READOUT_POINTS["signed-zeros"]
    whole = cell_values(readout_elems, x)
    # a few groups per chunk, and elements with more groups than the budget
    monkeypatch.setattr(evaluate, "READOUT_VALUES", 3 * x.size)
    assert np.array_equal(_bits(cell_values(readout_elems, x)), _bits(whole))
    assert np.array_equal(_bits(cell_values(readout_elems[::-1], x)), _bits(whole[::-1]))


def test_cell_values_of_zero_element_and_no_elements():
    x = np.array([-0.0, 2.0])
    assert np.array_equal(_bits(cell_values([RingElem()], x)), np.zeros((1, 2), np.uint64))
    assert cell_values([], x).shape == (0, 2)
    assert RingElem().evaluate(-0.0) == 0.0
