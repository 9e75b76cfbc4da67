"""The float read-out of high orders against an exact oracle.

With a polynomial potential and the Maxwell-Boltzmann seed, f0^(j)(H) =
(-1)^j e^(-H), so F_l = e^(-H) sum c_{l,m,j}(x) H^m (-1)^j with polynomial
c_{l,m,j} of rational coefficients.  At float points that sum is exact in
Fractions, which needs no (x, H) read-out code: each order's float read-out
(evaluate.order_grids of the series of that order alone, at hbar = 1, and
eval_points) is compared with it where |F_l| is largest on the grid, at the
float H the fill used.  The quartic's read-out
is accurate through l = 23 on this grid and roundoff from l = 24 on
(ROADMAP item 1).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from qvlasov.evaluate import GridSpec, eval_points, order_grids
from qvlasov.potentials import resolve_potential
from qvlasov.seeds import SeedDistribution
from qvlasov.series import SeriesTerm, WignerSeries, build_series

ORDER = 24
MB = SeedDistribution("mb")
GRID = GridSpec(-4.0, 4.0, 101, -4.0, 4.0, 101)


@pytest.fixture(scope="module")
def quartic():
    return build_series(resolve_potential("quartic"), ORDER)


def exact_order(term: SeriesTerm, x: float, h: float) -> float:
    """F_l at (x, H) from its exact sum e^H F_l = sum c_{l,m,j}(x) H^m (-1)^j,
    rounded once, times e^(-H)."""
    x, h = Fraction(x), Fraction(h)
    total = Fraction(0)
    for (m, j), c in term.cells():
        for mono, coeff in c.items():
            assert mono.trig is None
            (e, r), = coeff.items()
            assert e == 0
            total += (-1) ** j * r * x ** mono.xpow * h ** m
    return math.exp(-h) * float(total)


def _argmax_point(series, orders):
    """(F_l, q, p, H) where |F_l| is largest on the grid, from the fill of
    the series of order l alone at hbar = 1, H formed as the fill forms it."""
    held = orders.values
    row, col = np.unravel_index(np.argmax(np.abs(held)), held.shape)
    i = int(np.flatnonzero(orders.rows == row)[0])
    k = int(np.flatnonzero(orders.cols == col)[0])
    v = series.potential.evaluate(GRID.q_axis())
    p2 = GRID.p_axis() ** 2
    return held[row, col], GRID.q_axis()[i], GRID.p_axis()[k], 0.5 * p2[k] + v[i]


@pytest.mark.parametrize("l", [*range(ORDER), pytest.param(ORDER, marks=pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: the read-out of l = 24 is roundoff"))])
def test_order_readout_matches_exact_sum(quartic, l):
    only_l = WignerSeries(quartic.potential, l, quartic.convention,
                          (SeriesTerm(),) * l + (quartic.terms[l],))
    orders = order_grids(only_l, MB, GRID, 1.0)
    value, q, p, h = _argmax_point(only_l, orders)
    assert orders.sizes[l] == abs(value)
    assert eval_points(only_l, MB, 1.0, q, p) == value
    exact = exact_order(quartic.terms[l], q, h)
    assert abs(value - exact) <= 1e-6 * abs(exact)
