"""Marginals, spikiness bound and negativity scanning."""

import numpy as np
import pytest

from qvlasov import evaluate
from qvlasov.diagnostics import (DegenerateFieldError, diagnose, marginals,
                                 negativity_report, past_smallest_term,
                                 q_functional)
from qvlasov.evaluate import GridSpec, WignerField, _unit_trapezoid, eval_field
from qvlasov.parser import parse_potential
from qvlasov.seeds import SeedDistribution
from qvlasov.series import build_series

GOLDSTONE = parse_potential("-q^2/2 + q^4/4")
FD = SeedDistribution("fd", z=1.0)
GRID = GridSpec(-4.0, 4.0, 201, -4.0, 4.0, 201)


@pytest.fixture(scope="module")
def series_l5():
    return build_series(GOLDSTONE, 5, "paper")


def field_at(series, hbar, grid=GRID, normalize=True):
    return eval_field(series, FD, hbar, grid, normalize=normalize)


def integral(axis, values):
    return float(np.trapezoid(values, axis))


def test_marginals_integrate_to_one(series_l5):
    for hbar in (0.0, 0.4, 0.7):
        field = field_at(series_l5, hbar)
        p_q, p_p = marginals(field)
        assert integral(field.q_axis(), p_q) == pytest.approx(1.0, abs=1e-6)
        assert integral(field.p_axis(), p_p) == pytest.approx(1.0, abs=1e-6)


def test_classical_marginal_positive_and_symmetric(series_l5):
    field = field_at(series_l5, 0.0)
    p_q, _ = marginals(field)
    assert p_q.min() >= 0
    assert np.abs(p_q - p_q[::-1]).max() <= 1e-11 * p_q.max()


def test_position_marginal_goes_negative_at_large_hbar(series_l5):
    field = field_at(series_l5, 0.7)
    p_q, p_p = marginals(field)
    assert p_q.min() < 0
    assert p_p.min() >= -1e-3 * p_p.max()


@pytest.mark.parametrize("n_q, n_p, block_points", [
    (401, 41, evaluate.BLOCK_POINTS),   # blocks of 199 rows, then one of 3
    (201, 401, evaluate.BLOCK_POINTS),  # 20 rows, 201 = 10 * 20 + 1
    (21, 11, 42),                       # three rows at a time
    (21, 7, 1),                         # one row, whatever the budget
    (41, 3, evaluate.BLOCK_POINTS),     # one block
])
def test_momentum_marginal_blocks_keep_full_grid_bits(rng, monkeypatch, n_q, n_p,
                                                      block_points):
    # the p sums go a block of rows at a time and sum each row alone, so
    # P_q and the total have the bits of unblocked sums; P_p sums each
    # column down the grid rows in grid order, in no blocks at all
    grid = GridSpec(-4.0, 4.0, n_q, -3.0, 3.0, n_p)
    values = rng.random((n_q, n_p)) - 0.25
    monkeypatch.setattr(evaluate, "BLOCK_POINTS", block_points)
    u_q, u_p = _unit_trapezoid(n_q), _unit_trapezoid(n_p)
    h_q, h_p = grid.steps()
    rows = (values * u_p).sum(axis=1)
    assert grid.p_sums(values).view(np.uint64).tolist() == \
        rows.view(np.uint64).tolist()
    columns = u_q[0] * values[0]
    for weight, row in zip(u_q[1:], values[1:]):
        columns = columns + weight * row
    total = float((rows * u_q).sum()) * (h_q * h_p)
    field = WignerField(grid, 0.3, values, np.arange(n_q), 1.0, False)
    p_q, p_p = marginals(field)
    assert p_q.view(np.uint64).tolist() == (rows * h_p / total).view(np.uint64).tolist()
    assert p_p.view(np.uint64).tolist() == \
        (columns * h_q / total).view(np.uint64).tolist()


def test_marginals_work_without_normalization(series_l5):
    raw = field_at(series_l5, 0.4, normalize=False)
    cooked = field_at(series_l5, 0.4)
    p_q_raw, _ = marginals(raw)
    p_q, _ = marginals(cooked)
    assert np.abs(p_q_raw - p_q).max() <= 1e-12 * p_q.max()


def test_q_functional_scale_invariant(series_l5):
    field = field_at(series_l5, 0.4, normalize=False)
    q1, b1, v1 = q_functional(field)
    scaled = WignerField(grid=field.grid, hbar=field.hbar,
                         row_values=7.0 * field.values,
                         rows=np.arange(field.grid.n_q), norm_constant=1.0,
                         normalized=False)
    q2, b2, v2 = q_functional(scaled)
    assert q2 == pytest.approx(q1, rel=1e-12)
    assert v1 == v2


def test_q_verdict_true_at_small_hbar(series_l5):
    _, bound, verdict = q_functional(field_at(series_l5, 0.3))
    assert verdict is True and bound < 1


def test_q_verdict_not_applicable_at_zero_hbar(series_l5):
    _, _, verdict = q_functional(field_at(series_l5, 0.0))
    assert verdict is None


def test_q_sweep_monotone_and_crossing(series_l5):
    bounds = []
    for hbar in np.arange(0.1, 1.0, 0.1):
        _, bound, _ = q_functional(field_at(series_l5, float(hbar)))
        bounds.append(bound)
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[2] < 1.0 < bounds[-1]


def test_q_stable_under_grid_refinement(series_l5):
    q1, _, _ = q_functional(field_at(series_l5, 0.6,
                                     GridSpec(-4, 4, 201, -4, 4, 201)))
    q2, _, _ = q_functional(field_at(series_l5, 0.6,
                                     GridSpec(-4, 4, 401, -4, 4, 401)))
    assert abs(q2 - q1) / q1 < 1e-3


def test_negativity_report_positive_field(series_l5):
    field = field_at(series_l5, 0.0)
    report = negativity_report(field.values, (field.q_axis(), field.p_axis()))
    assert report.fraction_below == 0.0


def test_negativity_report_quantum_field(series_l5):
    field = field_at(series_l5, 0.6)
    report = negativity_report(field.values, (field.q_axis(), field.p_axis()))
    assert report.fraction_below > 0
    assert report.min_value < 0
    q_loc, p_loc = report.location
    # minima come in p-symmetric pairs
    values = field.values
    i = int(np.abs(field.q_axis() - q_loc).argmin())
    k = int(np.abs(field.p_axis() - p_loc).argmin())
    mirrored = values[i, field.grid.n_p - 1 - k]
    assert mirrored == pytest.approx(values[i, k], rel=1e-9)


def test_negativity_report_on_marginal(series_l5):
    field = field_at(series_l5, 0.7)
    p_q, _ = marginals(field)
    report = negativity_report(p_q, (field.q_axis(),))
    assert report.min_value < 0
    assert len(report.location) == 1


def test_diagnose_bundle(series_l5):
    report = diagnose(field_at(series_l5, 0.6))
    assert abs(report.norm_residual) <= 1e-9
    assert report.min_f < 0
    assert report.uncertainty_ok is True
    doc = report.to_json_dict()
    assert set(doc) >= {"Q", "two_pi_hbar_Q", "uncertainty_ok", "min_f",
                        "min_Pq", "min_Pp", "P_q", "P_p"}


def test_degenerate_field_rejected():
    grid = GridSpec(-1, 1, 5, -1, 1, 5)
    field = WignerField(grid=grid, hbar=0.2, row_values=np.zeros((5, 5)),
                        rows=np.arange(5), norm_constant=1.0,
                        normalized=False)
    with pytest.raises(DegenerateFieldError):
        marginals(field)
    with pytest.raises(DegenerateFieldError):
        q_functional(field)


def test_past_smallest_term():
    # terms hbar^(2l) * sizes[l] = 1, 0.25, 0.5 at hbar = 1/2: the last is
    # twice the smallest, of order 1
    assert past_smallest_term([1.0, 1.0, 8.0], 0.5) == (1, 2.0)
    assert past_smallest_term([1.0, 1.0, 8.0], 0.25) is None
    assert past_smallest_term([1.0, 1.0, 8.0], 0.0) is None
    # an order that vanishes on the grid is not the smallest term
    assert past_smallest_term([1.0, 0.0, 0.5], 0.5) is None
