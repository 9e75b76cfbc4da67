"""Residual oracles: exact order extraction and numeric scaling fits."""

import math

import numpy as np
import pytest

from qvlasov.parser import parse_potential
from qvlasov.potentials import resolve_potential
from qvlasov.seeds import SeedDistribution
from qvlasov.series import SeriesTerm, WignerSeries, build_series, closed_form_f1
from qvlasov.verify import (_PCG_INC, _PCG_STATE, MAX_SAMPLES,
                            SymbolicResidualError, _sample_points,
                            residual_numeric, residual_powers,
                            residual_samples, residual_symbolic)

GOLDSTONE = parse_potential("-q^2/2 + q^4/4")
QUARTIC = parse_potential("q^4/4")
FD = SeedDistribution("fd", z=1.0)
HBARS = [0.05, 0.1, 0.2, 0.4]


def test_quadratic_series_has_zero_residual():
    v = parse_potential("1 - q + 2*q^2")
    report = residual_symbolic(build_series(v, 3, "uniform"))
    assert report.observed_order is None
    assert report.passed


@pytest.mark.parametrize("potential", [GOLDSTONE, QUARTIC])
@pytest.mark.parametrize("convention", ["paper", "uniform"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_symbolic_residual_order(potential, convention, order):
    report = residual_symbolic(build_series(potential, order, convention))
    assert report.observed_order == 2 * order + 2
    assert report.claimed_order == 2 * order + 2
    assert report.passed


def test_symbolic_rejects_trig_potential():
    series = build_series(resolve_potential("modulated:a=1/2"), 1, "paper")
    with pytest.raises(SymbolicResidualError):
        residual_symbolic(series)


def test_recursion_is_self_verifying():
    # the x-derivative of each built term reproduces the source sum exactly
    from qvlasov.series import recursion_rhs

    for convention in ("paper", "uniform"):
        series = build_series(GOLDSTONE, 4, convention)
        for l in range(2, 5):
            assert series.terms[l].d_dx() == recursion_rhs(
                GOLDSTONE, list(series.terms), l)
        if convention == "uniform":
            assert series.terms[1].d_dx() == recursion_rhs(
                GOLDSTONE, list(series.terms), 1)


def test_tampered_series_detected():
    series = build_series(GOLDSTONE, 2, "paper")
    broken_terms = list(series.terms)
    cells = dict(broken_terms[1].cells())
    cells[(0, 2)] = cells[(0, 2)].scale(2)  # corrupt one coefficient
    broken_terms[1] = SeriesTerm(cells)
    broken = WignerSeries(potential=series.potential, order=series.order,
                          convention=series.convention,
                          terms=tuple(broken_terms))
    report = residual_symbolic(broken)
    assert not report.passed
    assert report.observed_order < report.claimed_order


def test_numeric_slope_is_exact_for_pure_monomial_residual():
    # quartic potentials keep a single source derivative, so the truncated
    # residual is a pure power and the fitted slope is exact
    report = residual_numeric(build_series(GOLDSTONE, 2, "paper"), FD, HBARS)
    assert report.slope == pytest.approx(6.0, abs=1e-9)
    report = residual_numeric(build_series(GOLDSTONE, 3, "paper"), FD, HBARS)
    assert report.slope == pytest.approx(8.0, abs=1e-9)
    assert report.passed


def test_numeric_slope_classical_truncation():
    report = residual_numeric(build_series(GOLDSTONE, 0, "paper"), FD, HBARS)
    assert report.slope == pytest.approx(2.0, abs=0.3)


def test_numeric_slope_modulated_meets_claimed_order():
    series = build_series(resolve_potential("modulated:a=1/2"), 2, "paper")
    report = residual_numeric(series, FD, [0.05, 0.0707, 0.1, 0.141, 0.2],
                              j_max=6)
    # trig tail blends in higher powers, so the window slope may exceed the
    # claimed order but never undershoots it by more than the fit tolerance
    assert report.slope >= report.claimed_order - 0.5
    assert report.passed


def test_numeric_convention_independent_verdict():
    for convention in ("paper", "uniform"):
        series = build_series(resolve_potential("modulated:a=1/2"), 1, convention)
        report = residual_numeric(series, FD, HBARS, j_max=4)
        assert report.claimed_order == 4
        assert report.passed, convention


@pytest.mark.parametrize("potential, order", [
    (GOLDSTONE, 3), (resolve_potential("modulated:a=1/2"), 1)],
    ids=["goldstone-L3", "modulated-L1"])
@pytest.mark.parametrize("convention", ["paper", "uniform"])
def test_float_residual_matches_exact_powers(potential, order, convention):
    # the float residual samples each power as the exact residual would; the
    # powers that cancel exactly cancel to roundoff of the d/dx f_s they hold
    series = build_series(potential, order, convention)
    j_cap = order + 3
    xs, hs = _sample_points(48)
    samples, census = residual_samples(series, FD, xs, hs, j_cap)
    exact = residual_powers(series, j_cap)
    assert set(exact) <= set(samples)
    assert set(census) == {2 * s for s in samples}
    for s, values in samples.items():
        if s in exact:
            reference = exact[s].evaluate(FD, xs, hs)
            scale = abs(reference).max()
        else:
            reference = 0.0
            scale = abs(series.terms[s].d_dx().evaluate(FD, xs, hs)).max()
        assert abs(values - reference).max() <= 1e-12 * scale, s


def test_numeric_residual_reads_one_derivative_table(monkeypatch):
    # every float read-out of the residual shares one seed-derivative table
    calls = {"derivative_table": 0, "f0_deriv": 0}
    for name in calls:
        original = getattr(SeedDistribution, name)

        def counted(self, *args, name=name, original=original):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(SeedDistribution, name, counted)
    series = build_series(resolve_potential("modulated:a=1/7"), 3, "paper")
    residual_numeric(series, FD, HBARS, j_max=6)
    assert calls == {"derivative_table": 1, "f0_deriv": 0}


def test_numeric_census_counts_sampled_cells():
    # goldstone: V^(3) = 6q keeps j = 1 and V^(5) = 0 drops j = 2.  f_0 has
    # one cell (0,0); the closed-form f_1 has three, (0,2), (1,3) and (0,3),
    # all x-dependent, so d/dx f_1 keeps three.  Power 2 samples d/dx f_1 (3)
    # and f_0 through j = 1 (1); power 4 samples f_1 through j = 1 (3);
    # power 6 would take f_1 through j = 2 only, so it is absent.
    series = build_series(GOLDSTONE, 1, "paper")
    xs, hs = _sample_points(8)
    assert residual_samples(series, FD, xs, hs, 2)[1] == {2: 4, 4: 3}


@pytest.mark.parametrize("samples", [0, 1, 48, MAX_SAMPLES])
def test_sample_points_match_numpy_stream(samples):
    # the pure-Python stream is numpy's default_rng stream, bit for bit,
    # across the two draws with different bounds
    from numpy.random import default_rng

    rng = default_rng(20230817)
    xs, hs = _sample_points(samples)
    assert xs.tobytes() == rng.uniform(-2.0, 2.0, samples).tobytes()
    assert hs.tobytes() == rng.uniform(-1.0, 3.0, samples).tobytes()
    assert all(v.dtype == np.float64 and v.shape == (samples,) for v in (xs, hs))


def test_sample_points_are_numpy_stream(monkeypatch):
    # residual_numeric, at its default sample count, samples the points of
    # numpy's default_rng(20230817) stream
    import qvlasov.verify as verify
    from numpy.random import default_rng

    drawn = []

    def recording(series, seed, xs, hs, j_max):
        drawn.append((xs, hs))
        return residual_samples(series, seed, xs, hs, j_max)

    monkeypatch.setattr(verify, "residual_samples", recording)
    residual_numeric(build_series(GOLDSTONE, 1, "paper"), FD, HBARS)
    rng = default_rng(20230817)
    [(xs, hs)] = drawn
    assert xs.tobytes() == rng.uniform(-2.0, 2.0, 48).tobytes()
    assert hs.tobytes() == rng.uniform(-1.0, 3.0, 48).tobytes()


def test_sample_stream_constants_are_numpy_seeding():
    from numpy.random import PCG64

    state = PCG64(20230817).state["state"]
    assert (_PCG_STATE, _PCG_INC) == (state["state"], state["inc"])


def test_numeric_detects_sign_flip_in_highest_term():
    # a 1e-3 scaling of this cell is not caught in this hbar window; a sign
    # flip leaves an hbar^6 residual (fitted slope about 6.84 < 7.5)
    series = build_series(GOLDSTONE, 3, "paper")
    terms = list(series.terms)
    cells = dict(terms[3].cells())
    cells[(0, 6)] = -cells[(0, 6)]
    terms[3] = SeriesTerm(cells)
    broken = WignerSeries(potential=series.potential, order=series.order,
                          convention=series.convention,
                          terms=tuple(terms))
    report = residual_numeric(broken, FD, HBARS)
    assert report.slope == pytest.approx(6.84, abs=0.05)
    assert report.passed is False


def test_residual_powers_start_above_truncation():
    series = build_series(GOLDSTONE, 3, "paper")
    surviving = residual_powers(series, 1)
    assert min(surviving) == series.order + 1


def test_numeric_zero_residual_is_reported_not_fatal():
    # an exact solution has numerically zero residuals; the fit is
    # ill-conditioned, which must be flagged without failing the check
    v = parse_potential("1 - q + 2*q^2")
    report = residual_numeric(build_series(v, 2, "uniform"), FD, HBARS)
    assert report.roundoff_floor is True
    assert report.slope is None
    assert report.passed


def test_numeric_validates_arguments():
    series = build_series(GOLDSTONE, 1, "paper")
    with pytest.raises(ValueError):
        residual_numeric(series, FD, [0.1, 0.2])      # too few
    with pytest.raises(ValueError):
        residual_numeric(series, FD, [0.1, 0.11, 0.12, 0.13])  # narrow span
    for bad in (-0.1, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite positive"):
            residual_numeric(series, FD, HBARS + [bad])
    with pytest.raises(ValueError):
        residual_numeric(series, FD, HBARS, j_max=1)  # below order + 1


def test_maxwell_cross_check_quadratic_reduces_to_h_only():
    v = parse_potential("1 + 2*q + 3*q^2")
    assert all(c.is_constant() for _, c in closed_form_f1(v).cells())


def test_report_serialization():
    report = residual_symbolic(build_series(GOLDSTONE, 1, "paper"))
    doc = report.to_json_dict()
    assert doc["mode"] == "symbolic"
    assert doc["observed_order"] == 4
    assert doc["passed"] is True
