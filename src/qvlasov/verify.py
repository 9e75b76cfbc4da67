"""Independent correctness oracles for built expansions.

The stationary equation in position/energy variables provides a residual
functional: the x-derivative of the truncated solution minus the source sum
must vanish through the truncation order, with the first surviving power
telling the achieved order.  For polynomial potentials the source sum is
finite and the residual can be formed exactly, with the squared quantum
scale treated as a formal bookkeeping power.  For trig potentials the sum
is truncated at a configurable depth and, with a concrete seed, the
residual is formed in floats at sample points from the exactly built
terms, fitting the log-log scaling slope.

The source sum here is coded directly from the transformed equation, on
purpose not sharing the series engine's recursion routine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .ring import RingElem
from .series import (SeriesTerm, WignerSeries, potential_derivatives,
                     recursion_weight)


class SymbolicResidualError(ValueError):
    """Symbolic residuals need a terminating source sum (polynomial potential)."""


@dataclass
class ResidualReport:
    mode: str
    claimed_order: int
    observed_order: int | None = None       # symbolic; None means zero residual
    slope: float | None = None              # numeric
    slope_stderr: float | None = None
    hbar_values: list = field(default_factory=list)
    max_residuals: list = field(default_factory=list)
    term_census: dict = field(default_factory=dict)
    roundoff_floor: bool = False
    passed: bool = False

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "claimed_order": self.claimed_order,
            "observed_order": self.observed_order,
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "hbar_values": list(self.hbar_values),
            "max_residuals": list(self.max_residuals),
            "term_census": {str(k): v for k, v in self.term_census.items()},
            "roundoff_floor": self.roundoff_floor,
            "passed": self.passed,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)


def residual_powers(series: WignerSeries, j_cap: int) -> dict[int, SeriesTerm]:
    """Residual terms R_s by formal power, residual = sum_s hbar^(2s) R_s.

    R_s collects d/dx of f_s (when s <= truncation order) minus every source
    contribution with total power s = l + j, for j up to j_cap.
    """
    terms = series.terms
    order = series.order
    v_derivs = potential_derivatives(series.potential, 2 * j_cap + 1)
    residual: dict[int, SeriesTerm] = {}
    for s in range(order + j_cap + 1):
        if s <= order:
            residual[s] = terms[s].d_dx()
        else:
            residual[s] = SeriesTerm.zero()
    for l in range(order + 1):
        dh = [terms[l]]
        for j in range(1, j_cap + 1):
            odd_deriv = v_derivs[2 * j + 1]
            if odd_deriv.is_zero():
                continue
            while len(dh) <= 2 * j + 1:
                dh.append(dh[-1].d_dh())
            source = SeriesTerm.zero()
            for k in range(j + 1):
                piece = dh[2 * j - k + 1].mul_h_minus_v(series.potential, j - k)
                source = source + piece.scale(recursion_weight(j, k))
            source = source.scale_ring(odd_deriv).scale(Fraction(-1, 2) ** j)
            residual[l + j] = residual[l + j] - source
    return {s: r for s, r in residual.items() if not r.is_zero()}


def residual_symbolic(series: WignerSeries) -> ResidualReport:
    """Exact residual order for a polynomial potential.

    Returns the smallest surviving power of the quantum scale; a fully
    vanishing residual reports observed_order None (exact solution).
    """
    if series.potential.has_trig():
        raise SymbolicResidualError("trig potential unsupported in symbolic mode")
    degree = series.potential.x_degree()
    j_cap = max((degree - 1) // 2, 0)
    claimed = 2 * series.order + 2
    surviving = residual_powers(series, j_cap)
    census = {2 * s: r.term_count() for s, r in sorted(surviving.items())}
    if not surviving:
        return ResidualReport(mode="symbolic", claimed_order=claimed,
                              observed_order=None, term_census=census, passed=True)
    observed = 2 * min(surviving)
    return ResidualReport(mode="symbolic", claimed_order=claimed,
                          observed_order=observed, term_census=census,
                          passed=observed >= claimed)


def _sample_points(samples, rng_seed: int = 20230817):
    if isinstance(samples, int):
        rng = np.random.default_rng(rng_seed)
        xs = rng.uniform(-2.0, 2.0, samples)
        hs = rng.uniform(-1.0, 3.0, samples)
        return xs, hs
    xs, hs = zip(*samples)
    return np.asarray(xs, dtype=float), np.asarray(hs, dtype=float)


def _add_cell(cells: dict, mj: tuple[int, int], values) -> None:
    cells[mj] = cells[mj] + values if mj in cells else values


def _float_d_dh(cells: dict) -> dict:
    """Energy derivative of float cells, same index algebra as SeriesTerm.d_dh."""
    out: dict = {}
    for (m, j), c in cells.items():
        if m > 0:
            _add_cell(out, (m - 1, j), m * c)
        _add_cell(out, (m, j + 1), c)
    return out


def residual_samples(series: WignerSeries, seed, xs, hs,
                     j_cap: int) -> tuple[dict[int, np.ndarray], dict[int, int]]:
    """Residual R_s sampled at (xs, hs) per formal power s, and its census.

    The same sum as residual_powers, formed in floats: each cell c_{m,j} of
    the exact terms, V and V^(2j+1) are evaluated once at xs, the energy
    derivatives and (H - V)^k factors act on float cells, and each cell is
    weighted by f0^(j)(hs) at the end.  The census maps 2s to the number of
    (m, j) cells summed at that power.
    """
    xs = np.asarray(xs, dtype=float)
    hs = np.asarray(hs, dtype=float)
    order = series.order
    v_derivs = potential_derivatives(series.potential, 2 * j_cap + 1)
    factors = {j: (-0.5) ** j * v_derivs[2 * j + 1].evaluate(xs)
               for j in range(1, j_cap + 1) if not v_derivs[2 * j + 1].is_zero()}
    neg_v = -series.potential.evaluate(xs)
    neg_v_pow = [1.0]
    for _ in range(j_cap):
        neg_v_pow.append(neg_v_pow[-1] * neg_v)
    sources: dict[int, dict] = {s: {} for s in range(order + j_cap + 1)}
    for l, term in enumerate(series.terms):
        dh = [{mj: c.evaluate(xs) for mj, c in term.cells()}]
        for j, factor in factors.items():
            while len(dh) <= 2 * j + 1:
                dh.append(_float_d_dh(dh[-1]))
            part: dict = {}
            for k in range(j + 1):
                power = j - k
                weight = float(recursion_weight(j, k))
                for (m, jj), c in dh[2 * j - k + 1].items():
                    for i in range(power + 1):
                        _add_cell(part, (m + i, jj), (weight * math.comb(power, i))
                                  * neg_v_pow[power - i] * c)
            for mj, c in part.items():
                _add_cell(sources[l + j], mj, factor * c)
    f0_derivs: dict[int, np.ndarray] = {}
    samples, census = {}, {}
    for s, cells in sources.items():
        d_dx = series.terms[s].d_dx() if s <= order else SeriesTerm.zero()
        count = len(d_dx.cells()) + len(cells)
        if not count:
            continue
        total = np.zeros_like(xs) + d_dx.evaluate(seed, xs, hs)
        for (m, j), c in cells.items():
            if j not in f0_derivs:
                f0_derivs[j] = seed.f0_deriv(j, hs)
            total = total - c * hs**m * f0_derivs[j]
        samples[s] = total
        census[2 * s] = count
    return samples, census


def residual_numeric(series: WignerSeries, seed, hbar_list, samples=48,
                     j_max: int | None = None) -> ResidualReport:
    """Scaling fit of the truncated residual at sample points.

    The series terms, their x-derivatives and the potential's derivatives
    are exact; the source sum is formed in floats at the sample points by
    residual_samples, so no finite differencing enters.  The fitted log-log
    slope should be close to the claimed order 2L + 2.  The term census
    counts the float (m, j) cells summed at each power.
    """
    hbars = [float(h) for h in hbar_list]
    if len(hbars) < 4 or min(hbars) <= 0:
        raise ValueError("need at least 4 positive hbar values")
    if max(hbars) / min(hbars) < 4.0:
        raise ValueError("hbar values should span at least a factor of 4")
    if j_max is None:
        j_max = series.order + 1
    if j_max < series.order + 1:
        raise ValueError("j_max must be at least order + 1")
    claimed = 2 * series.order + 2
    xs, hs = _sample_points(samples)
    sampled, census = residual_samples(series, seed, xs, hs, j_max)
    maxima = []
    for hbar in hbars:
        total = np.zeros_like(xs)
        for s, vals in sorted(sampled.items()):
            total = total + hbar ** (2 * s) * vals
        maxima.append(float(np.abs(total).max()))
    # residuals at the roundoff floor cannot contradict the claimed order;
    # the fit is ill-conditioned there, so it is reported but not fatal
    floor = any(m < 1e-14 * max(maxima + [1e-300]) or m == 0.0 for m in maxima)
    if floor:
        return ResidualReport(mode="numeric", claimed_order=claimed,
                              hbar_values=hbars, max_residuals=maxima,
                              term_census=census, roundoff_floor=True,
                              passed=True)
    log_h = np.log(hbars)
    log_r = np.log(maxima)
    n = len(hbars)
    slope, intercept = np.polyfit(log_h, log_r, 1)
    fitted = slope * log_h + intercept
    ss_res = float(np.sum((log_r - fitted) ** 2))
    denom = float(np.sum((log_h - log_h.mean()) ** 2))
    stderr = math.sqrt(ss_res / max(n - 2, 1) / denom) if denom > 0 else float("inf")
    return ResidualReport(mode="numeric", claimed_order=claimed,
                          slope=float(slope), slope_stderr=stderr,
                          hbar_values=hbars, max_residuals=maxima,
                          term_census=census, roundoff_floor=False,
                          passed=bool(slope >= claimed - 0.5))


def first_correction_direct(potential: RingElem, x, h, flip_sign: bool = False):
    """Exponential-seed first correction, coded from the closed expression.

    For the unit-fugacity exponential seed every derivative is (-1)^j f0, so
    the first correction collapses to
    exp(-H) * [ -(1/2) V'' (1/4 - (H - V)/6) + (1/24) (V')^2 ].
    flip_sign applies the deliberately wrong derivative sign, for testing
    the test.
    """
    v = potential.evaluate(x)
    v1 = potential.ddx().evaluate(x)
    v2 = potential.ddx().ddx().evaluate(x)
    bracket = -0.5 * v2 * (0.25 - (h - v) / 6.0) + v1**2 / 24.0
    if flip_sign:
        bracket = -bracket
    return np.exp(-h) * bracket


def wigner_maxwell_check(potential: RingElem | None = None, n_points: int = 50,
                         rtol: float = 1e-10, flip_sign: bool = False) -> bool:
    """Cross-check the closed-form first correction against direct substitution.

    Substitutes exponential-seed derivatives f0^(j) = (-1)^j exp(-H) into the
    closed form built by the series engine and compares with the independent
    direct expression at random points.
    """
    from .series import closed_form_f1

    if potential is None:
        from .potentials import resolve_potential
        potential = resolve_potential("goldstone")
    f1 = closed_form_f1(potential)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-2.0, 2.0, n_points)
    hs = rng.uniform(-1.0, 3.0, n_points)
    lhs = np.zeros_like(xs)
    sign = -1.0 if flip_sign else 1.0
    for (m, j), c in f1.cells():
        deriv = sign * (-1.0) ** j * np.exp(-hs)
        lhs = lhs + c.evaluate(xs) * hs**m * deriv
    rhs = first_correction_direct(potential, xs, hs)
    scale = np.maximum(np.abs(rhs), 1e-30)
    return bool(np.all(np.abs(lhs - rhs) <= rtol * scale))
