"""Correctness oracles for built expansions.

The stationary equation in position/energy variables provides a residual
functional: the x-derivative of the truncated solution minus the source sum
must vanish through the truncation order, with the first surviving power
telling the achieved order.  For polynomial potentials the source sum is
finite and the residual is formed exactly, with the squared quantum scale
treated as a formal bookkeeping power.  For trig potentials the sum is
truncated at a configurable depth and, with a concrete seed, the residual
is formed in floats at sample points from the exactly built terms, fitting
the log-log scaling slope.

The exact residual takes its source sum from the series engine
(series.recursion_rhs), so it checks the quadratures and the closed-form
first correction, not the recursion itself; the float residual codes the
transformed equation pointwise.  The change from (x, p) to (x, H) variables
is checked on its own by tests/test_moyal.py, and the series against the
quantum state g(H) itself by tests/test_quantum_reference.py.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .evaluate import _weighted_sum, cell_values, hbar_weights, term_derivatives
from .series import (SeriesTerm, WignerSeries, potential_derivatives,
                     recursion_rhs, recursion_weight)


# Most sample points of a numeric residual.  All are read out at once, so its
# memory grows with them: 10000 points of modulated:a=1/2 at order 5 with
# --j-max 31 peak at about 130 MB.
MAX_SAMPLES = 10_000


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
        doc = asdict(self)
        doc["term_census"] = {str(k): v for k, v in self.term_census.items()}
        return doc


def residual_powers(series: WignerSeries, j_cap: int) -> dict[int, SeriesTerm]:
    """Residual terms R_s by formal power, residual = sum_s hbar^(2s) R_s.

    R_s is d/dx of f_s (zero above the truncation order) minus the engine's
    source sum of power s, recursion_rhs truncated at j_cap; the powers share
    one set of d/dH chains and one table of trig products.
    """
    terms = series.terms
    v_derivs = potential_derivatives(series.potential, 2 * j_cap + 1)
    chains: dict[int, list[SeriesTerm]] = {}
    trig_table: dict = {}
    residual: dict[int, SeriesTerm] = {}
    for s in range(series.order + j_cap + 1):
        r = terms[s].d_dx() if s <= series.order else SeriesTerm()
        if s > 0:
            r = r - recursion_rhs(series.potential, terms, s, v_derivs, j_cap, chains,
                                  trig_table=trig_table)
        if not r.is_zero():
            residual[s] = r
    return residual


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


_MASK64, _MASK128 = 2**64 - 1, 2**128 - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
# State and increment of numpy's PCG64(20230817), seeded through SeedSequence.
_PCG_STATE = 0xd27be50bc729a1bd94a6062100907bdb
_PCG_INC = 0xea3d84e0f0afa71be55f648f8808ef03


def _sample_points(samples: int):
    """samples points (x, H), uniform on [-2, 2) x [-1, 3): bit for bit the
    x values and then the H values of numpy's default_rng(20230817).uniform,
    without loading numpy.random.

    PCG64 (O'Neill, HMC-CS-2014-0905): a 128-bit LCG, each step read out by
    XSL-RR; a double takes the top 53 bits.
    """
    state, values = _PCG_STATE, []
    for _ in range(2 * samples):
        state = (state * _PCG_MULTIPLIER + _PCG_INC) & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        values.append((word >> 11) * 2.0**-53)
    unit = np.array(values, dtype=float)
    return -2.0 + 4.0 * unit[:samples], -1.0 + 4.0 * unit[samples:]


def residual_samples(series: WignerSeries, seed, xs, hs,
                     j_cap: int) -> tuple[dict[int, np.ndarray], dict[int, int]]:
    """Residual R_s sampled at (xs, hs) per formal power s, and its census.

    The transformed equation evaluated pointwise in floats.  The energy
    derivatives d^r f_l/dH^r (r <= 2 j_cap + 1) and d/dx f_s come from one
    evaluate.term_derivatives read-out of the exact terms and their exact
    x-derivatives, V and its odd derivatives from one cell_values pass; the
    source of power s is
    sum_j (-1/2)^j V^(2j+1) sum_k w(j,k) (H-V)^(j-k) d^(2j-k+1)f_{s-j}/dH^(2j-k+1)
    with H - V a float.  The census maps 2s to the number of exact cells
    sampled at that power: those of d/dx f_s and those of each lower order
    entering its source.
    """
    xs = np.asarray(xs, dtype=float)
    hs = np.asarray(hs, dtype=float)
    terms, order = series.terms, series.order
    v_derivs = potential_derivatives(series.potential, 2 * j_cap + 1)
    odd = [j for j in range(1, j_cap + 1) if not v_derivs[2 * j + 1].is_zero()]
    *derivs, v = cell_values([*(v_derivs[2 * j + 1] for j in odd), series.potential], xs)
    factors = {j: (-0.5) ** j * d for j, d in zip(odd, derivs)}
    r_max = 2 * max(factors, default=0) + 1
    h_minus_v = hs - v
    slopes = [t.d_dx() for t in terms]
    values = term_derivatives(list(terms) + slopes, seed, xs, hs, r_max)
    samples, census = {}, {}
    for s in range(order + j_cap + 1):
        total = values[order + 1 + s, 0] if s <= order else np.zeros_like(xs)
        count = len(slopes[s].cells()) if s <= order else 0
        for j, factor in factors.items():
            if not 0 <= s - j <= order:
                continue
            lower = values[s - j]   # lower[r] = d^r f_{s-j}/dH^r
            source = sum(float(recursion_weight(j, k)) * h_minus_v ** (j - k)
                         * lower[2 * j - k + 1] for k in range(j + 1))
            total = total - factor * source
            count += len(terms[s - j].cells())
        if count:
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
    counts the exact cells sampled at each power.
    """
    hbars = [float(h) for h in hbar_list]
    if len(hbars) < 4 or not all(0 < h < math.inf for h in hbars):
        raise ValueError("need at least 4 finite positive hbar values")
    if max(hbars) / min(hbars) < 4.0:
        raise ValueError("hbar values should span at least a factor of 4")
    if j_max is None:
        j_max = series.order + 1
    if j_max < series.order + 1:
        raise ValueError("j_max must be at least order + 1")
    claimed = 2 * series.order + 2
    xs, hs = _sample_points(samples)
    sampled, census = residual_samples(series, seed, xs, hs, j_max)
    powers = sorted(sampled)
    # from a zero row, so that a residual with no sampled power is zero
    rows = [np.zeros_like(xs)] + [sampled[s] for s in powers]
    maxima = [float(np.abs(_weighted_sum(rows, [1.0] + hbar_weights(hbar, powers))).max())
              for hbar in hbars]
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
