"""Independent oracle: the built series in the original (x, p) form.

For f(x, p) = sum_l hbar^(2l) f_l(x, H) with H = p^2/2 + V(x), the
stationary Wigner-Moyal equation (Moyal 1949) reads

    p df/dx - sum_s (-1)^s (hbar/2)^(2s) / (2s+1)! V^(2s+1) d^(2s+1)f/dp^(2s+1) = 0.

Here every x- and p-derivative comes from truncated Taylor series (jets) of
the exact cells c(x) H^m f0^(j)(H) composed with H = p^2/2 + V, so none of
the position/energy machinery (energy derivatives, (H - V) powers, the
recursion weights) is reused.  At each power of hbar the (x, p) residual
must equal p times the (x, H) residual that verify forms.
"""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

import qvlasov.series
from qvlasov.potentials import resolve_potential
from qvlasov.seeds import SeedDistribution
from qvlasov.series import build_series
from qvlasov.verify import residual_powers, residual_samples

FD = SeedDistribution("fd", z=1.0)


def _mul(a, b):
    """Product of two jets (Taylor coefficients) of equal length."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


class _Jets:
    """Jets of H^m and of f0^(j)(H) at the samples along one direction,
    from the jet h_jet of H along it."""

    def __init__(self, h_jet):
        one = [1.0] + [0.0] * (len(h_jet) - 1)
        delta = [0.0] + list(h_jet[1:])
        self.h_jet = list(h_jet)
        self.h_pows = [one]
        self.delta_pows = [one]         # delta^k / k!
        for k in range(1, len(h_jet)):
            self.delta_pows.append([c / k for c in _mul(self.delta_pows[-1], delta)])
        self.f0_jets = {}

    def h_power(self, m):
        while len(self.h_pows) <= m:
            self.h_pows.append(_mul(self.h_pows[-1], self.h_jet))
        return self.h_pows[m]

    def f0(self, j):
        """f0^(j)(H0 + delta) = sum_k f0^(j+k)(H0) delta^k / k!."""
        if j not in self.f0_jets:
            n = len(self.h_jet)
            derivs = [FD.f0_deriv(j + k, self.h_jet[0]) for k in range(n)]
            self.f0_jets[j] = [sum(d * dp[i] for d, dp in zip(derivs, self.delta_pows))
                               for i in range(n)]
        return self.f0_jets[j]


def moyal_residual(series, xs, ps, j_cap):
    """Per power n of hbar^2: the (x, p) residual at the samples, and p df_n/dx."""
    v_derivs = [series.potential]
    for _ in range(2 * j_cap + 1):
        v_derivs.append(v_derivs[-1].ddx())
    h0 = ps**2 / 2 + series.potential.evaluate(xs)
    n = 2 * j_cap + 2
    along_p = _Jets(([h0, ps, 0.5] + [0.0] * n)[:n])
    along_x = _Jets([h0, v_derivs[1].evaluate(xs)])
    p_derivs, x_derivs = [], []
    for term in series.terms:
        jet_p, d_x = [0.0] * n, 0.0
        for (m, j), c in term.cells():
            c_x = c.evaluate(xs)
            cell_p = _mul(along_p.h_power(m), along_p.f0(j))
            jet_p = [a + c_x * b for a, b in zip(jet_p, cell_p)]
            cell_x = _mul(_mul([c_x, c.ddx().evaluate(xs)], along_x.h_power(m)),
                          along_x.f0(j))
            d_x = d_x + cell_x[1]
        p_derivs.append([factorial(r) * jet_p[r] for r in range(n)])
        x_derivs.append(ps * d_x)
    order = series.order
    residual = {}
    for power in range(order + j_cap + 1):
        total = x_derivs[power] if power <= order else np.zeros_like(xs)
        for s in range(min(power, j_cap) + 1):
            if power - s <= order:
                weight = Fraction((-1) ** s, 4**s * factorial(2 * s + 1))
                total = total - float(weight) * v_derivs[2 * s + 1].evaluate(xs) \
                    * p_derivs[power - s][2 * s + 1]
        residual[power] = total
    return residual, x_derivs


def _samples(n=48):
    rng = np.random.default_rng(1949)
    return rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n)


@pytest.mark.parametrize("potential, order, j_cap", [
    ("goldstone", 3, 1), ("modulated:a=1/2", 2, 5), ("modulated:a=1/7", 3, 6)],
    ids=["goldstone-L3", "modulated-L2", "modulated-L3"])
@pytest.mark.parametrize("convention", ["paper", "uniform"])
def test_moyal_residual_is_p_times_energy_residual(potential, order, j_cap,
                                                   convention):
    # polynomial potentials go through the exact residual, trig ones
    # through the float one at H = p^2/2 + V
    series = build_series(resolve_potential(potential), order, convention)
    xs, ps = _samples()
    hs = ps**2 / 2 + series.potential.evaluate(xs)
    moyal, p_dx = moyal_residual(series, xs, ps, j_cap)
    if series.potential.has_trig():
        energy = residual_samples(series, FD, xs, hs, j_cap)[0]
    else:
        energy = {s: r.evaluate(FD, xs, hs)
                  for s, r in residual_powers(series, j_cap).items()}
    assert set(energy) <= set(moyal)
    for s, values in moyal.items():
        reference = ps * energy.get(s, 0.0)
        scale = abs(p_dx[s]).max() if s <= order else abs(reference).max()
        assert scale > 0, s
        assert abs(values - reference).max() <= 1e-10 * scale, s


def test_moyal_sees_a_recursion_weight_the_shared_source_cannot(monkeypatch):
    # a 1% error in w(1,1) enters the build and the exact residual alike,
    # so the residual sharing the engine's source sum stays blind to it
    weight = qvlasov.series.recursion_weight
    monkeypatch.setattr(qvlasov.series, "recursion_weight", lambda j, k: weight(j, k)
                        * (Fraction(101, 100) if (j, k) == (1, 1) else 1))
    series = build_series(resolve_potential("goldstone"), 3, "uniform")
    assert min(residual_powers(series, 1)) > 3
    xs, ps = _samples()
    moyal, p_dx = moyal_residual(series, xs, ps, 1)
    assert abs(moyal[1]).max() >= 1e-3 * abs(p_dx[1]).max()
