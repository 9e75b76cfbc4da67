"""High-precision references for the floating-point evaluation path.

The references use mpmath at 80 significant digits on the exact rational
coefficients of the series terms and of the seed-derivative polynomials
P_j, so the cancellation that the double-precision Horner evaluation
suffers does not occur in them.  Grid points and energies are taken as the
exact values of their doubles.
"""

from __future__ import annotations

import numpy as np
import mpmath

DPS = 80


def _mp_rational(r):
    return mpmath.mpf(r.numerator) / r.denominator


def _mp_coefficient(coeff):
    return mpmath.fsum(_mp_rational(r) * mpmath.pi ** e for e, r in coeff.items())


def _mp_ring(elem, x):
    total = mpmath.mpf(0)
    for mono, coeff in elem.items():
        value = _mp_coefficient(coeff) * x ** mono.xpow
        if mono.trig == "sin":
            value *= mpmath.sin(_mp_coefficient(mono.wavenumber) * x)
        elif mono.trig == "cos":
            value *= mpmath.cos(_mp_coefficient(mono.wavenumber) * x)
        total += value
    return total


def _mp_seed_value(seed, h):
    t = h - mpmath.log(mpmath.mpf(seed.z))
    if seed.kind == "mb":
        return mpmath.exp(-t)
    if seed.kind == "fd":
        return 1 / (1 + mpmath.exp(t))
    return 1 / mpmath.expm1(t)


def _mp_derivs(seed, h, j_max):
    """[f0^(0)(h), ..., f0^(j_max)(h)] from the exact polynomials P_j."""
    g = _mp_seed_value(seed, h)
    out = []
    for j in range(j_max + 1):
        poly = seed.derivative_polynomial(j)
        out.append(mpmath.fsum(_mp_rational(c) * g ** n for n, c in enumerate(poly)))
    return out


def field_rel_err(series, seed, fields, qi, pi) -> float:
    """Largest error of the un-normalised fields the CLI computed, at grid
    indices (qi, pi), divided by the largest reference magnitude on the same
    points; taken over the fields (one per hbar)."""
    qs, ps = fields[0].q_axis()[qi], fields[0].p_axis()[pi]
    j_max = series.max_deriv_order()
    with mpmath.workdps(DPS):
        per_order = []          # per point: [F_0, F_1, ...] at that point
        for q, p in zip(qs, ps):
            x, pm = mpmath.mpf(float(q)), mpmath.mpf(float(p))
            h = pm * pm / 2 + _mp_ring(series.potential, x)
            derivs = _mp_derivs(seed, h, j_max)
            per_order.append([
                mpmath.fsum(_mp_ring(c, x) * h ** m * derivs[j]
                            for (m, j), c in term.cells())
                for term in series.terms])
        worst = 0.0
        for field in fields:
            weights = [mpmath.mpf(float(field.hbar)) ** (2 * l)
                       for l in range(len(series.terms))]
            ref = [mpmath.fsum(w * f for w, f in zip(weights, orders))
                   for orders in per_order]
            got = field.values[qi, pi] * (field.norm_constant if field.normalized else 1.0)
            err = max(abs(mpmath.mpf(float(g)) - r) for g, r in zip(got, ref))
            worst = max(worst, float(err / max(abs(r) for r in ref)))
    return worst


def deriv_err_max(seed, j_max: int, hs) -> float:
    """Largest over j <= j_max of max|f0_deriv(j) - ref| / max|ref| on hs."""
    hs = np.asarray(hs, dtype=float)
    with mpmath.workdps(DPS):
        refs = [_mp_derivs(seed, mpmath.mpf(float(h)), j_max) for h in hs]
        worst = 0.0
        for j in range(j_max + 1):
            got = np.atleast_1d(seed.f0_deriv(j, hs))
            ref = [r[j] for r in refs]
            scale = max(abs(r) for r in ref)
            if scale == 0:
                continue
            err = max(abs(mpmath.mpf(float(g)) - r) for g, r in zip(got, ref))
            worst = max(worst, float(err / scale))
    return worst
