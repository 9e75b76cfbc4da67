"""Seed (classical-limit) energy distributions and degeneracy calibration.

A seed supplies f0(H) and exact arbitrary-order H-derivatives.  All three
built-in families satisfy a one-step closure g' = G(g) with polynomial G, so
the j-th derivative is a polynomial P_j(f0) with exact rational coefficients:

    Maxwell-Boltzmann:  g' = -g
    Fermi-Dirac:        g' = -g(1 - g)
    Bose-Einstein:      g' = -g(1 + g)

with the fugacity folded into the energy through mu = ln z.  The polynomials
are generated once by P_{j+1} = P_j' * P_1 and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import expit

_KINDS = ("mb", "fd", "be")

_P1 = {
    "mb": (Fraction(0), Fraction(-1)),             # -u
    "fd": (Fraction(0), Fraction(-1), Fraction(1)),   # -u(1-u)
    "be": (Fraction(0), Fraction(-1), Fraction(-1)),  # -u(1+u)
}


class SeedDomainError(ValueError):
    """Energy argument outside the seed's domain (Bose-Einstein pole)."""


class DerivativeOrderError(ValueError):
    """Requested derivative order exceeds the configured cache limit."""


def _poly_derivative(coeffs):
    return tuple(coeffs[n] * n for n in range(1, len(coeffs)))


def _poly_multiply(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


class SeedDistribution:
    """Energy-only distribution f0(H) with exact higher derivatives.

    Parameters
    ----------
    kind : {"mb", "fd", "be"}
        Maxwell-Boltzmann, Fermi-Dirac or Bose-Einstein.
    z : float
        Fugacity (> 0; Bose-Einstein additionally requires z < 1).
    max_order : int, optional
        If given, f0_deriv raises for orders beyond it instead of extending
        the polynomial cache on demand.
    """

    def __init__(self, kind: str, z: float = 1.0, max_order: int | None = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown seed kind {kind!r}; expected one of {_KINDS}")
        if not (z > 0):
            raise ValueError("fugacity z must be positive")
        if kind == "be" and not (z < 1):
            raise ValueError("Bose-Einstein seed requires z < 1")
        self.kind = kind
        self.z = float(z)
        self.mu = math.log(z)
        self.max_order = max_order
        self._polys: list[tuple[Fraction, ...]] = [(Fraction(0), Fraction(1)), _P1[kind]]
        self._float_polys: dict[int, np.ndarray] = {}

    def derivative_polynomial(self, j: int) -> tuple[Fraction, ...]:
        """Exact coefficients of P_j, with f0^(j) = P_j(f0)."""
        if j < 0:
            raise ValueError("derivative order must be nonnegative")
        if self.max_order is not None and j > self.max_order:
            raise DerivativeOrderError(
                f"order {j} exceeds cache limit {self.max_order}")
        while len(self._polys) <= j:
            self._polys.append(
                _poly_multiply(_poly_derivative(self._polys[-1]), self._polys[1]))
        return self._polys[j]

    def _float_poly(self, j: int) -> np.ndarray:
        arr = self._float_polys.get(j)
        if arr is None:
            arr = np.array([float(c) for c in self.derivative_polynomial(j)])
            self._float_polys[j] = arr
        return arr

    def f0(self, H):
        """Seed value; numpy-transparent in H."""
        t = np.asarray(H, dtype=float) - self.mu
        if self.kind == "mb":
            g = np.exp(-t)
        elif self.kind == "fd":
            g = expit(-t)
        else:
            if np.any(t <= 0):
                raise SeedDomainError(
                    "Bose-Einstein pole: requires exp(H)/z > 1")
            g = 1.0 / np.expm1(t)
        if g.ndim == 0:
            return float(g)
        return g

    def f0_deriv(self, j: int, H):
        """j-th H-derivative of f0, exact-to-roundoff; numpy-transparent."""
        g = self.f0(H)
        if j == 0:
            return g
        coeffs = self._float_poly(j)
        val = 0.0
        for c in coeffs[::-1]:
            val = val * g + c
        if np.ndim(val) == 0:
            return float(val)
        return val

    def __repr__(self):
        return f"SeedDistribution({self.kind!r}, z={self.z!r})"


class CombinedSeed:
    """Linear combination of seeds; the extension point for custom f0."""

    def __init__(self, components):
        self.components = [(float(w), seed) for w, seed in components]

    def f0(self, H):
        return sum(w * s.f0(H) for w, s in self.components)

    def f0_deriv(self, j: int, H):
        return sum(w * s.f0_deriv(j, H) for w, s in self.components)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def polylog_neg(nu: float, z: float, tol: float = 1e-10) -> float:
    """Li_nu(-z) for nu > 0, z > 0, from its Fermi integral representation.

    Computed by adaptive quadrature of s^(nu-1) / (exp(s)/z + 1) over
    (0, inf), divided by -Gamma(nu); absolute error at most tol.
    """
    if not (nu > 0):
        raise ValueError("polylog order nu must be positive")
    if not (z > 0):
        raise ValueError("z must be positive")
    mu = math.log(z)

    def integrand(s):
        return s ** (nu - 1.0) * expit(mu - s)

    value, err = quad(integrand, 0.0, np.inf, epsabs=tol * 1e-3, epsrel=1e-12,
                      limit=300)
    gamma_nu = math.gamma(nu)
    if not np.isfinite(value) or err / gamma_nu > tol:
        raise QuadratureError(
            f"polylog quadrature nonconvergent (error estimate {err:.2e})")
    return -value / gamma_nu


class BracketError(RuntimeError):
    """Root bracketing for the fugacity solve failed."""


_CHI_FACTOR = 3.0 * math.sqrt(math.pi) / 4.0


def chi_from_z(z: float) -> float:
    """Degeneracy parameter (Fermi over thermodynamic temperature) from fugacity."""
    if not (z > 0):
        raise ValueError("z must be positive")
    return (-_CHI_FACTOR * polylog_neg(1.5, z)) ** (2.0 / 3.0)


def z_from_chi(chi: float) -> float:
    """Fugacity from the degeneracy parameter, by bracketed root-finding."""
    if not (chi > 0):
        raise ValueError("chi must be positive")

    def f(u):
        return chi_from_z(math.exp(u)) - chi

    lo, hi = -5.0, 5.0
    while f(hi) < 0:
        hi *= 2.0
        if hi > 700.0:
            raise BracketError(f"no fugacity bracket found for chi = {chi}")
    while f(lo) > 0:
        lo *= 2.0
        if lo < -700.0:
            raise BracketError(f"no fugacity bracket found for chi = {chi}")
    u = brentq(f, lo, hi, xtol=1e-12, rtol=8.9e-16)
    return math.exp(u)


@dataclass(frozen=True)
class DegeneracyCalibration:
    """Matched fugacity / chemical potential / degeneracy parameter triple."""

    z: float
    mu: float
    chi: float

    @classmethod
    def from_z(cls, z: float) -> "DegeneracyCalibration":
        return cls(z=float(z), mu=math.log(z), chi=chi_from_z(z))

    @classmethod
    def from_chi(cls, chi: float) -> "DegeneracyCalibration":
        z = z_from_chi(chi)
        return cls(z=z, mu=math.log(z), chi=float(chi))

    def residual(self) -> float:
        """How well Li_{3/2}(-z) = -(4/(3 sqrt(pi))) chi^(3/2) is satisfied."""
        return polylog_neg(1.5, self.z) + self.chi**1.5 / _CHI_FACTOR


def parse_seed_spec(text: str):
    """Build a seed from a CLI spec: mb | fd:z=<r> | be:z=<r> | fd:chi=<r>."""
    text = text.strip()
    if text == "mb":
        return SeedDistribution("mb")
    if ":" not in text:
        raise ValueError(f"bad seed spec {text!r}")
    kind, _, arg = text.partition(":")
    key, _, value = arg.partition("=")
    if kind not in _KINDS or not value:
        raise ValueError(f"bad seed spec {text!r}")
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"bad seed spec {text!r}: {value!r} is not a number") from None
    if key == "z":
        return SeedDistribution(kind, z=number)
    if key == "chi":
        if kind != "fd":
            raise ValueError("chi calibration applies to the fd seed only")
        return SeedDistribution("fd", z=z_from_chi(number))
    raise ValueError(f"bad seed spec {text!r}")
