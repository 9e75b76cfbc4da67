"""Seed (classical-limit) energy distributions and degeneracy calibration.

A seed is any object whose derivative_table(H, j_max) gives
[f0, f0', ..., f0^(j_max)] at H; the built-in ones are exact up to
MAX_DERIV_ORDER.  All three built-in families satisfy a one-step closure
g' = G(g) with polynomial G, so the j-th derivative is a polynomial P_j(f0)
with integer coefficients:

    Maxwell-Boltzmann:  g' = -g
    Fermi-Dirac:        g' = -g(1 - g)
    Bose-Einstein:      g' = -g(1 + g)

with the fugacity folded into the energy through mu = ln z.  The polynomials
are generated once per seed by P_{j+1} = P_j' * P_1 and cached on it.

A derivative table is one array of j_max + 1 rows, each filled by Horner's
rule in place.  Fermi-Dirac derivatives are evaluated at g <= 1/2 only,
through the reflection f0^(j)(t) = (-1)^(j+1) f0^(j)(-t) (j >= 1,
t = H - mu): there the alternating P_j cancel far less.  Near t = 0 they
still lose up to 12 digits at j = 30, so the high orders are summed over
the poles of f0 there instead, streamed one pole at a time into real
accumulators.  Only numpy is imported; the calibration's Fermi-Dirac
integral is a composite Gauss-Legendre rule whose nodes and weights are
constants here, and its root solve is plain Python.
"""

from __future__ import annotations

import math

import numpy as np

from .ring import convolve

_KINDS = ("mb", "fd", "be")

# Highest derivative order of the built-in seeds: the Fermi-Dirac and
# Bose-Einstein P_160 have integer coefficients beyond the float range.
# One bound for all kinds, so a seed spec does not change what orders work.
MAX_DERIV_ORDER = 159

_P1 = {
    "mb": (0, -1),         # -u
    "fd": (0, -1, 1),      # -u(1-u)
    "be": (0, -1, -1),     # -u(1+u)
}


class SeedDomainError(ValueError):
    """Energy argument outside the seed's domain (Bose-Einstein pole)."""


def _poly_derivative(coeffs):
    return tuple(coeffs[n] * n for n in range(1, len(coeffs)))


def _logistic(x):
    """1 / (1 + exp(-x)) elementwise; where exp overflows the value is its limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _plain(value):
    """A float for scalar input, the array otherwise."""
    return float(value) if np.ndim(value) == 0 else value


# Fermi-Dirac orders from _POLE_ORDER up are summed over the poles where
# |t| <= _POLE_RADIUS: there the alternating P_j(g) lose up to 12 digits
# (j = 30), while the pole sums keep relative-to-maximum errors near 1e-15.
# Beyond the radius Horner's rule at g <= 1/2 is the more accurate of the two.
_POLE_ORDER = 12
_POLE_RADIUS = 4.0


def _pole_count(j: int) -> int:
    """Poles k = 0..n-1 that carry f0^(j) to 1e-17 of the leading pole's term."""
    return max(2, math.ceil((10.0 ** (17.0 / j) - 1.0) / 2.0))


def _fd_pole_derivatives(t, j_max: int) -> np.ndarray:
    """out[j - _POLE_ORDER] = f0^(j)(t) for _POLE_ORDER <= j <= j_max of the
    Fermi-Dirac seed.

    From the Mittag-Leffler expansion 1/(1 + e^t) = 1/2 - sum_k 1/(t - a_k),
    a_k = i pi (2k + 1) over all integers k taken in conjugate pairs:
    f0^(j)(t) = (-1)^(j+1) 2 j! Re sum_{k>=0} (t - a_k)^-(j+1).  The terms
    do not cancel near t = 0; each order multiplies each pole's power once.
    The poles are taken one at a time, the last first, and each order adds
    the real part of its power of the pole into its row.  A complex sum's
    real part is the sum of the real parts, so each row has the bits of the
    complex sum over the poles from the last to the first.  No complex
    operation runs in place: numpy's in-place complex product of
    one-element arrays takes another loop, with other bits.
    """
    out = np.empty((j_max - _POLE_ORDER + 1,) + t.shape)
    inv, power, spare = (np.empty(t.shape, complex) for _ in range(3))
    for k in range(_pole_count(_POLE_ORDER) - 1, -1, -1):
        np.subtract(t, 1j * math.pi * (2 * k + 1), out=spare)
        np.divide(1.0, spare, out=inv)
        np.power(inv, _POLE_ORDER + 1, out=power)
        for j, row in enumerate(out, _POLE_ORDER):
            n = _pole_count(j)
            if k >= n:
                break
            if j > _POLE_ORDER:
                power, spare = np.multiply(power, inv, out=spare), power
            if k == n - 1:
                np.copyto(row, power.real)
            else:
                row += power.real
    for j, row in enumerate(out, _POLE_ORDER):
        row *= (-1.0) ** (j + 1) * 2.0 * math.factorial(j)
    return out


class SeedDistribution:
    """Energy-only distribution f0(H) with exact higher derivatives.

    Parameters
    ----------
    kind : {"mb", "fd", "be"}
        Maxwell-Boltzmann, Fermi-Dirac or Bose-Einstein.
    z : float
        Fugacity (> 0; Bose-Einstein additionally requires z < 1).
    """

    def __init__(self, kind: str, z: float = 1.0):
        if kind not in _KINDS:
            raise ValueError(f"unknown seed kind {kind!r}; expected one of {_KINDS}")
        if not (0 < z < math.inf):
            raise ValueError("fugacity z must be positive and finite")
        if kind == "be" and not (z < 1):
            raise ValueError("Bose-Einstein seed requires z < 1")
        self.kind = kind
        self.z = float(z)
        self.mu = math.log(z)
        self._polys: list[tuple[int, ...]] = [(0, 1), _P1[kind]]
        self._float_polys: dict[int, np.ndarray] = {}

    def derivative_polynomial(self, j: int) -> tuple[int, ...]:
        """Integer coefficients of P_j, with f0^(j) = P_j(f0).  The table
        is extended in a copy and assigned back, so no call, on another
        thread or re-entrant, appends to a list another call is extending."""
        if j < 0:
            raise ValueError("derivative order must be nonnegative")
        polys = self._polys
        if len(polys) <= j:
            polys = list(polys)
            while len(polys) <= j:
                polys.append(tuple(convolve(_poly_derivative(polys[-1]), polys[1])))
            self._polys = polys
        return polys[j]

    def _float_poly(self, j: int) -> np.ndarray:
        arr = self._float_polys.get(j)
        if arr is None:
            arr = np.array([float(c) for c in self.derivative_polynomial(j)])
            self._float_polys[j] = arr
        return arr

    def _value(self, t):
        """f0 at t = H - mu; where exp overflows the value is its limit, inf
        for Maxwell-Boltzmann and 0 for Bose-Einstein."""
        if self.kind == "fd":
            return _logistic(-t)
        if self.kind == "be" and np.any(t <= 0):
            raise SeedDomainError("Bose-Einstein pole: requires exp(H)/z > 1")
        with np.errstate(over="ignore"):
            return np.exp(-t) if self.kind == "mb" else 1.0 / np.expm1(t)

    def derivative_table(self, H, j_max: int) -> list:
        """[f0, f0', ..., f0^(j_max)] at H, the rows of one block, with
        t = H - mu and g computed once and f0^(j) = P_j(g) by Horner's rule
        in its row.  Fermi-Dirac takes g at -|t|, flips the even orders
        where t < 0, and from _POLE_ORDER up takes the pole sums where
        |t| <= _POLE_RADIUS and Horner's rule elsewhere."""
        if not 0 <= j_max <= MAX_DERIV_ORDER:
            raise ValueError(f"derivative order {j_max} is outside "
                             f"0..seeds.MAX_DERIV_ORDER = {MAX_DERIV_ORDER}")
        t = np.asarray(H, dtype=float) - self.mu
        shape = t.shape
        t = np.atleast_1d(t)
        table = np.empty((j_max + 1,) + t.shape)
        table[0] = self._value(t)
        g, sign = table[0], None
        if self.kind == "fd":
            size = np.abs(t)
            g, sign = _logistic(-size), np.where(t < 0, -1.0, 1.0)
            if j_max >= _POLE_ORDER:
                near = size <= _POLE_RADIUS
                poles = _fd_pole_derivatives(t[near], j_max)
                far = ~near
                g_far, sign_far = g[far], sign[far]
                horner_far = np.empty(g_far.shape)
        for j in range(1, j_max + 1):
            pole = self.kind == "fd" and j >= _POLE_ORDER
            x, s, val = (g_far, sign_far, horner_far) if pole else (g, sign, table[j])
            coeffs = self._float_poly(j)
            np.multiply(coeffs[-1], x, out=val)
            val += coeffs[-2]
            for c in coeffs[-3::-1]:
                val *= x
                val += c
            if s is not None and j % 2 == 0:
                val *= s
            if pole:
                table[j][far] = val
                table[j][near] = poles[j - _POLE_ORDER]
        return [_plain(row.reshape(shape)) for row in table]

    def f0(self, H):
        """Seed value; numpy-transparent in H."""
        return _plain(self._value(np.asarray(H, dtype=float) - self.mu))

    def f0_deriv(self, j: int, H):
        """j-th H-derivative of f0, exact-to-roundoff; numpy-transparent."""
        return self.derivative_table(H, j)[j]

    def __repr__(self):
        return f"SeedDistribution({self.kind!r}, z={self.z!r})"


class CombinedSeed:
    """Linear combination of seeds; the extension point for custom f0."""

    def __init__(self, components):
        self.components = [(float(w), seed) for w, seed in components]

    def derivative_table(self, H, j_max: int) -> list:
        """[f0, ..., f0^(j_max)] at H: the weighted sum of one table per
        component."""
        tables = [(w, s.derivative_table(H, j_max)) for w, s in self.components]
        return [sum(w * table[j] for w, table in tables) for j in range(j_max + 1)]


class QuadratureError(RuntimeError):
    """The Fermi-Dirac quadrature missed its requested tolerance."""


# The 64-point Gauss-Legendre rule of each panel of the Fermi-Dirac
# integral, as numpy's leggauss(64) gives it, bit for bit: its nodes are
# antisymmetric and its weights symmetric, so the positive half is kept.
_GL_HALF_NODES = (
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054,
    0.16964442042399283, 0.21742364374000708, 0.2646871622087674,
    0.31132287199021097, 0.3572201583376681, 0.4022701579639916,
    0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573,
    0.6852363130542333, 0.7198818501716109, 0.7528199072605319,
    0.7839723589433414, 0.8132653151227975, 0.8406292962525803,
    0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538,
    0.973326827789911, 0.983336253884626, 0.9910133714767443,
    0.9963401167719552, 0.9993050417357722)
_GL_HALF_WEIGHTS = (
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996,
    0.04799938859645842, 0.04754016571483042, 0.046968182816210076,
    0.04628479658131447, 0.045491627927418184, 0.044590558163756566,
    0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009,
    0.0354722132568823, 0.033805161837141794, 0.032057928354851495,
    0.030234657072402554, 0.028339672614259535, 0.02637746971505491,
    0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
    0.017951715775697284, 0.01572603047602503, 0.01346304789671786,
    0.011168139460131028, 0.008846759826363397, 0.006504457968978502,
    0.004147033260564499, 0.00178328072169414)


def _fermi_integral(nu: float, mu: float, rule) -> tuple[float, float]:
    """int_0^inf s^(nu-1) / (exp(s - mu) + 1) ds and an error estimate.

    With s = u^2 the integrand 2 u^(2 nu - 1) / (exp(u^2 - mu) + 1) is
    smooth for nu >= 1/2.  The panels are split at the Fermi edge
    sqrt(mu) +- 1 and end where u^2 - mu = 60.  From mu = 8 the edge, of
    width about 1/(2 sqrt(mu)) in u, is also cut at s = mu - 40, mu - 8 and
    mu + 8, which keeps the estimate below 1e-15 up to mu = 640; below
    mu = 8 the four panels already do.  The value is the composite rule on
    every panel halved; the estimate is its distance from the rule on the
    whole panels.
    """
    nodes, weights = rule
    edge = math.sqrt(max(mu, 0.0))
    cuts = {0.0, max(edge - 1.0, 0.0), edge + 1.0, math.sqrt(max(mu, 0.0) + 60.0)}
    if mu > 8.0:
        cuts.update(math.sqrt(s) for s in (mu - 40.0, mu - 8.0, mu + 8.0) if s > 0.0)
    cuts = sorted(cuts)

    def composite(cuts):
        a = np.array(cuts[:-1])[:, None]
        half = 0.5 * (np.array(cuts[1:])[:, None] - a)
        u = a + half * (nodes + 1.0)
        values = 2.0 * u ** (2.0 * nu - 1.0) * _logistic(mu - u * u)
        return float(np.sum(half * weights * values))

    coarse = composite(cuts)
    fine = composite(sorted(cuts + [0.5 * (a + b) for a, b in zip(cuts, cuts[1:])]))
    return fine, abs(fine - coarse)


def _gauss_legendre():
    """(nodes, weights) of the 64-point rule on [-1, 1], nodes ascending."""
    nodes = np.array([-x for x in reversed(_GL_HALF_NODES)] + list(_GL_HALF_NODES))
    weights = np.array(_GL_HALF_WEIGHTS[::-1] + _GL_HALF_WEIGHTS)
    return nodes, weights


def polylog_neg(nu: float, z: float) -> float:
    """Li_nu(-z) for nu >= 1/2, z > 0, from its Fermi integral representation.

    -1/Gamma(nu) times the Fermi-Dirac integral of _fermi_integral; raises
    QuadratureError when the error estimate exceeds 1e-10 relative to the value.
    """
    if not (nu >= 0.5):
        raise ValueError("polylog order nu must be at least 1/2")
    if not (z > 0):
        raise ValueError("z must be positive")
    return -_fermi_checked(nu, math.log(z), _gauss_legendre()) / math.gamma(nu)


def _fermi_checked(nu: float, mu: float, rule) -> float:
    value, err = _fermi_integral(nu, mu, rule)
    if not math.isfinite(value) or err > 1e-10 * abs(value):
        raise QuadratureError(
            f"Fermi-Dirac quadrature nonconvergent at mu = {mu!r} "
            f"(error estimate {err:.2e} on {value!r})")
    return value


class BracketError(RuntimeError):
    """Root bracketing for the fugacity solve failed."""


_CHI_FACTOR = 3.0 * math.sqrt(math.pi) / 4.0

# Bound on the root solve's steps; chi from 1e-6 to 700 needs 7 to 63
# evaluations of chi(mu), bracketing included (1,000 log-spaced chi).  The
# bracket ends at mu = 700, clamped, and at mu = -640, where the next
# doubling would pass -700 (at mu = -700 the quadrature fails its check):
# chi above chi(700) = 700.0012 or below chi(-640) = 6.1e-186 has none.
_MAX_ROOT_STEPS = 200


def _chi_from_mu(mu: float, rule) -> float:
    # -Li_{3/2}(-z) = F(3/2, mu) / Gamma(3/2)
    return (_CHI_FACTOR * _fermi_checked(1.5, mu, rule) / math.gamma(1.5)) ** (2.0 / 3.0)


def chi_from_z(z: float) -> float:
    """Degeneracy parameter (Fermi over thermodynamic temperature) from fugacity."""
    if not (z > 0):
        raise ValueError("z must be positive")
    return _chi_from_mu(math.log(z), _gauss_legendre())


def z_from_chi(chi: float) -> float:
    """Fugacity from the degeneracy parameter.

    chi increases with mu = ln z, so the root is bracketed by doubling, the
    last step up clamped to mu = 700, and then narrowed by false position
    with the Illinois step, down to a bracket of a few ulps of mu.
    """
    if not (chi > 0):
        raise ValueError("chi must be positive")
    rule = _gauss_legendre()

    def f(mu):
        return _chi_from_mu(mu, rule) - chi

    lo, hi = -5.0, 5.0
    f_hi = f(hi)
    while f_hi < 0:
        if hi >= 700.0:
            raise BracketError(f"no fugacity bracket found for chi = {chi}")
        hi = min(2.0 * hi, 700.0)
        f_hi = f(hi)
    f_lo = f(lo)
    while f_lo > 0:
        lo *= 2.0
        if lo < -700.0:
            raise BracketError(f"no fugacity bracket found for chi = {chi}")
        f_lo = f(lo)
    kept = 0    # which end the last step moved: -1 lo, +1 hi
    for _ in range(_MAX_ROOT_STEPS):
        mu = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
        if not lo < mu < hi or hi - lo <= 4e-16 * max(abs(lo), abs(hi)):
            break
        f_mu = f(mu)
        if f_mu == 0.0:
            break
        if f_mu < 0:
            lo, f_lo = mu, f_mu
            if kept == -1:
                f_hi *= 0.5
            kept = -1
        else:
            hi, f_hi = mu, f_mu
            if kept == 1:
                f_lo *= 0.5
            kept = 1
    return math.exp(mu)


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
