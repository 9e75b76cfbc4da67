"""Seed distributions: derivative recurrence, polylog and calibration."""

import hashlib
import json
import math
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from qvlasov import seeds as seeds_module
from qvlasov.seeds import (MAX_DERIV_ORDER, CombinedSeed, SeedDistribution,
                           SeedDomainError, chi_from_z, parse_seed_spec,
                           polylog_neg, z_from_chi)
from qvlasov.series import MAX_ORDER

getcontext().prec = 60


def _f0_decimal(kind: str, z: float, h: Decimal) -> Decimal:
    z_dec = Decimal(str(z))
    if kind == "mb":
        return z_dec * (-h).exp()
    if kind == "fd":
        return 1 / (h.exp() / z_dec + 1)
    return 1 / (h.exp() / z_dec - 1)


def fd_derivative(kind: str, z: float, j: int, x: float, step: str = "0.01") -> float:
    """Independent oracle: j-th central difference of f0 in 60-digit decimal
    arithmetic, Richardson-extrapolated twice (errors h^2 and h^4 removed)."""

    def central(h: Decimal) -> Decimal:
        total = Decimal(0)
        for i in range(j + 1):
            weight = Decimal((-1) ** i * math.comb(j, i))
            total += weight * _f0_decimal(kind, z, Decimal(str(x)) + (Decimal(j) / 2 - i) * h)
        return total / h**j

    base = Decimal(step)
    d = [central(base / 2**s) for s in range(3)]
    e1 = [(4 * d[s + 1] - d[s]) / 3 for s in range(2)]
    return float((16 * e1[1] - e1[0]) / 15)


def test_fd_midpoint():
    seed = SeedDistribution("fd", z=1.0)
    assert seed.f0_deriv(0, 0.0) == pytest.approx(0.5)


def test_fd_first_derivative_at_midpoint():
    seed = SeedDistribution("fd", z=1.0)
    assert seed.f0_deriv(1, 0.0) == pytest.approx(-0.25)


def test_fd_sixth_derivative_against_finite_difference():
    seed = SeedDistribution("fd", z=1.0)
    value = seed.f0_deriv(6, 0.7)
    approx = fd_derivative("fd", 1.0, 6, 0.7, step="0.01")
    assert value == pytest.approx(approx, rel=1e-6)


@pytest.mark.parametrize("kind,z,h_lo", [("mb", 1.0, -2.0), ("fd", 1.0, -2.0),
                                         ("fd", 2.5, -2.0), ("be", 0.5, 0.2)])
def test_derivatives_match_finite_differences(kind, z, h_lo):
    seed = SeedDistribution(kind, z=z)
    for j in range(1, 9):
        for h_val in np.linspace(h_lo, 4.0, 7):
            approx = fd_derivative(kind, z, j, float(h_val), step="0.02")
            exact = seed.f0_deriv(j, float(h_val))
            scale = max(abs(exact), 1e-10)
            assert abs(exact - approx) <= 1e-5 * scale, (kind, j, h_val)


def test_fd_derivatives_match_exponential_series():
    # for t = H - mu > 0:  f0 = sum_{n>=1} (-1)^(n+1) e^(-n t), term-wise
    # derivatives; summed in decimal to dodge the alternating cancellation
    seed = SeedDistribution("fd", z=1.0)
    t = Decimal("0.9")
    for j in (0, 3, 9, 15):
        series = sum(Decimal((-1) ** (n + 1) * (-n) ** j) * (-n * t).exp()
                     for n in range(1, 400))
        assert seed.f0_deriv(j, 0.9) == pytest.approx(float(series), rel=1e-9)


def test_derivative_polynomials_exact():
    seed = SeedDistribution("fd")
    # g' = -g(1-g) -> P_2 = P_1' * P_1 = 2g^3 - 3g^2 + g
    assert seed.derivative_polynomial(2) == (Fraction(0), Fraction(1),
                                             Fraction(-3), Fraction(2))


def test_derivative_polynomial_survives_a_reentrant_extension(monkeypatch):
    # a call that extends the table while another is extending it (here from
    # inside the first's convolution) must not shift P_j to another index
    expected = SeedDistribution("fd").derivative_polynomial(7)
    seed = SeedDistribution("fd")
    convolve = seeds_module.convolve
    calls = []

    def reentrant(a, b):
        calls.append(1)
        if len(calls) == 1:     # the first product of derivative_polynomial(4)
            seed.derivative_polynomial(6)
        return convolve(a, b)

    monkeypatch.setattr(seeds_module, "convolve", reentrant)
    seed.derivative_polynomial(4)
    assert seed.derivative_polynomial(7) == expected


def test_mb_derivatives_alternate_sign():
    seed = SeedDistribution("mb", z=1.0)
    for j in range(8):
        assert seed.f0_deriv(j, 0.3) == pytest.approx((-1.0) ** j * math.exp(-0.3))


def test_fd_derivative_bounded_by_polynomial_extremum():
    seed = SeedDistribution("fd", z=1.0)
    u = np.linspace(0.0, 1.0, 2001)
    for j in range(1, 10):
        coeffs = [float(c) for c in seed.derivative_polynomial(j)]
        poly = np.zeros_like(u)
        for c in coeffs[::-1]:
            poly = poly * u + c
        bound = np.abs(poly).max() * (1 + 1e-9)
        for h_val in np.linspace(-6, 6, 25):
            assert abs(seed.f0_deriv(j, float(h_val))) <= bound


def test_be_pole_raises():
    seed = SeedDistribution("be", z=0.5)
    with pytest.raises(SeedDomainError):
        seed.f0_deriv(0, math.log(0.5))
    with pytest.raises(SeedDomainError):
        seed.f0_deriv(2, -1.0)


@pytest.mark.parametrize("kind,z,h_lo", [("mb", 1.3, -12.0), ("fd", 1.0, -12.0),
                                         ("fd", 20.0, -12.0), ("be", 0.5, -0.6)])
def test_derivative_table_equals_f0_deriv_bitwise(kind, z, h_lo):
    seed = SeedDistribution(kind, z=z)
    hs = np.linspace(h_lo, 12.0, 301)
    table = seed.derivative_table(hs, 30)
    assert len(table) == 31
    for j, column in enumerate(table):
        assert np.array_equal(column, seed.f0_deriv(j, hs)), j
    scalar = seed.derivative_table(-0.5, 30)
    assert all(type(v) is float for v in scalar)
    assert scalar == [seed.f0_deriv(j, -0.5) for j in range(31)]


def test_fd_derivatives_match_mpmath():
    # error over t in [-12, 12] relative to max|f0^(j)| there, because the
    # even orders vanish at t = 0.  Horner's rule alone (reflected) reached
    # 1.0e-10 at j = 15, 6.6e-8 at j = 22 and 4.3e-4 at j = 30 on these
    # points; the pole sums take over from order 12.
    seed = SeedDistribution("fd", z=1.0)
    ts = np.linspace(-12.0, 12.0, 161)
    with mpmath.workdps(60):
        gs = [1 / (1 + mpmath.exp(mpmath.mpf(float(t)))) for t in ts]
        for j in range(31):
            poly = [mpmath.mpf(c.numerator) / c.denominator
                    for c in seed.derivative_polynomial(j)]
            ref = [mpmath.polyval(poly[::-1], g) for g in gs]
            scale = max(abs(r) for r in ref)
            err = max(abs(mpmath.mpf(float(v)) - r)
                      for v, r in zip(seed.f0_deriv(j, ts), ref))
            assert float(err / scale) <= (2e-11 if j < 12 else 4e-14), j


def test_fd_reflection_symmetry():
    # Horner's rule runs at g <= 1/2 on both sides; the pole sums (order 12
    # up, |t| <= 4) are excluded
    seed = SeedDistribution("fd", z=1.0)
    ts = np.linspace(0.25, 10.0, 40)
    for j in range(1, 31):
        pts = ts if j < 12 else ts[ts > 4.0]
        assert np.array_equal(seed.f0_deriv(j, -pts),
                              (-1.0) ** (j + 1) * seed.f0_deriv(j, pts)), j


def test_combined_seed_table_has_f0_deriv_bits():
    fd, mb = SeedDistribution("fd"), SeedDistribution("mb")
    combo = CombinedSeed([(2.0, fd), (0.5, mb)])
    hs = np.linspace(-6.0, 6.0, 49)
    table = combo.derivative_table(hs, 30)
    assert len(table) == 31
    for j in range(31):
        expected = 2.0 * fd.f0_deriv(j, hs) + 0.5 * mb.f0_deriv(j, hs)
        assert np.array_equal(table[j], expected), j
    assert combo.derivative_table(0.5, 3)[3] == \
        2.0 * fd.f0_deriv(3, 0.5) + 0.5 * mb.f0_deriv(3, 0.5)


@pytest.mark.parametrize("ts", [np.linspace(-3.9, 3.9, 41),
                                np.concatenate([np.linspace(-30.0, -4.1, 20),
                                                np.linspace(4.1, 30.0, 20)]),
                                np.linspace(-10.0, 10.0, 41)],
                         ids=["all-near", "all-far", "mixed"])
@pytest.mark.parametrize("z", [0.3, 1.0, 7.0])
def test_fd_table_equals_pointwise_tables(ts, z):
    # orders from 12 up take Horner's rule beyond |t| = 4 and the pole sums
    # within it, whichever of the two subsets is empty
    seed = SeedDistribution("fd", z=z)
    table = seed.derivative_table(ts + seed.mu, 30)
    points = [seed.derivative_table(float(h), 30) for h in ts + seed.mu]
    for j in range(31):
        expect = np.array([point[j] for point in points])
        assert table[j].tobytes() == expect.tobytes(), j


@pytest.mark.parametrize("kind,z", [("mb", 1.0), ("fd", 1.0), ("fd", 1e3), ("be", 0.5)])
@pytest.mark.parametrize("j,ok", [(MAX_DERIV_ORDER, True), (MAX_DERIV_ORDER + 1, False)])
def test_derivative_order_limit(kind, z, j, ok):
    # fd and be overflow the float range at P_160; mb shares the limit
    seed = SeedDistribution(kind, z=z)
    hs = np.array([0.5, 2.0, 5.0, 20.0])
    if ok:
        table = seed.derivative_table(hs, j)
        assert np.all(np.isfinite(table[-1]))
        assert seed.f0_deriv(j, 2.0) == table[-1][1]
        return
    for call in (lambda: seed.derivative_table(hs, j), lambda: seed.f0_deriv(j, 2.0)):
        with pytest.raises(ValueError, match="MAX_DERIV_ORDER"):
            call()


def test_cli_derivative_orders_within_limit():
    # a series of order L needs f0^(3L); the numeric residual truncated at
    # j <= L + 1 needs 2 j + 1 more
    assert 3 * MAX_ORDER + 2 * (MAX_ORDER + 1) + 1 == 153 <= MAX_DERIV_ORDER


def test_bad_parameters():
    with pytest.raises(ValueError):
        SeedDistribution("fd", z=-1.0)
    with pytest.raises(ValueError):
        SeedDistribution("be", z=1.5)
    with pytest.raises(ValueError):
        SeedDistribution("gauss")
    with pytest.raises(ValueError, match="finite"):
        SeedDistribution("fd", z=math.inf)


def test_combined_seed_is_linear():
    s1 = SeedDistribution("fd", z=1.0)
    s2 = SeedDistribution("mb", z=1.0)
    combo = CombinedSeed([(2.0, s1), (-1.0 / 3.0, s2)])
    for j in (0, 1, 3):
        for h_val in (-0.5, 0.0, 1.2):
            expected = 2.0 * s1.f0_deriv(j, h_val) - s2.f0_deriv(j, h_val) / 3.0
            assert combo.derivative_table(h_val, j)[j] == \
                pytest.approx(expected, rel=1e-14)


# ------------------------------------------------------------------ polylog

def test_polylog_small_z_leading_term():
    assert abs(polylog_neg(1.5, 1e-6) + 1e-6) < 1e-9


def test_polylog_matches_alternating_series():
    # Li_{3/2}(-1) = -sum_{n>=1} (-1)^(n+1) / n^(3/2)
    total = sum((-1.0) ** (n + 1) / n**1.5 for n in range(1, 2_000_001))
    assert polylog_neg(1.5, 1.0) == pytest.approx(-total, abs=1e-9)


def test_polylog_order_one_closed_form():
    assert polylog_neg(1.0, 1.0) == pytest.approx(-math.log(2.0), abs=1e-12)


def test_polylog_and_fugacity_match_mpmath():
    worst_li = worst_mu = 0.0
    with mpmath.workdps(40):
        for z in np.logspace(-8.0, 20.0, 29):
            ref = mpmath.re(mpmath.polylog(1.5, -mpmath.mpf(float(z))))
            worst_li = max(worst_li, float(abs(polylog_neg(1.5, z) - ref) / abs(ref)))
            chi = float((-3 * mpmath.sqrt(mpmath.pi) / 4 * ref) ** (mpmath.mpf(2) / 3))
            mu = math.log(z_from_chi(chi))
            worst_mu = max(worst_mu, abs(mu - math.log(z)) / max(1.0, abs(math.log(z))))
    assert worst_li < 1e-14
    assert worst_mu < 1e-14


def test_polylog_rejects_bad_arguments():
    with pytest.raises(ValueError):
        polylog_neg(0.0, 1.0)
    with pytest.raises(ValueError):
        polylog_neg(0.25, 1.0)
    with pytest.raises(ValueError):
        polylog_neg(1.5, -1.0)


# -------------------------------------------------------------- calibration

def test_chi_at_unit_fugacity():
    assert chi_from_z(1.0) == pytest.approx(1.01, abs=0.01)


def test_chi_classical_limit():
    assert chi_from_z(1e-8) < 1e-4


def test_chi_monotone_in_z():
    zs = np.logspace(-3, 2, 12)
    chis = [chi_from_z(float(z)) for z in zs]
    assert all(b > a for a, b in zip(chis, chis[1:]))


def test_fugacity_roundtrip():
    assert z_from_chi(chi_from_z(2.5)) == pytest.approx(2.5, abs=1e-5)
    for z in (0.05, 1.0, 30.0):
        assert z_from_chi(chi_from_z(z)) == pytest.approx(z, rel=1e-6)


@pytest.mark.parametrize("chi", [90.0, 100.0, 200.0])
def test_z_from_chi_degenerate_matches_mpmath(chi):
    # above chi of about 80 the error estimate used to reject the quadrature
    z = z_from_chi(chi)
    assert parse_seed_spec(f"fd:chi={chi:g}").z == z
    with mpmath.workdps(40):
        ref = mpmath.re(mpmath.polylog(1.5, -mpmath.mpf(z)))
        target = -4 / (3 * mpmath.sqrt(mpmath.pi)) * mpmath.mpf(chi) ** 1.5
        assert float(abs(ref - target) / abs(target)) < 1e-14


@pytest.mark.parametrize("chi", [650.0, 690.0])
def test_z_from_chi_roundtrip_near_the_bracket_end(chi):
    # roots between mu = 640 and 700: the bracket's last doubling is clamped
    # to mu = 700 instead of passing over it
    z = z_from_chi(chi)
    assert 640.0 < math.log(z) < 700.0
    assert chi_from_z(z) == pytest.approx(chi, rel=1e-14)


def test_gauss_legendre_rule_is_numpys_bit_for_bit():
    nodes, weights = seeds_module._gauss_legendre()
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(64)
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()


def test_z_from_chi_below_edge_cuts_is_unchanged():
    # the extra panel cuts start at mu = 8, so calibrations below keep their bits
    assert z_from_chi(1.0).hex() == "0x1.f521108ebdddap-1"
    assert z_from_chi(8.0).hex() == "0x1.4f47fe5fe8dfbp+11"


def test_z_from_chi_rejects_nonpositive():
    with pytest.raises(ValueError):
        z_from_chi(0.0)


def test_degeneracy_calibration_consistency():
    # Li_{3/2}(-z) = -(4 / (3 sqrt(pi))) chi^(3/2) both ways round
    def residual(z, chi):
        return polylog_neg(1.5, z) + 4.0 / (3.0 * math.sqrt(math.pi)) * chi ** 1.5

    chi = chi_from_z(1.0)
    assert chi == pytest.approx(1.01, abs=0.01)
    assert abs(residual(1.0, chi)) < 1e-8
    z = z_from_chi(chi)
    assert z == pytest.approx(1.0, rel=1e-6)
    assert abs(residual(z, chi)) < 1e-8


# ---------------------------------------------------------------- seed spec

def test_parse_seed_specs():
    assert parse_seed_spec("mb").kind == "mb"
    fd = parse_seed_spec("fd:z=2.5")
    assert fd.kind == "fd" and fd.z == 2.5
    be = parse_seed_spec("be:z=0.25")
    assert be.kind == "be" and be.z == 0.25
    calibrated = parse_seed_spec("fd:chi=1.0")
    assert chi_from_z(calibrated.z) == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("text", ["fd", "fd:z=", "fd:z=abc", "xx:z=1",
                                  "mb:chi=1", "fd:q=1"])
def test_bad_seed_specs(text):
    with pytest.raises(ValueError):
        parse_seed_spec(text)


# Bits of derivative_table's rows, recorded before the table was written
# into one block and the pole sums were streamed: every order on each side
# of the pole radius and of _POLE_ORDER, on a 2-D array of energies.
TABLE_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "readout_digests.json").read_text())["derivative_table"]
TABLE_H = np.concatenate([np.linspace(-12.0, 12.0, 97),
                          [4.0 - 2.0 ** -40, 4.0 + 2.0 ** -40, 4.0 + math.log(40.0)]])


def table_digest(spec: str, j_max: int) -> str:
    h = TABLE_H if spec != "be:z=0.5" else np.abs(TABLE_H)
    h = h.reshape(4, 25)
    table = parse_seed_spec(spec).derivative_table(h, j_max)
    assert len(table) == j_max + 1 and all(row.shape == h.shape for row in table)
    return hashlib.sha256(b"".join(row.tobytes() for row in table)).hexdigest()


@pytest.mark.parametrize("spec", ["mb", "be:z=0.5", "fd:z=1", "fd:z=40"])
@pytest.mark.parametrize("j_max", [0, 11, 12, 13, 30, MAX_DERIV_ORDER])
def test_derivative_table_bits_are_pinned(spec, j_max):
    assert table_digest(spec, j_max) == TABLE_DIGESTS[f"{spec} {j_max}"]
