"""Faithfulness diagnostics for evaluated Wigner fields.

A physically admissible Wigner function has nonnegative position and
momentum marginals and cannot be too spiky: the normalized integral of f^2
times 2*pi*hbar must not exceed one.  These necessary conditions double as
accuracy tests for a truncated expansion.  All integrals take the grid's
one trapezoid rule (evaluate.GridSpec), on its uniform steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evaluate import WignerField, hbar_weights

# Values below -NEGATIVITY_EPSILON_REL * max are counted as negative, so
# roundoff-level noise below zero is not.
NEGATIVITY_EPSILON_REL = 1e-9


class DegenerateFieldError(RuntimeError):
    """Field integrates to a non-positive value; marginals are undefined."""


def _positive(total: float) -> float:
    """total, a field's grid integral; DegenerateFieldError unless it is
    finite and positive."""
    if not np.isfinite(total) or total <= 0:
        raise DegenerateFieldError(f"field integral {total!r} is not positive")
    return total


def marginals(field: WignerField,
              sums: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum marginal densities, each integrating to one.

    P_q sums the held rows over p, and its q sum is the field's integral.
    P_p sums over q down the full grid, gathered from them, in grid order.
    sums takes the held rows' p sums, GridSpec.p_sums(field.row_values),
    when the caller already has them.
    """
    grid = field.grid
    if sums is None:
        sums = grid.p_sums(field.row_values)
    total = _positive(grid.row_integral(sums, field.rows))
    h_q, h_p = grid.steps()
    return sums[field.rows] * h_p / total, grid.q_sums(field.values) * h_q / total


def q_functional(field: WignerField, sums: np.ndarray | None = None):
    """Spikiness functional Q, the bound product 2*pi*hbar*Q, and the verdict.

    Q is invariant under rescaling of the field, so it applies to
    unnormalized fields as well.  The verdict is None when hbar = 0.  Both
    integrals run over the field's held rows, through its row map; sums
    takes the held rows' p sums as marginals does.

    Both are taken in units of the power of two 2^e just above the largest
    |f|, as order_moments does, so that f^2 neither underflows nor
    overflows where Q does not.  A power of two scales every sum exactly,
    so Q keeps the bits of the unscaled quotient wherever its sums stay
    in the normal range.
    """
    if sums is None:
        sums = field.grid.p_sums(field.row_values)
    total = _positive(field.grid.row_integral(sums, field.rows))
    values = field.row_values
    e = int(np.frexp(max(values.max(), -values.min()))[1])
    scaled = np.ldexp(values, -e)
    scaled *= scaled
    second = field.grid.integral(scaled, field.rows)
    total = float(np.ldexp(total, -e))
    return spikiness(total, second, field.hbar)


def spikiness(total: float, second: float, hbar: float):
    """Q = second / total^2 from the integrals of a field and of its square
    (or c and c^2 times them), 2*pi*hbar*Q and the verdict (None at 0)."""
    try:
        q_value = second / total**2
    except OverflowError:   # total^2 is past the float range, Q need not be
        q_value = second / total / total
    bound = 2.0 * np.pi * hbar * q_value
    verdict = bool(bound <= 1.0) if hbar > 0 else None
    return q_value, bound, verdict


def past_smallest_term(sizes, hbar: float):
    """(l, T_L / T_l) when the last term T_L = hbar^(2L) sizes[L] is larger
    than the smallest nonzero term T_l = hbar^(2l) sizes[l], else None.

    Past its smallest term an asymptotic series gets worse with each order
    it keeps, so the truncation is no longer optimal (Berry & Howls, Proc.
    R. Soc. A 430, 653 (1990)).  Orders that vanish on the grid, or whose
    weight is zero, do not count.  HbarOverflowError when a weight
    hbar^(2l) exceeds the float range.
    """
    weights = hbar_weights(hbar, range(len(sizes)))
    terms = [w * size if w != 0.0 else 0.0 for w, size in zip(weights, sizes)]
    smallest, l = min(((t, l) for l, t in enumerate(terms) if t != 0.0),
                      default=(math.inf, 0))
    if terms[-1] > smallest:
        return l, terms[-1] / smallest
    return None


@dataclass
class NegativityReport:
    min_value: float
    location: tuple
    fraction_below: float

    def to_json_dict(self) -> dict:
        return {"min_value": self.min_value, "location": list(self.location),
                "fraction_below": self.fraction_below}


def negativity_report(values: np.ndarray,
                      axes: tuple[np.ndarray, ...]) -> NegativityReport:
    """Scan a field or marginal for values below -NEGATIVITY_EPSILON_REL * max."""
    values = np.asarray(values)
    threshold = -NEGATIVITY_EPSILON_REL * float(values.max())
    flat_idx = int(values.argmin())
    idx = np.unravel_index(flat_idx, values.shape)
    location = tuple(float(axis[i]) for axis, i in zip(axes, idx))
    fraction = float(np.count_nonzero(values < threshold)) / values.size
    return NegativityReport(min_value=float(values.min()), location=location,
                            fraction_below=fraction)


@dataclass
class DiagnosticsReport:
    q: np.ndarray
    p: np.ndarray
    p_q: np.ndarray
    p_p: np.ndarray
    q_value: float
    bound_2pi_hbar_q: float
    uncertainty_ok: bool | None
    min_f: float
    argmin_f: tuple
    min_pq: float
    min_pp: float
    norm_residual: float
    negativity: NegativityReport | None = None

    def to_json_dict(self) -> dict:
        return {
            "Q": self.q_value,
            "two_pi_hbar_Q": self.bound_2pi_hbar_q,
            "uncertainty_ok": self.uncertainty_ok,
            "min_f": self.min_f,
            "argmin_f": list(self.argmin_f),
            "min_Pq": self.min_pq,
            "min_Pp": self.min_pp,
            "norm_residual": self.norm_residual,
            "negativity": self.negativity.to_json_dict() if self.negativity else None,
            "q": [float(v) for v in self.q],
            "P_q": [float(v) for v in self.p_q],
            "p": [float(v) for v in self.p],
            "P_p": [float(v) for v in self.p_p],
        }


def diagnose(field: WignerField) -> DiagnosticsReport:
    """Full diagnostics bundle for one field; P_p and the negativity scan
    read the full grid, which the field gathers once for both.  The held
    rows are summed over p once, for P_q, Q and the norm residual."""
    sums = field.grid.p_sums(field.row_values)
    p_q, p_p = marginals(field, sums)
    q_value, bound, verdict = q_functional(field, sums)
    neg = negativity_report(field.values, (field.q_axis(), field.p_axis()))
    norm_residual = (field.grid.row_integral(sums, field.rows) - 1.0
                     if field.normalized else 0.0)
    return DiagnosticsReport(
        q=field.q_axis(), p=field.p_axis(), p_q=p_q, p_p=p_p,
        q_value=q_value, bound_2pi_hbar_q=bound, uncertainty_ok=verdict,
        min_f=neg.min_value, argmin_f=neg.location,
        min_pq=float(p_q.min()), min_pp=float(p_p.min()),
        norm_residual=float(norm_residual), negativity=neg)


def write_marginal_csv(axis: np.ndarray, density: np.ndarray, header: str,
                       path) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for x, y in zip(axis, density):
            fh.write(f"{float(x)!r},{float(y)!r}\n")
