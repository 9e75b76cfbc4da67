"""Numeric evaluation of an expansion on phase-space grids.

Point and grid evaluation share one vectorized code path, so grid values are
bit-identical to pointwise calls.  Cells are grouped by seed-derivative
order; for each order the accumulated polynomial in H is evaluated by
Horner's rule to limit cancellation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .series import WignerSeries


class NormalizationError(RuntimeError):
    """Grid integral of the field is non-positive or not finite."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid on phase space."""

    q_min: float
    q_max: float
    n_q: int
    p_min: float
    p_max: float
    n_p: int

    def __post_init__(self):
        bounds = (self.q_min, self.q_max, self.p_min, self.p_max)
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError("grid bounds must be finite")
        if not (self.q_min < self.q_max and self.p_min < self.p_max):
            raise ValueError("grid bounds must satisfy min < max")
        if self.n_q < 2 or self.n_p < 2:
            raise ValueError("grids need at least 2 points per axis")

    def q_axis(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.n_q)

    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)

    def integral(self, values: np.ndarray) -> float:
        """Double trapezoid integral of values sampled on this grid."""
        return float(np.trapezoid(np.trapezoid(values, self.p_axis(), axis=1),
                                  self.q_axis()))

    def to_json_dict(self) -> dict:
        return {"q_min": self.q_min, "q_max": self.q_max, "n_q": self.n_q,
                "p_min": self.p_min, "p_max": self.p_max, "n_p": self.n_p}

    @classmethod
    def from_json_dict(cls, data) -> "GridSpec":
        return cls(float(data["q_min"]), float(data["q_max"]), int(data["n_q"]),
                   float(data["p_min"]), float(data["p_max"]), int(data["n_p"]))


DEFAULT_GRID = GridSpec(-4.0, 4.0, 401, -4.0, 4.0, 401)


def _grouped_cells(series: WignerSeries, hbar: float):
    """Collapse all orders into per-(j, m) lists of (hbar^(2l), ring elem)."""
    groups: dict[int, dict[int, list]] = {}
    for l, term in enumerate(series.terms):
        weight = hbar ** (2 * l)
        if l > 0 and weight == 0.0:
            continue
        for (m, j), c in term.cells():
            groups.setdefault(j, {}).setdefault(m, []).append((weight, c))
    return groups


def _series_eval(series: WignerSeries, seed, hbar: float, q, h):
    """Sum over orders of hbar^(2l) f_l at position q and energy h."""
    groups = _grouped_cells(series, hbar)
    total = np.zeros(np.broadcast(np.asarray(q, float), np.asarray(h, float)).shape)
    for j in sorted(groups):
        by_power = groups[j]
        val = 0.0
        for m in range(max(by_power), -1, -1):
            coeff = 0.0
            for weight, c in by_power.get(m, ()):
                coeff = coeff + weight * c.evaluate(q)
            val = val * h + coeff
        total = total + val * seed.f0_deriv(j, h)
    return total


def eval_points(series: WignerSeries, seed, hbar: float, q, p) -> np.ndarray:
    """Wigner-function values at arrays of phase-space points (elementwise)."""
    if hbar < 0:
        raise ValueError("hbar must be nonnegative")
    q = np.asarray(q, dtype=float)
    h = 0.5 * np.asarray(p, dtype=float) ** 2 + series.potential.evaluate(q)
    return _series_eval(series, seed, hbar, q, h)


def eval_point(series: WignerSeries, seed, hbar: float, q: float, p: float) -> float:
    """Wigner-function value at one phase-space point."""
    return float(eval_points(series, seed, hbar, np.float64(q), np.float64(p)))


@dataclass
class WignerField:
    """Evaluated Wigner function on a grid, with normalization metadata."""

    grid: GridSpec
    hbar: float
    values: np.ndarray
    norm_constant: float
    normalized: bool
    seed_spec: str
    series_meta: dict = field(default_factory=dict)

    def q_axis(self) -> np.ndarray:
        return self.grid.q_axis()

    def p_axis(self) -> np.ndarray:
        return self.grid.p_axis()


def eval_field(series: WignerSeries, seed, hbar: float, grid: GridSpec,
               normalize: bool = True, seed_spec: str = "",
               series_meta: dict | None = None) -> WignerField:
    """Dense evaluation on the grid, optionally normalized to unit integral."""
    if hbar < 0:
        raise ValueError("hbar must be nonnegative")
    q = grid.q_axis()
    p = grid.p_axis()
    v_q = series.potential.evaluate(q)
    h = 0.5 * p[None, :] ** 2 + v_q[:, None]
    values = _series_eval(series, seed, hbar, q[:, None], h)
    norm = grid.integral(values)
    if normalize:
        if not np.isfinite(norm) or norm <= 0:
            raise NormalizationError(
                f"field integral {norm!r} is not normalizable")
        values = values / norm
    return WignerField(grid=grid, hbar=hbar, values=values, norm_constant=norm,
                       normalized=normalize, seed_spec=seed_spec,
                       series_meta=dict(series_meta or {}))


def write_field_csv(field: WignerField, path) -> None:
    """Row-major q,p,f rows with round-trip float formatting."""
    q = field.q_axis()
    p = field.p_axis()
    with open(path, "w") as fh:
        fh.write("q,p,f\n")
        for i in range(field.grid.n_q):
            qi = repr(float(q[i]))
            row = field.values[i]
            for k in range(field.grid.n_p):
                fh.write(f"{qi},{float(p[k])!r},{float(row[k])!r}\n")


def field_sidecar_dict(field: WignerField, provenance: dict | None = None) -> dict:
    out = {
        "grid": field.grid.to_json_dict(),
        "hbar": field.hbar,
        "normalized": field.normalized,
        "norm_constant": field.norm_constant,
        "seed": field.seed_spec,
        "min_f": float(field.values.min()),
        "max_f": float(field.values.max()),
    }
    out.update(field.series_meta)
    if provenance:
        out["config"] = provenance
    return out


def write_field_sidecar(field: WignerField, path, provenance: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(field_sidecar_dict(field, provenance), fh, indent=2)
        fh.write("\n")
