"""Semiclassical series solutions of the stationary 1-D quantum Vlasov equation."""

from .diagnostics import (DiagnosticsReport, NegativityReport, diagnose,
                          marginals, negativity_report, q_functional, spikiness)
from .evaluate import (DEFAULT_GRID, GridSpec, OrderGrids, OrderMoments,
                       WignerField, eval_field, eval_point, eval_points,
                       order_grids, order_moments)
from .parser import ParseError, parse_potential
from .potentials import PRESETS, modulated_harmonic, resolve_potential
from .ring import Coefficient, Monomial, RingElem, RingError
from .seeds import (CombinedSeed, SeedDistribution, chi_from_z,
                    parse_seed_spec, polylog_neg, z_from_chi)
from .series import (SeriesTerm, WignerSeries, build_series, closed_form_f1,
                     integrate_term, recursion_rhs)
from .verify import ResidualReport, residual_numeric, residual_symbolic

__version__ = "0.1.0"

__all__ = [
    "Coefficient", "Monomial", "RingElem", "RingError",
    "ParseError", "parse_potential",
    "PRESETS", "modulated_harmonic", "resolve_potential",
    "SeedDistribution", "CombinedSeed",
    "parse_seed_spec", "polylog_neg", "chi_from_z", "z_from_chi",
    "SeriesTerm", "WignerSeries", "build_series", "closed_form_f1",
    "integrate_term", "recursion_rhs",
    "GridSpec", "DEFAULT_GRID", "WignerField", "eval_point", "eval_points",
    "eval_field", "order_grids", "OrderGrids", "order_moments", "OrderMoments",
    "DiagnosticsReport", "NegativityReport", "diagnose", "marginals",
    "q_functional", "spikiness", "negativity_report",
    "ResidualReport", "residual_symbolic", "residual_numeric",
    "__version__",
]
