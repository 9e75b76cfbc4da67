"""Command-line front end: expand | evaluate | diagnose | verify.

Configuration comes from flags plus an optional JSON config file whose keys
are the flag names with underscores; file values pass through the flag
converters, and flags override the file.  All outputs are plot-ready CSV
plus JSON sidecars that echo the full configuration, and every command is
deterministic for a fixed configuration.  Exit codes: 0 success, 1 config
error, 2 computation error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import diagnostics as diag
from .evaluate import (DEFAULT_GRID, GridSpec, NormalizationError, eval_field,
                       write_field_csv, write_field_sidecar)
from .parser import ParseError
from .potentials import resolve_potential
from .ring import RingElem, RingError
from .seeds import (BracketError, QuadratureError, SeedDomainError,
                    parse_seed_spec)
from .series import CONVENTIONS, TermBudgetError, WignerSeries, build_series
from .verify import SymbolicResidualError, residual_numeric, residual_symbolic


class ConfigError(ValueError):
    """Invalid run configuration; message aggregates all problems."""


class _Parser(argparse.ArgumentParser):
    """Reports malformed flags as a ConfigError (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _axis(text: str) -> tuple[float, float, int]:
    try:
        a, b, n = text.split(",")
        return float(a), float(b), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a,b,n, got {text!r}") from None


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated numbers, got {text!r}") from None


# Every command's namespace holds every setting, with its default declared
# here once; the keys are also the accepted config-file keys.
_DEFAULTS = {
    "potential": "", "order": 2, "convention": "paper", "seed": "fd:z=1",
    "hbar": None, "hbar_list": (),
    "qrange": (DEFAULT_GRID.q_min, DEFAULT_GRID.q_max, DEFAULT_GRID.n_q),
    "prange": (DEFAULT_GRID.p_min, DEFAULT_GRID.p_max, DEFAULT_GRID.n_p),
    "out": Path("out"), "config": None, "no_normalize": False, "series": None,
    "mode": "auto", "samples": 48, "j_max": None,
}


@dataclass
class RunConfig:
    """Checked settings of one run, with the potential and seed resolved."""

    command: str
    potential_text: str
    potential: RingElem | None
    order: int
    convention: str
    seed_spec: str
    seed: object
    hbar: float | None
    hbar_list: tuple[float, ...]
    grid: GridSpec
    out_dir: Path
    series_file: Path | None
    mode: str
    samples: int
    j_max: int | None
    no_normalize: bool

    def provenance(self) -> dict:
        return {
            "command": self.command,
            "potential": self.potential_text,
            "order": self.order,
            "convention": self.convention,
            "seed": self.seed_spec,
            "hbar": self.hbar,
            "hbar_list": self.hbar_list,
            "grid": self.grid.to_json_dict(),
        }


def _file_flags(path: str) -> list[str]:
    """The settings of a --config file as flags, so they take the flag converters.

    A sidecar's grid object becomes --qrange/--prange and its command is
    ignored.  Lists are joined with commas, true is a bare flag, and null,
    false and [] keep the default.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    data.pop("command", None)
    flags = []
    grid = data.pop("grid", None)
    if grid is not None:
        g = DEFAULT_GRID.to_json_dict()
        if not isinstance(grid, dict) or not grid.keys() <= g.keys():
            raise ConfigError(f"config grid must be an object with keys {sorted(g)}")
        g.update(grid)
        flags += [f"--{a}range={g[f'{a}_min']},{g[f'{a}_max']},{g[f'n_{a}']}"
                  for a in "qp"]
    for key, value in data.items():
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not None and value is not False and value != []:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            flags.append(f"{flag}={value}")
    return flags


def build_config(argv: list[str]) -> RunConfig:
    """Parse the command line and its --config file into a checked RunConfig.

    The file's settings go before the command line's own flags and are
    parsed with them, so flags win.  Malformed flags stop at the first one;
    the remaining problems are reported together.
    """
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args(argv[:1] + _file_flags(args.config) + argv[1:])
    errors: list[str] = []
    if args.order < 0:
        errors.append("--order must be nonnegative")
    if args.hbar is not None and not (math.isfinite(args.hbar) and args.hbar >= 0):
        errors.append("--hbar must be finite and nonnegative")
    if not all(math.isfinite(h) and h >= 0 for h in args.hbar_list):
        errors.append("--hbar-list values must be finite and nonnegative")
    if args.samples < 1:
        errors.append("--samples must be at least 1")
    if args.j_max is not None and args.j_max < 1:
        errors.append("--j-max must be at least 1")
    grid = None
    try:
        grid = GridSpec(*args.qrange, *args.prange)
    except ValueError as exc:
        errors.append(f"bad grid: {exc}")
    if args.series is None and not args.potential:
        errors.append("--potential is required")
    potential = seed = None
    if args.potential:
        try:
            potential = resolve_potential(args.potential)
        except ParseError as exc:
            errors.append(f"potential: {exc}")
    if args.command in ("evaluate", "diagnose") or (
            args.command == "verify" and args.mode != "symbolic"):
        try:
            seed = parse_seed_spec(args.seed)
        except (ValueError, BracketError, QuadratureError) as exc:
            errors.append(f"seed: {exc}")
    if args.command == "evaluate" and args.hbar is None:
        errors.append("evaluate needs --hbar")
    if args.command == "diagnose" and args.hbar is None and not args.hbar_list:
        errors.append("diagnose needs --hbar or --hbar-list")
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return RunConfig(
        command=args.command, potential_text=args.potential, potential=potential,
        order=args.order, convention=args.convention, seed_spec=args.seed,
        seed=seed, hbar=args.hbar, hbar_list=args.hbar_list, grid=grid,
        out_dir=args.out, series_file=args.series, mode=args.mode,
        samples=args.samples, j_max=args.j_max, no_normalize=args.no_normalize)


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _series_listing(series: WignerSeries) -> str:
    lines = [f"potential: {series.potential}",
             f"order: {series.order}  convention: {series.convention}"]
    for l, term in enumerate(series.terms):
        lines.append(f"f_{l}:")
        if term.is_zero():
            lines.append("  0")
            continue
        for (m, j), c in term.cells():
            h_part = "" if m == 0 else (" * H" if m == 1 else f" * H^{m}")
            lines.append(f"  [f0^({j}){h_part}]  {c}")
    return "\n".join(lines) + "\n"


def cmd_expand(cfg: RunConfig) -> int:
    series = build_series(cfg.potential, cfg.order, cfg.convention)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    doc = series.to_json_dict()
    doc["config"] = cfg.provenance()
    _write_json(cfg.out_dir / "series.json", doc)
    listing = _series_listing(series)
    (cfg.out_dir / "series.txt").write_text(listing)
    sys.stdout.write(listing)
    print(f"wrote {cfg.out_dir / 'series.json'}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    series = build_series(cfg.potential, cfg.order, cfg.convention)
    field_ = eval_field(series, cfg.seed, cfg.hbar, cfg.grid,
                        normalize=not cfg.no_normalize, seed_spec=cfg.seed_spec,
                        series_meta={"order": series.order,
                                     "convention": series.convention,
                                     "potential": str(series.potential)})
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_field_csv(field_, cfg.out_dir / "field.csv")
    write_field_sidecar(field_, cfg.out_dir / "field.json", cfg.provenance())
    print(f"min f = {field_.values.min():.6e}  max f = {field_.values.max():.6e}  "
          f"norm constant = {field_.norm_constant:.6e}")
    print(f"wrote {cfg.out_dir / 'field.csv'}")
    return 0


def cmd_diagnose(cfg: RunConfig) -> int:
    series = build_series(cfg.potential, cfg.order, cfg.convention)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.hbar_list:
        rows = []
        for hbar in cfg.hbar_list:
            field_ = eval_field(series, cfg.seed, hbar, cfg.grid,
                                seed_spec=cfg.seed_spec)
            q_value, bound, verdict = diag.q_functional(field_)
            rows.append((hbar, q_value, bound, verdict))
        sweep_path = cfg.out_dir / "qsweep.csv"
        with open(sweep_path, "w") as fh:
            fh.write("hbar,Q,two_pi_hbar_Q\n")
            for hbar, q_value, bound, _ in rows:
                fh.write(f"{hbar!r},{q_value!r},{bound!r}\n")
        _write_json(cfg.out_dir / "qsweep.json", {
            "rows": [{"hbar": h, "Q": qv, "two_pi_hbar_Q": b,
                      "uncertainty_ok": v} for h, qv, b, v in rows],
            "config": cfg.provenance(),
        })
        for hbar, _, bound, verdict in rows:
            print(f"hbar = {hbar:g}: 2*pi*hbar*Q = {bound:.6f}  "
                  f"ok = {verdict}")
        print(f"wrote {sweep_path}")
        return 0
    field_ = eval_field(series, cfg.seed, cfg.hbar, cfg.grid,
                        seed_spec=cfg.seed_spec)
    report = diag.diagnose(field_)
    doc = report.to_json_dict()
    doc["config"] = cfg.provenance()
    _write_json(cfg.out_dir / "diagnostics.json", doc)
    diag.write_marginal_csv(report.q, report.p_q, "q,P_q",
                            cfg.out_dir / "marginal_q.csv")
    diag.write_marginal_csv(report.p, report.p_p, "p,P_p",
                            cfg.out_dir / "marginal_p.csv")
    verdict = ("not applicable" if report.uncertainty_ok is None
               else str(report.uncertainty_ok))
    print(f"min f = {report.min_f:.6e} at {report.argmin_f}")
    print(f"min P_q = {report.min_pq:.6e}  min P_p = {report.min_pp:.6e}")
    print(f"2*pi*hbar*Q = {report.bound_2pi_hbar_q:.6f}  within bound: {verdict}")
    print(f"wrote {cfg.out_dir / 'diagnostics.json'}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.series_file is None:
        series = build_series(cfg.potential, cfg.order, cfg.convention)
    else:
        series = WignerSeries.from_json(cfg.series_file.read_text())
        cfg.potential_text = str(series.potential)
        cfg.order, cfg.convention = series.order, series.convention
    mode = cfg.mode
    if mode == "auto":
        mode = "numeric" if series.potential.has_trig() else "symbolic"
    if mode == "symbolic":
        report = residual_symbolic(series)
    else:
        hbars = cfg.hbar_list or [0.05, 0.0707, 0.1, 0.141, 0.2]
        report = residual_numeric(series, cfg.seed, hbars,
                                  samples=cfg.samples,
                                  j_max=cfg.j_max)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    doc = report.to_json_dict()
    doc["config"] = cfg.provenance()
    _write_json(cfg.out_dir / "residual.json", doc)
    print(f"mode: {report.mode}   claimed order: {report.claimed_order}")
    if report.mode == "symbolic":
        shown = "zero residual" if report.observed_order is None \
            else str(report.observed_order)
        print(f"observed order: {shown}")
    elif report.slope is None:
        print("residuals at roundoff floor (numerically zero)")
    else:
        print(f"fitted slope: {report.slope:.3f} +- {report.slope_stderr:.3f}")
    print(f"passed: {report.passed}")
    print(f"wrote {cfg.out_dir / 'residual.json'}")
    return 0 if report.passed else 3


_COMMANDS = {
    "expand": cmd_expand,
    "evaluate": cmd_evaluate,
    "diagnose": cmd_diagnose,
    "verify": cmd_verify,
}


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qvlasov",
        description="Semiclassical expansion of the stationary quantum "
                    "Vlasov equation: build, evaluate, diagnose, verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("expand", "build the expansion and write it as JSON + listing"),
            ("evaluate", "evaluate the Wigner function on a grid (CSV)"),
            ("diagnose", "marginals, spikiness bound and negativity report"),
            ("verify", "residual-order check of a built expansion")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(**_DEFAULTS)
        cmd.add_argument("--potential", help="expression in q, or preset name")
        cmd.add_argument("--order", type=int,
                         help="truncation order L (keeps powers through hbar^(2L))")
        cmd.add_argument("--convention", choices=CONVENTIONS)
        cmd.add_argument("--seed", help="mb | fd:z=<r> | be:z=<r> | fd:chi=<r>")
        cmd.add_argument("--hbar", type=float)
        cmd.add_argument("--hbar-list", type=_float_list,
                         help="comma-separated hbar values")
        cmd.add_argument("--qrange", type=_axis, help="a,b,n for the q grid")
        cmd.add_argument("--prange", type=_axis, help="a,b,n for the p grid")
        cmd.add_argument("--out", type=Path, help="output directory")
        cmd.add_argument("--config", help="JSON config file (flags override it)")
        if name == "evaluate":
            cmd.add_argument("--no-normalize", action="store_true")
        if name == "verify":
            cmd.add_argument("--series", type=Path,
                             help="series JSON produced by expand")
            cmd.add_argument("--mode", choices=("auto", "symbolic", "numeric"))
            cmd.add_argument("--samples", type=int)
            cmd.add_argument("--j-max", type=int)
    return parser


def main(argv=None) -> int:
    try:
        cfg = build_config(sys.argv[1:] if argv is None else list(argv))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[cfg.command](cfg)
    except (RingError, ParseError, SeedDomainError, QuadratureError,
            BracketError, NormalizationError, diag.DegenerateFieldError,
            TermBudgetError, SymbolicResidualError, OSError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
