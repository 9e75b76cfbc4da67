"""Command-line front end: expand | evaluate | diagnose | verify.

Configuration comes from flags plus an optional JSON config file whose keys
are the flag names with underscores; file values pass through the flag
converters, and flags override the file.  All outputs are plot-ready CSV
plus JSON sidecars, and every command is deterministic for a fixed
configuration.  A field command fills the grid once; a diagnose --hbar-list
sweep takes every Q from the order moments of its one fill.  A sidecar's
config block (_PROVENANCE) echoes the command, potential, order,
convention, seed, hbar, hbar_list and grid only: --no-normalize and
verify's --series, --mode, --samples and --j-max are not echoed.  Exit
codes: 0 success, 1 config error, 2 computation error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import diagnostics as diag
from .evaluate import (DEFAULT_GRID, GridSpec, NormalizationError, eval_field,
                       hbar_weights, order_grids, order_moments,
                       write_field_csv, write_field_sidecar)
from .parser import ParseError
from .potentials import resolve_potential
from .ring import RingElem, RingError
from .seeds import BracketError, QuadratureError, parse_seed_spec
from .series import (CONVENTIONS, MAX_ORDER, OrderError, TermBudgetError,
                     WignerSeries, build_series, write_json as _write_json,
                     write_series_json)
from .verify import MAX_SAMPLES, residual_numeric, residual_symbolic


# Most hbar values a --hbar-list may hold, which bounds a sweep's work.
MAX_HBARS = 1000


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


# Each setting once: its default, the one command that takes its flag (None:
# every command) and the flag's argparse keywords; the flag is the name with
# dashes.  Every command's namespace holds every setting, and the names are
# the config-file keys.
_SETTINGS = {
    "potential": ("", None, dict(help="expression in q, or preset name")),
    "order": (2, None, dict(
        type=int, help="truncation order L (keeps powers through hbar^(2L))")),
    "convention": ("paper", None, dict(choices=CONVENTIONS)),
    "seed": ("fd:z=1", None, dict(help="mb | fd:z=<r> | be:z=<r> | fd:chi=<r>")),
    "hbar": (None, None, dict(type=float)),
    "hbar_list": ((), None, dict(type=_float_list, help="comma-separated hbar values")),
    "qrange": ((DEFAULT_GRID.q_min, DEFAULT_GRID.q_max, DEFAULT_GRID.n_q), None,
               dict(type=_axis, help="a,b,n for the q grid")),
    "prange": ((DEFAULT_GRID.p_min, DEFAULT_GRID.p_max, DEFAULT_GRID.n_p), None,
               dict(type=_axis, help="a,b,n for the p grid")),
    "out": (Path("out"), None, dict(type=Path, help="output directory")),
    "config": (None, None, dict(help="JSON config file (flags override it)")),
    "no_normalize": (False, "evaluate", dict(action="store_true")),
    "series": (None, "verify", dict(type=Path, help="series JSON produced by expand")),
    "mode": ("auto", "verify", dict(choices=("auto", "symbolic", "numeric"))),
    "samples": (48, "verify", dict(type=int)),
    "j_max": (None, "verify", dict(type=int)),
}

# (setting, test, message): the test of a value that is not None.
_CHECKS = (
    ("order", lambda v: 0 <= v <= MAX_ORDER,
     f"--order must be between 0 and {MAX_ORDER}"),
    ("hbar", lambda v: math.isfinite(v) and v >= 0,
     "--hbar must be finite and nonnegative"),
    ("hbar_list", lambda v: all(math.isfinite(h) and h >= 0 for h in v),
     "--hbar-list values must be finite and nonnegative"),
    ("hbar_list", lambda v: len(v) <= MAX_HBARS,
     f"--hbar-list may hold at most {MAX_HBARS} values"),
    ("samples", lambda v: 1 <= v <= MAX_SAMPLES,
     f"--samples must be between 1 and {MAX_SAMPLES}"),
    ("j_max", lambda v: 1 <= v <= MAX_ORDER + 1,
     f"--j-max must be between 1 and {MAX_ORDER + 1}"),
)

# The settings a JSON document's config block echoes, before its grid.
_PROVENANCE = ("command", "potential", "order", "convention", "seed", "hbar",
               "hbar_list")


def _provenance(cfg: argparse.Namespace) -> dict:
    return {**{key: getattr(cfg, key) for key in _PROVENANCE},
            "grid": cfg.grid.to_json_dict()}


def _file_flags(path: str) -> list[str]:
    """The settings of a --config file as flags, so they take the flag converters.

    A sidecar's grid object becomes --qrange/--prange and its command is
    ignored.  Lists are joined with commas, true is a bare flag, and null,
    false and [] keep the default.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
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
        if key not in _SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not None and value is not False and value != []:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            flags.append(f"{flag}={value}")
    return flags


def build_config(argv: list[str]) -> argparse.Namespace:
    """Parse the command line and its --config file into checked settings.

    The parser holds only the sub-parser of the command argv names first.
    The file's settings go before the command line's own flags and are
    parsed with them, so flags win.  Malformed flags stop at the first one;
    the remaining problems are reported together.  The namespace also holds
    the checked grid, the resolved potential_elem and the parsed seed_dist
    (None where the command takes no seed).
    """
    parser = make_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args(argv[:1] + _file_flags(args.config) + argv[1:])
    errors = [message for key, test, message in _CHECKS
              if getattr(args, key) is not None and not test(getattr(args, key))]
    args.grid = args.potential_elem = args.seed_dist = None
    try:
        args.grid = GridSpec(*args.qrange, *args.prange)
    except ValueError as exc:
        errors.append(f"bad grid: {exc}")
    if args.series is None and not args.potential:
        errors.append("--potential is required")
    if args.potential:
        try:
            args.potential_elem = resolve_potential(args.potential)
        except ParseError as exc:
            errors.append(f"potential: {exc}")
    # only verify takes --mode, so every other command's mode is auto
    if args.command != "expand" and args.mode != "symbolic":
        try:
            args.seed_dist = parse_seed_spec(args.seed)
        except (ValueError, BracketError, QuadratureError) as exc:
            errors.append(f"seed: {exc}")
    if (args.command == "verify" and args.series is None
            and args.potential_elem is not None):
        problem = _verify_mode(args.potential_elem, args.order, args.mode,
                               args.j_max)[1]
        if problem:
            errors.append(problem)
    if args.command == "evaluate" and args.hbar is None:
        errors.append("evaluate needs --hbar")
    if args.command == "diagnose" and args.hbar is None and not args.hbar_list:
        errors.append("diagnose needs --hbar or --hbar-list")
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return args


def _verify_mode(potential: RingElem, order: int, mode: str,
                 j_max: int | None) -> tuple[str, str | None]:
    """The residual mode verify runs for this potential, and the config
    mistake in --mode or --j-max, if any."""
    if mode == "auto":
        mode = "numeric" if potential.has_trig() else "symbolic"
    if mode == "symbolic" and potential.has_trig():
        return mode, "--mode symbolic needs a polynomial potential"
    if mode == "numeric" and j_max is not None and j_max < order + 1:
        return mode, f"--j-max must be at least order + 1 = {order + 1}"
    return mode, None


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


def cmd_expand(cfg: argparse.Namespace) -> int:
    series = build_series(cfg.potential_elem, cfg.order, cfg.convention)
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_series_json(cfg.out / "series.json", series, _provenance(cfg))
    listing = _series_listing(series)
    (cfg.out / "series.txt").write_text(listing)
    sys.stdout.write(listing)
    print(f"wrote {cfg.out / 'series.json'}")
    return 0


def _warn_truncation(series: WignerSeries, sizes, hbar: float) -> None:
    """One stderr line if the series is truncated past its smallest term."""
    past = diag.past_smallest_term(sizes, hbar)
    if past:
        print(f"warning: hbar = {hbar:g}: the order-{series.order} term "
              f"is {past[1]:.3g} times the smallest, of order {past[0]}; "
              f"the series is truncated past its smallest term", file=sys.stderr)


def _field(series: WignerSeries, cfg: argparse.Namespace, normalize: bool):
    """The field at cfg.hbar on cfg.grid, after its truncation warning."""
    orders = order_grids(series, cfg.seed_dist, cfg.grid, cfg.hbar)
    _warn_truncation(series, orders.sizes, cfg.hbar)
    return eval_field(series, cfg.seed_dist, cfg.hbar, cfg.grid, normalize, orders)


def cmd_evaluate(cfg: argparse.Namespace) -> int:
    series = build_series(cfg.potential_elem, cfg.order, cfg.convention)
    field_ = _field(series, cfg, not cfg.no_normalize)
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_field_csv(field_, cfg.out / "field.csv")
    write_field_sidecar(field_, cfg.out / "field.json", cfg.seed, {
        "order": series.order, "convention": series.convention,
        "potential": str(series.potential), "config": _provenance(cfg)})
    held = field_.row_values
    print(f"min f = {held.min():.6e}  max f = {held.max():.6e}  "
          f"norm constant = {field_.norm_constant:.6e}")
    print(f"wrote {cfg.out / 'field.csv'}")
    return 0


def cmd_diagnose(cfg: argparse.Namespace) -> int:
    series = build_series(cfg.potential_elem, cfg.order, cfg.convention)
    if cfg.hbar_list:
        for hbar in cfg.hbar_list:      # every weight before the one fill
            hbar_weights(hbar, range(len(series.terms)))
        moments = order_moments(series, cfg.seed_dist, cfg.grid)
        rows = []
        for hbar in cfg.hbar_list:
            _warn_truncation(series, moments.sizes, hbar)
            rows.append((hbar, *diag.spikiness(*moments.integrals(hbar), hbar)))
        cfg.out.mkdir(parents=True, exist_ok=True)
        sweep_path = cfg.out / "qsweep.csv"
        with open(sweep_path, "w") as fh:
            fh.write("hbar,Q,two_pi_hbar_Q\n")
            for hbar, q_value, bound, _ in rows:
                fh.write(f"{hbar!r},{q_value!r},{bound!r}\n")
        _write_json(cfg.out / "qsweep.json", {
            "rows": [{"hbar": h, "Q": qv, "two_pi_hbar_Q": b,
                      "uncertainty_ok": v} for h, qv, b, v in rows],
            "config": _provenance(cfg),
        })
        for hbar, _, bound, verdict in rows:
            print(f"hbar = {hbar:g}: 2*pi*hbar*Q = {bound:.6f}  "
                  f"ok = {verdict}")
        print(f"wrote {sweep_path}")
        return 0
    report = diag.diagnose(_field(series, cfg, True))
    cfg.out.mkdir(parents=True, exist_ok=True)
    doc = report.to_json_dict()
    doc["config"] = _provenance(cfg)
    _write_json(cfg.out / "diagnostics.json", doc)
    diag.write_marginal_csv(report.q, report.p_q, "q,P_q",
                            cfg.out / "marginal_q.csv")
    diag.write_marginal_csv(report.p, report.p_p, "p,P_p",
                            cfg.out / "marginal_p.csv")
    verdict = ("not applicable" if report.uncertainty_ok is None
               else str(report.uncertainty_ok))
    print(f"min f = {report.min_f:.6e} at {report.argmin_f}")
    print(f"min P_q = {report.min_pq:.6e}  min P_p = {report.min_pp:.6e}")
    print(f"2*pi*hbar*Q = {report.bound_2pi_hbar_q:.6f}  within bound: {verdict}")
    print(f"wrote {cfg.out / 'diagnostics.json'}")
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    if cfg.series is None:
        series = build_series(cfg.potential_elem, cfg.order, cfg.convention)
    else:
        try:
            series = WignerSeries.from_json(cfg.series.read_text())
        except OrderError as exc:
            raise ConfigError(f"series: {exc}") from None
        cfg.potential = str(series.potential)
        cfg.order, cfg.convention = series.order, series.convention
    mode, problem = _verify_mode(series.potential, series.order, cfg.mode,
                                 cfg.j_max)
    if problem:
        raise ConfigError(problem)
    if mode == "symbolic":
        report = residual_symbolic(series)
    else:
        hbars = cfg.hbar_list or [0.05, 0.0707, 0.1, 0.141, 0.2]
        report = residual_numeric(series, cfg.seed_dist, hbars,
                                  samples=cfg.samples,
                                  j_max=cfg.j_max)
    cfg.out.mkdir(parents=True, exist_ok=True)
    doc = report.to_json_dict()
    doc["config"] = _provenance(cfg)
    _write_json(cfg.out / "residual.json", doc)
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
    print(f"wrote {cfg.out / 'residual.json'}")
    return 0 if report.passed else 3


_COMMANDS = {
    "expand": (cmd_expand, "build the expansion and write it as JSON + listing"),
    "evaluate": (cmd_evaluate, "evaluate the Wigner function on a grid (CSV)"),
    "diagnose": (cmd_diagnose, "marginals, spikiness bound and negativity report"),
    "verify": (cmd_verify, "residual-order check of a built expansion"),
}


def make_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The qvlasov parser.  Given the name of a command, it holds only that
    command's sub-parser, which parses that command's arguments as the full
    parser does; given anything else (None, --help, an unknown name) it
    holds all four, so top-level help and errors list every command."""
    parser = _Parser(
        prog="qvlasov",
        description="Semiclassical expansion of the stationary quantum "
                    "Vlasov equation: build, evaluate, diagnose, verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        if command in _COMMANDS and name != command:
            continue
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(**{key: default for key, (default, _, _) in _SETTINGS.items()})
        for key, (_, only, flag) in _SETTINGS.items():
            if only in (None, name):
                cmd.add_argument("--" + key.replace("_", "-"), **flag)
    return parser


def main(argv=None) -> int:
    try:
        cfg = build_config(sys.argv[1:] if argv is None else list(argv))
        return _COMMANDS[cfg.command][0](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RingError, QuadratureError, BracketError, NormalizationError,
            diag.DegenerateFieldError, TermBudgetError, OSError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
