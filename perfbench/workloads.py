"""The four benchmark workloads: CLI arguments made from a seed, and output checks.

The seed perturbs values only (hbar, the fugacity or degeneracy, the ripple
amplitude ``a``); order, grid size, j-max and term structure stay fixed, so
every seed asks for the same shape of work.  Each value range was chosen so
that every seed exits 0.

Every check returns a list of problems (empty means the output is correct)
and judges the CLI's files against oracles outside the path under test: an
independent trapezoid rule and Q functional, a refit of the residual slope,
digests of the exact series committed in reference.json, and bit-identity
with point-wise evaluation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRID = ("--qrange=-4,4,401", "--prange=-4,4,401")
GRID_N = 401

# Ripple amplitudes for the modulated potential.  Each gives the same monomial
# structure (431 monomials at L=3, 3132 at L=5), so the choice changes values,
# not the work.  They stay at or below 3/7: from a = 4/7 up, the residual's
# high powers are large enough that the slope check still passes when the
# x-derivative term of the residual is off by 10%.
A_FAMILY = ("1/9", "2/9", "1/8", "1/7", "3/7", "1/5", "2/5", "3/10")

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str

    def params(self, seed: int) -> dict:
        """Seed-dependent values of this workload's inputs."""
        rng = random.Random(f"{self.name}/{seed}")
        if self.name == "evaluate-goldstone":
            return {"hbar": f"{rng.uniform(0.55, 0.65):.4f}",
                    "z": f"{rng.uniform(0.9, 1.1):.4f}"}
        if self.name == "sweep-L10":
            hbars = [f"{0.1 * i + rng.uniform(-0.03, 0.03):.4f}"
                     for i in range(1, 10)]
            return {"hbars": hbars, "chi": f"{rng.uniform(0.9, 1.1):.4f}",
                    "check_row": rng.randrange(9)}
        if self.name == "verify-modulated":
            return {"a": rng.choice(A_FAMILY),
                    "z": f"{rng.uniform(0.9, 1.1):.4f}"}
        return {"a": rng.choice(A_FAMILY)}

    def argv(self, params: dict, out: Path) -> list[str]:
        """CLI arguments for one invocation writing into ``out``."""
        if self.name == "evaluate-goldstone":
            return ["evaluate", "--potential", "goldstone", "--order", "5",
                    "--seed", self.seed_spec(params), "--hbar", params["hbar"],
                    *GRID, "--out", str(out)]
        if self.name == "sweep-L10":
            return ["diagnose", "--potential", "goldstone", "--order", "10",
                    "--seed", self.seed_spec(params),
                    "--hbar-list", ",".join(params["hbars"]),
                    *GRID, "--out", str(out)]
        if self.name == "verify-modulated":
            return ["verify", "--potential", f"modulated:a={params['a']}",
                    "--order", "3", "--seed", self.seed_spec(params),
                    "--j-max", "6", "--out", str(out)]
        return ["expand", "--potential", f"modulated:a={params['a']}",
                "--order", "5", "--out", str(out)]

    def seed_spec(self, params: dict) -> str | None:
        """The --seed argument, or None for expand (which takes no seed)."""
        if "chi" in params:
            return f"fd:chi={params['chi']}"
        if "z" in params:
            return f"fd:z={params['z']}"
        return None

    def output_files(self, out: Path) -> list[Path]:
        names = {"evaluate-goldstone": ("field.csv", "field.json"),
                 "sweep-L10": ("qsweep.csv", "qsweep.json"),
                 "verify-modulated": ("residual.json",),
                 "expand-modulated": ("series.json", "series.txt")}[self.name]
        return [out / n for n in names]

    def check(self, params: dict, out: Path) -> list[str]:
        """Full output check of one invocation's files (see module docstring)."""
        missing = [p.name for p in self.output_files(out) if not p.is_file()]
        if missing:
            return [f"missing output {', '.join(missing)}"]
        return {"evaluate-goldstone": _check_evaluate,
                "sweep-L10": _check_sweep,
                "verify-modulated": _check_verify,
                "expand-modulated": _check_expand}[self.name](params, out)


WORKLOADS = {w.name: w for w in (
    Workload("evaluate-goldstone",
             "401x401 field at L=5: import and the per-row CSV writer dominate, so lazy "
             "scipy and a vectorised CSV writer show here and the exact core does not"),
    Workload("sweep-L10",
             "9 fields at L=10, seed derivatives to j=30: seeds and field evaluation "
             "dominate; fd:chi calibration needs scipy, so lazy import should not help"),
    Workload("verify-modulated",
             "numeric residual at L=3: exact ring expressions built only to be sampled "
             "in floats dominate; no field, CSV or diagnostics run"),
    Workload("expand-modulated",
             "L=5 modulated series: exact construction is most of the work, then the "
             "series JSON and listing writers; the only build-dominated workload"),
)}


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def terms_digest(doc: dict) -> str:
    """Digest of a series document's exact terms, independent of formatting."""
    text = json.dumps(doc["terms"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def trapezoid_weights(a: float, b: float, n: int) -> np.ndarray:
    w = np.full(n, (b - a) / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _grid_integral(values: np.ndarray) -> float:
    w = trapezoid_weights(-4.0, 4.0, GRID_N)
    return float(w @ values @ w)


def _check_evaluate(params: dict, out: Path) -> list[str]:
    from qvlasov.evaluate import GridSpec, eval_point
    from qvlasov.potentials import resolve_potential
    from qvlasov.seeds import parse_seed_spec
    from qvlasov.series import build_series

    problems = []
    rows = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1)
    if rows.shape != (GRID_N * GRID_N, 3):
        return [f"field.csv has shape {rows.shape}"]
    if not np.all(np.isfinite(rows)):
        problems.append("field.csv holds non-finite values")
    values = rows[:, 2].reshape(GRID_N, GRID_N)
    integral = _grid_integral(values)
    if abs(integral - 1.0) > 1e-12:
        problems.append(f"trapezoid integral of the field is {integral!r}")
    sidecar = json.loads((out / "field.json").read_text())
    norm = sidecar["norm_constant"]
    series = build_series(resolve_potential("goldstone"), 5)
    seed = parse_seed_spec(f"fd:z={params['z']}")
    hbar = float(params["hbar"])
    grid = GridSpec(-4.0, 4.0, GRID_N, -4.0, 4.0, GRID_N)
    q, p = grid.q_axis(), grid.p_axis()
    rng = np.random.default_rng(17)
    for i, k in rng.integers(0, GRID_N, size=(32, 2)):
        point = eval_point(series, seed, hbar, q[i], p[k]) / norm
        if point != values[i, k] or rows[i * GRID_N + k, 0] != q[i] \
                or rows[i * GRID_N + k, 1] != p[k]:
            problems.append(f"grid value at ({i},{k}) differs from eval_point")
            break
    return problems


def _check_sweep(params: dict, out: Path) -> list[str]:
    from qvlasov.evaluate import GridSpec, eval_points
    from qvlasov.potentials import resolve_potential
    from qvlasov.seeds import parse_seed_spec
    from qvlasov.series import build_series

    lines = (out / "qsweep.csv").read_text().splitlines()
    if lines[0] != "hbar,Q,two_pi_hbar_Q" or len(lines) != 10:
        return [f"qsweep.csv has {len(lines) - 1} rows"]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if [r[0] for r in rows] != [float(h) for h in params["hbars"]]:
        return ["qsweep.csv hbar column differs from the request"]
    hbar, q_cli, bound_cli = rows[params["check_row"]]
    series = build_series(resolve_potential("goldstone"), 10)
    seed = parse_seed_spec(f"fd:chi={params['chi']}")
    grid = GridSpec(-4.0, 4.0, GRID_N, -4.0, 4.0, GRID_N)
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis(), indexing="ij")
    values = eval_points(series, seed, hbar, qq, pp)
    q_ref = _grid_integral(values**2) / _grid_integral(values) ** 2
    bound_ref = 2.0 * math.pi * hbar * q_ref
    if not (math.isclose(q_cli, q_ref, rel_tol=1e-9)
            and math.isclose(bound_cli, bound_ref, rel_tol=1e-9)):
        return [f"row {params['check_row']}: Q {q_cli!r} vs independent {q_ref!r}"]
    return []


def _check_verify(params: dict, out: Path) -> list[str]:
    doc = json.loads((out / "residual.json").read_text())
    claimed = doc["claimed_order"]
    if claimed != 8:
        return [f"claimed order {claimed}, expected 8"]
    if doc["passed"] is not True:
        return ["residual check did not pass"]
    log_h = np.log(doc["hbar_values"])
    log_r = np.log(doc["max_residuals"])
    x = log_h - log_h.mean()
    slope = float(x @ (log_r - log_r.mean()) / (x @ x))
    if not slope >= claimed - 0.5:
        return [f"refitted slope {slope:.3f} below {claimed - 0.5}"]
    if doc["slope"] is None or not math.isclose(slope, doc["slope"], rel_tol=1e-9):
        return [f"reported slope {doc['slope']!r} differs from refit {slope!r}"]
    return []


def _check_expand(params: dict, out: Path) -> list[str]:
    from qvlasov.series import WignerSeries

    text = (out / "series.json").read_text()
    doc = json.loads(text)
    doc.pop("config", None)
    if WignerSeries.from_json(text).to_json_dict() != doc:
        return ["series.json does not round-trip through WignerSeries.from_json"]
    reference = json.loads(REFERENCE_FILE.read_text())["expand-modulated"]
    if terms_digest(doc) != reference[params["a"]]:
        return [f"series terms for a={params['a']} differ from the reference"]
    return []


def accuracy(workload: Workload, params: dict, seed: int, field_calls) -> tuple[float, float]:
    """(field_rel_err, seeds.deriv_err_max) against mpmath references.

    ``field_calls`` holds (arguments, WignerField) of every eval_field call
    of one traced run.  The field error is taken from those fields at 32
    grid points drawn from the seed, over every hbar of the workload; the
    derivative error over every order the evaluation needs, at the energies
    of those points (for verify, at energies spanning the residual
    sampler's range).  0 where the workload has no field or no seed.
    """
    from accuracy import deriv_err_max, field_rel_err
    from qvlasov.seeds import parse_seed_spec

    rng = np.random.default_rng(seed)
    if workload.name == "verify-modulated":
        # residual sources reach f0^(3L + 2 j_max + 1) at L = 3, j_max = 6
        seed_dist = parse_seed_spec(workload.seed_spec(params))
        return 0.0, deriv_err_max(seed_dist, 22, rng.uniform(-1.0, 3.0, 48))
    if not field_calls:
        return 0.0, 0.0
    series, seed_dist = field_calls[0][0][:2]
    fields = [result for _, result in field_calls]
    qi, pi = rng.integers(0, GRID_N, size=(2, 32))
    qs, ps = fields[0].q_axis()[qi], fields[0].p_axis()[pi]
    hs = 0.5 * ps**2 + series.potential.evaluate(qs)
    return (field_rel_err(series, seed_dist, fields, qi, pi),
            deriv_err_max(seed_dist, series.max_deriv_order(), hs))
