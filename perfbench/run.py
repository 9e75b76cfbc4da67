"""qvlasov benchmark: the four CLI commands on four seeded workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every end-to-end metric of every workload, by name and unit:

    for w in evaluate-goldstone sweep-L10 verify-modulated expand-modulated; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done

Workloads are defined in workloads.py.  The benchmark process runs one CLI child
at a time, a closed loop with a single client, with BLAS/OpenMP threads
pinned to 1.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 measures the end-to-end metrics with tracing off, each the median
over the run's samples:
  setup_s      time from starting the CLI child to qvlasov.cli imported in it
  cli_s        wall time of the CLI command as a child process
  job_s        time of qvlasov.cli.main(argv) inside that child, after the
               package is imported
  peak_rss_mb  peak resident memory of the CLI child (wait4 rusage)
The times are in reference seconds.  On a shared machine other tenants can
slow the CPU by a third or more for seconds to minutes at a time, so a fixed
calibration (calibrate) runs in this process after every CLI child, and
each sample is scaled by CALIBRATION_REF_S over the mean of the two
calibrations around it.  The summary lines above the JSON add the sample
count, with more than 20 samples the highest percentile with ten samples
beyond it, and the unscaled medians.

--trace 1 makes the traced run: the per-layer metrics from spans recorded
around each module's public functions (spans.py), import statistics from
`python -X importtime`, the accuracy of the float field and of the seed
derivatives against mpmath references (accuracy.py), and the tracing
overhead.  Span times are self times, so by construction the *_s layer
metrics add up to the traced job time (trace.job_s), cli.self_s being the
remainder.

Every invocation counts as attempted.  It fails on an unexpected exit code,
an exception, or an output check: the first successful output set of a run
is checked against independent oracles (workloads.py), and every later one
must be byte-identical to it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib.metadata
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
CALIBRATION_REF_S = 0.123  # median of calibrate() on a 2-vCPU Xeon VM, python 3.11
CHILD_TIMEOUT = 120.0    # seconds before a hung child is killed
IMPORT_REPEATS = 3

END_TO_END = {"setup_s": "s", "cli_s": "s", "job_s": "s", "peak_rss_mb": "MB"}

# span name -> per-layer time metric (self time of those spans)
SPAN_METRICS = {
    "cli": "cli.self_s", "cli.config": "cli.config_s",
    "parser.resolve": "parser.resolve_s",
    "series.build": "series.build_s", "series.source": "series.source_s",
    "series.integrate": "series.integrate_s", "series.write": "series.write_s",
    "ring.evaluate": "ring.evaluate_s",
    "seeds.parse": "seeds.parse_s", "seeds.f0_deriv": "seeds.f0_deriv_s",
    "evaluate.field": "evaluate.field_s", "evaluate.csv": "evaluate.csv_s",
    "evaluate.sidecar": "evaluate.sidecar_s",
    "diagnostics": "diagnostics.s",
    "verify.residual": "verify.residual_s", "verify.powers": "verify.powers_s",
    "verify.sample": "verify.sample_s",
}

# Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = ("ring.mul_calls", "ring.ddx_calls", "ring.integrate_calls",
                "ring.evaluate_calls", "seeds.f0_calls", "seeds.f0_deriv_calls",
                "evaluate.field_calls", "diagnostics.calls", "series.monomials",
                "series.cells", "series.max_coeff_bits", "verify.census_terms",
                "evaluate.csv_bytes")

# The CLI child: `python -m qvlasov.cli argv...`, except that it also writes
# to the file sys.argv[1] the CLOCK_MONOTONIC time at which qvlasov.cli was
# imported and the time main(argv) took.
JOB_PROBE = (
    "import sys, time\n"
    "import qvlasov.cli\n"
    "imported = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    "start = time.perf_counter()\n"
    "code = qvlasov.cli.main(sys.argv[2:])\n"
    "elapsed = time.perf_counter() - start\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write(f'{imported!r} {elapsed!r}')\n"
    "sys.exit(code)\n")

IMPORT_PROBE = (
    "import json, sys, time\n"
    "n0 = len(sys.modules); t0 = time.perf_counter()\n"
    "import qvlasov.cli\n"
    "t1 = time.perf_counter()\n"
    "print(json.dumps({'total': t1 - t0, 'modules': len(sys.modules) - n0,\n"
    "                  'scipy': int('scipy' in sys.modules)}))\n")


def run_child(args: list[str]):
    """Run the interpreter as a child with stdout and stderr in the sink
    files; returns (wall s, peak RSS MB, exit code)."""
    with open(WORK / "stdout.txt", "w") as out, open(WORK / "stderr.txt", "w") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)})
        killer = threading.Timer(CHILD_TIMEOUT, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_job(main, argv: list[str], recorder=None):
    """Call qvlasov.cli.main(argv) in this process; returns (seconds, exit code,
    error text).  Stdout goes to the same sink file as the children's."""
    gc.collect()
    with open(WORK / "stdout.txt", "w") as out, open(WORK / "stderr.txt", "w") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if recorder is None:
                start = perf_counter()
                code = main(argv)
                seconds = perf_counter() - start
            else:
                code, seconds = recorder.run(main, argv)
        except (Exception, SystemExit):
            return 0.0, None, traceback.format_exc()
    return seconds, code, ""


class Outcomes:
    """Attempted/failed invocations and the output checks behind them.

    The first successful invocation's outputs are kept aside and checked
    against the oracles when measuring ends (finish); every later
    invocation must produce byte-identical files.
    """

    def __init__(self, workload, params):
        self.workload = workload
        self.params = params
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digest = None

    def record(self, label: str, code, error: str, out: Path) -> None:
        self.attempted += 1
        problem = self._judge(code, error, out)
        if problem:
            self.fail(f"{label}: {problem}")

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def _judge(self, code, error: str, out: Path) -> str:
        from workloads import file_digest

        if error:
            return error.strip().splitlines()[-1]
        if code != 0:
            stderr = (WORK / "stderr.txt").read_text().strip()
            return f"exit code {code} {stderr[-300:]}"
        files = self.workload.output_files(out)
        if any(not p.is_file() for p in files):
            return "missing outputs " + ", ".join(p.name for p in files if not p.is_file())
        if self._digest is None:
            self._digest = file_digest(files)
            shutil.rmtree(WORK / "first", ignore_errors=True)
            out.rename(WORK / "first")
        elif file_digest(files) != self._digest:
            return "outputs differ from the first invocation"
        return ""

    def finish(self) -> None:
        """Check the first invocation's outputs against the oracles."""
        if self._digest is None:
            return
        try:
            issues = self.workload.check(self.params, WORK / "first")
        except Exception:
            issues = ["output check raised "
                      + traceback.format_exc().strip().splitlines()[-1]]
        if issues:
            self.fail("first invocation: " + "; ".join(issues))


def fresh_out(kind: str) -> Path:
    out = WORK / kind
    shutil.rmtree(out, ignore_errors=True)
    return out


_CAL_X = np.linspace(-4.0, 4.0, 40401)


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of the kinds of work
    qvlasov does: exact rational arithmetic, dict-heavy pure Python and
    elementwise numpy on an array of a 201x201 grid.  It uses no qvlasov
    code, so a change to the package does not move it."""
    start = perf_counter()
    for _ in range(3):
        acc = Fraction(0)
        for i in range(1, 3000):
            acc = acc * Fraction(i % 7 + 1, i % 11 + 1) + Fraction(1, i % 13 + 1)
            if i % 50 == 0:
                acc = Fraction(acc.numerator % 10**40, acc.denominator % 10**40 + 1)
        table: dict[int, int] = {}
        for i in range(60000):
            table[i % 501] = table.get(i % 501, 0) + i * i
        for _ in range(4):
            np.exp(-0.5 * _CAL_X**2) * np.cos(3.0 * _CAL_X) + _CAL_X**3
    return perf_counter() - start


def measure_end_to_end(workload, params, seconds: float, outcomes):
    """Closed loop of CLI children until the deadline, at least one.

    A calibration runs before the loop and after every child.  Each time
    sample is scaled by CALIBRATION_REF_S over the mean of the two
    calibrations around it, which turns it into reference seconds: the time
    on a machine that runs the calibration in CALIBRATION_REF_S.  Returns
    (scaled samples, raw samples).
    """
    raw = {"setup_s": [], "cli_s": [], "job_s": [], "calibration_s": [calibrate()]}
    scaled = {"setup_s": [], "cli_s": [], "job_s": [], "peak_rss_mb": []}
    timing = WORK / "job_seconds.txt"
    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        out = fresh_out("cli")
        timing.unlink(missing_ok=True)
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        wall, peak, code = run_child(["-c", JOB_PROBE, str(timing),
                                      *workload.argv(params, out)])
        outcomes.record("cli", code, "", out)
        setup = job = None
        if timing.is_file():
            imported, job = map(float, timing.read_text().split())
            setup = imported - spawned
        cal = raw["calibration_s"]
        cal.append(calibrate())
        factor = 2 * CALIBRATION_REF_S / (cal[-2] + cal[-1])
        for name, value in (("setup_s", setup), ("cli_s", wall), ("job_s", job)):
            if value is not None:
                raw[name].append(value)
                scaled[name].append(value * factor)
        scaled["peak_rss_mb"].append(peak)
        now = perf_counter()
        if now + (now - started) > deadline:
            break
    return scaled, raw


def series_stats(series) -> dict:
    bits = 0
    cells = 0
    for term in series.terms:
        for _, elem in term.cells():
            cells += 1
            for _, coeff in elem.items():
                for _, r in coeff.items():
                    bits = max(bits, r.numerator.bit_length(), r.denominator.bit_length())
    return {"series.monomials": series.term_count(), "series.cells": cells,
            "series.max_coeff_bits": bits}


def traced_counts(recorder, run_id: int) -> dict:
    counts = dict.fromkeys(EXACT_COUNTS, 0)
    counts.update(recorder.counts[run_id])
    names = Counter(s[0] for s in recorder.spans if s[4] == run_id)
    counts["ring.evaluate_calls"] = names["ring.evaluate"]
    counts["seeds.f0_deriv_calls"] = names["seeds.f0_deriv"]
    counts["evaluate.field_calls"] = names["evaluate.field"]
    counts["diagnostics.calls"] = recorder.top_level_calls(run_id, "diagnostics")
    for name, rid, args, result in recorder.results:
        if rid != run_id:
            continue
        if name == "series.build":
            counts.update(series_stats(result))
        elif name == "verify.residual":
            counts["verify.census_terms"] = sum(result.term_census.values())
        elif name == "evaluate.csv":
            counts["evaluate.csv_bytes"] = os.path.getsize(args[1])
    return counts


def import_stats() -> list[dict]:
    """Fresh-interpreter import of qvlasov.cli under -X importtime."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        _, _, code = run_child(["-X", "importtime", "-c", IMPORT_PROBE])
        if code != 0:
            raise RuntimeError("import probe failed: "
                               + (WORK / "stderr.txt").read_text()[-300:])
        probe = json.loads((WORK / "stdout.txt").read_text())
        probe["scipy_s"] = scipy_import_seconds((WORK / "stderr.txt").read_text())
        runs.append(probe)
    return runs


def scipy_import_seconds(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules in the log.

    importtime lists a module after everything it imported, indented two
    spaces per nesting level; walking the log backwards visits every module
    before its imports.
    """
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total = 0
    stack: list[tuple[int, bool]] = []
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total += cumulative
        stack.append((depth, inside or is_scipy))
    return total / 1e6


def measure_traced(workload, params, seed: int, seconds: float, main, outcomes):
    """Alternate untraced and traced in-process jobs until the deadline."""
    from spans import Recorder
    from workloads import accuracy

    deadline = perf_counter() + seconds
    imports = import_stats()
    if len({(p["modules"], p["scipy"]) for p in imports}) != 1:
        outcomes.fail(f"import counts differ between runs: {imports}")
    recorder = Recorder()
    untraced, traced, self_times, counts = [], [], [], []
    while True:
        started = perf_counter()
        took, code, error = run_job(main, workload.argv(params, fresh_out("job")))
        if not error:
            untraced.append(took)
        outcomes.record("job", code, error, WORK / "job")
        took, code, error = run_job(main, workload.argv(params, fresh_out("job")),
                                    recorder)
        if not error:
            counts.append(traced_counts(recorder, recorder.run_id))
            self_times.append(recorder.self_times(recorder.run_id))
            traced.append(took)
        outcomes.record("traced job", code, error, WORK / "job")
        now = perf_counter()
        if error or now + (now - started) > deadline:
            break
    (WORK / "spans").mkdir(exist_ok=True)
    recorder.dump(WORK / "spans" / f"{workload.name}-seed{seed}.json")
    if any(c != counts[0] for c in counts):
        outcomes.fail("counts differ between traced runs of one seed")
    field_calls = [(args, result) for name, _, args, result in recorder.results
                   if name == "evaluate.field"]
    field_err, deriv_err = accuracy(workload, params, seed, field_calls)
    metrics = {
        "import.total_s": statistics.median(p["total"] for p in imports),
        "import.scipy_s": statistics.median(p["scipy_s"] for p in imports),
        "import.modules": imports[0]["modules"],
        "import.scipy_loaded": imports[0]["scipy"],
        "trace.job_s": statistics.median(traced or [0.0]),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced)
                             if traced and untraced else 0.0),
        "field_rel_err": field_err,
        "seeds.deriv_err_max": deriv_err,
    }
    for span, name in SPAN_METRICS.items():
        metrics[name] = statistics.median([t.get(span, 0.0) for t in self_times] or [0.0])
    metrics.update(counts[0] if counts else dict.fromkeys(EXACT_COUNTS, 0))
    fields = metrics["evaluate.field_calls"]
    metrics["seeds.f0_per_field"] = metrics["seeds.f0_calls"] / fields if fields else 0.0
    samples = {"untraced_job_s": untraced, "traced_job_s": traced, "import": imports}
    return metrics, samples


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "diagnostics.s":
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_err") or name.endswith("_err_max") or name.endswith("_per_field"):
        return "ratio"
    return "count"


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    versions = {name: importlib.metadata.version(name)
                for name in ("numpy", "scipy", "mpmath")}
    return {"python": platform.python_version(), **versions, "cpu": cpu,
            "nproc": os.cpu_count()}


def distribution_note(values: list[float]) -> str:
    """Sample count and the highest percentile with at least ten samples
    beyond it, if there is one above the median."""
    n = len(values)
    note = f"n={n}"
    pct = int(100 * (1 - 10 / n)) if n > 20 else 0
    if pct > 50:
        value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        note += f" p{pct}={value:.6g}"
    return note


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qvlasov" / "cli.py").is_file():
        print(f"error: no qvlasov sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    params = workload.params(args.seed)
    outcomes = Outcomes(workload, params)
    env = environment()
    if args.trace:
        from qvlasov.cli import main as cli_main
        from spans import TracingError, resolve_targets

        try:
            resolve_targets()
        except TracingError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        metrics, samples = measure_traced(workload, params, args.seed, args.seconds,
                                          cli_main, outcomes)
        report = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
        raw = {}
    else:
        samples, raw = measure_end_to_end(workload, params, args.seconds, outcomes)
        report = {k: {"value": statistics.median(samples[k] or [0.0]), "unit": unit}
                  for k, unit in END_TO_END.items()}
    outcomes.finish()
    for kind in ("cli", "job", "first"):
        shutil.rmtree(WORK / kind, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed}: qvlasov "
          + " ".join(workload.argv(params, Path("<out>"))))
    print("environment " + json.dumps(env))
    for name, item in report.items():
        note = distribution_note(samples[name]) if samples.get(name) else ""
        print(f"  {name:24s} {item['value']:.6g} {item['unit']} {note}")
    for name, values in raw.items():
        print(f"  {'unscaled ' + name:24s} {statistics.median(values):.6g} s n={len(values)}")
    failed_frac = outcomes.failed / max(outcomes.attempted, 1)
    print(f"  {'failed_frac':24s} {failed_frac:.6g} ({outcomes.failed}/{outcomes.attempted})")
    for problem in outcomes.problems:
        print(f"  FAILED {problem}")
    (WORK / "results").mkdir(exist_ok=True)
    result = {"correct": outcomes.failed == 0, "attempted": outcomes.attempted,
              "failed": outcomes.failed, "metrics": report}
    (WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "params": params, "environment": env,
                    "samples": samples, "unscaled": raw,
                    "problems": outcomes.problems}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
