"""Self-test of the benchmark, on reduced sizes.

    python3 perfbench/selftest.py

The self-test checks that
  * the metric names and units the benchmark reports are exactly those
    declared in BENCHMARK.json;
  * every count the traced run reports repeats exactly across two traced runs
    of the same inputs, on a reduced size of each workload;
  * a missing trace target is an error, not a zero;
  * the scipy import-time parser handles nesting.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402

REDUCED = {
    "evaluate-goldstone": ["evaluate", "--potential", "goldstone", "--order", "3",
                           "--seed", "fd:z=1", "--hbar", "0.6",
                           "--qrange=-4,4,41", "--prange=-4,4,41"],
    "sweep-L10": ["diagnose", "--potential", "goldstone", "--order", "4",
                  "--seed", "fd:chi=1", "--hbar-list", "0.2,0.4,0.6",
                  "--qrange=-4,4,41", "--prange=-4,4,41"],
    "verify-modulated": ["verify", "--potential", "modulated:a=3/4", "--order", "1",
                         "--seed", "fd:z=1", "--j-max", "2"],
    "expand-modulated": ["expand", "--potential", "modulated:a=3/4", "--order", "3"],
}


def check_declared_metrics() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert end_to_end == run.END_TO_END, (end_to_end, run.END_TO_END)
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    reported = set(run.SPAN_METRICS.values()) | set(run.EXACT_COUNTS) | {
        "import.total_s", "import.scipy_s", "import.modules", "import.scipy_loaded",
        "trace.job_s", "trace.overhead_s", "field_rel_err", "seeds.deriv_err_max",
        "seeds.f0_per_field"}
    assert set(per_layer) == reported, set(per_layer) ^ reported
    for name, unit in per_layer.items():
        assert run.layer_unit(name) == unit, (name, unit)
    names = {w["name"] for w in declared["workloads"]}
    from workloads import WORKLOADS
    assert names == set(WORKLOADS), names


def check_exact_counts() -> None:
    from qvlasov.cli import main

    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for name, argv in REDUCED.items():
            recorder = spans.Recorder()
            counts = []
            for _ in range(2):
                out = Path(tmp) / name
                _, code, error = run.run_job(main, [*argv, "--out", str(out)], recorder)
                assert code == 0, (name, code, error)
                counts.append(run.traced_counts(recorder, recorder.run_id))
            assert counts[0] == counts[1], (name, counts)
            assert counts[0]["series.monomials"] > 0, (name, counts[0])
            print(f"selftest {name}: counts repeat exactly {counts[0]}")
    imports = run.import_stats()
    assert len({(p["modules"], p["scipy"]) for p in imports}) == 1, imports


def check_missing_target() -> None:
    saved = spans.COUNTED
    spans.COUNTED = saved + (("qvlasov.ring:RingElem.no_such_method", "x"),)
    try:
        spans.Recorder().install()
    except spans.TracingError:
        pass
    else:
        raise AssertionError("a missing trace target was not reported")
    finally:
        spans.COUNTED = saved


def check_importtime_parser() -> None:
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         20 |       numpy.linalg",
        "import time:         5 |         25 |     scipy.special",
        "import time:         7 |         42 |   scipy",
        "import time:         3 |          3 |   scipy.integrate",
        "import time:         1 |         50 | qvlasov.seeds",
    ])
    assert run.scipy_import_seconds(log) == 45e-6, run.scipy_import_seconds(log)


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    check_declared_metrics()
    check_importtime_parser()
    check_missing_target()
    check_exact_counts()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
