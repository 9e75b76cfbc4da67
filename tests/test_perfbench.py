"""The benchmark's trace targets still name existing functions, and its
self-test passes."""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_trace_targets_resolve(monkeypatch):
    # spans.resolve_targets raises TracingError for a renamed target, which
    # would otherwise only show when the benchmark exits 2
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    assert len(spans.resolve_targets()) == 24


def test_benchmark_selftest_passes():
    # a cache that stays warm across runs, or a count that stops repeating
    # between two runs in one process, fails here instead of in the benchmark
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
