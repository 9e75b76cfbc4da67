"""The benchmark's trace targets still name existing functions."""

from pathlib import Path


def test_trace_targets_resolve(monkeypatch):
    # spans.resolve_targets raises TracingError for a renamed target, which
    # would otherwise only show when the benchmark exits 2
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import spans

    assert len(spans.resolve_targets()) == 24
