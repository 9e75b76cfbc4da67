"""Span and counter recorder wrapped around qvlasov's public functions.

The recorder patches module and class attributes from outside the package:
timed targets record a span (name, start, end, parent id, run id) per call,
counted targets only bump a counter.  Spans stay in memory until the
benchmark writes them out.  A target that no longer exists is an error, so
a renamed function cannot silently report zero.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

# (target, span name).  Targets are looked up where the caller looks them
# up: the CLI imported most of them into its own namespace.
TIMED = (
    ("qvlasov.cli:build_config", "cli.config"),
    ("qvlasov.cli:resolve_potential", "parser.resolve"),
    ("qvlasov.cli:parse_seed_spec", "seeds.parse"),
    ("qvlasov.cli:build_series", "series.build"),
    ("qvlasov.series:recursion_rhs", "series.source"),
    ("qvlasov.series:integrate_term", "series.integrate"),
    ("qvlasov.series:WignerSeries.to_json_dict", "series.write"),
    ("qvlasov.cli:_series_listing", "series.write"),
    ("qvlasov.cli:eval_field", "evaluate.field"),
    ("qvlasov.cli:write_field_csv", "evaluate.csv"),
    ("qvlasov.cli:write_field_sidecar", "evaluate.sidecar"),
    ("qvlasov.diagnostics:q_functional", "diagnostics"),
    ("qvlasov.diagnostics:diagnose", "diagnostics"),
    ("qvlasov.diagnostics:write_marginal_csv", "diagnostics"),
    ("qvlasov.cli:residual_numeric", "verify.residual"),
    ("qvlasov.verify:residual_powers", "verify.powers"),
    ("qvlasov.series:SeriesTerm.evaluate", "verify.sample"),
    ("qvlasov.ring:RingElem.evaluate", "ring.evaluate"),
    ("qvlasov.seeds:SeedDistribution.f0_deriv", "seeds.f0_deriv"),
)

# The CLI's JSON writer serves every command; only the series document
# (expand) belongs to a layer, the other small documents stay in cli.self.
TIMED_IF = (
    ("qvlasov.cli:_write_json", "series.write",
     lambda path, data: isinstance(data, dict) and "terms" in data),
)

COUNTED = (
    ("qvlasov.ring:RingElem.__mul__", "ring.mul_calls"),
    ("qvlasov.ring:RingElem.ddx", "ring.ddx_calls"),
    ("qvlasov.ring:RingElem.integrate", "ring.integrate_calls"),
    ("qvlasov.seeds:SeedDistribution.f0", "seeds.f0_calls"),
)

ROOT = "cli"

# Spans whose arguments and return value the benchmark reads afterwards
# (series size, residual census, CSV path, computed fields); other results
# are not kept, and these only for the latest run.
KEEP = frozenset({"series.build", "verify.residual", "evaluate.csv", "evaluate.field"})


class TracingError(RuntimeError):
    """A traced target is missing from the package."""


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        if not hasattr(owner, name):
            raise TracingError(f"trace target {target} no longer exists")
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise TracingError(f"trace target {target} no longer exists")
    return owner, attr


def resolve_targets() -> list:
    """(owner, attribute, name, condition or None, timed?) for every target;
    raises TracingError if one is missing."""
    plan = [(*_resolve(t), name, None, True) for t, name in TIMED]
    plan += [(*_resolve(t), name, when, True) for t, name, when in TIMED_IF]
    plan += [(*_resolve(t), name, None, False) for t, name in COUNTED]
    return plan


class Recorder:
    """Spans and counters of traced runs, kept in memory."""

    def __init__(self):
        self.spans: list = []           # [name, start, end, parent id, run id]
        self.counts: dict[int, Counter] = {}    # run id -> counter values
        self.results: list = []         # (name, run id, args, result) for KEEP, latest run
        self.run_id = -1
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------
    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.run_id])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = perf_counter()
        self._stack.pop()

    def _timed(self, name, fn, when=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if name in KEEP:
                self.results.append((name, self.run_id, args, result))
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.run_id][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def run(self, fn, *args):
        """Call fn(*args) as one traced run under the root span, with the
        targets patched only for its duration; returns (result, duration)."""
        self.run_id += 1
        self.counts[self.run_id] = Counter()
        self.results.clear()
        self.install()
        try:
            sid = self._open(ROOT)
            try:
                result = fn(*args)
            finally:
                self._close(sid)
        finally:
            self.uninstall()
        start, end = self.spans[sid][1:3]
        return result, end - start

    # -- patching ----------------------------------------------------------
    def install(self):
        """Patch every target; raises TracingError before patching anything
        if one is missing."""
        for owner, attr, name, when, timed in resolve_targets():
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._timed(name, original, when) if timed
                    else self._counted(name, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------
    def self_times(self, run_id: int) -> dict[str, float]:
        """Per span name, the summed self time of that run's spans.

        Self time is a span's duration minus the durations of its direct
        children, so by construction the values sum to the root span's
        duration, the traced job time; the root's own share is cli.self_s.
        """
        child_time: Counter = Counter()
        mine = [(sid, s) for sid, s in enumerate(self.spans) if s[4] == run_id]
        for _, (name, start, end, parent, _) in mine:
            if parent is not None:
                child_time[parent] += end - start
        out: Counter = Counter()
        for sid, (name, start, end, _, _) in mine:
            out[name] += (end - start) - child_time[sid]
        return dict(out)

    def top_level_calls(self, run_id: int, name: str) -> int:
        """Spans of ``name`` whose parent is another layer."""
        return sum(1 for s in self.spans
                   if s[4] == run_id and s[0] == name
                   and (s[3] is None or self.spans[s[3]][0] != name))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans,
                       "counts": {str(k): dict(v) for k, v in self.counts.items()}},
                      fh)
