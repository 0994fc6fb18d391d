"""Spans and work counters recorded around ncpower's layer entry points.

The benchmark wraps each entry point at the module attribute its callers
resolve, so nothing in ``src/`` knows it is traced.  A span records its name,
start, end and parent; a layer's self time is its spans' durations minus the
part their child spans cover.  Wrappers are installed for one traced pass
and removed afterwards, so untraced passes run the program's own functions.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


def _count_candidates(counters: Counter, args: tuple, result: Any) -> None:
    counters["routing.candidate_calls"] += 1
    counters["routing.candidates_returned"] += len(result)


def _count_match(counters: Counter, args: tuple, result: Any) -> None:
    n, weights = args[0], args[1]
    counters["coding.match_calls"] += 1
    counters["coding.match_vertices_max"] = max(counters["coding.match_vertices_max"], n)
    counters["coding.match_edges"] += sum(1 for w in weights.values() if w > 0)


def _count_selection(counters: Counter, args: tuple, result: Any) -> None:
    cluster_sizes = Counter(d.dest for d in args[0].demands)
    counters["coding.coded_pairs"] += len(result.assignment.pairs)
    counters["coding.clustered_demands"] += sum(s for s in cluster_sizes.values() if s > 1)


def _count_oracle(counters: Counter, args: tuple, result: Any) -> None:
    counters["oracle.explored"] += result.explored


# (module, attribute, span name, counter hook); the cli attributes are the
# names its commands resolve at call time, and the three candidate attributes
# are the three modules that call disjoint_pair_candidates
ENTRY_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("ncpower.cli", "generate_ring", "model.generate", None),
    ("ncpower.cli", "generate_full_mesh", "model.generate", None),
    ("ncpower.cli", "load_instance", "model.load", None),
    ("ncpower.cli", "route_instance", "routing.route", None),
    ("ncpower.cli", "select_pairs_osh", "coding.select", _count_selection),
    ("ncpower.cli", "select_pairs_fixed", "coding.select", _count_selection),
    ("ncpower.cli", "optimal_joint", "oracle.joint", _count_oracle),
    ("ncpower.cli", "eval_with_coding", "power.eval", None),
    ("ncpower.cli", "bound_nc", "bounds.bound", None),
    ("ncpower.routing", "disjoint_pair_candidates", "routing.candidates", _count_candidates),
    ("ncpower.coding", "disjoint_pair_candidates", "routing.candidates", _count_candidates),
    ("ncpower.oracle", "disjoint_pair_candidates", "routing.candidates", _count_candidates),
    ("ncpower.coding", "max_weight_pairs", "coding.match", _count_match),
)

# span name -> per-layer metric carrying its summed self time
SELF_TIME_METRICS = {
    "routing.route": "routing.route_s",
    "routing.candidates": "routing.candidates_s",
    "coding.match": "coding.match_s",
    "coding.select": "coding.select_self_s",
    "model.generate": "model.generate_s",
    "model.load": "model.load_s",
    "bounds.bound": "bounds.bound_s",
    "power.eval": "power.eval_s",
    "oracle.joint": "oracle.joint_s",
}

COUNT_METRICS = (
    "routing.candidate_calls",
    "routing.candidates_returned",
    "coding.match_calls",
    "coding.match_vertices_max",
    "coding.match_edges",
    "coding.coded_pairs",
    "oracle.explored",
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class Trace:
    """Spans and counters of one pass, kept in memory until the pass ends."""

    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    _open: list[int] = field(default_factory=list)

    def wrap(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(Span(name, self._open[-1] if self._open else None, time.perf_counter()))
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index].end = time.perf_counter()
                self._open.pop()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_metrics(self, pass_seconds: float) -> dict[str, float]:
        """Per-layer self times and counters of this pass."""
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for span in self.spans:
            duration = span.end - span.start
            if span.parent is None:
                top_level += duration
            else:
                child_time[span.parent] += duration
        metrics = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
        for span, inner in zip(self.spans, child_time):
            metrics[SELF_TIME_METRICS[span.name]] += span.end - span.start - inner
        metrics["cli.self_s"] = pass_seconds - top_level
        for name in COUNT_METRICS:
            metrics[name] = float(self.counters[name])
        clustered = self.counters["coding.clustered_demands"]
        metrics["coding.paired_fraction"] = 2 * self.counters["coding.coded_pairs"] / clustered if clustered else 0.0
        return metrics


@contextmanager
def traced(trace: Trace):
    """Install ``trace``'s wrappers on every entry point; restore them on exit."""
    saved = []
    try:
        for module_name, attribute, name, hook in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, trace.wrap(original, name, hook))
        yield trace
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)
