"""Spans around calls into the simulator's layers, recorded from outside.

The benchmark never edits the package.  While a traced phase runs,
:class:`Patches` swaps selected module attributes and methods for
timing wrappers and restores the originals afterwards.  Module
attributes are patched where they are *looked up* (``repro.sim.simulator``
looks up ``make_engine``, ``evaluate_run`` and ``build_manifest`` in its
own namespace), so the wrapper sees exactly the calls the simulator
makes.

Spans live in memory and are written once, when the run ends.  Pool
workers are forked from the traced process and inherit the wrappers,
but a wrapper records nothing outside the process that created it:
worker-side time reaches the benchmark only through the manifests the
workers return.
"""

from __future__ import annotations

import importlib
import os
import pickle
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import wraps
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span, if any."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    cell: Optional[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span tree plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.pid = os.getpid()
        self._stack: List[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, perf_counter(), 0.0, parent, cell)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def root_of(self, index: int) -> Span:
        span = self.spans[index]
        while span.parent is not None:
            span = self.spans[span.parent]
        return span

    def self_seconds(self) -> List[float]:
        """Each span's duration minus the time its children cover.

        Calls nest on one thread, so children never overlap and their
        durations simply add up.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        return [span.seconds - covered[i] for i, span in enumerate(self.spans)]

    def totals(self, root: str) -> Dict[str, float]:
        """Summed duration of every span name under the root ``root``."""
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None and self.root_of(index).name == root:
                totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        return totals

    def self_by_name(self, root: str) -> Dict[str, float]:
        """Summed self time per span name under ``root`` (root included)."""
        result: Dict[str, float] = {}
        for index, seconds in enumerate(self.self_seconds()):
            if self.root_of(index).name == root:
                name = self.spans[index].name
                result[name] = result.get(name, 0.0) + seconds
        return result

    def span_count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def as_json(self) -> List[Dict[str, Any]]:
        return [asdict(span) for span in self.spans]


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------

Hook = Callable[[SpanRecorder, tuple, dict, Any, Span], None]


def _trace_cell(args: tuple, kwargs: dict) -> Optional[str]:
    """``fn(cache, trace, ...)`` -> ``"<trace>/<scheme>"``."""
    if len(args) < 2:
        return None
    cache, trace = args[0], args[1]
    return f"{trace.name}/{getattr(cache, 'name', type(cache).__name__)}"


def _evaluate_cell(args: tuple, kwargs: dict) -> Optional[str]:
    if "workload" in kwargs and "scheme" in kwargs:
        return f"{kwargs['workload']}/{kwargs['scheme']}"
    return None


def _outside_loop(recorder, args, kwargs, result, span) -> None:
    manifest = getattr(result, "manifest", None)
    if manifest is not None:
        recorder.count(
            "sim.simulator.outside_loop_s",
            span.seconds - manifest.warmup_seconds
            - manifest.measured_seconds,
        )


def _runner_payload(recorder, args, kwargs) -> None:
    runner, specs = args[0], args[1]
    jobs = runner.max_workers or 1
    recorder.counters["runner_jobs"] = jobs
    if jobs > 1 and len(specs) > 1:
        # What the pool ships: every cell pickled on its own.
        recorder.count(
            "sim.parallel.payload_bytes",
            sum(len(pickle.dumps(spec)) for spec in specs),
        )


def _cache_lookup(recorder, args, kwargs, result, span) -> None:
    recorder.count("cache_misses" if result is None else "cache_hits")


def _ingest_rows(recorder, args, kwargs, result, span) -> None:
    recorder.count("obs.index.rows_changed", result.changed)


@dataclass(frozen=True)
class Patch:
    """Wrap ``<module>[:<class>].<attribute>`` in a span named ``span``."""

    target: str
    attribute: str
    span: str
    cell: Optional[Callable[[tuple, dict], Optional[str]]] = None
    before: Optional[Callable[[SpanRecorder, tuple, dict], None]] = None
    after: Optional[Hook] = None

    def owner(self) -> Any:
        module_name, _, class_name = self.target.partition(":")
        owner = importlib.import_module(module_name)
        return getattr(owner, class_name) if class_name else owner


PATCHES: Tuple[Patch, ...] = (
    Patch("repro.workloads.spec_like", "make_benchmark_trace",
          "workloads.synth", cell=lambda a, k: a[0] if a else None),
    Patch("repro.sim.campaign", "make_benchmark_trace",
          "workloads.synth", cell=lambda a, k: a[0] if a else None),
    Patch("repro.workloads.trace:Trace", "precompute_geometry",
          "workloads.geometry_split", cell=lambda a, k: a[0].name),
    Patch("repro.workloads.trace:Trace", "content_digest",
          "workloads.digest", cell=lambda a, k: a[0].name),
    Patch("repro.sim.parallel", "run_trace", "sim.simulator.run_trace",
          cell=_trace_cell, after=_outside_loop),
    Patch("repro.resilience.harness", "run_trace", "sim.simulator.run_trace",
          cell=_trace_cell, after=_outside_loop),
    Patch("repro.sim.simulator", "make_engine", "sim.columnar.plan",
          cell=_trace_cell),
    Patch("repro.sim.simulator", "evaluate_run", "analysis.evaluate",
          cell=_evaluate_cell),
    Patch("repro.sim.simulator", "build_manifest", "obs.manifest.build",
          cell=_trace_cell),
    Patch("repro.sim.parallel", "build_manifest", "obs.manifest.build",
          cell=_trace_cell),
    Patch("repro.sim.parallel:ParallelRunner", "run", "sim.parallel.runner",
          before=_runner_payload),
    Patch("repro.sim.parallel", "cell_cache_key", "sim.cache.key",
          cell=lambda a, k: a[0].label),
    Patch("repro.sim.cache:RunCache", "get", "sim.cache.get",
          after=_cache_lookup),
    Patch("repro.sim.cache:RunCache", "put", "sim.cache.put"),
    Patch("repro.sim.campaign", "build_cells", "sim.campaign.build_cells"),
    Patch("repro.sim.campaign:CampaignJournal", "append",
          "sim.campaign.journal_append", cell=lambda a, k: k.get("id")),
    Patch("repro.sim.campaign", "replay_journal", "sim.campaign.replay"),
    Patch("repro.sim.campaign", "result_digest",
          "sim.campaign.result_digest"),
    Patch("repro.sim.campaign", "render_campaign_html",
          "obs.htmlreport.campaign"),
    Patch("repro.obs.index:ArtifactIndex", "ingest", "obs.index.ingest",
          after=_ingest_rows),
)


def _wrap(recorder: SpanRecorder, patch: Patch, original: Callable):
    @wraps(original)
    def wrapper(*args, **kwargs):
        if os.getpid() != recorder.pid:
            return original(*args, **kwargs)
        if patch.before is not None:
            patch.before(recorder, args, kwargs)
        cell = patch.cell(args, kwargs) if patch.cell is not None else None
        with recorder.span(patch.span, cell) as span:
            result = original(*args, **kwargs)
        if patch.after is not None:
            patch.after(recorder, args, kwargs, result, span)
        return result

    return wrapper


@contextmanager
def patched(recorder: SpanRecorder) -> Iterator[None]:
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for patch in PATCHES:
            owner = patch.owner()
            original = getattr(owner, patch.attribute)
            saved.append((owner, patch.attribute, original))
            setattr(owner, patch.attribute, _wrap(recorder, patch, original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
