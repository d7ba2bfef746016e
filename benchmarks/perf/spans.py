"""Harness-side tracing: spans around the program's layer boundaries.

Nothing under ``src/`` knows about tracing.  :class:`Tracer` wraps the
public functions and methods named in :data:`SPAN_TARGETS` for the
duration of a traced run and puts the originals back afterwards, so
the untraced run executes unpatched code.  A module-level function is
rebound in *every* loaded ``repro.*`` module that holds it under any
name — ``from .plan import plan_trip`` in ``core/exec.py`` copies the
reference, and patching only ``core/plan.py`` would miss that caller.

A span is ``(id, parent, name, start_ns, end_ns, call, thread, work)``:

* ``parent`` is the span that was open on the same thread when this one
  started (``-1`` for a root);
* ``call`` is the caller-visible call the harness was timing on that
  thread (``-1`` on threads the harness does not drive, e.g. the
  serving tier's executor threads);
* ``work`` is a count taken at the boundary (patterns searched, rows
  selected, values returned) so ratios are measured where the work
  happens.

Scalar and ``_many`` twins share one span name, so the names survive
the twins being collapsed.  Coroutines are never wrapped: a span must
open and close on one thread without an ``await`` in between.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SPAN_TARGETS", "SPAN_COLUMNS", "Tracer", "self_times"]

SPAN_COLUMNS = (
    "id", "parent", "name", "start_ns", "end_ns", "call", "thread", "work",
)

#: Name of the root span the harness opens around one caller-visible call.
CALL_SPAN = "harness.call"

WorkFn = Callable[[tuple, Any], int]


def _n_paths(args: tuple, result: Any) -> int:
    return len(args[1])  # (self, paths)


def _rows_one(args: tuple, result: Any) -> int:
    return int(result.size)


def _rows_many(args: tuple, result: Any) -> int:
    return sum(int(rows.size) for rows in result)


def _values_many(args: tuple, result: Any) -> int:
    return sum(int(values.size) for values, _ in result)


#: ``(span name, "module:qualname", work counter or None)``.  Work
#: defaults to 1 per span.
SPAN_TARGETS: Tuple[Tuple[str, str, Optional[WorkFn]], ...] = (
    # api: the TravelTimeDB facade and the wire forms.
    ("api.db", "repro.api.db:TravelTimeDB.query", None),
    ("api.db", "repro.api.db:TravelTimeDB.query_many_with_stats", None),
    ("api.request_wire", "repro.api.request:TripRequest.to_dict", None),
    ("api.request_wire", "repro.api.request:TripRequest.from_dict", None),
    ("api.result_wire", "repro.core.engine:TripQueryResult.to_dict", None),
    ("api.result_wire", "repro.core.engine:TripQueryResult.from_dict", None),
    # core: executor (single trip and dedup batch), planner, combine.
    ("core.exec", "repro.core.engine:QueryEngine.query", None),
    ("core.exec", "repro.core.engine:QueryEngine.run_batch", None),
    ("core.plan", "repro.core.plan:plan_trip", None),
    ("core.plan", "repro.core.plan:apply_shift_enlarge", None),
    ("core.relax", "repro.core.plan:expand_relaxation", None),
    ("core.convolve", "repro.core.exec:convolve_histograms", None),
    # service: the shared sub-query cache tier.
    ("service.cache_probe", "repro.service.cache:SubQueryCache.get_ranges", None),
    ("service.cache_probe", "repro.service.cache:SubQueryCache.get_result", None),
    ("service.cache_probe", "repro.service.cache:SubQueryCache.get_results_many", None),
    ("service.cache_probe", "repro.service.cache:SubQueryCache.get_histogram", None),
    ("service.cache_store", "repro.service.cache:SubQueryCache.put_ranges", None),
    ("service.cache_store", "repro.service.cache:SubQueryCache.put_result", None),
    ("service.cache_store", "repro.service.cache:SubQueryCache.put_results_many", None),
    ("service.cache_store", "repro.service.cache:SubQueryCache.put_histogram", None),
    # sntindex: shard router, ISA lookup, Procedure 5 scan.
    ("sntindex.router", "repro.sntindex.sharded:ShardedSNTIndex.isa_ranges", None),
    ("sntindex.router", "repro.sntindex.sharded:ShardedSNTIndex.isa_ranges_many", None),
    ("sntindex.router", "repro.sntindex.sharded:ShardedSNTIndex.get_travel_times", None),
    ("sntindex.router", "repro.sntindex.sharded:ShardedSNTIndex.get_travel_times_many", None),
    ("sntindex.router", "repro.sntindex.sharded:ShardedSNTIndex.count_matches", None),
    ("sntindex.isa", "repro.sntindex.index:SNTIndex.isa_ranges", None),
    ("sntindex.isa", "repro.sntindex.index:SNTIndex.isa_ranges_many", None),
    ("sntindex.scan", "repro.sntindex.index:SNTIndex.get_travel_times", None),
    ("sntindex.scan", "repro.sntindex.index:SNTIndex.get_travel_times_many", None),
    ("sntindex.scan", "repro.sntindex.index:SNTIndex.count_matches", None),
    ("sntindex.scan", "repro.sntindex.procedures:first_segment_matches", None),
    ("sntindex.scan", "repro.sntindex.procedures:first_segment_matches_many", None),
    # fmindex: backward search (Procedure 2).
    ("fmindex.backward_search", "repro.fmindex.fm:FMIndex.isa_range", None),
    ("fmindex.backward_search", "repro.fmindex.fm:FMIndex.isa_ranges", _n_paths),
    # temporal: time-predicate row selection and the probe join.  The
    # scalar probe delegates to the grouped one, so one target folds both.
    ("temporal.select", "repro.temporal.forest:EdgeTemporalIndex.rows_fixed", _rows_one),
    ("temporal.select", "repro.temporal.forest:EdgeTemporalIndex.rows_periodic", _rows_one),
    ("temporal.select", "repro.temporal.forest:EdgeTemporalIndex.rows_fixed_many", _rows_many),
    ("temporal.select", "repro.temporal.forest:EdgeTemporalIndex.rows_periodic_many", _rows_many),
    ("temporal.probe", "repro.sntindex.procedures:probe_travel_times_many", _values_many),
)


class Tracer:
    """Records spans in memory; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._span_ids = itertools.count()
        self._call_ids = itertools.count()
        #: ``(namespace, attribute, original)`` of every rebinding made.
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------ #

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.call = -1
            return self._local.stack

    def _wrap(
        self, function: Callable, name: str, work_of: Optional[WorkFn]
    ) -> Callable:
        record = self.spans.append
        next_id = self._span_ids.__next__
        stack_of = self._stack
        local = self._local
        clock = time.perf_counter_ns
        thread_id = threading.get_ident

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            span = next_id()
            parent = stack[-1] if stack else -1
            stack.append(span)
            result = None
            start = clock()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                work = (
                    1
                    if work_of is None or result is None
                    else work_of(args, result)
                )
                record((span, parent, name, start, end, local.call,
                        thread_id(), work))

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def invoke(self, function: Callable, argument: Any) -> Tuple[Any, float]:
        """Run one caller-visible call under a root span.

        Returns ``(result, seconds)`` like the harness's untraced call
        timer, so workloads use either interchangeably.
        """
        stack = self._stack()
        local = self._local
        span = next(self._span_ids)
        local.call = call = next(self._call_ids)
        stack.append(span)
        start = time.perf_counter_ns()
        try:
            result = function(argument)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            local.call = -1
            self.spans.append(
                (span, -1, CALL_SPAN, start, end, call,
                 threading.get_ident(), 1)
            )
        return result, (end - start) / 1e9

    # -- installing ----------------------------------------------------- #

    def install(self) -> None:
        """Wrap every target; a second call without :meth:`uninstall`
        would wrap the wrappers, so it is refused."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for name, target, work_of in SPAN_TARGETS:
                module_name, _, qualname = target.partition(":")
                module = importlib.import_module(module_name)
                owner_name, _, attribute = qualname.rpartition(".")
                if owner_name:
                    self._patch_method(
                        getattr(module, owner_name), attribute, name, work_of
                    )
                else:
                    self._patch_function(module, attribute, name, work_of)
        except BaseException:
            self.uninstall()
            raise

    def _patch_method(
        self, owner: type, attribute: str, name: str,
        work_of: Optional[WorkFn],
    ) -> None:
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            inner = self._wrap(original.__func__, name, work_of)
            replacement: Any = classmethod(inner)
        else:
            replacement = self._wrap(original, name, work_of)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def _patch_function(
        self, module: Any, attribute: str, name: str,
        work_of: Optional[WorkFn],
    ) -> None:
        original = getattr(module, attribute)
        replacement = self._wrap(original, name, work_of)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                loaded_name == "repro" or loaded_name.startswith("repro.")
            ):
                continue
            for alias, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, alias, original))
                    setattr(loaded, alias, replacement)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attribute, original = self._patches.pop()
            setattr(namespace, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- reading -------------------------------------------------------- #

    def dump(self, path: Any, meta: Dict[str, Any]) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"meta": meta, "columns": SPAN_COLUMNS, "spans": self.spans},
                handle,
                separators=(",", ":"),
            )


def self_times(spans: List[tuple]) -> Dict[str, Tuple[int, int, int]]:
    """Per span name: ``(self_ns, n_spans, work)``.

    A span's self time is its duration minus the part its child spans
    cover.  Spans nest strictly on a thread (a wrapper closes before
    its caller does), so the children of one span never overlap and
    their durations simply add.
    """
    covered: Dict[int, int] = {}
    for _, parent, _, start, end, _, _, _ in spans:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0) + (end - start)
    totals: Dict[str, List[int]] = {}
    for span, _, name, start, end, _, _, work in spans:
        entry = totals.setdefault(name, [0, 0, 0])
        entry[0] += (end - start) - covered.get(span, 0)
        entry[1] += 1
        entry[2] += work
    return {name: (a, b, c) for name, (a, b, c) in totals.items()}
