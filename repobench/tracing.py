"""In-memory spans recorded from the benchmark's own files.

The traced run wraps the public entry points of each layer (pass
``run`` methods, optimal-control queries, GRAPE, dependence-graph
orderings, client RPCs) in span-recording shims, and uninstalls them
again, so the program itself carries no tracing code and the timed runs
execute it untouched.  A span records its name, thread, start, end and
the span that caused it; a span opened on a worker thread with no open
parent of its own is attributed to the innermost span open on the
main thread (the batch that spawned the worker).
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

from stats import self_time


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self, layer_of) -> None:
        #: Span name -> layer name (``catalog.span_layer``).
        self.layer_of = layer_of
        #: ``(span_id, name, thread_id, start, end, parent_id)`` tuples.
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._local.stack = self._main_stack
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self) -> tuple[list, int, int | None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            ambient = self._main_stack[-1:]
            parent = ambient[0] if ambient else None
        span_id = next(self._ids)
        stack.append(span_id)
        return stack, span_id, parent

    def call(self, name: str, function, *args, **kwargs):
        """Run ``function`` inside a span called ``name``."""
        stack, span_id, parent = self._open()
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, threading.get_ident(), start, end, parent)
            )

    # -- patching --------------------------------------------------------

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` (a class or module attribute
        defined on ``owner`` itself) by a span-recording shim."""
        original = vars(owner)[attribute]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def install(self, targets) -> None:
        for owner, attribute, name in targets:
            self.wrap(owner, attribute, name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reading ---------------------------------------------------------

    def mark(self) -> int:
        """Position in the span list; pass to :meth:`since`."""
        return len(self.spans)

    def since(self, mark: int) -> list[tuple]:
        return self.spans[mark:]

    def durations(self, name: str, spans=None) -> list[float]:
        return [
            end - start
            for _, span_name, _, start, end, _ in (spans or self.spans)
            if span_name == name
        ]

    def worker_busy(self, spans) -> float:
        """Seconds worker threads spent inside spans: the outermost span
        of each stretch of work on a thread other than the main one."""
        threads = {span[0]: span[2] for span in spans}
        return sum(
            end - start
            for _, _, thread, start, end, parent in spans
            if thread != self._main_thread and threads.get(parent) != thread
        )

    def layer_totals(self, spans=None) -> dict[str, dict[str, float]]:
        """Per layer: ``calls`` and ``total_s`` over the layer's
        outermost spans (a span whose parent is in the same layer is
        already inside a counted call), and ``self_s`` over all of them."""
        spans = self.spans if spans is None else spans
        by_id = {span[0]: span for span in spans}
        children: dict[int, list] = defaultdict(list)
        for _, _, _, start, end, parent in spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, dict[str, float]] = {}
        for span_id, name, _, start, end, parent in spans:
            layer = self.layer_of(name)
            row = totals.setdefault(
                layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["self_s"] += self_time(start, end, children.get(span_id, ()))
            parent_span = by_id.get(parent)
            if parent_span is None or self.layer_of(parent_span[1]) != layer:
                row["calls"] += 1
                row["total_s"] += end - start
        return totals

    def write(self, path) -> None:
        """Write every span as gzipped JSON."""
        payload = {
            "fields": ["id", "name", "thread", "start", "end", "parent"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
