"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program.  It replaces a layer's public
function *at the attribute its callers look up* (a module global such as
``repro.scenario.generate_topology``, or a class attribute such as
``PathCorpus.add_routes``) with a thin wrapper that records one span per
call.  Spans stay in memory and are written out once, when the run ends.

A span is ``(id, parent, name, start, end)`` on ``time.monotonic()``
(``CLOCK_MONOTONIC`` on Linux, so a server process and the benchmark
share one time base).  The parent is the innermost open span of the same
thread or asyncio task, tracked with a :class:`contextvars.ContextVar`:
executor threads start without a parent, so their spans are top level.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

clock = time.monotonic


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


#: A span name, or a function of the wrapped call's ``(args, kwargs)``
#: that returns one.
SpanName = Union[str, Callable[[tuple, dict], str]]
#: ``count(counters, result, args, kwargs)`` runs after each call.
CountHook = Callable[[Counter, Any, tuple, dict], None]


def _current(owner: Any, attribute: str) -> Any:
    # A class dict keeps static and class methods' kind; getattr would
    # unwrap them.
    if isinstance(owner, type):
        return owner.__dict__[attribute]
    return getattr(owner, attribute)


class Tracer:
    """Records spans and counters; installs and removes wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[int]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = clock()
        try:
            yield span_id
        finally:
            end = clock()
            self._current.reset(token)
            self.spans.append(Span(span_id, parent, name, start, end))

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: SpanName,
        count: Optional[CountHook] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = _current(owner, attribute)
        function = original
        kind = None
        if isinstance(original, (staticmethod, classmethod)):
            kind = type(original)
            function = original.__func__
        namer = name if callable(name) else (lambda args, kwargs: name)
        tracer = self

        if asyncio.iscoroutinefunction(function):
            @functools.wraps(function, updated=())
            async def wrapper(*args, **kwargs):
                with tracer.span(namer(args, kwargs)):
                    result = await function(*args, **kwargs)
                if count is not None:
                    count(tracer.counters, result, args, kwargs)
                return result
        else:
            @functools.wraps(function, updated=())
            def wrapper(*args, **kwargs):
                with tracer.span(namer(args, kwargs)):
                    result = function(*args, **kwargs)
                if count is not None:
                    count(tracer.counters, result, args, kwargs)
                return result

        self.replace(owner, attribute, kind(wrapper) if kind else wrapper)

    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        """Set ``owner.attribute`` until :meth:`uninstall`."""
        original = _current(owner, attribute)
        setattr(owner, attribute, value)
        self._installed.append((owner, attribute, original))

    def wrap_path(
        self, target: str, name: SpanName, count: Optional[CountHook] = None
    ) -> None:
        """``wrap`` addressed as ``"package.module:Owner.attribute"``."""
        module_name, _, qualname = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *owners, attribute = qualname.split(".")
        for part in owners:
            owner = getattr(owner, part)
        self.wrap(owner, attribute, name, count)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        document = {
            "spans": [
                [s.id, s.parent, s.name, s.start, s.end] for s in self.spans
            ],
            "counters": dict(self.counters),
            **(extra or {}),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def load_spans(path: str) -> Tuple[List[Span], Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    spans = [Span(*row) for row in document.pop("spans")]
    return spans, document


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def children_of(spans: Sequence[Span]) -> Dict[Optional[int], List[Span]]:
    children: Dict[Optional[int], List[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    return children


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its child spans cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    children = children_of(spans)
    out = {}
    for span in spans:
        inner = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
            if c.end > span.start and c.start < span.end
        ]
        out[span.id] = span.duration - covered(inner)
    return out


def inclusive_by_name(
    spans: Sequence[Span], window: Optional[Tuple[float, float]] = None
) -> Dict[str, float]:
    """Name -> summed duration of its outermost spans.

    A span nested (at any depth) inside a span of the same name is not
    counted again.  With ``window``, only spans starting inside it count.
    """
    by_id = {span.id: span for span in spans}
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        if window is not None and not window[0] <= span.start < window[1]:
            continue
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if parent.name == span.name:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            totals[span.name] += span.duration
    return dict(totals)


def coverage(spans: Sequence[Span], root: Span) -> float:
    """Share of ``root``'s wall time covered by its direct children."""
    if root.duration <= 0:
        return 0.0
    inner = [(s.start, s.end) for s in spans if s.parent == root.id]
    return covered(inner) / root.duration


def stage_tree(spans: Sequence[Span], root: Span) -> Dict[str, float]:
    """Self seconds per span name inside ``root``; they sum to its duration.

    ``root``'s own self time, the part no layer span covers, is listed as
    ``"(untraced)"``.
    """
    by_id = {span.id: span for span in spans}

    def inside(span: Span) -> bool:
        while span.parent is not None:
            if span.parent == root.id:
                return True
            span = by_id[span.parent]
        return False

    members = [span for span in spans if inside(span)] + [root]
    own = self_times(members)
    tree: Dict[str, float] = defaultdict(float)
    for span in members:
        tree["(untraced)" if span is root else span.name] += own[span.id]
    return dict(tree)
