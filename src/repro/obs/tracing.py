"""Stage-level tracing: nested spans with monotonic timing.

A :class:`Tracer` records :class:`SpanRecord` entries — named, attributed
intervals measured with :func:`time.perf_counter` and nested via a plain
stack (the strategy engine is single-threaded per process, so no
thread-local machinery is needed).  Spans from worker processes are plain
picklable dataclasses; :func:`graft` re-bases and re-parents them into the
parent process's trace so one experiment yields one tree even when its
topologies ran in a process pool.

The disabled path is a shared :data:`NULL_SPAN` singleton: entering and
exiting it allocates nothing, which is what keeps observability free when
it is off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

__all__ = [
    "AttrValue",
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "graft",
    "format_trace",
]

#: Span attributes are restricted to JSON-scalar types so every trace is
#: exportable without a custom encoder.
AttrValue = Union[str, int, float, bool]


@dataclass
class SpanRecord:
    """One finished span: a named interval inside a trace.

    ``start_s`` is an offset from the owning tracer's origin (a
    ``perf_counter`` timestamp captured at tracer creation), so values are
    monotonic and comparable *within* one tracer but carry no wall-clock
    meaning across processes — :func:`graft` re-bases them on merge.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    duration_s: float
    attrs: Dict[str, AttrValue] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class _ActiveSpan:
    """Context manager for one live span; records itself on exit."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, AttrValue]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self._start = 0.0

    def set_attr(self, key: str, value: AttrValue) -> None:
        """Attach an attribute discovered mid-span (e.g. a result count)."""
        self.attrs[key] = value

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        self.parent_id = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.span_id)
        self._start = time.perf_counter() - tracer._origin
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end = time.perf_counter() - tracer._origin
        tracer._stack.pop()
        tracer.spans.append(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start_s=self._start,
                duration_s=end - self._start,
                attrs=self.attrs,
            )
        )
        return False


class _NullSpan:
    """The no-op span: one shared instance, nothing allocated per use."""

    __slots__ = ()

    #: Mirrors :attr:`_ActiveSpan.span_id` so callers can nest manufactured
    #: spans under a with-block without checking whether tracing is on.
    span_id = None

    def set_attr(self, key: str, value: AttrValue) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans for one process; finished spans land in :attr:`spans`.

    Spans are appended in *exit* order (children before their parents);
    exporters sort by ``(start_s, span_id)`` to recover document order.
    """

    enabled = True

    def __init__(self):
        self._origin = time.perf_counter()
        self._next_id = 0
        self._stack: List[int] = []
        self.spans: List[SpanRecord] = []

    def now(self) -> float:
        """Monotonic seconds since this tracer's origin."""
        return time.perf_counter() - self._origin

    def span(self, name: str, **attrs: AttrValue) -> _ActiveSpan:
        """A context manager measuring one named stage."""
        return _ActiveSpan(self, name, attrs)

    def open_span_id(self) -> Optional[int]:
        """The innermost open span's id (``None`` outside every span)."""
        return self._stack[-1] if self._stack else None

    def record(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        parent_id: Optional[int] = None,
        **attrs: AttrValue,
    ) -> int:
        """Append a manufactured span (used when grafting worker results)."""
        span_id = self._next_id
        self._next_id += 1
        self.spans.append(
            SpanRecord(
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                start_s=start_s,
                duration_s=duration_s,
                attrs=attrs,
            )
        )
        return span_id


class NullTracer:
    """Disabled tracer: shares one no-op span, records nothing."""

    enabled = False
    #: Immutable and empty forever — the disabled path allocates no spans.
    spans: Sequence[SpanRecord] = ()

    def now(self) -> float:
        return 0.0

    def span(self, name: str, **attrs: AttrValue) -> _NullSpan:
        return NULL_SPAN

    def record(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        parent_id: Optional[int] = None,
        **attrs: AttrValue,
    ) -> None:
        return None


def graft(
    tracer: Tracer,
    spans: Iterable[SpanRecord],
    parent_id: Optional[int] = None,
    base_offset_s: float = 0.0,
) -> int:
    """Copy another process's spans into ``tracer`` under ``parent_id``.

    Span ids are remapped into the parent tracer's id space, root spans are
    re-parented under ``parent_id``, and every start offset is shifted by
    ``base_offset_s`` (the parent-side start of the grafted subtree).
    Returns the number of spans added.
    """
    spans = list(spans)
    id_map: Dict[int, int] = {}
    for record in spans:
        id_map[record.span_id] = tracer._next_id
        tracer._next_id += 1
    for record in spans:
        parent = id_map.get(record.parent_id) if record.parent_id is not None else parent_id
        tracer.spans.append(
            SpanRecord(
                span_id=id_map[record.span_id],
                parent_id=parent,
                name=record.name,
                start_s=base_offset_s + record.start_s,
                duration_s=record.duration_s,
                attrs=dict(record.attrs),
            )
        )
    return len(spans)


def _format_attrs(attrs: Dict[str, AttrValue]) -> str:
    if not attrs:
        return ""
    body = ", ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
    return f"  {{{body}}}"


def format_trace(spans: Sequence[SpanRecord], max_depth: Optional[int] = None) -> str:
    """Render a trace as an indented ASCII tree, document order.

    Durations are printed in milliseconds; ``max_depth`` truncates deep
    engine internals for terminal use (``None`` prints everything).
    """
    spans = sorted(spans, key=lambda record: (record.start_s, record.span_id))
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for record in spans:
        children.setdefault(record.parent_id, []).append(record)

    lines: List[str] = []

    def walk(record: SpanRecord, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        lines.append(
            f"{'  ' * depth}{record.name}  {record.duration_s * 1e3:.2f} ms"
            f"{_format_attrs(record.attrs)}"
        )
        for child in children.get(record.span_id, []):
            walk(child, depth + 1)

    known = {record.span_id for record in spans}
    for record in spans:
        if record.parent_id is None or record.parent_id not in known:
            walk(record, 0)
    return "\n".join(lines)
