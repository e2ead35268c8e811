"""Structured tracing core: nested spans, zero-cost-ish when disabled.

The paper's thesis is that parallelization decisions should be driven by
measurements (loop coverage, granularity, dyndep evidence — Ch. 2/4).
This module applies the same discipline to the pipeline itself: every
phase (parse, IR build, engine execution, profiling, dynamic dependence
analysis, Guru ranking, slicing, job execution) can report a *span* —
a named, tagged interval with wall time and op counts — into the
currently active :class:`Tracer`.

Design contract
---------------

* **Disabled tracing must be near-free.**  The default active tracer is
  :data:`NULL_TRACER`, whose :meth:`~NullTracer.span` returns one shared
  no-op context manager.  Instrumented code pays one thread-local read
  and two no-op calls per *phase* (never per op / per iteration).  The
  only check is the in-suite canary in ``tests/test_obs.py``; an
  overhead gate is ROADMAP item 2(c), still open.

* **Tracing must never perturb results.**  Spans observe; they do not
  feed back.  ``tests/test_obs.py`` asserts byte-identical artifacts for
  traced vs. untraced runs of the whole pipeline.

* **Spans cross process boundaries.**  A tracer serializes a *trace
  context* (:meth:`Tracer.export_context`); a pool worker builds a child
  tracer from it (:meth:`Tracer.from_context`), records spans locally,
  and ships them back as plain dicts (:meth:`Tracer.to_dicts`) for the
  parent to :meth:`~Tracer.adopt`.  Parent/child linkage survives
  because span ids embed the producing process id.

Activation is thread-local (``activate()``/``get_tracer()``), so
concurrent HTTP handler threads and the batch scheduler can trace
independent jobs without cross-talk.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "Span", "Tracer", "NullTracer", "NULL_TRACER",
    "get_tracer", "activate", "set_tracer",
]

class _AtomicCounter:
    """Explicitly locked monotonic counter.  ``itertools.count`` happens
    to be atomic under CPython's GIL, but id uniqueness is a correctness
    property (Chrome-trace nesting corrupts on collision), so it gets a
    real lock rather than an implementation accident."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def next(self) -> int:
        with self._lock:
            self._value += 1
            return self._value


_ids = _AtomicCounter()
_trace_ids = _AtomicCounter()


def _new_span_id() -> str:
    """Process-unique, cross-process-collision-free span id: the pid
    disambiguates across processes, the atomic counter within one.  No
    timestamp component — two spans opened in the same millisecond must
    still get distinct ids."""
    return f"{os.getpid():x}.{_ids.next():x}"


def _new_trace_id() -> str:
    # The millisecond timestamp is for human readability only;
    # uniqueness comes from pid + the atomic counter.
    return f"t{os.getpid():x}.{int(time.time() * 1e3):x}." \
           f"{_trace_ids.next():x}"


class Span:
    """One named, tagged interval.  Use as a context manager::

        with tracer.span("instrument.dyndep", loop="interf/1000") as sp:
            ...
            sp.tag(carried=3)
    """

    __slots__ = ("tracer", "name", "tags", "trace_id", "span_id",
                 "parent_id", "start_wall", "duration_s", "pid", "tid",
                 "seq", "_t0")

    def __init__(self, tracer: "Tracer", name: str,
                 tags: Optional[Dict[str, Any]] = None):
        self.tracer = tracer
        self.name = name
        self.tags: Dict[str, Any] = dict(tags) if tags else {}
        self.trace_id = tracer.trace_id
        self.span_id = _new_span_id()
        self.parent_id: Optional[str] = None
        self.start_wall = 0.0
        self.duration_s = 0.0
        self.pid = os.getpid()
        self.tid = 0
        self.seq = 0
        self._t0 = 0.0

    # -- context manager protocol -----------------------------------------
    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        self.parent_id = stack[-1].span_id if stack \
            else self.tracer.root_parent_id
        stack.append(self)
        self.tid = threading.get_ident() & 0xFFFFFFFF
        self.seq = self.tracer._next_seq()
        self.start_wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.duration_s = time.perf_counter() - self._t0
        stack = self.tracer._stack()
        # pop through self: tolerate leaked children on exceptions
        while stack:
            if stack.pop() is self:
                break
        self.tracer._finish(self)
        return False

    # -- tagging -----------------------------------------------------------
    def tag(self, **tags) -> "Span":
        """Attach (JSON-serializable) key/value tags; returns self."""
        self.tags.update(tags)
        return self

    # -- (de)serialization --------------------------------------------------
    def to_dict(self) -> Dict:
        return {"name": self.name,
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start_wall": self.start_wall,
                "duration_s": self.duration_s,
                "pid": self.pid,
                "tid": self.tid,
                "seq": self.seq,
                "tags": dict(self.tags)}

    @classmethod
    def from_dict(cls, data: Dict, tracer: "Tracer") -> "Span":
        span = cls.__new__(cls)
        span.tracer = tracer
        span.name = data["name"]
        span.tags = dict(data.get("tags") or {})
        span.trace_id = data.get("trace_id", tracer.trace_id)
        span.span_id = data["span_id"]
        span.parent_id = data.get("parent_id")
        span.start_wall = data.get("start_wall", 0.0)
        span.duration_s = data.get("duration_s", 0.0)
        span.pid = data.get("pid", 0)
        span.tid = data.get("tid", 0)
        span.seq = data.get("seq", 0)
        span._t0 = 0.0
        return span

    def __repr__(self):
        return (f"Span({self.name} {self.duration_s * 1e3:.3f}ms "
                f"tags={self.tags})")


class Tracer:
    """Collects finished spans; thread-safe, with per-thread span stacks."""

    enabled = True

    def __init__(self, trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None):
        self.trace_id = trace_id or _new_trace_id()
        #: Parent span id (in another process/tracer) that this tracer's
        #: root spans hang off — the reattachment hook for pool workers.
        self.root_parent_id = parent_id
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self._seq = itertools.count(1)

    # -- internals ----------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_seq(self) -> int:
        return next(self._seq)

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)

    # -- recording -----------------------------------------------------------
    def span(self, name: str, **tags) -> Span:
        """A new span, entered via ``with``; nests under the thread's
        currently open span (or the tracer's root parent)."""
        return Span(self, name, tags)

    def event(self, name: str, **tags) -> None:
        """Record an *instant* span (zero duration) — for point-in-time
        facts like ``deadline_exceeded`` or ``pool_recycled`` that have
        no meaningful extent but belong in the trace timeline."""
        span = Span(self, name, tags)
        span.tags.setdefault("event", True)
        current = self.current()
        span.parent_id = current.span_id if current is not None \
            else self.root_parent_id
        span.tid = threading.get_ident() & 0xFFFFFFFF
        span.seq = self._next_seq()
        span.start_wall = time.time()
        span.duration_s = 0.0
        self._finish(span)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def add_tag(self, **tags) -> None:
        """Tag the currently open span, if any (no-op otherwise)."""
        span = self.current()
        if span is not None:
            span.tags.update(tags)

    # -- queries --------------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        """All finished spans, in start order (seq-tied within a process,
        wall-clock across processes)."""
        with self._lock:
            spans = list(self._finished)
        return sorted(spans, key=lambda s: (s.start_wall, s.pid, s.seq))

    def to_dicts(self) -> List[Dict]:
        return [s.to_dict() for s in self.finished_spans()]

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

    # -- cross-process propagation ---------------------------------------------
    def export_context(self) -> Dict:
        """Serialized trace context for a child process: the child's root
        spans will parent onto this tracer's currently open span."""
        current = self.current()
        return {"trace_id": self.trace_id,
                "parent_id": current.span_id if current is not None
                else self.root_parent_id}

    @classmethod
    def from_context(cls, context: Optional[Dict]) -> "Tracer":
        if not context:
            return cls()
        return cls(trace_id=context.get("trace_id"),
                   parent_id=context.get("parent_id"))

    def adopt(self, span_dicts: Sequence[Dict]) -> None:
        """Reattach spans recorded by another tracer (typically shipped
        back from a pool worker as plain dicts)."""
        spans = [Span.from_dict(d, self) for d in span_dicts]
        with self._lock:
            self._finished.extend(spans)

    def __repr__(self):
        return (f"Tracer({self.trace_id}, "
                f"{len(self._finished)} finished spans)")


class _NullSpan:
    """Shared, stateless no-op span: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def tag(self, **tags) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Drop-in no-op tracer; the default when nothing is activated."""

    enabled = False
    trace_id = "disabled"
    root_parent_id = None

    def span(self, name: str, **tags) -> _NullSpan:    # noqa: ARG002
        return _NULL_SPAN

    def event(self, name: str, **tags) -> None:        # noqa: ARG002
        pass

    def current(self) -> None:
        return None

    def add_tag(self, **tags) -> None:
        pass

    def finished_spans(self) -> List[Span]:
        return []

    def to_dicts(self) -> List[Dict]:
        return []

    def clear(self) -> None:
        pass

    def export_context(self) -> None:
        return None

    @staticmethod
    def from_context(context):                          # noqa: ARG004
        return NULL_TRACER

    def adopt(self, span_dicts) -> None:                # noqa: ARG002
        pass

    def __repr__(self):
        return "NullTracer()"


#: The process-wide disabled tracer (shared; allocation-free spans).
NULL_TRACER = NullTracer()

_active = threading.local()


def get_tracer():
    """The thread's active tracer (:data:`NULL_TRACER` when tracing is
    off).  This is the only call instrumented code pays when disabled."""
    return getattr(_active, "tracer", None) or NULL_TRACER


def set_tracer(tracer) -> None:
    """Set (or with ``None`` clear) the thread's active tracer."""
    _active.tracer = tracer


class _Activation:
    """``with activate(tracer):`` — install a tracer for the dynamic
    extent of the block, restoring the previous one after."""

    __slots__ = ("tracer", "_prev")

    def __init__(self, tracer):
        self.tracer = tracer
        self._prev = None

    def __enter__(self):
        self._prev = getattr(_active, "tracer", None)
        _active.tracer = self.tracer
        return self.tracer

    def __exit__(self, *exc) -> bool:
        _active.tracer = self._prev
        return False


def activate(tracer) -> _Activation:
    return _Activation(tracer)
