"""Spans recorded from outside the program, around calls into its layers.

The benchmark does not edit the program to trace it.  :class:`Tracer`
replaces a public function or method with a wrapper that records one
:class:`Span` per call -- layer name, start, end, parent span and request
id -- and puts the original back on :meth:`Tracer.restore`.  A function is
replaced in every loaded ``repro`` module that bound it by name, so a name
imported into several modules (``verify_signature`` lives in both the
verifier and the server) is traced wherever it is called from.

Coroutine functions (``read_frame``, ``write_frame``,
``SchemeSessionPool.reference``) are timed by their *busy* time: the wrapper
drives the coroutine step by step and sums only the time spent inside a
step, so the time a coroutine spends suspended -- waiting for the peer, or
while another task runs on the loop -- is not charged to its layer.

A span's self time is its busy time minus the busy time of the spans it
directly caused.  Within one thread the self times of all spans are
disjoint, so a phase's wall time splits exactly into the layers' self times
plus an ``unattributed`` remainder.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import inspect
import itertools
import json
import sys
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

#: The span open in the current task (or thread), if any.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


#: Fields of a recorded span, in the order of its tuple.
FIELDS = ("index", "name", "phase", "parent", "request", "start_ns", "end_ns",
          "busy_ns", "self_ns")
INDEX, NAME, PHASE, PARENT, REQUEST, START, END, BUSY, SELF = range(len(FIELDS))


class Span:
    """One call into a traced layer, while it is open."""

    __slots__ = ("index", "name", "phase", "parent", "request", "child")

    def __init__(self, index: int, name: str, phase: str,
                 parent: Optional["Span"], request) -> None:
        self.index = index
        self.name = name
        self.phase = phase
        self.parent = parent
        self.request = request
        #: Busy time of the spans this one directly caused.
        self.child = 0


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    A closed span is kept as a plain tuple (see :data:`FIELDS`): tuples of
    numbers and strings drop out of the garbage collector's tracking, so
    hundreds of thousands of recorded spans do not slow the collections the
    traced program itself triggers.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        #: Spans are recorded only while this is true; otherwise the
        #: wrappers call straight through.
        self.recording = False
        #: Label stored on every span recorded from now on.
        self.phase = "setup"
        self._ids = itertools.count()
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------ recording
    def _open(self, name: str, request=None) -> Span:
        """A span for one call; it inherits the parent's request id."""
        parent = _CURRENT.get()
        if request is None and parent is not None:
            request = parent.request
        return Span(next(self._ids), name, self.phase, parent, request)

    def _close(self, span: Span, start: int, end: int, busy: int) -> None:
        parent = span.parent
        if parent is not None:
            parent.child += busy
        self.spans.append((
            span.index, span.name, span.phase,
            None if parent is None else parent.index, span.request,
            start, end, busy, busy - span.child))

    def _sync_wrapper(self, fn, layer: str, on_result, request_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = tracer._open(layer, _request(request_of, args))
            token = _CURRENT.set(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter_ns()
                _CURRENT.reset(token)
                tracer._close(span, start, end, end - start)
                raise
            end = perf_counter_ns()
            _CURRENT.reset(token)
            if on_result is not None:
                on_result(span, result)
            tracer._close(span, start, end, end - start)
            return result

        return traced

    def _async_wrapper(self, fn, layer: str, on_result, request_of):
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            coroutine = fn(*args, **kwargs)
            if not tracer.recording:
                return await coroutine
            return await _BusyTimed(tracer, coroutine, layer, on_result,
                                    _request(request_of, args))

        return traced

    def _wrapper(self, fn, layer, on_result=None, request_of=None):
        if inspect.iscoroutinefunction(fn):
            return self._async_wrapper(fn, layer, on_result, request_of)
        return self._sync_wrapper(fn, layer, on_result, request_of)

    # ------------------------------------------------------------- patching
    def wrap_function(self, module_name: str, attr: str, layer: str,
                      on_result=None, request_of=None) -> None:
        """Trace ``module.attr`` in every loaded repro module that bound it."""
        original = getattr(sys.modules[module_name], attr)
        traced = self._wrapper(original, layer, on_result, request_of)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = getattr(module, "__dict__", {})
            if namespace.get(attr) is original:
                setattr(module, attr, traced)
                self._restore.append(
                    functools.partial(setattr, module, attr, original))

    def wrap_method(self, cls: type, attr: str, layer: str,
                    on_result=None, request_of=None) -> None:
        """Trace ``cls.attr`` (plain, class or static method)."""
        own = attr in cls.__dict__
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(
                self._wrapper(raw.__func__, layer, on_result, request_of))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(
                self._wrapper(raw.__func__, layer, on_result, request_of))
        else:
            replacement = self._wrapper(raw, layer, on_result, request_of)
        setattr(cls, attr, replacement)
        if own:
            self._restore.append(functools.partial(setattr, cls, attr, raw))
        else:
            self._restore.append(functools.partial(delattr, cls, attr))

    def wrap_bound(self, obj, attr: str, layer: str, on_result=None) -> None:
        """Trace one object's method by shadowing it on the instance."""
        traced = self._wrapper(getattr(obj, attr), layer, on_result)
        setattr(obj, attr, traced)
        self._restore.append(functools.partial(delattr, obj, attr))

    def restore(self) -> None:
        """Put every original back (in reverse order of wrapping)."""
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------ reporting
    def phase_spans(self, phase: str) -> List[tuple]:
        return [span for span in self.spans if span[PHASE] == phase]

    def write(self, path: str) -> None:
        """Write every span as one JSON list per line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps(FIELDS) + "\n")
            for span in sorted(self.spans):
                handle.write(json.dumps(span) + "\n")


def _request(request_of, args):
    """The request id a call names in its arguments, if it names one."""
    if request_of is None:
        return None
    try:
        return request_of(args)
    except Exception:  # noqa: BLE001 - an id is optional, the call is not
        return None


class _BusyTimed:
    """Awaitable that drives a coroutine and charges only its busy steps."""

    __slots__ = ("tracer", "coroutine", "layer", "on_result", "request")

    def __init__(self, tracer: Tracer, coroutine, layer: str, on_result,
                 request) -> None:
        self.tracer = tracer
        self.coroutine = coroutine
        self.layer = layer
        self.on_result = on_result
        self.request = request

    def __await__(self):
        tracer, coroutine = self.tracer, self.coroutine
        span = tracer._open(self.layer, self.request)
        start = busy = 0
        value, error = None, None
        while True:
            token = _CURRENT.set(span)
            begin = perf_counter_ns()
            if not start:
                start = begin
            try:
                if error is None:
                    yielded = coroutine.send(value)
                else:
                    yielded = coroutine.throw(error)
            except StopIteration as stop:
                end = perf_counter_ns()
                _CURRENT.reset(token)
                if self.on_result is not None:
                    self.on_result(span, stop.value)
                tracer._close(span, start, end, busy + end - begin)
                return stop.value
            except BaseException:
                end = perf_counter_ns()
                _CURRENT.reset(token)
                tracer._close(span, start, end, busy + end - begin)
                raise
            busy += perf_counter_ns() - begin
            _CURRENT.reset(token)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coroutine.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


def ledger(spans: List[tuple], measured_ns: int) -> Dict[str, dict]:
    """Per-layer count, inclusive and self time, plus ``unattributed``.

    ``measured_ns`` is the wall time of the phase the spans belong to; the
    remainder after every layer's self time is reported as
    ``unattributed`` so the rows sum to it.
    """
    rows: Dict[str, dict] = {}
    for span in spans:
        row = rows.setdefault(span[NAME],
                              {"count": 0, "total_ns": 0, "self_ns": 0})
        row["count"] += 1
        row["total_ns"] += span[BUSY]
        row["self_ns"] += span[SELF]
    attributed = sum(row["self_ns"] for row in rows.values())
    rows["unattributed"] = {"count": 0, "total_ns": measured_ns - attributed,
                            "self_ns": measured_ns - attributed}
    return rows


def format_ledger(rows: Dict[str, dict], measured_ns: int, title: str) -> str:
    """The ledger as a fixed-width text table (largest self time first)."""
    lines = ["%s: %.3f s measured" % (title, measured_ns / 1e9),
             "  %-34s %9s %12s %12s %7s" % (
                 "layer", "calls", "self ms", "incl ms", "self %")]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append("  %-34s %9d %12.2f %12.2f %6.1f%%" % (
            name, row["count"], row["self_ns"] / 1e6, row["total_ns"] / 1e6,
            100.0 * row["self_ns"] / measured_ns if measured_ns else 0.0))
    return "\n".join(lines)
