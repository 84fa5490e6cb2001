"""In-memory spans recorded from the benchmark's side of each layer boundary.

The tracer wraps the public functions of the toolkit modules by replacing
the module attributes for the duration of a traced pass. Calls between
modules go through those attributes (``analysis`` calls
``linkmodel.frequency_resolution``, ``cli.main`` calls ``build_parser``), so
nested calls become nested spans without editing the package.

A span is ``(span_id, parent_id, op_id, name, start_ns, end_ns, error)``.
Every benchmark operation opens a root span ``op.<kind>`` and gets its own
``op_id``, which all spans under it share.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import time

from timedata_lab.errors import TimedataError

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, counters=None):
        self.spans = []
        self.op_kinds = {}          # op_id -> kind
        self.counts = {}            # counter name -> value
        self._counters = counters or {}   # span name -> fn(result, args, counts)
        self._stack = [0]
        self._ids = itertools.count(1)
        self._op_id = 0

    @contextlib.contextmanager
    def op(self, kind):
        """Root span of one benchmark operation."""
        self._op_id = next(self._ids)
        self.op_kinds[self._op_id] = kind
        with self.span("op." + kind):
            yield

    @contextlib.contextmanager
    def span(self, name):
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        error = ""
        start = _now()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = _now()
            self._stack.pop()
            self.spans.append((sid, parent, self._op_id, name, start, end, error))

    def wrap(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        counter = self._counters.get(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            error = ""
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                # Count each typed error once, at the innermost boundary.
                if isinstance(exc, TimedataError) and not hasattr(exc, "_traced"):
                    exc._traced = True
                    tracer.counts["errors.typed_raised"] = \
                        tracer.counts.get("errors.typed_raised", 0) + 1
                raise
            finally:
                end = _now()
                stack.pop()
                spans.append((sid, parent, tracer._op_id, name, start, end, error))
            if counter is not None:
                counter(result, args, tracer.counts)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def instrument(self, modules):
        """Wrap every public function defined in each module, then restore."""
        saved = []
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(f"{short}.{attr}", fn))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def self_times(spans):
    """Span id -> duration minus the part covered by its direct children.

    Children of one span never overlap (one thread), so their durations
    add up to the covered part.
    """
    child_ns = {}
    for sid, parent, _, _, start, end, _ in spans:
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    return {sid: (end - start) - child_ns.get(sid, 0)
            for sid, _, _, _, start, end, _ in spans}


def write_spans(path, spans, op_kinds):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span_id,parent_id,op_id,op_kind,name,start_ns,end_ns,error\n")
        for sid, parent, op_id, name, start, end, error in spans:
            fh.write(f"{sid},{parent},{op_id},{op_kinds.get(op_id, '')},"
                     f"{name},{start},{end},{error}\n")
