"""Spans around accband's public functions, recorded from outside the program.

A Tracer replaces a function at the module attribute where its caller looks
it up (``cli.eigen_solve`` and ``zonal.eigen_solve`` are separate bindings of
one function, so both are wrapped).  Each call becomes one span: name, start,
end, the enclosing span in the same thread, and a worker id.  A span opened
with no enclosing span (``cli.dispatch``: one per sweep worker thread, one per
zonal configuration) starts a new worker id, which its descendants inherit.
Spans stay in memory until ``dump`` writes them when the run ends.
"""

import functools
import itertools
import json
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._workers = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr, name, note=None):
        """Record a span per call of ``module.attr``.

        ``note(args, kwargs, result)`` may return a dict of extra fields
        (bytes written, iterations); it runs after the span has ended.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = next(self._ids)
                worker = stack[-1][2] if stack else next(self._workers)
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, parent, worker))
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                span = [span_id, parent, worker, name, start, end, None]
                self.spans.append(span)
            if note is not None:
                span[6] = note(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def dump(self, path):
        keys = ("id", "parent", "worker", "name", "start", "end", "extra")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def annotate(spans):
    """Give each span of one run its self time and the names of its ancestors.

    ``self`` is the span's duration minus its direct children's: children
    run inside their parent's interval in the parent's thread, so they never
    overlap one another and their durations simply add.  ``ancestors`` is the
    set of names of the spans enclosing it.  Span ids restart at 1 in every
    run, so call this on one run's spans at a time; the results stay valid
    when spans of several runs are pooled afterwards.
    """
    by_id = {span["id"]: span for span in spans}
    covered = {}
    for span in spans:
        if span["parent"]:
            covered[span["parent"]] = (covered.get(span["parent"], 0.0)
                                       + span["end"] - span["start"])
    for span in spans:
        span["self"] = span["end"] - span["start"] - covered.get(span["id"], 0.0)
        names = set()
        parent = by_id.get(span["parent"])
        while parent is not None:
            names.add(parent["name"])
            parent = by_id.get(parent["parent"])
        span["ancestors"] = frozenset(names)
    return spans
