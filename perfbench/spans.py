"""In-memory span recorder for the traced run, and self-time arithmetic.

A span is a tuple ``(id, parent, name, start, end, busy)``.  For a plain
call ``busy`` is ``end - start``.  For a generator it is only the time
spent inside ``next()``: a consumer's loop body runs while the generator
is suspended, and is charged to the consumer, not to the generator.
A span's self time is its busy time minus the busy time of its children.
"""

import functools
import time
from collections import Counter, defaultdict


class Recorder:
    """Collects the spans of one job; wrappers push and pop a span stack."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._next_id = 0

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        return sid, (self._stack[-1] if self._stack else None)

    def wrap(self, name, fn, work=None):
        """``fn`` inside a span called ``name``.  ``work(*args)``, if given,
        is a count added to ``counts[work_name]``; it runs outside the span."""
        work_fn, work_name = work if work else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work_fn is not None:
                self.counts[work_name] += work_fn(*args)
            sid, parent = self._open()
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, end - start))

        return traced

    def wrap_generator(self, name, fn, item_count):
        """Generator function ``fn`` inside a span called ``name``; every
        item yielded adds one to ``counts[item_count]``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            it = fn(*args, **kwargs)
            busy = 0.0
            items = 0
            start = time.perf_counter()
            try:
                while True:
                    self._stack.append(sid)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        busy += time.perf_counter() - t0
                        self._stack.pop()
                    items += 1
                    yield item
            finally:
                self.counts[item_count] += items
                self.spans.append(
                    (sid, parent, name, start, time.perf_counter(), busy))

        return traced


def self_times(spans):
    """Map each span id to its busy time minus its children's, floored at 0."""
    covered = defaultdict(float)
    for _sid, parent, _name, _start, _end, busy in spans:
        if parent is not None:
            covered[parent] += busy
    return {sid: max(0.0, busy - covered[sid])
            for sid, _parent, _name, _start, _end, busy in spans}
