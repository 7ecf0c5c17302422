"""In-memory span tracing by wrapping module attributes.

A Tracer replaces public functions and methods of the program's modules
with timing wrappers while a traced pass runs, and puts the originals back
afterwards.  Each call becomes one span (id, parent, name, start, end, run,
and the scope label the caller set, such as the search mode);
calls into a wrapped generator become one span per ``next()``.  Count hooks
record work done at the same boundaries.  Nothing is written until the
benchmark asks for it at the end.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: int
    scope: str | None = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # run id -> counter
        self.run = 0
        self.scope = None
        self._stack = [None]
        self._patches = []
        self._t0 = perf_counter()

    # -- recording -------------------------------------------------------

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent, perf_counter()

    def _close(self, sid, parent, name, start):
        end = perf_counter()
        self._stack.pop()
        self.spans[sid] = Span(sid, parent, name, start, end, self.run,
                               self.scope)

    @contextmanager
    def span(self, name):
        sid, parent, start = self._open()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def count(self, key, n=1):
        self.counts[self.run][key] += n

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr, name, *, before=None, after=None,
              failed=None, generator=False):
        """Replace ``owner.attr`` with a traced wrapper.

        ``before(args, kwargs)`` returns a value handed to ``after(tracer,
        args, kwargs, result, state)``; for generators ``after`` runs once per
        item.  ``failed`` names a counter prefix for exceptions by type.
        """
        fn = getattr(owner, attr)
        wrapper = (self._wrap_generator(fn, name, after) if generator
                   else self._wrap_call(fn, name, before, after, failed))
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def unpatch(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def _wrap_call(self, fn, name, before, after, failed):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            sid, parent, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                tracer._close(sid, parent, name, start)
                if failed:
                    tracer.count(f"{failed}.{type(e).__name__}")
                raise
            tracer._close(sid, parent, name, start)
            if after:
                after(tracer, args, kwargs, result, state)
            return result

        return traced

    def _wrap_generator(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    sid, parent, start = tracer._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(sid, parent, name, start)
                        return
                    except Exception:
                        tracer._close(sid, parent, name, start)
                        raise
                    tracer._close(sid, parent, name, start)
                    if after:
                        after(tracer, args, kwargs, item, None)
                    yield item
            finally:
                it.close()

        return traced

    # -- output ----------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"run": s.run, "scope": s.scope,
                                    "id": s.id, "parent": s.parent,
                                    "name": s.name,
                                    "start": s.start - self._t0,
                                    "end": s.end - self._t0}) + "\n")


def self_times(spans):
    """Per span name: (total inclusive seconds, total self seconds, calls).

    A span's self time is its duration minus the part of its interval that
    its direct children cover (overlapping children are counted once).
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    incl, self_, calls = Counter(), Counter(), Counter()
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        duration = s.end - s.start
        incl[s.name] += duration
        self_[s.name] += duration - covered
        calls[s.name] += 1
    return incl, self_, calls
