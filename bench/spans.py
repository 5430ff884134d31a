"""In-memory spans around calls into the library, and their self times.

A span is [name, start, end, parent], parent being the index of the span
open when it started (-1 at the top).  Spans are appended in start order,
so a parent always precedes its children.  The library itself is not
modified: wrappers are installed on the names the library looks up, and
the originals are put back afterwards.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Spans, counters, and a memo for hooks that must remember objects."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self.memo = {}
        self._open = []

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def reset(self):
        self.spans = []
        self.counters = {}
        self.memo = {}

    def wrap(self, name, fn, before=None, after=None):
        """fn, recording a span per call.

        before(tracer, args) runs first and its value is passed to
        after(tracer, args, result, value), which runs once fn returned.
        Both run outside the span, so their cost falls on the parent.
        """
        clock = self.clock
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            value = before(self, args) if before is not None else None
            spans = self.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result, value)
            return result

        return traced

    def write(self, path):
        """Write the recorded spans as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[k][1], spans[k][2]) for k in kids):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def totals(spans):
    """{name: (calls, self seconds)} over all spans."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        calls, secs = out.get(span[0], (0, 0.0))
        out[span[0]] = (calls + 1, secs + own)
    return out


@contextmanager
def patched(replacements, modules):
    """Install wrappers and restore the originals on exit.

    replacements: (owner, attribute, wrapper).  A class owner gets the
    wrapper as its attribute.  A module owner's function is replaced in
    every module of `modules` that bound the same object, since
    `from x import f` copies the name into the importing module.
    """
    undo = []
    try:
        for owner, attr, wrapper in replacements:
            if isinstance(owner, type):
                undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(owner, attr)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, name, value))
                        setattr(mod, name, wrapper)
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def library_modules(package, *extra):
    """The package, its loaded submodules, and any extra modules."""
    prefix = package.__name__ + "."
    mods = [package] + [m for name, m in sorted(sys.modules.items())
                        if name.startswith(prefix) and m is not None]
    return mods + list(extra)
