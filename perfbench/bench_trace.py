"""In-memory spans around the package's public calls, recorded from outside.

`Tracer.wrap` replaces a public function (or a class attribute) by a wrapper
that records a span per call; every module of the package that imported the
function by name gets the wrapper too, so spans nest the way the calls do.
`Tracer.restore` puts the originals back.  Nothing under `src/` is changed.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "collatz_paradox"


class Tracer:
    def __init__(self) -> None:
        # one span: [name, start, end, parent index or -1, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, count: int = 0):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, count]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, func, name, count=None) -> None:
        """Trace every call of the module-level function `func`.

        `name` is the span name, or a function of the call's arguments that
        returns it; count(*args, **kwargs) gives the work count of the span."""
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label, count(*args, **kwargs) if count else 0):
                return func(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is func:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, traced)

    def wrap_attr(self, owner, attr: str, name: str) -> None:
        """Trace a method or classmethod stored on a class."""
        raw = owner.__dict__[attr]
        inner = raw.__func__ if isinstance(raw, classmethod) else raw

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)

    def restore(self) -> None:
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    # -- reading the spans ---------------------------------------------------

    def select(self, name: str, under: str | None = None) -> list[list]:
        """Spans called `name`, optionally only those with an ancestor whose
        name starts with `under`."""
        out = []
        for rec in self.spans:
            if rec[0] != name:
                continue
            if under is not None:
                p = rec[3]
                while p >= 0 and not self.spans[p][0].startswith(under):
                    p = self.spans[p][3]
                if p < 0:
                    continue
            out.append(rec)
        return out

    def total(self, name: str, under: str | None = None) -> float:
        return sum(r[2] - r[1] for r in self.select(name, under))

    def count(self, name: str, under: str | None = None) -> int:
        return sum(r[4] for r in self.select(name, under))

    def self_times(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus its direct children,
        summed by the module part of its name."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, float] = {}
        for i, rec in enumerate(self.spans):
            layer = rec[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (rec[2] - rec[1]) - child[i]
        return out
