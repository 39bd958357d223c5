"""Per-layer spans recorded from outside the program.

The traced pass wraps public functions of the ``repro`` modules in timing
spans without touching ``src/``: :meth:`Spans.patch` replaces a function
in every loaded ``repro`` module that holds a reference to it (the
defining module, package re-exports, and ``from x import f`` copies
alike), and :meth:`Spans.restore` puts the originals back.

A span's *inclusive* time counts only its outermost activation, so a
recursive layer is not counted twice; its *self* time is its duration
minus the time of the spans nested inside it.  Summed over every span,
self time equals the time covered by any span, which is what
``bench.unattributed_share`` compares against the traced wall.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict


class Spans:
    def __init__(self) -> None:
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []  # [name, start, child seconds]
        self._active: Counter[str] = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> None:
        self._active[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self._active[name] -= 1
        if not self._active[name]:
            self.inclusive[name] += duration
        self.self_time[name] += duration - children
        self.calls[name] += 1
        self.samples[name].append(duration)
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, fn, name, count=None):
        """``fn`` inside a span.  ``name`` is a string or a function of the
        call's arguments returning one; ``count``, when given, is a
        ``(label, fn)`` pair and ``fn(return value)`` is added to
        ``counts[label]``."""
        name_of = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name_of(*args, **kwargs)
            self.enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if count is not None:
                label, amount = count
                self.counts[label] += amount(out)
            return out

        return traced

    def patch(self, module: str, attr: str, name, count=None) -> None:
        """Wrap ``module.attr`` wherever a ``repro`` module refers to it.

        ``"Class.method"`` wraps the method on its class.
        """
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            self._set(owner, attr, self.wrap(vars(owner)[attr], name, count))
            return
        original = getattr(owner, attr)
        wrapped = self.wrap(original, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "repro":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def _set(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def restore(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def total_self(self) -> float:
        return sum(self.self_time.values())
