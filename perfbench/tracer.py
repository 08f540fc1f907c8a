"""Outside-in span tracer: wraps library functions without editing them.

A module that does ``from .marginals import compute_deck`` holds its own
binding of ``compute_deck``, so patching only the defining module would miss
every call made through that binding.  `Tracer.installed` therefore replaces
the function in every namespace of the package that holds it, and restores
all of them on exit.

Each call becomes one span ``[name, start, end, parent, op]``: `parent` is the
index of the enclosing span (None at top level) and `op` the identifier of the
top-level operation the call belongs to.  Spans stay in memory until
`write_spans` is called.  A span's self time is its duration minus the time
its child spans cover; calls run on one thread and nest, so the child
intervals are disjoint and the self times of all spans sum to the total
duration of the top-level spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = None
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def paused(self):
        """Run a block (e.g. a correctness check) without recording spans."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def wrap(self, name: str, fn, on_result=None):
        """`fn` recording a span per call; `on_result(counts, result)` counts
        work done at the same boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets: dict, package: str):
        """Wrap functions of `package` while the block runs.

        `targets` maps a span name to ``(module name, attribute, on_result)``.
        Every module of the package already imported is searched for
        bindings of each target function.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        try:
            for name, (module_name, attr, on_result) in targets.items():
                original = getattr(sys.modules[module_name], attr)
                wrapper = self.wrap(name, original, on_result)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, original in reversed(self._patched):
                setattr(module, key, original)
            self._patched.clear()

    def self_times(self) -> list[float]:
        """Self time in seconds of every span, aligned with `spans`."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                covered[span[PARENT]] += span[END] - span[START]
        return [span[END] - span[START] - c
                for span, c in zip(self.spans, covered)]

    def root_total(self) -> float:
        """Summed duration in seconds of the top-level spans."""
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] is None)

    def by_name(self) -> tuple[dict, Counter]:
        """Self seconds and call count per span name."""
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            self_s[span[NAME]] += own
            calls[span[NAME]] += 1
        return dict(self_s), calls

    def child_calls(self, child: str, parent: str) -> int:
        """Number of `child` spans directly inside a `parent` span."""
        return sum(1 for s in self.spans
                   if s[NAME] == child and s[PARENT] is not None
                   and self.spans[s[PARENT]][NAME] == parent)

    def write_spans(self, path) -> None:
        own = self.self_times()
        records = [{"name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "self": t}
                   for s, t in zip(self.spans, own)]
        with open(path, "w") as fh:
            json.dump({"spans": records, "counts": dict(self.counts)}, fh)
