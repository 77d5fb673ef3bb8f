"""In-memory span tracer that wraps simulator functions from the outside.

Spans are recorded around calls into the simulator's modules by replacing
public functions with wrappers on their module (or class), so the code in
``src/`` is never edited.  Calls made inside a module go through its
globals and are therefore traced too: ``run_network`` reaches the wrapped
``schedule_conv_layer``.  Each span keeps its name, start, end, parent
span index and item id; self time is the span's duration minus the time
covered by its direct children.  Wrappers cost one attribute test when the
tracer is inactive, and nothing at all once :meth:`Tracer.restore` ran.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import defaultdict
from contextlib import contextmanager

SETUP = "setup"
ITEM = "item"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.item: int | None = None  # None while setting up
        self.active = False
        self.total = defaultdict(float)  # (phase, name) -> seconds
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)  # (phase, counter name) -> value
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple] = []

    @property
    def phase(self) -> str:
        return SETUP if self.item is None else ITEM

    def _enter(self, name: str, start: float):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self._child.append(0.0)
        self.spans.append([name, start, 0.0, parent, self.item])

    def _exit(self, end: float):
        span = self.spans[self._stack.pop()]
        covered = self._child.pop()
        span[2] = end
        duration = end - span[1]
        key = (self.phase, span[0])
        self.total[key] += duration
        self.self_time[key] += duration - covered
        self.calls[key] += 1
        if self._child:
            self._child[-1] += duration

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        self._enter(name, time.perf_counter())
        try:
            yield
        finally:
            self._exit(time.perf_counter())

    def count(self, name: str, value: float):
        self.counts[(self.phase, name)] += value

    def wrap(self, owner, attr: str, name, counter=None):
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``name`` is the span name, or a function of the call's arguments
        that returns it; ``counter(tracer, args)`` may record counts at the
        same boundary.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            if counter is not None:
                counter(self, args)
            self._enter(name(args) if callable(name) else name, time.perf_counter())
            try:
                return original(*args, **kwargs)
            finally:
                self._exit(time.perf_counter())

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def module_self(self, phase: str, module: str) -> float:
        prefix = module + "."
        return sum(
            v for (p, name), v in self.self_time.items()
            if p == phase and name.startswith(prefix)
        )

    def write_spans(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds over a plain call, measured here.

    The fastest of several repeats is taken for each side, so a burst of
    host noise during calibration does not inflate the estimate.
    """
    probe = Tracer()
    box = types.SimpleNamespace(noop=lambda: None)
    plain = box.noop
    probe.wrap(box, "noop", "noop")
    probe.active = True
    probe.item = 0
    traced = box.noop

    def best(fn):
        runs = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            runs.append(time.perf_counter() - start)
        return min(runs)

    cost = (best(traced) - best(plain)) / calls
    probe.restore()
    return max(0.0, cost)
