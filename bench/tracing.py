"""Spans around the library's public functions, recorded from outside.

``instrument`` replaces every public function of the layer modules at each
module attribute bound to it.  The modules import names with
``from .x import f``, so a caller resolves ``sparsestab.verdict.find_nested_chain``
as well as ``sparsestab.graphs.find_nested_chain``; both must be wrapped or
calls through one of them go unseen.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("patterns", "graphs", "numerics", "witness", "verdict", "atlas", "jsonio")
RAISED = "raised"

# span fields
NAME, START, END, PARENT, OUTCOME = range(5)


class Tracer:
    """Records (name, start, end, parent, outcome) for every wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = True
        self._stack: list[int] = []

    def wrap(self, name, fn, outcome=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[OUTCOME] = RAISED
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if outcome is not None:
                span[OUTCOME] = outcome(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, outcome in self.spans:
                fh.write(json.dumps([name, start, end, parent, outcome]) + "\n")


def instrument(tracer: Tracer, outcomes: dict) -> callable:
    """Wrap the layers' public functions everywhere they are bound.

    ``outcomes`` maps a span name to ``f(args, kwargs, result)``, whose value
    is stored on the span.  Returns a function that undoes the wrapping.
    """
    layers = {layer: importlib.import_module(f"sparsestab.{layer}") for layer in LAYERS}
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "sparsestab" or name.startswith("sparsestab."))
    ]
    undo = []
    for layer, module in layers.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(name, fn, outcomes.get(name))
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, binding, wrapped)
                        undo.append((m, binding, fn))

    def restore():
        for m, binding, fn in reversed(undo):
            setattr(m, binding, fn)

    return restore


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = collections.defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: call count, summed self time and the recorded outcomes."""
    summary = collections.defaultdict(lambda: {"calls": 0, "self_s": 0.0, "outcomes": []})
    for span, own in zip(spans, self_times(spans)):
        entry = summary[span[NAME]]
        entry["calls"] += 1
        entry["self_s"] += own
        if span[OUTCOME] is not None:
            entry["outcomes"].append(span[OUTCOME])
    return summary
