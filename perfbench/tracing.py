"""Span recorder for the traced benchmark run.

The recorder never edits the package: it replaces the attributes one
module uses to call into another (``runner.run_oracle``,
``config.make_bell_family`` and so on) with timing wrappers, and wraps
the output stream the harness hands to the run.  Spans stay in memory as
``(name, start_ns, end_ns, parent)`` tuples and are written out once,
when the run ends; `self_times` turns them into per-layer self time.
"""
from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute) pairs wrapped as spans.  The span is named after
# the module that defines the function, so one layer function called
# from two modules gives one span name.
SPAN_TARGETS = (
    ("config", "load_config"),
    ("config", "make_bell_family"),
    ("engine", "make_bell_family"),
    ("engine", "bell_outcome_state"),
    ("runner", "run_teleport"),
    ("runner", "run_sweep"),
    ("runner", "build_scenario"),
    ("runner", "strength_family"),
    ("runner", "make_scenario"),
    ("runner", "run_oracle"),
    ("runner", "fast_run"),
    ("runner", "analyze_eavesdropping"),
    ("runner", "distinguishability"),
    ("verify", "run_verification"),
    ("verify", "make_bell_family"),
    ("verify", "strength_family"),
    ("verify", "make_scenario"),
    ("verify", "run_oracle"),
    ("verify", "fast_run"),
    ("verify", "analyze_eavesdropping"),
)


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class SpanRecorder:
    """In-memory spans and counters for one traced child process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        # tap families seen by eavesdrop_operator, kept alive so that their
        # ids stay unique while distinct (family, l, m) cells are counted
        self._families: dict[int, object] = {}
        self._cells: set[tuple[int, object, object]] = set()

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)`` may count."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every cross-module call site of the package's layers."""
        for owner, attribute in SPAN_TARGETS:
            module = importlib.import_module(f"teleportsim.{owner}")
            fn = getattr(module, attribute)
            after = self._after_oracle if attribute == "run_oracle" else None
            setattr(module, attribute, self.span(span_name(fn), fn, after))
        verify = importlib.import_module("teleportsim.verify")
        verify.CHECKS = tuple(self.span(span_name(check), check) for check in verify.CHECKS)

        eavesdrop = importlib.import_module("teleportsim.eavesdrop")
        find_outcome = eavesdrop.find_outcome
        build_operator = eavesdrop.eavesdrop_operator

        def counted_find_outcome(*args, **kwargs):
            self.count("eavesdrop.operators_built")
            return find_outcome(*args, **kwargs)

        def counted_operator(config, l, m):
            family = config.effect_r
            self._families[id(family)] = family
            self._cells.add((id(family), l, m))
            return build_operator(config, l, m)

        eavesdrop.find_outcome = counted_find_outcome
        eavesdrop.eavesdrop_operator = counted_operator

    def _after_oracle(self, args, records) -> None:
        self.count("engine.records", len(records))
        self.count("engine.null_records", sum(r.output is None for r in records))

    def stream(self, handle):
        """The output stream with each ``write`` recorded as an ``io.write`` span."""

        def after(args, result) -> None:
            self.count("io.write.bytes", len(args[0].encode("utf-8")))

        return _TimedStream(self.span("io.write", handle.write, after))

    def dump(self, path: str) -> None:
        counters = dict(self.counters, **{"eavesdrop.cells": len(self._cells)})
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"names": self.names, "spans": self.spans, "counters": counters}, out)


class _TimedStream:
    def __init__(self, write) -> None:
        self.write = write


def self_times(trace: dict) -> dict[str, tuple[int, float]]:
    """Per span name: ``(calls, self seconds)``, self time excluding child spans."""
    names, spans = trace["names"], trace["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for index, (name_id, start, end, _) in enumerate(spans):
        calls[name_id] += 1
        self_ns[name_id] += end - start - child_ns[index]
    return {name: (calls[i], self_ns[i] / 1e9) for i, name in enumerate(names)}
