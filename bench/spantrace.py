"""Span tracing for the benchmark's traced run.

Wrappers are installed from outside the library: every public function of
the five orthores modules is replaced, in each namespace where a caller
looks it up (the defining module, the modules that import it by name, and
the package itself), by one wrapper that records a span
(name, start, end, parent, op id).  ``RowSelection.permutation`` is wrapped
on its class.  Spans stay in memory; ``layer_table`` derives self times
from them and ``write`` stores them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "core", "orthocomp", "regression", "validation")


class Tracer:
    def __init__(self, measures: dict | None = None):
        self.spans: list = []   # (name, start, end, parent index, op id)
        self.extra: dict = {}   # span index -> value from a measure hook
        self.errors: Counter = Counter()
        self.op_id = -1         # -1 marks set-up work outside any op
        self._stack: list = []
        self._measures = measures or {}
        self._patches: list = []

    def wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        measure = self._measures.get(name)
        spans, stack, extra = self.spans, self._stack, self.extra

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if measure is not None:
                extra[idx] = measure(args, result)
            return result

        return traced

    def install(self) -> None:
        package = importlib.import_module("orthores")
        modules = [importlib.import_module(f"orthores.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self.wrap(f"{mod.__name__.rsplit('.', 1)[1]}.{attr}", obj)
        for ns in [package, *modules]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, attr, wrappers[obj])
        sel_cls = importlib.import_module("orthores.orthocomp").RowSelection
        self._patch(sel_cls, "permutation",
                    self.wrap("orthocomp.permutation", sel_cls.permutation))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_table(self) -> dict:
        """Per span name: calls, total and self seconds over op spans (op id
        >= 0), the same for set-up spans, and (duration, measure value,
        in an op) for every span that has a measure hook."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "setup_calls": 0, "setup_total_s": 0.0,
                                     "durations": [], "extra": []})
        for idx, (name, start, end, _, op) in enumerate(self.spans):
            row = table[name]
            dur = end - start
            if op >= 0:
                row["calls"] += 1
                row["total_s"] += dur
                row["self_s"] += dur - child[idx]
                row["durations"].append(dur)
            else:
                row["setup_calls"] += 1
                row["setup_total_s"] += dur
            if idx in self.extra:
                row["extra"].append((dur, self.extra[idx], op >= 0))
        return dict(table)

    def write(self, path, limit: int = 200_000) -> None:
        """Store the first ``limit`` spans as gzip'd JSON."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        kept = self.spans[:limit]
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": names,
            "spans": [[code[n], round(s, 9), round(e, 9), p, o] for n, s, e, p, o in kept],
            "omitted": len(self.spans) - len(kept),
            "errors": dict(self.errors),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
