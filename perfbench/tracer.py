"""Span tracing of the package's layers, applied from outside.

``Tracer`` wraps every public function of the six layer modules at every
module binding it is imported into (``protocol.apply_on_subset``,
``ghzmeasure.apply_on_subset``, ``ghzdense.run_trials`` ...), so calls made
inside the package are seen too. The wrappers are installed only inside
``Tracer.op``; outside it the package runs untouched.

A span is (name, parent, start, end). Spans are kept in flat arrays in
memory and written out once, at the end of the run. Each ``op`` opens a
root span tagged with a segment name and the op's size (trials or oracle
samples); all layer metrics are derived from the spans of one segment.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from array import array

import numpy as np

LAYERS = ("qstate", "bases", "encoding", "ghzmeasure", "protocol", "cli")


class Tracer:
    def __init__(self, package) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.roots: dict[int, dict] = {}
        self._stack: list[int] = []
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == module.__name__:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        self._patches = [
            (module, attr, obj, wrappers[id(obj)])
            for module in modules
            for attr, obj in vars(module).items()
            if id(obj) in wrappers
        ]

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._intern(name)
        stack, ids, parents, starts, ends = self._stack, self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def op(self, segment: str, **size):
        """Trace everything called inside as one root span of ``segment``."""
        index = len(self.start)
        self.roots[index] = {"segment": segment, **size}
        self.name_id.append(self._intern(f"op.{segment}"))
        self.parent.append(-1)
        self.end.append(0.0)
        self._stack.append(index)
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self._stack.pop()

    def view(self, segment: str) -> SpanView:
        return SpanView(self, segment)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            roots=np.array(json.dumps({str(k): v for k, v in self.roots.items()})),
        )


class SpanView:
    """The spans of one segment, with the derived per-layer quantities."""

    def __init__(self, tracer: Tracer, segment: str) -> None:
        parent = np.frombuffer(tracer.parent, dtype=np.int32).astype(np.int64)
        n = parent.shape[0]
        # Ops run one after another, so each op's spans are the contiguous
        # block of indices that starts at its root span.
        starts = np.array(sorted(tracer.roots), dtype=np.int64)
        root = starts[np.searchsorted(starts, np.arange(n), side="right") - 1]
        ops = {i: attrs for i, attrs in tracer.roots.items() if attrs["segment"] == segment}
        keep = np.isin(root, np.fromiter(ops, dtype=np.int64, count=len(ops)))
        start = np.frombuffer(tracer.start)
        dur = np.frombuffer(tracer.end) - start
        children = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=n)
        self._names = {name: i for i, name in enumerate(tracer.names)}
        self._id = np.frombuffer(tracer.name_id, dtype=np.int32)[keep]
        self._dur = dur[keep]
        self._self = (dur - children)[keep]
        self._samples = np.array([ops[r].get("samples", 0) for r in root[keep]])
        self.trials = sum(attrs.get("trials", 0) for attrs in ops.values())
        # A span lies inside a run_trials call when its index falls in the
        # contiguous block of spans that call started.
        inside = np.zeros(n + 1, dtype=np.int64)
        rt = np.nonzero(np.frombuffer(tracer.name_id, dtype=np.int32) == self._names.get("protocol.run_trials", -1))[0]
        np.add.at(inside, rt + 1, 1)
        np.add.at(inside, np.searchsorted(start, start[rt] + dur[rt], side="left"), -1)
        self._in_trials = (np.cumsum(inside)[:n] > 0)[keep]

    def _mask(self, name: str) -> np.ndarray:
        return self._id == self._names.get(name, -1)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def seconds_per_call(self, name: str) -> float:
        mask = self._mask(name)
        return float(self._dur[mask].sum() / mask.sum())

    def self_frac(self, name: str) -> float:
        """Share of the span time that no child span covers."""
        mask = self._mask(name)
        return float(self._self[mask].sum() / self._dur[mask].sum())

    def calls_per_trial(self, name: str) -> float:
        return float((self._mask(name) & self._in_trials).sum() / self.trials)

    def oracle_samples_per_s(self) -> float:
        """Pairs x samples scored, over the time spent in oracle matrices."""
        scored = self._samples[self._mask("encoding.reachability_oracle")].sum()
        return float(scored / self._dur[self._mask("encoding.reachability_oracle_matrix")].sum())
