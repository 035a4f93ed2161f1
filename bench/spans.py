"""In-memory span recorder for the traced bench run.

A span is (name, parent, start, end). Names are `<layer>.<entry point>`,
where the layer is a beamfocus module (or `bench` for the harness's own glue
between calls). Spans come from wrappers in the bench's own files: over
module attributes that the pipeline looks up at call time, over the
callbacks that the measurement factories return, and around the writers the
bench calls.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np


class NullTracer:
    """Untraced runs: call sites stay as they are, at no cost."""

    def span(self, name):
        return nullcontext()


class Tracer:
    """Records nested spans and per-entry-point counters."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, on_result=None):
        """`fn` recording one span per call; on_result(counters, args, result)."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self.counters, args, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, on_result))

    def patch_factory(self, module, attr: str, name: str, on_result=None) -> None:
        """Wrap the callback that the factory `module.attr` returns, not the factory."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))

        def factory(*args, **kwargs):
            return self.wrap(name, original(*args, **kwargs), on_result)

        setattr(module, attr, factory)

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- analysis ---------------------------------------------------------

    def _arrays(self):
        parents = np.array(self.parents, dtype=int)
        dur = np.array(self.ends) - np.array(self.starts)
        child = np.zeros(dur.size)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        roots = np.empty(dur.size, dtype=int)
        for i, p in enumerate(self.parents):  # parents precede children
            roots[i] = i if p < 0 else roots[p]
        return dur, dur - child, roots

    def summary(self, roots) -> dict:
        """Per-name and per-layer totals over the spans under the given roots.

        Returns {"names": {name: {"calls", "total_s", "self_s", "durations"}},
        "layers": {layer: self seconds}, "top_level": {layer: seconds in
        spans whose parent is in another layer}, "root_s": the roots' total}.
        """
        dur, self_s, root_of = self._arrays()
        wanted = np.isin(root_of, list(roots))
        names: dict[str, dict] = {}
        layers: dict[str, float] = defaultdict(float)
        top_level: dict[str, float] = defaultdict(float)
        for i in np.flatnonzero(wanted):
            name = self.names[i]
            layer = name.split(".", 1)[0]
            entry = names.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            )
            entry["calls"] += 1
            entry["total_s"] += float(dur[i])
            entry["self_s"] += float(self_s[i])
            entry["durations"].append(float(dur[i]))
            layers[layer] += float(self_s[i])
            parent = self.parents[i]
            if parent < 0 or self.names[parent].split(".", 1)[0] != layer:
                top_level[layer] += float(dur[i])
        return {
            "names": names,
            "layers": dict(layers),
            "top_level": dict(top_level),
            "root_s": float(sum(dur[r] for r in roots)),
        }

    def write(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            {"name": n, "parent": p, "start_s": s - t0, "end_s": e - t0}
            for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counters": dict(self.counters)}, fh)
