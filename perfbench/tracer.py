"""Outside-in tracing of ``curvsol``: spans around every public function,
recorded without changing the program.

``Tracer.install`` wraps each function named in a layer module's
``__all__`` (plus ``cli.main`` and ``io.derived_columns``) and puts the
wrapper into every ``curvsol`` module attribute that holds the function, so
calls routed through ``from .x import y`` and closures that look the name
up at call time are seen too.  Spans (name, parent, start, end) are kept in
flat arrays in memory and written out by ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LAYERS = ("speeds", "cones", "rotgeom", "profiles", "picard", "verifier", "io", "svgfig", "cli")
EXTRA = {"cli": ("main",), "io": ("derived_columns",)}
# Counters taken from return values: name -> (counter, size of the result).
RESULT_COUNTERS = {
    "profiles.integrate_profile": ("profiles.integrate_profile.nodes",
                                   lambda p: int(p.samples.shape[0])),
    "picard.picard_solve": ("picard.picard_solve.iterations", lambda r: len(r.iterations)),
}


def public_functions(package: str = "curvsol") -> dict[str, object]:
    """``layer.fn`` -> function, for every function the tracer wraps."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package}.{layer}")
        for attr in (*getattr(mod, "__all__", ()), *EXTRA.get(layer, ())):
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[f"{layer}.{attr}"] = obj
    return found


@dataclass
class SpanTable:
    """Per-name aggregates of the recorded spans."""

    names: list[str]
    calls: np.ndarray
    self_s: np.ndarray
    counters: dict[str, int]
    # spans of one name whose parent span has another name: (child, parent) -> count
    nested: dict[tuple[str, str], int]

    def call_count(self, name: str) -> int:
        return int(self.calls[self.names.index(name)]) if name in self.names else 0

    def self_time(self, name: str) -> float:
        return float(self.self_s[self.names.index(name)]) if name in self.names else 0.0

    def layer_self_time(self, layer: str) -> float:
        return float(sum(t for n, t in zip(self.names, self.self_s)
                         if n.split(".", 1)[0] == layer))


class Tracer:
    def __init__(self, package: str = "curvsol"):
        self.package = package
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {counter: 0 for counter, _ in RESULT_COUNTERS.values()}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # id(original) -> (original, wrapper); the originals stay alive here
        self._wrappers = {id(fn): (fn, self._wrap(name, fn))
                          for name, fn in public_functions(package).items()}

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock, counters = self._stack, time.perf_counter, self.counters
        counter, size = RESULT_COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                counters[counter] += size(result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package
                                   or modname.startswith(self.package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                entry = self._wrappers.get(id(val))
                if entry is not None and entry[0] is val:
                    setattr(mod, attr, entry[1])
                    self._patches.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.intc)
        parents = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return ids, parents, dur

    def table(self) -> SpanTable:
        """Calls and self time (span minus its child spans) per name."""
        ids, parents, dur = self._arrays()
        k = len(self.names)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=ids.size)
        pairs = np.bincount(ids[child] * k + ids[parents[child]], minlength=k * k)
        return SpanTable(
            names=list(self.names),
            calls=np.bincount(ids, minlength=k),
            self_s=np.bincount(ids, weights=dur - covered, minlength=k),
            counters=dict(self.counters),
            nested={(self.names[c], self.names[p]): int(pairs[c * k + p])
                    for c in range(k) for p in range(k) if pairs[c * k + p]},
        )

    def write(self, path: Path) -> None:
        """All spans: name table, then name id, parent index (-1 for a
        root), start and end in seconds of ``time.perf_counter``."""
        ids, parents, _ = self._arrays()
        np.savez(path, names=np.array(self.names), name=ids, parent=parents,
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))
