"""In-memory span tracer installed around a package's public callables.

``Tracer.install`` wraps every public module-level function, every public
method and every constructor defined in the named modules, and rebinds each
wrapped function wherever the package imported it by name, so intra- and
cross-module calls are both seen.  Each call records one span: name, start,
end, parent span and run id.  Spans live in flat arrays while tracing and are
written out once, by ``SpanTable.save``, when the benchmark ends.

The tracer records the thread that installed it.  Spans of one thread nest,
so the children of a span never overlap each other, and a span's self time is
its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """Records spans and post-call counter hooks while installed.

    ``hooks`` maps a span name to ``hook(tracer, args, kwargs, result)``,
    called after the traced call returns.  A hook that raises because the
    call's arguments or result no longer have the shape it expects is
    counted in ``hook_errors`` and otherwise ignored, so a renamed or
    reshaped function reads as "not observed" rather than failing the run.
    """

    def __init__(self, hooks=None) -> None:
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.counters: Counter = Counter()
        self.hook_errors: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the traced thread."""
        nid = self._name_ids.get(name)
        return nid is not None and any(self.name_id[i] == nid for i in self._stack)

    def wrap(self, name: str, fn):
        """``fn`` wrapped so each call on the traced thread records a span."""
        nid = self._intern(name)
        hook = self.hooks.get(name)
        clock = time.perf_counter
        stack, owner = self._stack, self._thread
        name_ids, starts, ends, parents, runs = (
            self.name_id, self.start, self.end, self.parent, self.run)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != owner:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError):
                    self.hook_errors[name] += 1
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str, modules) -> None:
        """Wrap the public callables defined in ``package.<module>`` for each
        module name; a module that no longer exists is skipped."""
        prefix = package + "."
        for short in modules:
            try:
                mod = importlib.import_module(prefix + short)
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{short}.{attr}", obj)
                    loaded = [m for n, m in list(sys.modules.items())
                              if m is not None and (n == package or n.startswith(prefix))]
                    for other in loaded:
                        for key, value in list(vars(other).items()):
                            if value is obj:
                                self._patch(other, key, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(f"{short}.{attr}", obj)

    def _install_class(self, label: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr != "__init__" and attr.startswith("_"):
                continue
            name = label if attr == "__init__" else f"{label}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                self._patch(cls, attr, type(raw)(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(name, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def table(self) -> "SpanTable":
        """A copy of the spans recorded so far."""
        return SpanTable(self.names, np.array(self.name_id), np.array(self.start),
                         np.array(self.end), np.array(self.parent), np.array(self.run))


class SpanTable:
    """Finished spans as arrays, indexed in the order the spans opened."""

    def __init__(self, names, name_id, start, end, parent, run) -> None:
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.run = np.asarray(run, dtype=np.int64)
        self.duration = self.end - self.start
        n = len(self.start)
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                              minlength=n)[:n]
        self.self_time = self.duration - covered
        layers = np.array([name.split(".", 1)[0] for name in self.names] or [""])
        self.layer = layers[self.name_id] if n else np.empty(0, dtype=layers.dtype)

    def __len__(self) -> int:
        return len(self.start)

    def named(self, name: str) -> np.ndarray:
        """Mask of spans called ``name``; all False for a name never seen."""
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name_id == self.names.index(name)

    def prefixed(self, prefix: str) -> np.ndarray:
        """Mask of spans whose name starts with ``prefix``."""
        ids = [i for i, name in enumerate(self.names) if name.startswith(prefix)]
        return np.isin(self.name_id, ids)

    def under(self, mask: np.ndarray) -> np.ndarray:
        """Mask of the strict descendants of the spans in ``mask``.

        Spans open in index order and nest, so the descendants of span p are
        exactly the spans opened after p and before p ended: one index range.
        """
        delta = np.zeros(len(self) + 1, dtype=np.int64)
        roots = np.flatnonzero(mask)
        stops = np.searchsorted(self.start, self.end[roots], side="left")
        np.add.at(delta, roots + 1, 1)
        np.add.at(delta, np.maximum(stops, roots + 1), -1)
        return np.cumsum(delta)[:-1] > 0

    def outermost(self, layer: str) -> np.ndarray:
        """Spans of ``layer`` that no other span of the same layer encloses."""
        mine = self.layer == layer
        enclosed = np.zeros(len(self), dtype=bool)
        enclosed[mine] = self.under(mine)[mine]
        return mine & ~enclosed

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=self.name_id.astype(np.int32),
                 start=self.start, end=self.end, parent=self.parent.astype(np.int32),
                 run=self.run.astype(np.int32))
