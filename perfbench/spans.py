"""Spans around calls into bdecat's layers, recorded from the benchmark side.

`Tracer.install` replaces each listed public function, in every loaded
bdecat module that refers to it, with a wrapper that records one span:
name, op id, parent span, start and end (perf_counter_ns).  Spans stay in
memory in flat integer arrays and are written once, at the end of the run.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {c: array("q") for c in ("name", "op", "parent", "start", "end")}
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _enter(self, nid: int) -> list[int]:
        cols = self.cols
        idx = len(cols["start"])
        cols["name"].append(nid)
        cols["op"].append(self.op)
        cols["parent"].append(self._stack[-1][0] if self._stack else -1)
        cols["end"].append(0)
        frame = [idx, 0]
        self._stack.append(frame)
        cols["start"].append(perf_counter_ns())
        return frame

    def _exit(self, frame: list[int], nid: int) -> None:
        end = perf_counter_ns()
        idx, child = frame
        self._stack.pop()
        self.cols["end"][idx] = end
        dur = end - self.cols["start"][idx]
        self.self_ns[nid] += dur - child
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name: str):
        nid = self._id(name)
        frame = self._enter(nid)
        try:
            yield
        finally:
            self._exit(frame, nid)

    def _wrap(self, name: str, fn, hook):
        nid = self._id(name)
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                leave(frame, nid)
                if hook:
                    hook(args, None, exc)
                raise
            leave(frame, nid)
            if hook:
                hook(args, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets: dict[str, tuple[str, object]]) -> None:
        """targets maps "module.function" to (span name, hook or None).  A
        hook is called as hook(args, result, exception) after each call."""
        modules = [m for n, m in sys.modules.items()
                   if n == "bdecat" or n.startswith("bdecat.")]
        for qualified, (name, hook) in targets.items():
            module, attr = qualified.rsplit(".", 1)
            original = getattr(sys.modules["bdecat." + module], attr)
            wrapper = self._wrap(name, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def self_seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def write(self, stem: str) -> None:
        """<stem>.bin holds the columns as int64 arrays, one after another;
        <stem>.json names the columns, their length and the span names."""
        with open(stem + ".bin", "wb") as fh:
            for col in self.cols.values():
                col.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({"columns": list(self.cols), "spans": len(self.cols["start"]),
                       "dtype": "int64", "names": self.names}, fh)


class NullTracer:
    """Stands in for a Tracer when the replay runs untraced."""

    @contextmanager
    def span(self, name: str):
        yield
