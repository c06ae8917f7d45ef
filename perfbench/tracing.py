"""In-memory spans around the public functions of each layer.

`Tracer.install` wraps each function named in `spec.SPANS` and rebinds
the wrapper wherever callers look the name up: in its home module (for
calls inside that module) and in every module that imported it with
`from .x import y`.  The source tree is not modified; the rebinding only
lives in the interpreter that installs it.
"""
from __future__ import annotations

import functools
import importlib
import time

CALLER_MODULES = ("cli", "files", "fwe", "zeta", "analysis", "algebra")


class Tracer:
    """Records (name, start, end, parent, request) spans and per-span
    self time, call counts and root-finder work."""

    def __init__(self):
        self.spans = []              # [name, start, end, parent index, request]
        self.self_s = {}
        self.calls = {}
        self.iterations = 0
        self.degree_sum = 0
        self.request = None
        self._stack = []             # [span index, seconds covered by children]

    def install(self, targets) -> None:
        modules = {m: importlib.import_module(f"fwezeta.{m}") for m in CALLER_MODULES}
        for home, func in targets:
            original = getattr(modules[home], func)
            wrapper = self.wrap(f"{home}.{func}", original)
            for module in modules.values():
                if getattr(module, func, None) is original:
                    setattr(module, func, wrapper)

    def wrap(self, name: str, fn):
        self.self_s.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)
        count_roots = name == "analysis.find_roots"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.request])
            self._stack.append([index, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, covered = self._stack.pop()
                span = self.spans[index]
                span[2] = end
                duration = end - span[1]
                self.self_s[name] += duration - covered
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += duration
            if count_roots:
                self.iterations += result.iterations
                self.degree_sum += args[0].degree
            return result
        return traced

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent is None)

    def counts(self) -> dict:
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out["analysis.find_roots.iterations"] = self.iterations
        out["analysis.find_roots.degree_sum"] = self.degree_sum
        return out

    def records(self) -> list:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "request": request}
                for name, start, end, parent, request in self.spans]
