"""Span tracing and call hooks installed over trajopt from outside the package.

A wrapper is bound at run time over a public function of a trajopt module.
The name is rebound in the module that defines it and in every trajopt
namespace that imported it (``from .geometry import angle2d`` leaves a second
binding in ``solver_single``), so calls through either path are seen.  A
target that the program no longer has is reported as absent instead of
failing, so a refactor that deletes internals keeps the benchmark running.

Spans (name, start, end, parent, op id) are kept in memory and written when
the benchmark ends.  Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "trajopt"


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, original) for 'func' or 'Class.method', or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Patches:
    """Rebinds named callables and restores every binding on remove()."""

    def __init__(self):
        self._bindings: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.rebound: dict[str, list[str]] = {}

    def wrap(self, module_name: str, qualname: str, make_wrapper) -> None:
        found = _resolve(module_name, qualname)
        if found is None:
            self.absent.append(f"{module_name}.{qualname}")
            return
        owner, attr, original = found
        wrapper = make_wrapper(original)
        targets = [(owner, attr)]
        if owner is sys.modules.get(module_name):
            # every other trajopt namespace that bound the same object by name
            for name, mod in list(sys.modules.items()):
                if mod is owner or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                targets += [(mod, key) for key, value in vars(mod).items() if value is original]
        self.rebound[f"{module_name}.{qualname}"] = [
            f"{getattr(obj, '__name__', obj)}.{key}" for obj, key in targets
        ]
        for obj, key in targets:
            self._bindings.append((obj, key, original))
            setattr(obj, key, wrapper)

    def remove(self) -> None:
        for obj, key, original in reversed(self._bindings):
            setattr(obj, key, original)
        self._bindings.clear()


class Recorder:
    """In-memory span store; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []

    def wrapper(self, span_name: str, observe=None):
        """Factory for Patches.wrap: time each call as a span named span_name.

        observe(counters, args, kwargs, result) runs after the span closes,
        for counts read off the call's inputs and outputs.  A call that raises
        adds to the counter '<span_name>.failed'; an observer that raises
        adds to '<span_name>.observe_failed' and leaves the call's result
        alone, so a changed return type cannot fail the op.
        """
        rec = self

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(rec.names)
                rec.names.append(span_name)
                rec.parents.append(rec._stack[-1] if rec._stack else -1)
                rec.ops.append(rec.op_id)
                rec.ends.append(0.0)
                rec._stack.append(idx)
                rec.starts.append(time.perf_counter())
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    rec.counters[span_name + ".failed"] += 1
                    raise
                finally:
                    rec.ends[idx] = time.perf_counter()
                    rec._stack.pop()
                if observe is not None:
                    try:
                        observe(rec.counters, args, kwargs, result)
                    except Exception:  # a counting aid, never the op's outcome
                        rec.counters[span_name + ".observe_failed"] += 1
                return result

            return traced

        return make

    def __len__(self) -> int:
        return len(self.names)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only, so a layer calling itself is not counted twice) and self
        seconds (duration minus direct child spans)."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i in range(n):
            name = self.names[i]
            row = out[name]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                row["s"] += dur[i]
        return dict(out)

    def write_jsonl(self, path) -> None:
        """One span per line: [name, start_us, end_us, parent, op]."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            for i in range(len(self.names)):
                row = [
                    self.names[i],
                    round((self.starts[i] - t0) * 1e6, 1),
                    round((self.ends[i] - t0) * 1e6, 1),
                    self.parents[i],
                    self.ops[i],
                ]
                fh.write(json.dumps(row) + "\n")
