"""Spans and phase timers recorded around calls into dpplab's public API.

Nothing here edits the package: wrappers replace public functions (and a few
public methods) by identity in every loaded ``dpplab`` module, so a call made
through ``dpplab.cli`` or ``dpplab.solver`` reaches the same wrapper as one
made through the package root. ``restore`` puts the originals back.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

# Modules whose public functions are traced, in the order the per-layer
# metrics list them.
LAYERS = ("core", "operators", "solver", "simulate", "rng", "comparison",
          "certifier", "regularity", "cli")

# Public methods traced besides module-level functions.
METHODS = {"core": {"GridDomain": ("point_index", "nearest_index",
                                   "neighbor_table"),
                    "ValueField": ("evaluate",)}}


def _dpplab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dpplab" or name.startswith("dpplab."))]


class Patches:
    """Replacements made by identity in every loaded dpplab module."""

    def __init__(self):
        self._undo: list = []

    def replace(self, original, wrapper):
        for mod in _dpplab_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def replace_method(self, cls, name: str, wrapper):
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def public_callables(layer: str):
    """(qualified name, owner, attribute, function) for one layer's public API."""
    mod = sys.modules[f"dpplab.{layer}"]
    out = []
    for attr, fn in vars(mod).items():
        if (not attr.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__):
            out.append((f"{layer}.{attr}", mod, attr, fn))
    for cls_name, methods in METHODS.get(layer, {}).items():
        cls = getattr(mod, cls_name)
        for attr in methods:
            out.append((f"{layer}.{cls_name}.{attr}", cls, attr,
                        cls.__dict__[attr]))
    return out


class PhaseClock:
    """Accumulates wall time per phase (solve, estimate, ...) while patched."""

    def __init__(self):
        self.totals: dict = {}

    def add(self, phase: str, seconds: float):
        self.totals[phase] = self.totals.get(phase, 0.0) + seconds

    def timed(self, phase: str, fn):
        clock = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                clock.add(phase, time.perf_counter() - t0)

        wrapper.__wrapped__ = fn
        return wrapper


@dataclass
class Tracer:
    """In-memory span recorder.

    A span is (name id, start, end, parent span index, workload-run id).
    Hooks named in ``hooks`` see (tracer, args, kwargs, result) after a call
    returns and record counts at the same boundary; tracing is suspended
    while they run so their own calls into dpplab make no spans.
    """

    hooks: dict = field(default_factory=dict)
    names: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    run_id: int = 0
    _ids: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _suspended: bool = False

    def count(self, key: str, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = self.hooks.get(name)
        tracer = self
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.run_id)
            if hook is not None:
                tracer._suspended = True
                try:
                    hook(tracer, args, kwargs, result)
                finally:
                    tracer._suspended = False
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, patches: Patches):
        for layer in LAYERS:
            for name, owner, attr, fn in public_callables(layer):
                wrapped = self.wrap(name, fn)
                if isinstance(owner, type):
                    patches.replace_method(owner, attr, wrapped)
                else:
                    patches.replace(fn, wrapped)

    # -- analysis -------------------------------------------------------------

    def durations(self, name: str, run_id: int) -> list:
        nid = self._ids.get(name)
        return [t1 - t0 for (n, t0, t1, _, r) in self.spans
                if n == nid and r == run_id]

    def self_times(self, run_id: int) -> dict:
        """Layer -> summed self time (span duration minus its children's)."""
        child = [0.0] * len(self.spans)
        for (_, t0, t1, parent, r) in self.spans:
            if parent >= 0 and r == run_id:
                child[parent] += t1 - t0
        out: dict = {}
        for i, (nid, t0, t1, _, r) in enumerate(self.spans):
            if r == run_id:
                layer = self.names[nid].split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + (t1 - t0) - child[i]
        return out

    def inclusive_times(self, run_id: int) -> dict:
        """Layer -> time inside its outermost spans, calls into other
        layers included."""
        layer_of = [self.names[s[0]].split(".", 1)[0] for s in self.spans]
        out: dict = {}
        for i, (_, t0, t1, parent, r) in enumerate(self.spans):
            if r != run_id:
                continue
            while parent >= 0 and layer_of[parent] != layer_of[i]:
                parent = self.spans[parent][3]
            if parent < 0:
                out[layer_of[i]] = out.get(layer_of[i], 0.0) + t1 - t0
        return out

    def top_level_time(self, run_id: int) -> float:
        return sum(t1 - t0 for (_, t0, t1, parent, r) in self.spans
                   if parent < 0 and r == run_id)

    def write(self, path: str, meta: dict):
        """Write every span once, as columns; times in microseconds."""
        t_ref = min((s[1] for s in self.spans), default=0.0)
        payload = {
            "meta": meta,
            "names": self.names,
            "name": [s[0] for s in self.spans],
            "start_us": [round((s[1] - t_ref) * 1e6, 3) for s in self.spans],
            "end_us": [round((s[2] - t_ref) * 1e6, 3) for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "run": [s[4] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def per_call(samples, scale: float = 1.0) -> tuple[float, float, int]:
    """(p50, tail, n) of per-call samples, scaled.

    The tail is the highest percentile with at least ten samples beyond it,
    i.e. the eleventh-largest sample; below eleven samples it is the maximum.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    tail = xs[n - 11] if n >= 11 else xs[-1]
    return statistics.median(xs) * scale, tail * scale, n
