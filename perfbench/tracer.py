"""Span tracing from outside the program: wrap the public functions and methods
of the weylrg modules and aggregate per-span call counts, total and self time.

Nothing under src/ changes.  A function is wrapped where it is defined and
also wherever another weylrg module imported it by name (rgflow calls
band_grid_r1 and smooth_cutoff through its own bindings), so a call made
through any module-level binding is seen.  Spans are aggregated in memory by
name; `self_s` is a span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import warnings

LAYERS = ("lattice", "cutoff", "propagator", "multiscale", "rgflow", "trees",
          "grassmann", "cli")

# spans whose every duration is kept, for percentiles
_KEEP_DURATIONS = {"grassmann.bbf_evaluate"}


class SpanStat:
    __slots__ = ("calls", "total_s", "self_s", "callers", "durations", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.callers = {}
        self.durations = []
        self.extra = {}

    def as_dict(self):
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                "callers": self.callers, "durations": self.durations,
                "extra": self.extra}


class Tracer:
    """Aggregating span recorder; `install` wraps the weylrg layers in place."""

    def __init__(self):
        self.stats = {}
        self._stack = []   # [name, child_seconds] per open span
        self._paused = False
        self._hooks = {}   # span name -> fn(stat, args, kwargs, result)
        self.warnings = 0

    # -- recording --------------------------------------------------------

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStat()
        return st

    def span(self, name, fn):
        """Call fn() inside a span named `name` (used for the harness's jobs)."""
        return self._wrap(name, fn)()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st = tracer._stat(name)
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[1]
                parent = stack[-1][0] if stack else "-"
                st.callers[parent] = st.callers.get(parent, 0) + 1
                if name in _KEEP_DURATIONS:
                    st.durations.append(dt)
                if stack:
                    stack[-1][1] += dt
            hook = tracer._hooks.get(name)
            if hook is not None:
                tracer._paused = True
                try:
                    hook(tracer._stat(name), args, kwargs, result)
                finally:
                    tracer._paused = False
            return result

        return traced

    def hook(self, name, fn):
        """Run fn(stat, args, kwargs, result) after each successful call of
        span `name`, with tracing paused so the hook's own calls are unseen."""
        self._hooks[name] = fn

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every public function and method defined in each layer module
        and rebind every weylrg module-level name that refers to one."""
        mods = {layer: importlib.import_module(f"weylrg.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    replaced[id(obj)] = (obj, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "weylrg" or name.startswith("weylrg.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        mods["multiscale"].warnings = _CountingWarnings(self)
        return self

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    # -- output ------------------------------------------------------------

    def dump(self):
        return {"spans": {k: v.as_dict() for k, v in self.stats.items()},
                "warnings": self.warnings}


class _CountingWarnings:
    """Stands in for the `warnings` module inside multiscale: counts each
    warning raised there before filters apply (the CLI ignores them)."""

    def __init__(self, tracer):
        self._tracer = tracer

    def warn(self, message, category=None, stacklevel=1):
        self._tracer.warnings += 1
        warnings.warn(message, category, stacklevel=stacklevel + 1)

    def __getattr__(self, attr):
        return getattr(warnings, attr)


def merge(dumps):
    """Sum several Tracer.dump() payloads (the CLI subprocesses of one pass)."""
    spans = {}
    total_warnings = 0
    for d in dumps:
        total_warnings += d["warnings"]
        for name, s in d["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "callers": {}, "durations": [], "extra": {}})
            acc["calls"] += s["calls"]
            acc["total_s"] += s["total_s"]
            acc["self_s"] += s["self_s"]
            acc["durations"].extend(s["durations"])
            for k, v in s["callers"].items():
                acc["callers"][k] = acc["callers"].get(k, 0) + v
            for k, v in s["extra"].items():
                acc["extra"][k] = acc["extra"].get(k, 0) + v
    return {"spans": spans, "warnings": total_warnings}
