"""Spans around the public callables of every qflat layer.

The tracer patches, from the benchmark's side, every public module-level
function and every public method (plus the arithmetic operators) of the
classes each layer defines.  A function imported by name into another
qflat module (say `determinant` inside `localform`) is re-bound there as
well, so the span is seen whichever name the caller used.  Nothing is
patched outside `Tracer.active()`.

Per callable it keeps the call count, the self time (span time minus the
time covered by child spans) and the number of exceptions that left the
span.  Observers turn return values into work counters at the same
boundary.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

LAYERS = ("cli", "gram", "exact", "lattice", "localform", "enumeration",
          "massledger", "intervals", "hyperbolic", "pingpong")

_OPERATORS = {"__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
              "__rtruediv__", "__neg__", "__call__"}


class Stat:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Aggregated spans keyed by (layer, callable name)."""

    def __init__(self, observers=None):
        self.modules = {name: importlib.import_module(f"qflat.{name}")
                        for name in LAYERS}
        self.stats = {}
        self._observers = observers or {}
        self._stack = []

    def _wrap(self, layer, name, fn):
        stat = self.stats.setdefault((layer, name), Stat())
        stack = self._stack
        observe = self._observers.get((layer, name))
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return span

    def _targets(self):
        """(owner, attribute, original, layer, name) for every public callable."""
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield mod, attr, obj, layer, attr
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_") and meth not in _OPERATORS:
                            continue
                        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                        if inspect.isfunction(fn):
                            yield obj, meth, raw, layer, f"{attr}.{meth}"

    @contextlib.contextmanager
    def active(self):
        undo = []
        wrapped = {}
        for owner, attr, raw, layer, name in self._targets():
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(layer, name, raw.__func__))
            else:
                new = self._wrap(layer, name, raw)
                wrapped[id(raw)] = (raw, new)
            undo.append((owner, attr, raw))
            setattr(owner, attr, new)
        # re-bind names imported into other qflat modules
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        try:
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    # -- summaries -----------------------------------------------------------

    def layer(self, layer):
        calls = self_s = errors = 0
        for (lay, _), st in self.stats.items():
            if lay == layer:
                calls += st.calls
                self_s += st.self_s
                errors += st.errors
        return calls, self_s, errors

    def function(self, layer, name):
        return self.stats.get((layer, name), Stat())
