"""Call tracing from outside the library, for the per-layer metrics.

A ``Tracer`` replaces every public function and method of the
``lambdatrees`` modules with a timing wrapper, at every place the
function is reachable: its own module, every module that bound it with
``from ... import``, and the class that owns a method.  Each call opens a
span on an in-memory stack; when it closes, the span's duration is added
to the function's total, and its self time is the duration minus the
time covered by the spans it caused.  Counts of caller -> callee pairs
are kept at the same boundary, so ratios such as "fixed vertices found
per ``act`` call made by ``find_fixed_vertex``" are measured where the
work happens.  Nothing is written until ``to_json`` is asked for.

The library itself is not edited; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import pkgutil
import time

PACKAGE = "lambdatrees"

# Operator methods that form a class's public arithmetic interface.
OPERATOR_DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
    "__lt__", "__le__", "__gt__", "__ge__", "__eq__",
})

# Outcome counters: function name -> how many useful outcomes one call gave.
OUTCOMES = {
    "sl2.find_fixed_vertex": lambda result: int(result is not None),
    "lengths.length_function": lambda result: len(result.classes),
}


def package_modules():
    """Import and return every module of the package except ``__main__``."""
    root = importlib.import_module(PACKAGE)
    modules = [root]
    for info in pkgutil.iter_modules(root.__path__):
        if info.name != "__main__":
            modules.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return modules


def span_name(fn) -> str:
    """``<module>.<qualname>``, e.g. ``tree.LambdaTree.distance``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Spans and counts for wrapped library calls, kept in memory."""

    def __init__(self):
        # name -> [calls, total seconds, self seconds]
        self.stats: dict = {}
        self.edges: collections.Counter = collections.Counter()
        self.outcomes: collections.Counter = collections.Counter()
        self._stack: list = []
        self._on = [True]
        self._wrappers: dict = {}
        self._patches: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        edges = self.edges
        outcomes = self.outcomes
        outcome = OUTCOMES.get(name)
        on = self._on
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    edges[parent[0], name] += 1
            if outcome is not None:
                outcomes[name] += outcome(result)
            return result

        self._wrappers[key] = traced
        return traced

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, cls) -> None:
        prefix = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__qualname__}"
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATOR_DUNDERS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, property) and raw.fget is not None:
                wrapped = property(self._wrap(raw.fget, name), raw.fset, raw.fdel)
                self._patch(cls, attr, wrapped)
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name))

    def install(self, extra=()) -> "Tracer":
        """Wrap the package's public callables; ``extra`` adds private
        ``(module, attribute)`` pairs, e.g. phase functions of the CLI."""
        modules = package_modules()
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (inspect.isclass(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")
                        and not issubclass(value, BaseException)):
                    self._wrap_class(value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__.startswith(PACKAGE + "."):
                    self._patch(module, attr, self._wrap(value, span_name(value)))
        for module, attr in extra:
            fn = getattr(module, attr)
            self._patch(module, attr, self._wrap(fn, span_name(fn)))
        return self

    def wrap_mapping(self, mapping: dict, prefix: str) -> None:
        """Wrap the callables stored as values of a dict, in place."""
        for key, fn in list(mapping.items()):
            self._patches.append((mapping, key, fn))
            mapping[key] = self._wrap(fn, f"{prefix}[{key}]")

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block go untraced."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "functions": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items()) if c
            },
            "edges": [[a, b, n] for (a, b), n in sorted(self.edges.items())],
            "outcomes": dict(sorted(self.outcomes.items())),
        }


def merge(into: dict, part: dict) -> dict:
    """Add one ``Tracer.to_json`` document into another (both in place)."""
    funcs = into.setdefault("functions", {})
    for name, rec in part.get("functions", {}).items():
        acc = funcs.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in acc:
            acc[key] += rec[key]
    edges = collections.Counter({(a, b): n for a, b, n in into.get("edges", [])})
    for a, b, n in part.get("edges", []):
        edges[a, b] += n
    into["edges"] = [[a, b, n] for (a, b), n in sorted(edges.items())]
    outcomes = collections.Counter(into.get("outcomes", {}))
    outcomes.update(part.get("outcomes", {}))
    into["outcomes"] = dict(sorted(outcomes.items()))
    return into
