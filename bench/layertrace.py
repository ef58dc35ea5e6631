"""Per-layer tracing of ffdist from outside the program.

The layers are the package modules.  ``Tracer.install`` wraps every
public module-level function and every public method (and constructor)
of the public classes of each module, at every name other modules call
it by (``ffdist.search.dist2`` and ``ffdist.srg.dist2`` are the same
function under two names, and both are wrapped).  Nothing under ``src/``
changes; ``Tracer.remove`` puts the original objects back.

Each wrapped name keeps a call count, the time spent in its calls, and
its self time: that time minus what the wrapped calls made inside it
cover.  A layer's self time is the sum over its names.  Calls are
summed, not kept as one span per call, because field methods and
``dist2`` are called millions of times per pass.
"""

import enum
import importlib
import inspect
import os
import statistics
import time

LAYERS = ("field", "linalg", "geometry", "construct", "srg", "search",
          "certificate", "cli")

# field classes are traced as two sub-layers so prime-field and
# extension-field arithmetic can be told apart
_CLASS_PREFIX = {"PrimeField": "field.prime", "ExtensionField": "field.ext"}


def _count_nodes(tracer, args, result):
    tracer.count("search.nodes", result.stats["nodes"])


def _count_bytes(tracer, args, result):
    tracer.count("certificate.write.bytes", os.path.getsize(args[1]))


OBSERVERS = {
    "search.max_equilateral": _count_nodes,
    "search.max_two_distance": _count_nodes,
    "certificate.write": _count_bytes,
}


class Tracer:
    def __init__(self):
        self.stats = {}     # boundary -> [calls, seconds, self seconds]
        self.counters = {}  # name -> int, from OBSERVERS
        self._stack = []    # child seconds of each open wrapped call
        self._patches = []  # (owner, attribute, original object)

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def reset(self):
        for s in self.stats.values():
            s[:] = [0, 0.0, 0.0]
        self.counters = {}

    def _wrap(self, fn, name):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("ffdist")
        modules = {layer: importlib.import_module("ffdist." + layer)
                   for layer in LAYERS}
        holders = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if inspect.isgeneratorfunction(obj):
                        continue
                    wrapper = self._wrap(obj, "%s.%s" % (layer, attr))
                    for holder in holders:
                        for name, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, name, wrapper)
                elif (inspect.isclass(obj)
                      and not issubclass(obj, (BaseException, enum.Enum))):
                    prefix = _CLASS_PREFIX.get(attr, "%s.%s" % (layer, attr))
                    self._wrap_class(obj, prefix)

    def _wrap_class(self, cls, prefix):
        for meth, raw in list(vars(cls).items()):
            if meth.startswith("_") and meth != "__init__":
                continue
            name = prefix if meth == "__init__" else "%s.%s" % (prefix, meth)
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, meth,
                            type(raw)(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                self._patch(cls, meth, self._wrap(raw, name))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def _calls(stats, name):
    return stats.get(name, (0, 0.0, 0.0))[0]


def _seconds(stats, name):
    return stats.get(name, (0, 0.0, 0.0))[1]


def _self_seconds(stats, prefix):
    return sum(s[2] for name, s in stats.items()
               if name == prefix or name.startswith(prefix + "."))


def _field_calls(stats, op):
    return _calls(stats, "field.prime." + op) + _calls(stats, "field.ext." + op)


def layer_metrics(stats, counters):
    """Metric name -> value for one traced pass."""
    m = {}
    for op in ("mul", "add", "sub", "inv", "pow"):
        m["field.%s.calls" % op] = _field_calls(stats, op)
    m["field.prime.self_s"] = _self_seconds(stats, "field.prime")
    m["field.ext.self_s"] = _self_seconds(stats, "field.ext")
    for fn in ("solve", "inverse", "rank"):
        m["linalg.%s.calls" % fn] = _calls(stats, "linalg." + fn)
        m["linalg.%s.s" % fn] = _seconds(stats, "linalg." + fn)
    m["linalg.isometry_to_standard.s"] = _seconds(
        stats, "linalg.isometry_to_standard")
    m["linalg.MatrixF.mul.calls"] = _calls(stats, "linalg.MatrixF.mul")
    m["linalg.MatrixF.mul.s"] = _seconds(stats, "linalg.MatrixF.mul")
    m["geometry.dist2.calls"] = _calls(stats, "geometry.dist2")
    m["geometry.dist2.s"] = _seconds(stats, "geometry.dist2")
    m["geometry.classify.calls"] = _calls(stats, "geometry.classify")
    m["geometry.classify.s"] = _seconds(stats, "geometry.classify")
    for fn in ("modular_equilateral", "midpoints", "embed_standard"):
        m["construct.%s.s" % fn] = _seconds(stats, "construct." + fn)
    m["srg.srg_check.calls"] = _calls(stats, "srg.srg_check")
    m["srg.srg_check.s"] = _seconds(stats, "srg.srg_check")
    m["srg.midpoint_graph.s"] = _seconds(stats, "srg.midpoint_graph")
    m["srg.Graph.s"] = _seconds(stats, "srg.Graph")
    nodes = counters.get("search.nodes", 0)
    search_self = _self_seconds(stats, "search")
    m["search.nodes"] = nodes
    m["search.nodes_per_s"] = nodes / search_self if search_self else 0.0
    for fn in ("write", "load", "verify"):
        m["certificate.%s.s" % fn] = _seconds(stats, "certificate." + fn)
    m["certificate.write.bytes"] = counters.get("certificate.write.bytes", 0)
    for layer in ("linalg", "geometry", "construct", "srg", "search",
                  "certificate", "cli"):
        m["%s.self_s" % layer] = _self_seconds(stats, layer)
    return m


def median_metrics(samples):
    """Per-metric median over a list of metric dicts with the same keys."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
