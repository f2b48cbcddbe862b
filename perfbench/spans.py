"""Layer spans around elliptau, recorded from outside the package.

A layer is one module of the package.  `Tracer.install` wraps each boundary
function -- the module-level public functions, and the public methods of the
classes that carry the solution (PhiMatrix, YSolution, SystemCoefficients) --
and puts the wrapper in place of the original everywhere a module holds it:
in the defining module and under every `from .x import y` alias.  isomono
reaches curve as `_curve.name` and monodromy and scenario import curve names
inside functions; both read the curve module's attributes, which are
replaced too.

A call that enters a layer from another one opens a span (name, start, end,
parent), named after the function called.  A call made inside the same layer
is only counted and timed, so a layer's self time is the time of its spans
not covered by child spans.  Geometry methods that take well under a
microsecond (Line.x, Arc.x, BranchConfig.y_squared) are never wrapped: the
wrapper would cost more than the work they do.
"""

from __future__ import annotations

import importlib
import time
import types
from array import array

import numpy as np

LAYERS = ("elliptic", "curve", "isomono", "tau", "monodromy", "checks",
          "scenario", "cli")
ROOT = "bench"  # the harness's own layer: the span of a whole pass

# Classes whose public methods are layer boundaries, by layer.
METHOD_CLASSES = {"isomono": ("PhiMatrix", "YSolution", "SystemCoefficients")}

# Functions whose per-call durations are kept (for a median), by span name.
KEEP_DURATIONS = ("isomono.YSolution.y_at",)


class Tracer:
    def __init__(self):
        self.layer_names = (ROOT,) + LAYERS
        self.names = [ROOT]  # span name by id
        self.name_layer = [0]  # layer id by span name id
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._stack = [(-1, -1)]  # (span index, layer id) of the open spans
        self.stats = {}  # span name -> [calls, inclusive seconds]
        self.durations = {name: [] for name in KEEP_DURATIONS}
        self.curve_errors = [0]
        self._restore = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, layer_id, qualname, count_errors=()):
        name_id = len(self.names)
        self.names.append(qualname)
        self.name_layer.append(layer_id)
        stat = self.stats.setdefault(qualname, [0, 0.0])
        durs = self.durations.get(qualname)
        stack, names, starts, ends, parents = (
            self._stack, self._name, self._start, self._end, self._parent)
        errors = self.curve_errors
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stat[0] += 1
            top, top_layer = stack[-1]
            if top_layer == layer_id:
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    stat[1] += dt
                    if durs is not None:
                        durs.append(dt)
            idx = len(starts)
            names.append(name_id)
            parents.append(top)
            ends.append(0.0)
            stack.append((idx, layer_id))
            t0 = perf()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            except count_errors:
                errors[0] += 1
                raise
            finally:
                t1 = perf()
                ends[idx] = t1
                stack.pop()
                stat[1] += t1 - t0
                if durs is not None:
                    durs.append(t1 - t0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def root(self):
        """Context manager: the span of one traced pass, in the harness layer."""
        return _RootSpan(self)

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the boundary functions of every layer module of elliptau."""
        from elliptau.errors import ContourGeometryError, QuadratureError

        modules = {layer: importlib.import_module(f"elliptau.{layer}")
                   for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            lid = self.layer_names.index(layer)
            errs = (QuadratureError, ContourGeometryError) if layer == "curve" else ()
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, lid, f"{layer}.{name}", errs))
            for cls_name in METHOD_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for name, obj in list(vars(cls).items()):
                    if name.startswith("_") or not isinstance(obj, types.FunctionType):
                        continue
                    self._restore.append((cls, name, obj))
                    setattr(cls, name,
                            self._wrap(obj, lid, f"{layer}.{cls_name}.{name}", errs))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self):
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def spans(self):
        """The recorded spans as arrays: name id, start, end, parent index."""
        return (np.frombuffer(self._name, dtype=np.int32).copy(),
                np.frombuffer(self._start, dtype=np.float64).copy(),
                np.frombuffer(self._end, dtype=np.float64).copy(),
                np.frombuffer(self._parent, dtype=np.int32).copy())

    def layer_times(self):
        """Per layer: (self seconds, spans opened), computed from the spans."""
        name, start, end, parent = self.spans()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(name))
        layer = np.asarray(self.name_layer, dtype=np.int64)[name]
        self_time = np.bincount(layer, weights=dur - covered,
                                minlength=len(self.layer_names))
        count = np.bincount(layer, minlength=len(self.layer_names))
        return {lname: (float(self_time[i]), int(count[i]))
                for i, lname in enumerate(self.layer_names)}

    def save(self, path):
        """Write the spans and their name table to an .npz file."""
        name, start, end, parent = self.spans()
        np.savez_compressed(path, names=np.array(self.names),
                            name_layer=np.array(self.name_layer),
                            layer_names=np.array(self.layer_names),
                            name=name, start=start, end=end, parent=parent)


class _RootSpan:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr._start)
        tr._name.append(0)
        tr._parent.append(-1)
        tr._end.append(0.0)
        tr._stack.append((self.idx, 0))
        tr._start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr._end[self.idx] = time.perf_counter()
        tr._stack.pop()
        self.seconds = tr._end[self.idx] - tr._start[self.idx]
        return False
