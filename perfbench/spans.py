"""Span tracing of fermiwire from outside the package.

``install`` wraps every public function of the traced modules and the
named class methods, then rebinds each module's imported copy of a
wrapped function (``harness`` and ``fock`` use ``from .x import f``), so
every call path goes through a wrapper.  Spans (name, start, end,
parent, failed, counts) stay in memory until the child writes them once
at exit; ``aggregate`` turns them into per-function and per-layer
numbers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("lattice", "wavepacket", "protocol", "fock", "harness")
METHODS = {
    "fock": {
        "ExactEvolver": ("__init__", "propagator", "apply"),
        "ProtocolEngine": ("run",),
    }
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Counts computed from arguments or results, not measured.
COUNTERS = {
    # dense N x N float64 hopping matrix
    "lattice.build_hopping": lambda a, k, r: {
        "bytes": 8 * _arg(a, k, 0, "lattice").n_sites ** 2
    },
    "fock.fock_basis": lambda a, k, r: {"dim": len(r)},
    "fock.kinetic_matrix": lambda a, k, r: {"nnz": int(r.nnz)},
    # F x F complex matrix product: F^3 complex multiply-adds, 8 flops each
    "fock.ExactEvolver.propagator": lambda a, k, r: {"flops": 8 * r.shape[0] ** 3},
}


class Recorder:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                counts = count(args, kwargs, result) if ok and count else None
                spans[idx] = (name, start, end, parent, not ok, counts)

        return traced


def install(package: str = "fermiwire") -> Recorder:
    """Wrap the package's public layer functions; returns the recorder."""
    recorder = Recorder()
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for name, obj in list(vars(mod).items()):
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                wrapped[obj] = recorder.wrap(f"{layer}.{name}", obj)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name, None)
            for method in methods:
                fn = None if cls is None else cls.__dict__.get(method)
                if fn is not None:
                    label = "init" if method == "__init__" else method
                    setattr(cls, method, recorder.wrap(f"{layer}.{cls_name}.{label}", fn))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    return recorder


def aggregate(spans: list) -> dict:
    """Per-name and per-layer totals of a list of spans.

    Self time is a span's duration minus the durations of its direct
    children.  Returns {"names": {name: {...}}, "layers": {layer: self_s},
    "evals_in_search": int}.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, failed, counts in spans:
        if parent >= 0:
            child[parent] += end - start
    names: dict = {}
    layers = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, parent, failed, counts) in enumerate(spans):
        entry = names.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0})
        own = (end - start) - child[i]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["failed"] += int(failed)
        for key, value in (counts or {}).items():
            # dim is a size, the other counts are work summed over calls
            entry[key] = max(entry.get(key, 0), value) if key == "dim" else entry.get(key, 0) + value
        layers[name.split(".", 1)[0]] += own
    evals_in_search = 0
    for name, start, end, parent, failed, counts in spans:
        if name != "protocol.encoding_error_bound":
            continue
        while parent >= 0 and spans[parent][0] != "protocol.min_wait_time":
            parent = spans[parent][3]
        evals_in_search += parent >= 0
    return {"names": names, "layers": layers, "evals_in_search": evals_in_search}
