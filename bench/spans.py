"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the library: every public function
of the traced modules is replaced, at every module attribute that names
it, by a wrapper that records a span (name, start, end, parent) and a
few counters derived from the call's arguments and result.  ``install``
returns a handle whose ``remove`` puts every original back, so untraced
runs never see a wrapper.

``signals`` and ``weights`` are not wrapped: they are reached through
``voice`` and ``fields``, and their time shows as those spans' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

TRACED_MODULES = ("cli", "groups", "voice", "fields", "lattices", "frames")

# cli.main is the command-line layer's one entry point; the cmd_* handlers
# are dispatch-table entries reached only through it, so their config
# parsing and JSON I/O stay in cli.main's self time.
_CLI_PUBLIC = ("main",)

# static methods traced as layer functions, named "<module>.<method>"
_STATIC_METHODS = (("groups", "GroupField", "from_dict"),)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_convolve(args, kwargs, result):
    return {"nodes": int(result.values.size)}


def _count_oscillation(args, kwargs, result):
    G = _arg(args, kwargs, 0, "G")
    U = _arg(args, kwargs, 1, "U")
    return {"points": int(np.asarray(G.values).size * U.n_samples ** 2)}


def _count_interpolate(args, kwargs, result):
    b = _arg(args, kwargs, 1, "b_q")
    a = _arg(args, kwargs, 2, "a_q")
    return {"points": int(np.broadcast(np.asarray(b), np.asarray(a)).size)}


def _count_sample_field(args, kwargs, result):
    return {"points": int(result.in_chart.size),
            "in_chart": int(np.count_nonzero(result.in_chart))}


def _count_neumann(args, kwargs, result):
    report = result[1]
    ratios = report.contraction_ratios()
    return {"iterations": int(report.iterations),
            "last_contraction": float(ratios[-1]) if ratios.size else 0.0}


def _count_design(args, kwargs, result):
    return {"steps": int(result.steps)}


def _count_invert(args, kwargs, result):
    return {"iterations": int(result[1].iterations)}


COUNTERS = {
    "fields.convolve": _count_convolve,
    "fields.oscillation": _count_oscillation,
    "groups.affine_field_interpolate": _count_interpolate,
    "lattices.sample_field": _count_sample_field,
    "frames.neumann_reconstruct": _count_neumann,
    "frames.design_lattice": _count_design,
    "frames.frame_operator_invert": _count_invert,
}


class Recorder:
    """Spans kept in memory: dicts with name, parent index, start, end, counts."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None, "counts": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        wrapper.bench_span_name = name
        return wrapper


def traced_functions():
    """``(span name, function)`` for every public function of the traced modules."""
    found = []
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"coorbit.{short}")
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            if short == "cli" and attr not in _CLI_PUBLIC:
                continue
            found.append((f"{short}.{attr}", obj))
    return found


class Installed:
    """Handle on installed wrappers; ``remove`` restores every original."""

    def __init__(self, patched):
        self._patched = patched

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()


def install(recorder: Recorder) -> Installed:
    """Wrap every traced function at every ``coorbit`` module name bound to it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "coorbit" or name.startswith("coorbit."))]
    patched = []
    for name, fn in traced_functions():
        wrapper = recorder.wrap(name, fn)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
    for short, cls_name, meth in _STATIC_METHODS:
        cls = getattr(importlib.import_module(f"coorbit.{short}"), cls_name)
        original = cls.__dict__[meth]
        wrapper = recorder.wrap(f"{short}.{meth}", original.__func__)
        patched.append((cls, meth, original))
        setattr(cls, meth, staticmethod(wrapper))
    return Installed(patched)


def wrapped_names() -> list:
    """Module attributes that currently hold a benchmark wrapper (for checks)."""
    hits = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "coorbit" or name.startswith("coorbit.")):
            continue
        for attr, obj in vars(mod).items():
            if hasattr(obj, "bench_span_name"):
                hits.append(f"{name}.{attr}")
            elif inspect.isclass(obj):
                for meth, raw in vars(obj).items():
                    if hasattr(getattr(raw, "__func__", raw), "bench_span_name"):
                        hits.append(f"{name}.{attr}.{meth}")
    return hits


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the union of its child spans' intervals."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return [s["end"] - s["start"] - _union_length(children.get(i, ()))
            for i, s in enumerate(spans)]


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and summed counts.

    Inclusive time counts a span only when no ancestor has the same name,
    so a recursive or re-entrant layer is not counted twice.
    """
    selfs = self_times(spans)
    out: dict = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        p = s["parent"]
        while p is not None and spans[p]["name"] != s["name"]:
            p = spans[p]["parent"]
        if p is None:
            agg["s"] += s["end"] - s["start"]
        for key, val in s["counts"].items():
            agg["counts"][key] = agg["counts"].get(key, 0) + val
    return out
