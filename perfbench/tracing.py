"""Span tracing of condtest's public functions, installed from outside.

`install(package, tracer)` wraps every public module-level function of
the traced modules and the methods listed in METHODS, then rebinds every alias of each original it can find: module globals across
the whole package (`from .subroutines import compare` copies included)
and the frozen `harness.TESTERS` entries. After installation no module
global or tester entry may still hold an original; `install` checks
this and raises otherwise.

Spans (name, start, end, parent, trial) are kept in memory for the
trial that is running. When the outermost span closes they are folded
into per-name call counts and self times, where a span's self time is
its duration minus the time its child spans cover, and then dropped.
The wrappers read only the clock, so the program's RNG streams are
untouched and a traced trial reproduces an untraced one seed for seed.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
from collections import Counter
from time import perf_counter

# Modules whose public functions and methods are traced. `adversarial`
# and `profiles` only run during set-up, `cli` is not driven and
# `errors` does no work.
LAYERS = ("oracles", "subroutines", "distcore", "identity", "interval",
          "uniformity", "equality", "distance", "harness")

# Methods traced besides the modules' public functions: the oracle
# primitives and the set and target accessors whose calls the per-layer
# metrics count. Small accessors are left out to keep tracing cheap.
METHODS = {
    "oracles": {"OracleHandle": ("draw_many", "draw_counts",
                                 "draw_subset_count", "burn")},
    "distcore": {"QuerySet": ("members", "explicit"), "Distribution": ("mass",)},
    "identity": {"KnownTarget": ("prefix_labels", "interval_labels")},
}

# A ZeroMassSet raised through one of these is counted once: none of
# them calls another.
ORACLE_PRIMITIVES = tuple(f"oracles.OracleHandle.{m}"
                          for m in METHODS["oracles"]["OracleHandle"])


class Tracer:
    def __init__(self, zero_mass_error):
        self.zero_mass_error = zero_mass_error
        self.trial = -1
        self.spans = []   # [name, start, end, parent index, trial]
        self.open = []    # indices of spans not yet ended
        self.calls = Counter()
        self.self_s = Counter()
        self.members_elems = 0
        self.zero_mass = 0

    def wrap(self, name, fn):
        spans, open_, tracer = self.spans, self.open, self

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          open_[-1] if open_ else None, tracer.trial])
            open_.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid][2] = perf_counter()
                open_.pop()
                if not open_:
                    tracer.fold()

        if name == "harness.run_trial":
            def on_trial(*args, **kwargs):
                tracer.trial += 1
                return traced(*args, **kwargs)
            return on_trial
        if name in ORACLE_PRIMITIVES:
            def on_zero_mass(*args, **kwargs):
                try:
                    return traced(*args, **kwargs)
                except tracer.zero_mass_error:
                    tracer.zero_mass += 1
                    raise
            return on_zero_mass
        if name == "distcore.QuerySet.members":
            def on_members(*args, **kwargs):
                out = traced(*args, **kwargs)
                tracer.members_elems += int(out.size)
                return out
            return on_members
        return traced

    def fold(self):
        """Add the finished spans' calls and self times to the totals."""
        child = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[i]
            dur = end - start
            if parent is not None:
                child[parent] += dur
            self.calls[name] += 1
            self.self_s[name] += dur - child[i]
        self.spans.clear()


def _targets(package):
    """(owner, attribute, span name, function) for every public
    function of the traced modules and every method in METHODS."""
    for layer in LAYERS:
        mod = sys.modules[f"{package.__name__}.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                yield mod, attr, f"{layer}.{attr}", obj
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for m in methods:
                yield cls, m, f"{layer}.{cls_name}.{m}", vars(cls)[m]


def install(package, tracer: Tracer) -> int:
    """Wrap the package's public functions in place; returns how many
    aliases were rebound."""
    replaced = {}
    for owner, attr, name, raw in list(_targets(package)):
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            wrapper = tracer.wrap(name, raw)
            setattr(owner, attr, wrapper)
            replaced[raw] = wrapper
    modules = [m for n, m in sys.modules.items()
               if n == package.__name__ or n.startswith(package.__name__ + ".")]
    rebound = 0
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
                rebound += 1
    testers = sys.modules[f"{package.__name__}.harness"].TESTERS
    for key, spec in testers.items():
        if spec.fn in replaced:
            testers[key] = dataclasses.replace(spec, fn=replaced[spec.fn])
            rebound += 1
    escaped = [f"{mod.__name__}.{attr}" for mod in modules
               for attr, obj in vars(mod).items()
               if inspect.isfunction(obj) and obj in replaced]
    escaped += [key for key, spec in testers.items() if spec.fn in replaced]
    if escaped:
        raise RuntimeError(f"untraced aliases remain: {escaped}")
    return rebound
