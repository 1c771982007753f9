"""Layer spans for the traced run, recorded from outside the package.

The layers are the package's modules.  ``Tracer.install`` rebinds each
public function under every name its callers use: in the defining module
(``files.load_complex``, reached by attribute access and by imports done at
call time) and in each module that imported it (``cli.load_complex``).  A
few constructors and methods are wrapped at the class.  Nothing in the
package's source is changed, and ``uninstall`` restores every binding.

A call opens a span only when it crosses into another layer.  A call made
from the defining module itself, or while that layer's span is already the
innermost one, runs unrecorded, so the cost of tracing stays on layer
boundaries.  A span records name, call site, start, end, parent and op id.
Self time, a span's duration minus the time its child spans cover, is summed
per layer as spans close.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "higherchar"
LAYERS = ("cli", "files", "complexes", "topology", "characteristics", "linalg",
          "cohomology", "recognizers", "product", "generators")

# class-level wraps: module -> class -> methods
CLASS_METHODS = {
    "complexes": {
        "Complex": ("__init__", "facets"),
        "SimplexSubset": ("__init__", "is_open_set", "is_closed_set", "union",
                          "intersection", "complement"),
    },
    "topology": {"OpenSet": ("__init__",)},
}

MAX_SPANS = 100_000  # spans kept for the spans file; totals count every span


def _dense(mat) -> int:
    return len(mat) * (len(mat[0]) if mat else 0)


def _count_dense(tracer, args, result, boundary):
    tracer.counts["linalg.dense_entries"] += _dense(args[0])


def _count_dense_pair(tracer, args, result, boundary):
    tracer.counts["linalg.dense_entries"] += _dense(args[0]) + _dense(args[1])


def _count_built(tracer, args, result, boundary):
    tracer.counts["complexes.simplices_built"] += len(args[0].simplices)


def _count_verdict(tracer, args, result, boundary):
    if boundary and hasattr(result, "calls_used"):
        tracer.counts["recognizers.calls_used"] += result.calls_used
        tracer.counts["recognizers.verdicts"] += 1
        tracer.counts["recognizers.decided"] += result.status.value != "unknown"


HOOKS = {
    "linalg.det": _count_dense,
    "linalg.rank": _count_dense,
    "linalg.char_poly": _count_dense,
    "linalg.mat_mul": _count_dense_pair,
    "complexes.Complex.__init__": _count_built,
    "recognizers.is_contractible": _count_verdict,
    "recognizers.is_sphere": _count_verdict,
    "recognizers.is_ball": _count_verdict,
    "recognizers.is_manifold": _count_verdict,
    "recognizers.is_manifold_with_boundary": _count_verdict,
    "recognizers.is_dehn_sommerville": _count_verdict,
}


class Tracer:
    """Collects spans and per-layer totals while it is installed."""

    def __init__(self):
        self.op_id = -1
        self.spans: list[list] = []  # [name, site, start, end, parent, op_id]
        self.dropped = 0
        self._stack: list[list] = []  # [span index, layer, start, child time]
        self._restore: list[tuple] = []
        self.reset_totals()

    def reset_totals(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        mods = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        everyone = list(mods.values()) + [sys.modules[PACKAGE]]
        for layer, mod in mods.items():
            names = getattr(mod, "__all__", None) or ["main"]
            for name in names:
                fn = getattr(mod, name, None)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                full = f"{layer}.{name}"
                for other in everyone:
                    if other.__dict__.get(name) is fn:
                        home = mod.__dict__ if other is mod else None
                        site = other.__name__.rsplit(".", 1)[-1]
                        self._bind(other, name, self._wrap(fn, layer, full, home, site))
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    full = f"{layer}.{cls_name}.{meth}"
                    self._bind(cls, meth, self._wrap(fn, layer, full, mod.__dict__, layer))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _bind(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name) if isinstance(owner, type)
                              else owner.__dict__[name]))
        setattr(owner, name, wrapper)

    # -- recording ------------------------------------------------------

    def _wrap(self, fn, layer, name, home, site):
        tracer = self
        stack = self._stack
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (stack and stack[-1][1] == layer) or (
                    home is not None and sys._getframe(1).f_globals is home):
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result, False)
                return result
            return tracer._span(fn, layer, name, site, hook, args, kwargs)

        return wrapper

    def _span(self, fn, layer, name, site, hook, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        if len(self.spans) < MAX_SPANS:
            idx = len(self.spans)
            record = [name, site, 0.0, 0.0, parent, self.op_id]
            self.spans.append(record)
        else:
            idx, record = -1, None
            self.dropped += 1
        entry = [idx, layer, 0.0, 0.0]
        stack.append(entry)
        start = entry[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.self_s[layer] += dur - entry[3]
            self.calls[layer] += 1
            if stack:
                stack[-1][3] += dur
            if record is not None:
                record[2], record[3] = start, end
        if hook is not None:
            hook(self, args, result, True)
        return result
