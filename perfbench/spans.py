"""Outside-in tracing of dweyl's layers.

The tracer patches, from outside the library, every module-level name in
a ``dweyl.*`` module that is bound to a function of *another* dweyl
module (``dweyl.decomp.lr_coefficient`` is one: decomp calling into lr),
plus the benchmark's own entry points.  Each call through a patched name
is a span of the callee's layer.  Spans are kept in memory as a calling-
context tree: a node per (parent node, layer, function) holding the call
count, total time and self time (total minus the time of child spans),
so memory stays bounded however many calls an op makes.  ``uninstall``
puts every original binding back.

Calls into a *leaf* layer, one whose module binds no other layer's
function and so can open no child span (``partitions``), are the hot
edges: ``decompose`` makes millions of ``partitions.size`` calls.  They
get a lighter wrapper with no tree node: a flat count and total time per
(calling module, layer, function).

Every wrapper still costs time, part of it inside the callee's clock and
part outside it, in the caller's span.  ``calibrate`` measures both parts
on a trivial function and ``layer_totals`` subtracts them per call, so
the layers' self times come closer to the untraced op time.  What is
left shows in ``trace.corrected_ratio``.

A few same-layer names are patched as well, only so that their calls are
counted: see ``COUNTED``.  Their time stays in their own layer.

Layer names are the module names under ``dweyl``; a span of a module not
in ``LAYERS`` counts as unattributed time.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

LAYERS = ("partitions", "lr", "symchar", "bchar", "dchar", "decomp", "oracle", "cli")

# Same-layer bindings also wrapped, so that every call is counted.
COUNTED = {("symchar", "border_strips"), ("lr", "lr_coefficient"), ("oracle", "build_group")}

# functools caches whose public cache_info() the per-layer metrics read.
CACHES = {
    "enum": (("partitions", "enumerate_partitions"), ("partitions", "enumerate_bipartitions")),
    "lr": (("lr", "lr_coefficient"),),
    "symchar": (("symchar", "sym_char_value"),),
    "wreath": (("bchar", "_wreath_value"),),
    "dchar": (("dchar", "d_char_value"),),
}

# Node fields: calls, total seconds, self seconds, truthy results, children.
CALLS, TOTAL, SELF, TRUTHY, CHILDREN = range(5)


def _new_node() -> list:
    return [0, 0.0, 0.0, 0, {}]


def _layer(fn) -> str | None:
    module = getattr(fn, "__module__", None)
    if isinstance(module, str) and module.startswith("dweyl."):
        return module.split(".", 1)[1]
    return None


def _misses(fn) -> int | None:
    info = getattr(fn, "cache_info", None)
    return info().misses if info else None


def _dweyl_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("dweyl.") and m is not None]


def _cross_layer_bindings(module):
    """(name, function, callee layer) for each binding the tracer patches."""
    caller = module.__name__.split(".", 1)[1]
    for name, value in list(vars(module).items()):
        if isinstance(value, type) or not callable(value):
            continue
        callee = _layer(value)
        if callee is not None and (callee != caller or (callee, name) in COUNTED):
            yield name, value, callee


class Tracer:
    """Spans of one process; install before the op, uninstall after."""

    def __init__(self):
        self.root = _new_node()
        self._stack = [[0.0, self.root]]
        self._saved: list[tuple[object, str, object]] = []
        self.counters = {"labels_enumerated": 0, "labels_scanned": 0, "nonzero_multiplicities": 0, "group_elements": 0}
        # (calling layer, layer, function) -> [calls, seconds, truthy results]
        self.flat: dict[tuple, list] = {}
        self.leaf_layers = {
            m.__name__.split(".", 1)[1] for m in _dweyl_modules() if not any(_cross_layer_bindings(m))
        }

    # -- wrapping -------------------------------------------------------

    def wrap(self, fn, caller: str):
        """A stand-in for fn, called from layer ``caller``: a flat counter
        for a leaf layer's function, a span otherwise."""
        layer = _layer(fn) or "bench"
        hook = self._hooks(getattr(fn, "__qualname__", ""), caller)
        if layer in self.leaf_layers and hook is None:
            return self.counter(fn, caller)
        return self.span(fn, caller, hook)

    def counter(self, fn, caller: str):
        """Count and time calls of fn without a tree node; the time is
        still taken out of the enclosing span's self time."""
        key = (caller, _layer(fn) or "bench", getattr(fn, "__qualname__", repr(fn)))
        cell = self.flat.setdefault(key, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def counted(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            stack[-1][0] += elapsed
            cell[0] += 1
            cell[1] += elapsed
            if result:
                cell[2] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    def span(self, fn, caller: str, hook=None):
        """A span-recording stand-in for fn."""
        key = (_layer(fn) or "bench", getattr(fn, "__qualname__", repr(fn)))
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = stack[-1]
            children = frame[1][CHILDREN]
            node = children.get(key)
            if node is None:
                node = children[key] = _new_node()
            inner = [0.0, node]
            stack.append(inner)
            before = _misses(fn) if hook else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                frame[0] += elapsed
                node[CALLS] += 1
                node[TOTAL] += elapsed
                node[SELF] += elapsed - inner[0]
            if result:
                node[TRUTHY] += 1
            if hook:
                after = _misses(fn)
                hook(result, before is None or after != before)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, name: str, caller: str):
        counters = self.counters

        if name == "d_irr_labels":
            def hook(result, computed):
                if computed:
                    counters["labels_enumerated"] += len(result)
                if caller == "decomp":
                    counters["labels_scanned"] += len(result)
            return hook
        if name == "decompose_induced":
            def hook(result, computed):
                counters["nonzero_multiplicities"] += len(result.multiplicities)
            return hook
        if name == "build_group":
            def hook(result, computed):
                if computed:
                    counters["group_elements"] += len(getattr(result, "elements", ()))
            return hook
        return None

    def install(self) -> None:
        for module in _dweyl_modules():
            caller = module.__name__.split(".", 1)[1]
            for name, value, _ in list(_cross_layer_bindings(module)):
                self._saved.append((module, name, value))
                setattr(module, name, self.wrap(value, caller))

    def uninstall(self) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)

    # -- results --------------------------------------------------------

    def tree(self) -> list:
        """The calling-context tree as JSON-ready nested lists:
        [layer, function, calls, total_s, self_s, truthy, [children]]."""

        def dump(key, node):
            return [*key, node[CALLS], node[TOTAL], node[SELF], node[TRUTHY], [dump(k, c) for k, c in node[CHILDREN].items()]]

        return [dump(k, c) for k, c in self.root[CHILDREN].items()]

    def flat_cells(self) -> list:
        """The flat counters: [calling layer, layer, function, calls, total_s, truthy]."""
        return [[*key, *cell] for key, cell in self.flat.items() if cell[0]]


def _identity(arg):
    return arg


CALIBRATION_BATCHES, CALIBRATION_CALLS = 5, 2000


def calibrate() -> dict:
    """Seconds a wrapper adds per call, for spans and for flat counters:
    [inside the callee's clock, outside it in the caller's span].

    Both come from wrapping a function that returns its one argument, a
    true value, as most wrapped calls take one argument and return a true
    value: the inside part is the time the wrapper records for it, the
    outside part the rest of the cost over an unwrapped call.  Medians
    over alternating batches of plain and wrapped calls.
    """
    clock = time.perf_counter
    out = {}
    for kind in ("span", "counter"):
        inside, outside = [], []
        for _ in range(CALIBRATION_BATCHES):
            tracer = Tracer()
            wrapped = getattr(tracer, kind)(_identity, "bench")
            start = clock()
            for i in range(1, CALIBRATION_CALLS + 1):
                _identity(i)
            bare = clock() - start
            start = clock()
            for i in range(1, CALIBRATION_CALLS + 1):
                wrapped(i)
            full = clock() - start
            recorded = tracer.root[CHILDREN][("bench", "_identity")][TOTAL] if kind == "span" else tracer.flat[("bench", "bench", "_identity")][1]
            inside.append(recorded / CALIBRATION_CALLS)
            outside.append((full - bare - recorded) / CALIBRATION_CALLS)
        out[kind] = [statistics.median(inside), statistics.median(outside)]
    return out


def cache_stats(dw) -> dict:
    """hits, misses and current size per group in CACHES; zeros if gone."""
    out = {}
    for group, names in CACHES.items():
        hits = misses = size = 0
        for module, name in names:
            fn = getattr(getattr(dw, module, None), name, None)
            info = getattr(fn, "cache_info", None)
            if info:
                ci = info()
                hits, misses, size = hits + ci.hits, misses + ci.misses, size + ci.currsize
        out[group] = [hits, misses, size]
    return out


def layer_totals(tree: list, flat: list, cost: dict) -> Counter:
    """Sums over one op's spans and flat counters: ``<layer>.calls``
    (crossings into the layer), ``<layer>.self_s`` with the wrappers' cost
    taken out (see ``calibrate``), ``overhead_s``, the wrappers' estimated
    total cost, and the calls of a few named functions.  Layers not in
    LAYERS are summed as ``other``."""
    out: Counter = Counter()

    def slot(layer):
        return layer if layer in LAYERS else "other"

    def edge(caller, layer, name, calls, total, self_s, truthy, kind):
        inside, outside = cost[kind]
        if layer != caller:
            out[f"{slot(layer)}.calls"] += calls
        out[f"{slot(layer)}.self_s"] += self_s - calls * inside
        out[f"{slot(caller)}.self_s"] -= calls * outside
        out["overhead_s"] += calls * (inside + outside)
        if name == "border_strips":
            out["border_strips"] += calls
        elif name == "lr_coefficient":
            out["lr_calls"] += calls
            out["lr_nonzero"] += truthy
        elif name == "build_group":
            out["build_group_s"] += total

    def walk(nodes, parent_layer):
        for layer, name, calls, total, self_s, truthy, children in nodes:
            edge(parent_layer, layer, name, calls, total, self_s, truthy, "span")
            walk(children, layer)

    walk(tree, "bench")
    for caller, layer, name, calls, total, truthy in flat:
        edge(caller, layer, name, calls, total, total, truthy, "counter")
    return out
