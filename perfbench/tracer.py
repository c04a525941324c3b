"""Span tracing of the gradelab layers, installed from outside the package.

`install` rebinds every public function of each layer module, in every
gradelab module namespace that bound it by name, to a wrapper that records a
span; methods are patched on their classes.  Spans are aggregated in memory
as a call tree: one node per (parent node, span name) with its call count and
inclusive time, so the tree keeps each span's parent without one object per
call.  A layer's self time is the inclusive time of its nodes minus the time
of their child nodes.

Trivial predicates and accessors (`is_zero`, `__getitem__`, `as_cyclo`, ...)
are left unwrapped: they cost less than a wrapper, and their time stays in
the calling span.  Generator functions are left unwrapped too, since a
wrapper would time only the creation of the generator.

The `np` that `contractions` imported is replaced by `NumpyCounter`, which
counts the elements of the candidate arrays the sweeps create
(`np.arange`) and of the solution arrays the orbits materialize
(`np.fromiter`): the work the program does, not a size worked out from
its inputs.

Stage times are not taken here: the untraced child times its stages (see
`workloads.Ledger`), so they hold no tracing overhead.
"""
from __future__ import annotations

import inspect
import sys
from time import perf_counter

from gradelab import autgrp, contractions, cyclo, gradings, liealg, linalg, normalizers

LAYERS = {
    "cyclo": cyclo,
    "linalg": linalg,
    "liealg": liealg,
    "autgrp": autgrp,
    "gradings": gradings,
    "normalizers": normalizers,
    "contractions": contractions,
}

# Hot, cheap functions: below the cost of a span, so their time is charged
# to the caller.  (Dunders outside DUNDER_SPANS and properties are never
# wrapped.)
UNWRAPPED = {
    "cyclo": {"__init__", "euler_phi", "cyclotomic_polynomial", "is_zero", "is_rational",
              "rational_value", "from_rational", "zero", "one"},
    "linalg": {"as_cyclo", "vec_is_zero", "row", "column", "row_list", "is_zero"},
    "liealg": {"structure_constant"},
    "autgrp": set(),
    "gradings": {"format_label", "zero", "reduce", "add", "neg", "elements"},
    "normalizers": set(),
    "contractions": {"pair_key", "format_pair", "of", "table"},
}

# Operator methods that are layer operations; other dunders are plumbing.
DUNDER_SPANS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
                "__eq__", "__hash__", "__contains__"}

# Private functions that are the stage a metric names: the quotient closure
# and the action matrix an automorphism builds from its representative.
PRIVATE_SPANS = {"normalizers": ("_closure",), "autgrp": ("_action_matrix",)}


class Node:
    __slots__ = ("name", "layer", "parent", "children", "calls", "total")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.children = {}
        self.calls = 0
        self.total = 0.0

    def child(self, name, layer):
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name, layer, self)
        return node

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()


class Tracer:
    """An in-memory span tree plus counters recorded at layer boundaries."""

    def __init__(self):
        self.root = Node("root", None, None)
        self.current = self.root
        self.counters = {}

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, layer, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.current
            node = tracer.current = parent.child(name, layer)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.total += perf_counter() - t0
                node.calls += 1
                tracer.current = parent
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # --- installation ---------------------------------------------------

    def install(self):
        """Wrap every public function and method of the layer modules."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "gradelab" or n.startswith("gradelab.")]
        for layer, module in LAYERS.items():
            skip = UNWRAPPED[layer]
            for attr, value in list(vars(module).items()):
                if attr in skip or getattr(value, "__module__", None) != module.__name__ \
                        or (attr.startswith("_") and attr not in PRIVATE_SPANS.get(layer, ())):
                    continue
                if inspect.isclass(value):
                    self._install_class(layer, value, skip)
                elif callable(value) and not inspect.isgeneratorfunction(value):
                    name = f"{layer}.{attr}"
                    wrapper = self.wrap(name, layer, value, HOOKS.get(name))
                    for ns in namespaces:
                        for bound, obj in list(vars(ns).items()):
                            if obj is value:
                                setattr(ns, bound, wrapper)
        contractions.np = NumpyCounter(self, contractions.np)

    def _install_class(self, layer, cls, skip):
        for attr, raw in list(vars(cls).items()):
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if attr in skip or not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn) \
                    or (attr.startswith("_") and attr not in DUNDER_SPANS):
                continue  # plumbing, properties, slots and class constants
            name = f"{layer}.{cls.__name__}.{attr}"
            wrapper = self.wrap(name, layer, fn, HOOKS.get(name))
            setattr(cls, attr, type(raw)(wrapper) if fn is not raw else wrapper)

    # --- reading the tree --------------------------------------------------

    def nodes(self):
        return list(self.root.walk())[1:]

    def calls(self, *names):
        return sum(n.calls for n in self.nodes() if n.name in names)

    def self_times(self):
        """Self time per layer."""
        out = {}
        for node in self.nodes():
            own = node.total - sum(c.total for c in node.children.values())
            out[node.layer] = out.get(node.layer, 0.0) + own
        return out


class NumpyCounter:
    """numpy, as `contractions` sees it, counting the arrays it sweeps and materializes."""

    def __init__(self, tracer, numpy):
        self._tracer = tracer
        self._numpy = numpy

    def __getattr__(self, name):
        return getattr(self._numpy, name)

    def arange(self, *args, **kwargs):
        out = self._numpy.arange(*args, **kwargs)
        self._tracer.count("contractions.swept_assignments", out.size)
        return out

    def fromiter(self, *args, **kwargs):
        out = self._numpy.fromiter(*args, **kwargs)
        self._tracer.count("contractions.materialized_masks", out.size)
        return out


def _count_real_embed(tracer, args, kwargs, result):
    if args[0].order != args[1]:
        tracer.count("cyclo.embed")


def _count_states(tracer, args, kwargs, result):
    """States built by a closure: work, so a closure computed once counts once."""
    tracer.count("normalizers.states", len(result[0]))


HOOKS = {
    "cyclo.CycloNumber.embed": _count_real_embed,
    "normalizers._closure": _count_states,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer counts, ratios and self times, by name, as (value, unit)."""
    c = tracer.calls
    own = tracer.self_times()
    count = tracer.counters.get
    mul = c("cyclo.CycloNumber.__mul__", "cyclo.CycloNumber.__rmul__")
    addsub = c("cyclo.CycloNumber.__add__", "cyclo.CycloNumber.__radd__",
               "cyclo.CycloNumber.__sub__", "cyclo.CycloNumber.__rsub__")
    closure_composes = sum(n.calls for n in tracer.nodes()
                           if n.name == "autgrp.compose" and n.parent.name == "normalizers._closure")
    m = {
        "cyclo.mul.calls": (mul, "count"),
        "cyclo.addsub.calls": (addsub, "count"),
        "cyclo.inverse.calls": (c("cyclo.CycloNumber.inverse"), "count"),
        "cyclo.embed.calls": (count("cyclo.embed", 0), "count"),
        "cyclo.mixed_order_ratio": (_ratio(count("cyclo.embed", 0), mul + addsub), "ratio"),
        "linalg.matmul.calls": (c("linalg.Matrix.__mul__"), "count"),
        "linalg.inverse.calls": (c("linalg.Matrix.inverse"), "count"),
        "linalg.rref.calls": (c("linalg.Matrix.rref", "linalg.Matrix.rank",
                                "linalg.Matrix.kernel", "linalg.Matrix.det"), "count"),
        "linalg.subspace.calls": (c("linalg.Subspace.from_vectors", "linalg.Subspace.add",
                                    "linalg.Subspace.intersect", "linalg.Subspace.contains",
                                    "linalg.Subspace.contains_subspace"), "count"),
        "liealg.bracket.calls": (c("liealg.LieAlgebra.bracket_coords"), "count"),
        "autgrp.compose.calls": (c("autgrp.compose"), "count"),
        "autgrp.inverse.calls": (c("autgrp.inverse"), "count"),
        "autgrp.construct.calls": (c("autgrp._action_matrix"), "count"),
        "gradings.verify.calls": (c("gradings.verify_grading"), "count"),
        "gradings.label.calls": (c("gradings.search_labeling"), "count"),
        "normalizers.normalizes.calls": (c("normalizers.normalizes"), "count"),
        "normalizers.states": (count("normalizers.states", 0), "count"),
        "normalizers.compose_per_state": (_ratio(count("normalizers.states", 0),
                                                 closure_composes), "ratio"),
        "contractions.swept_assignments": (count("contractions.swept_assignments", 0), "count"),
        "contractions.materialized_masks": (count("contractions.materialized_masks", 0),
                                            "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    return m
