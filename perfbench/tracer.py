"""Per-layer tracing of one arboreal operation, installed from outside the
package.

`Tracer.install()` replaces, in the already imported `arboreal` modules, the
functions and methods that each layer's callers look up with timing wrappers.
Nothing under `src/` knows about it, and an interpreter that never calls
`install()` runs the unmodified code.

Two kinds of record are kept:

* aggregates -- for every wrapped call: count, inclusive time and self time
  (inclusive time minus the time of wrapped calls made inside it), keyed by
  (caller, callee) so that "products made inside enumerate_products" is a
  lookup, not a per-call span;
* spans -- for pipeline stages and whole operations only: name, start, end
  and parent span, so a run holds a few dozen of them however many
  primitives it calls.

`fixes_half_tree_pointwise` and `TreeAut` products or comparisons made
directly by `build_certificate` are the half-tree fixation and commutation
stages; the same functions called anywhere else are primitives only.
"""

from __future__ import annotations

import sys
import time

MARK = "_perfbench_wrapped"
ROOT = "<op>"
BUILD = "build_certificate"

# (module, attribute, metric name): module-level functions wrapped in every
# arboreal module that binds them.
PRIMITIVES = [
    ("tree_core", "check_vertex", "tree_core.check_vertex"),
    ("tree_core", "neighbor", "tree_core.neighbor"),
    ("portraits", "end_image_prefix", "portraits.end_image_prefix"),
    ("dynamics", "classify_isometry", "dynamics.classify_isometry"),
    ("dynamics", "axis_and_ends", "dynamics.axis_and_ends"),
]
# (module, class, method, metric name)
METHODS = [
    ("perm_groups", "Perm", "__init__", "perm_groups.perm_construct"),
    ("perm_groups", "Perm", "__mul__", "perm_groups.perm_mul"),
    ("portraits", "TreeAut", "__init__", "portraits.construct"),
    ("portraits", "TreeAut", "inverse", "portraits.inverse"),
    ("portraits", "TreeAut", "evaluate", "portraits.evaluate"),
]
# (module, attribute, span name): stages and operations.
SPANS = [
    ("cli", "main", "cli"),
    ("cstar_obstruction", "verify_certificate", "verify"),
    ("cstar_obstruction", "build_certificate", BUILD),
    ("dynamics", "general_type_witness", "stage.general_type"),
    ("cstar_obstruction", "disjoint_support_pair", "stage.fixator_pair"),
    ("cstar_obstruction", "orbit_truncate", "stage.orbit_truncate"),
    ("cstar_obstruction", "disjoint_support_check", "stage.disjoint_support"),
    ("cstar_obstruction", "convolution_annihilation_check", "stage.annihilation"),
    ("cstar_obstruction", "serialize_certificate", "stage.serialize"),
]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # each frame: [name, time covered by wrapped children, span id or None]
        self.stack = [[ROOT, 0.0, None]]
        self.aggregates: dict[tuple[str, str], list] = {}
        self.spans: list[list] = []  # [name, start, end, parent span id]
        self.span_stack: list[int | None] = [None]
        self.counters: dict[str, int] = {"portraits.canonical.hits": 0,
                                         "dynamics.products_distinct": 0}

    # -- wrappers -------------------------------------------------------------

    def timed(self, fn, name, span=False, stage_under_build=None):
        """Wrap fn so each call is aggregated under `name`; with `span`, also
        recorded as a span.  With `stage_under_build`, a call whose innermost
        span is build_certificate is recorded as a span of that stage."""
        stack, aggregates, spans, span_stack = self.stack, self.aggregates, self.spans, self.span_stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = None
            if span or (stage_under_build and spans and span_stack[-1] is not None
                        and spans[span_stack[-1]][0] == BUILD):
                sid = len(spans)
                spans.append([name if span else stage_under_build, 0.0, 0.0, span_stack[-1]])
                span_stack.append(sid)
            frame = [name, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                parent[1] += dur
                if sid is not None:
                    span_stack.pop()
                    spans[sid][1], spans[sid][2] = t0, t1
                key = (parent[0], name)
                agg = aggregates.get(key)
                if agg is None:
                    aggregates[key] = [1, dur, dur - frame[1]]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]

        return self._mark(wrapper, fn)

    def canonical(self, fn):
        """`TreeAut.canonical`, also counting calls answered by the cached form."""
        counters = self.counters
        timed = self.timed(fn, "portraits.canonical")

        def wrapper(self_):
            if self_._canon is not None:
                counters["portraits.canonical.hits"] += 1
            return timed(self_)

        return self._mark(wrapper, fn)

    def generator(self, fn, name):
        """A generator function: one call per generator made, and the time of
        every resumption charged to it; yielded items are counted."""
        stack, aggregates, counters, clock = self.stack, self.aggregates, self.counters, self.clock
        yielded = "dynamics.products_distinct"

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            aggregates.setdefault((stack[-1][0], name), [0, 0.0, 0.0])[0] += 1
            while True:
                parent = stack[-1]
                frame = [name, 0.0, None]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = clock() - t0
                    stack.pop()
                    parent[1] += dur
                    agg = aggregates.setdefault((parent[0], name), [0, 0.0, 0.0])
                    agg[1] += dur
                    agg[2] += dur - frame[1]
                counters[yielded] += 1
                yield item

        return self._mark(wrapper, fn)

    @staticmethod
    def _mark(wrapper, fn):
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        setattr(wrapper, MARK, True)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        mods = {name[len("arboreal."):]: mod for name, mod in list(sys.modules.items())
                if name.startswith("arboreal.")}
        if "cli" not in mods:
            raise RuntimeError("import arboreal.cli before installing the tracer")

        def rebind(fn, wrapper):
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)

        for mod, attr, name in PRIMITIVES:
            fn = getattr(mods[mod], attr)
            rebind(fn, self.timed(fn, name))
        fn = mods["dynamics"].fixes_half_tree_pointwise
        rebind(fn, self.timed(fn, "dynamics.fixes_half_tree_pointwise",
                              stage_under_build="stage.half_tree_fixation"))
        fn = mods["dynamics"].enumerate_products
        rebind(fn, self.generator(fn, "dynamics.enumerate_products"))
        for mod, attr, name in SPANS:
            fn = getattr(mods[mod], attr)
            rebind(fn, self.timed(fn, name, span=True))

        for mod, cls_name, meth, name in METHODS:
            cls = getattr(mods[mod], cls_name)
            setattr(cls, meth, self.timed(vars(cls)[meth], name))
        aut = mods["portraits"].TreeAut
        aut.canonical = self.canonical(vars(aut)["canonical"])
        aut.__mul__ = self.timed(vars(aut)["__mul__"], "portraits.mul",
                                 stage_under_build="stage.commute")
        aut.__eq__ = self.timed(vars(aut)["__eq__"], "portraits.eq",
                                stage_under_build="stage.commute")

    def report(self) -> dict:
        return {
            "aggregates": [[caller, callee, *agg] for (caller, callee), agg in
                           sorted(self.aggregates.items())],
            "spans": self.spans,
            "counters": dict(self.counters),
        }


def installed_wrappers() -> int:
    """How many functions and methods of the loaded arboreal modules are
    tracing wrappers."""
    count = 0
    for name, mod in list(sys.modules.items()):
        if not name.startswith("arboreal"):
            continue
        for val in vars(mod).values():
            if getattr(val, MARK, False):
                count += 1
            elif isinstance(val, type) and val.__module__ == name:
                count += sum(1 for m in vars(val).values() if getattr(m, MARK, False))
    return count
