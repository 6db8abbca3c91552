"""Per-layer tracing of oughtcheck from outside the package.

The tracer replaces each layer's public functions with wrappers that keep a
span stack.  A span's self time is its duration minus the time its child
spans cover.  `from .x import y` copies a binding, so each function is
replaced in every loaded ``oughtcheck`` module that holds it, the package
namespace included.

``evaluate_plain`` recurses through its module global, so it opens a span
only when the enclosing span is not already an evaluation and counts every
re-entry.  A model build (``GradedKripkeModel.__init__``) is charged to the
nearest enclosing span's layer: a product or submodel call that builds
nothing was a cache hit.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# CheckerError subclasses at the commit that defined the benchmark; any other
# class is counted as errors.other.
ERROR_CLASSES = (
    "ValidationError", "ParseError", "UnknownAgent", "UnknownWorld",
    "UnknownEvent", "UnknownProductWorld", "EmptyProduct", "IsolatedRoot",
    "NoSuccessors", "NoDecisionContext", "OughtInPrecondition",
    "CyclicPrecondition", "Unsatisfiable", "InternalError", "TraceLeak",
    "NonTermination",
)
UNCAUGHT_CLASSES = ("RecursionError", "MemoryError")

LAYER_METRICS = (
    ("product.calls", "count"), ("product.builds", "count"),
    ("product.hit_ratio", "ratio"), ("product.worlds_out", "count"),
    ("product.self_s", "s"),
    ("submodel.calls", "count"), ("submodel.builds", "count"),
    ("submodel.hit_ratio", "ratio"), ("submodel.self_s", "s"),
    ("kripke.models_built", "count"), ("kripke.worlds_built", "count"),
    ("kripke.self_s", "s"),
    ("expect.atom_calls", "count"), ("expect.value_calls", "count"),
    ("expect.self_s", "s"),
    ("semantics.eval_calls", "count"), ("semantics.eval_nodes", "count"),
    ("semantics.eval_self_s", "s"), ("semantics.explain_calls", "count"),
    ("semantics.explain_self_s", "s"),
    ("parser.calls", "count"), ("parser.self_s", "s"),
    ("reduce.calls", "count"), ("reduce.steps", "count"), ("reduce.self_s", "s"),
    ("docio.calls", "count"), ("docio.self_s", "s"),
    ("generate.calls", "count"), ("generate.self_s", "s"),
)
ERROR_METRICS = tuple(
    [f"errors.{c}" for c in ERROR_CLASSES]
    + ["errors.other"]
    + [f"errors.uncaught.{c}" for c in UNCAUGHT_CLASSES]
    + ["errors.uncaught.other"]
)


def error_metric(token: str) -> str:
    """Metric name for an outcome token naming an exception class."""
    if token.startswith("uncaught:"):
        cls = token.split(":", 1)[1]
        return f"errors.uncaught.{cls if cls in UNCAUGHT_CLASSES else 'other'}"
    return f"errors.{token if token in ERROR_CLASSES else 'other'}"


class Tracer:
    def __init__(self):
        # a frame is [layer, time covered by child spans, built a model]
        self.stack = []
        self.self_s = Counter()
        self.counts = Counter()
        # exceptions leaving an evaluate_plain call that no other
        # evaluate_plain call encloses
        self.eval_errors = Counter()
        self._eval_depth = 0
        self._undo = []

    # -- wrappers ----------------------------------------------------------------

    def _span(self, layer, count, fn, after=None):
        stack, self_s, counts = self.stack, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            counts[count] += 1
            frame = [layer, 0.0, False]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if not frame[2]:
                counts[layer + ".hits"] += 1
            if after is not None:
                after(out)
            return out

        return wrapper

    def _eval(self, fn):
        stack, self_s, counts = self.stack, self.self_s, self.counts
        layer = "semantics.eval"

        def evaluate_plain(model, world, f, env):
            counts["semantics.eval_nodes"] += 1
            if stack and stack[-1][0] == layer:
                return fn(model, world, f, env)
            counts["semantics.eval_calls"] += 1
            frame = [layer, 0.0, False]
            stack.append(frame)
            self._eval_depth += 1
            t0 = perf_counter()
            try:
                return fn(model, world, f, env)
            except Exception as exc:
                if self._eval_depth == 1:
                    name = type(exc).__name__
                    if not isinstance(exc, self._checker_error):
                        name = "uncaught:" + name
                    self.eval_errors[name] += 1
                raise
            finally:
                dur = perf_counter() - t0
                self._eval_depth -= 1
                stack.pop()
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return evaluate_plain

    def _init(self, fn):
        stack, self_s, counts = self.stack, self.self_s, self.counts

        def __init__(model, *args, **kwargs):
            parent = stack[-1] if stack else None
            frame = ["kripke", 0.0, False]
            stack.append(frame)
            t0 = perf_counter()
            try:
                fn(model, *args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s["kripke"] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            n = len(model.worlds)
            counts["kripke.models_built"] += 1
            counts["kripke.worlds_built"] += n
            if parent is not None:
                parent[2] = True
                if parent[0] in ("product", "submodel"):
                    counts[parent[0] + ".builds"] += 1
                if parent[0] == "product":
                    counts["product.worlds_out"] += n

        return __init__

    # -- installation --------------------------------------------------------------

    def _patch(self, home: str, name: str, make):
        orig = getattr(sys.modules[home], name)
        new = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "oughtcheck" and not mod_name.startswith("oughtcheck."):
                continue
            if getattr(mod, name, None) is orig:
                setattr(mod, name, new)
                self._undo.append((mod, name, orig))

    def install(self, oc):
        self._checker_error = oc.CheckerError

        def span(layer, count, after=None):
            return lambda fn: self._span(layer, count, fn, after)

        def count_steps(tr):
            self.counts["reduce.steps"] += len(tr.steps)

        self._patch("oughtcheck.product", "product", span("product", "product.calls"))
        for name in ("agent_submodel", "generated_submodel"):
            self._patch("oughtcheck.submodel", name, span("submodel", "submodel.calls"))
        for name in ("atom_holds", "atom_report"):
            self._patch("oughtcheck.expect", name, span("expect", "expect.atom_calls"))
        self._patch("oughtcheck.expect", "component_value", span("expect", "expect.value_calls"))
        self._patch("oughtcheck.semantics", "evaluate_plain", self._eval)
        self._patch(
            "oughtcheck.semantics", "evaluate",
            span("semantics.explain", "semantics.explain_calls"),
        )
        self._patch("oughtcheck.parser", "parse", span("parser", "parser.calls"))
        self._patch(
            "oughtcheck.reduce", "translate", span("reduce", "reduce.calls", count_steps)
        )
        for name in ("model_from_doc", "actions_from_doc"):
            self._patch("oughtcheck.docio", name, span("docio", "docio.calls"))
        for name in ("gen_model", "gen_decision_point", "gen_formula"):
            self._patch("oughtcheck.generate", name, span("generate", "generate.calls"))
        cls = sys.modules["oughtcheck.kripke"].GradedKripkeModel
        self._undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._init(cls.__init__)

    def uninstall(self):
        for target, name, orig in reversed(self._undo):
            setattr(target, name, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict:
        c, s = self.counts, self.self_s

        def ratio(layer):
            calls = c[layer + ".calls"]
            return c[layer + ".hits"] / calls if calls else 0.0

        values = dict(c)
        values.update(
            {
                "product.hit_ratio": ratio("product"),
                "submodel.hit_ratio": ratio("submodel"),
                "semantics.eval_self_s": s["semantics.eval"],
                "semantics.explain_self_s": s["semantics.explain"],
            }
        )
        for layer in ("product", "submodel", "kripke", "expect", "parser", "reduce", "docio", "generate"):
            values[layer + ".self_s"] = s[layer]
        return {name: values.get(name, 0) for name, _ in LAYER_METRICS}
