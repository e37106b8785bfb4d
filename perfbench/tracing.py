"""Per-module spans for kahlerlab, installed from outside the package.

`Tracer.install` wraps the public functions of each kahlerlab module, a few
methods of `Form` and the random-draw helpers of the harness.  A function
is replaced in every kahlerlab module namespace that bound it at import,
so copies made by `from .exterior import inner` are traced as well.  Each
span is kept in memory as (id, parent id, name, start, end) until the run
writes it out; a span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from itertools import count
from typing import Callable, Union

from workloads import SUITES

MODULES = (
    "exterior",
    "rational_linalg",
    "kaehler",
    "harness",
    "bounds",
    "domains",
    "spectral",
    "cli",
)

SpanName = Union[str, Callable[[tuple], str]]

# Functions whose span is not named "<module>.<function>", and the private
# helpers that get a span of their own.
_RENAMED: dict[tuple[str, str], SpanName] = {
    ("harness", "run_suite"): lambda args: "harness.suite." + args[0],
    ("harness", "_draw_bidegree"): "harness.draw",
    ("harness", "_draw_degree"): "harness.draw",
    ("harness", "_draw_simple"): "harness.draw",
    ("harness", "_draw_primitive"): "harness.draw",
    ("spectral", "assemble_tridiagonal"): "spectral.assemble",
    ("spectral", "smallest_eigenvalue_detailed"): "spectral.bisect",
    ("spectral", "lambda0_estimate"): "spectral.refine",
    ("spectral", "richardson_extrapolate"): "spectral.extrapolate",
}

_METHODS = {
    ("exterior", "Form", "wedge"): "exterior.wedge",
    ("exterior", "Form", "conjugate"): "exterior.conjugate",
    ("exterior", "Form", "__str__"): "exterior.form_str",
}

# One-line delegates to the methods above; a span on both would count
# every product twice.
_SKIPPED = {("exterior", "wedge"), ("exterior", "conjugate")}

KAEHLER_OPS = (
    "hodge_star",
    "lefschetz",
    "dual_lefschetz",
    "primitive_decompose",
    "primitive_projection",
    "hr_pairing",
    "operator_matrix",
)


def _observe_wedge(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["exterior.wedge.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _observe_bisect(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["spectral.bisect.iterations"] += result.iterations
    tracer.counts["spectral.bisect.pivot_steps"] += len(args[0]) * result.iterations
    tracer.maximum("spectral.bracket_width_max", result.hi - result.lo)


def _observe_refine(tracer: "Tracer", args: tuple, result) -> None:
    tracer.maximum("spectral.residual_max", result.residual)


_OBSERVERS = {
    "exterior.wedge": _observe_wedge,
    "spectral.bisect": _observe_bisect,
    "spectral.refine": _observe_refine,
}


class Tracer:
    """Span recorder; `take` hands over what was recorded since the last call."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack = [0]
        self._ids = count(1)
        self._patches: list[tuple[object, str, object]] = []

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def take(self) -> tuple[list, Counter, dict]:
        out = (self.spans, self.counts, self.maxima)
        self.spans, self.counts, self.maxima = [], Counter(), {}
        return out

    def wrap(self, name: SpanName, fn: Callable) -> Callable:
        stack, ids, clock = self._stack, self._ids, time.perf_counter
        observe = _OBSERVERS.get(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = next(ids), stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name if isinstance(name, str) else name(args)
                self.spans.append((sid, parent, label, start, end))
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == "kahlerlab" or key.startswith("kahlerlab.")
        ]
        for short in MODULES:
            mod = sys.modules["kahlerlab." + short]
            for attr, fn in list(vars(mod).items()):
                key = (short, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                if key in _SKIPPED or (attr.startswith("_") and key not in _RENAMED):
                    continue
                wrapper = self.wrap(_RENAMED.get(key, f"{short}.{attr}"), fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, bound, wrapper)
        for (short, cls_name, attr), name in _METHODS.items():
            cls = getattr(sys.modules["kahlerlab." + short], cls_name)
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


@contextmanager
def count_gauss_ops(counts: Counter):
    """Count GaussRational additions and multiplications (no spans).

    Kept out of the traced passes: a wrapper on every scalar operation
    would inflate the spans that enclose it.
    """
    from kahlerlab.exterior import GaussRational

    saved = {attr: GaussRational.__dict__[attr]
             for attr in ("__add__", "__radd__", "__mul__", "__rmul__")}

    def counting(key: str, fn: Callable) -> Callable:
        def op(self, other):
            counts[key] += 1
            return fn(self, other)
        return op

    for attr, fn in saved.items():
        key = "exterior.gauss_add.calls" if "add" in attr else "exterior.gauss_mul.calls"
        setattr(GaussRational, attr, counting(key, fn))
    try:
        yield counts
    finally:
        for attr, fn in saved.items():
            setattr(GaussRational, attr, fn)


def summarize(spans: list) -> tuple[Counter, dict, dict]:
    """Calls, total time and self time per span name."""
    children = defaultdict(float)
    for _, parent, _, start, end in spans:
        children[parent] += end - start
    calls, total, own = Counter(), defaultdict(float), defaultdict(float)
    for sid, _, name, start, end in spans:
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - children.get(sid, 0.0)
    return calls, total, own


def _module_self(own: dict, module: str) -> float:
    return sum(v for name, v in own.items() if name.split(".", 1)[0] == module)


def pass_metrics(spans: list, counts: Counter, maxima: dict) -> dict[str, float]:
    """Per-module metrics of one traced pass."""
    calls, total, own = summarize(spans)
    m: dict[str, float] = {}
    for suite in SUITES:
        m[f"harness.suite.{suite}_s"] = total.get(f"harness.suite.{suite}", 0.0)
    m["harness.draw.calls"] = calls["harness.draw"]
    m["harness.draw.self_s"] = own.get("harness.draw", 0.0)
    m["harness.self_s"] = _module_self(own, "harness")
    m["exterior.wedge.calls"] = calls["exterior.wedge"]
    m["exterior.wedge.self_s"] = own.get("exterior.wedge", 0.0)
    m["exterior.wedge.term_pairs"] = counts["exterior.wedge.term_pairs"]
    for op in ("inner", "norm_sq", "conjugate"):
        m[f"exterior.{op}.self_s"] = own.get(f"exterior.{op}", 0.0)
    m["exterior.form_str.calls"] = calls["exterior.form_str"]
    for op in KAEHLER_OPS:
        # "lefschetz" is L itself and its powers L^j
        names = ("lefschetz_L", "lefschetz_power") if op == "lefschetz" else (op,)
        m[f"kaehler.{op}.calls"] = sum(calls[f"kaehler.{x}"] for x in names)
        m[f"kaehler.{op}.self_s"] = sum(own.get(f"kaehler.{x}", 0.0) for x in names)
    m["rational_linalg.rref.calls"] = calls["rational_linalg.rref"]
    m["rational_linalg.rref.self_s"] = own.get("rational_linalg.rref", 0.0)
    m["rational_linalg.matvec.self_s"] = own.get("rational_linalg.matvec", 0.0)
    for op in ("assemble", "bisect", "refine", "extrapolate"):
        m[f"spectral.{op}.self_s"] = own.get(f"spectral.{op}", 0.0)
    m["spectral.bisect.iterations"] = counts["spectral.bisect.iterations"]
    m["spectral.bisect.pivot_steps"] = counts["spectral.bisect.pivot_steps"]
    m["spectral.residual_max"] = maxima.get("spectral.residual_max", 0.0)
    m["spectral.bracket_width_max"] = maxima.get("spectral.bracket_width_max", 0.0)
    for module in ("bounds", "domains", "cli"):
        m[f"{module}.self_s"] = _module_self(own, module)
    return m


def unit_of(key: str) -> str:
    """Unit of a per-module metric, from its name."""
    if key.endswith("_s"):
        return "s"
    if key.endswith("_frac"):
        return "frac"
    # residuals and bracket widths are in the eigenvalue's own units
    return "1" if key.endswith("_max") else "count"


def layer_metrics(passes: list[dict[str, float]], setup_spans: list, import_s: float,
                  gauss_counts: Counter, overhead: float) -> dict[str, float]:
    """Medians over the traced passes, plus the set-up phase and the counts."""
    m = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    for key in ("exterior.gauss_add.calls", "exterior.gauss_mul.calls"):
        m[key] = gauss_counts[key]
    _, _, own = summarize(setup_spans)
    m["setup.import_s"] = import_s
    m["setup.kaehler.self_s"] = _module_self(own, "kaehler")
    m["setup.rational_linalg.self_s"] = _module_self(own, "rational_linalg")
    m["trace.overhead_frac"] = overhead
    return m
