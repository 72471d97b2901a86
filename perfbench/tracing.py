"""Spans recorded from the benchmark's own files around calls into each
layer's public functions.

:func:`instrument` replaces a public function (or method) with a
wrapper that opens a span named after its layer, in the defining
module and in every loaded ``repro`` module that imported it by name,
so the program's own call path records spans without any change to
``src/``.  Spans live in memory; :meth:`Tracer.layer_self_s` folds
them into per-layer self time (a span's duration minus what its direct
children cover) and whatever the spans do not cover is glue, reported
as ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class Tracer:
    """Per-thread span stacks over one clock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, self.clock(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration_s
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, function: Callable, layer: str,
             on_result: Optional[Callable[["Tracer", Any], None]] = None
             ) -> Callable:
        """``function`` inside a ``layer`` span; ``on_result`` sees the
        return value (to count work done)."""
        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self.begin(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(span)
            if on_result is not None:
                on_result(self, result)
            return result
        return traced

    # -- folding -----------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_s
        return dict(out)

    def layer_calls(self) -> Dict[str, int]:
        return dict(Counter(span.name for span in self.spans))


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded repro
    module that holds it at top level."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def instrument(tracer: Tracer, target: str, layer: str,
               on_result: Optional[Callable[[Tracer, Any], None]] = None
               ) -> None:
    """Span every call of ``target`` (``"module:function"`` or
    ``"module:Class.method"``) as ``layer``."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in qualname:
        original = getattr(module, qualname)
        _replace_everywhere(original, tracer.wrap(original, layer,
                                                  on_result))
        return
    class_name, method = qualname.split(".")
    owner = getattr(module, class_name)
    raw = vars(owner)[method]
    if isinstance(raw, classmethod):
        setattr(owner, method,
                classmethod(tracer.wrap(raw.__func__, layer, on_result)))
    else:
        setattr(owner, method, tracer.wrap(raw, layer, on_result))


# -- the layers --------------------------------------------------------------

def _count_attr(counter: str, attr: str) -> Callable[[Tracer, Any], None]:
    return lambda tracer, result: tracer.count(counter,
                                               getattr(result, attr))


def _count_len(counter: str) -> Callable[[Tracer, Any], None]:
    return lambda tracer, result: tracer.count(counter, len(result))


def _count_one(counter: str) -> Callable[[Tracer, Any], None]:
    return lambda tracer, result: tracer.count(counter, 1)


def _count_sweep(tracer: Tracer, report: Any) -> None:
    tracer.count("sweep.groups", report.groups)
    tracer.count("sweep.simulations", report.simulations)


#: (public call, layer, work counter) — the layer table of ``run.py``.
LAYER_CALLS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("repro.registry:build_circuit", "circuits", None),
    ("repro.experiments.flow:synthesize_subject", "synth",
     _count_attr("synth.and_nodes", "n_nodes")),
    ("repro.experiments.flow:map_subject", "mapper",
     _count_attr("mapper.gates", "gate_count")),
    ("repro.registry:cached_library", "foundry", None),
    ("repro.timing:timing_report", "timing", None),
    ("repro.sim.activity:simulation_stats", "sim", None),
    ("repro.sim.estimator:PricingModel.for_netlist", "pricing", None),
    ("repro.sim.estimator:PricingModel.bind", "pricing", None),
    ("repro.sim.estimator:BoundPricing.report", "pricing",
     _count_one("pricing.points")),
    ("repro.sim.estimator:estimate_many", "pricing",
     _count_len("pricing.points")),
    ("repro.api:Session.sweep", "sweep", _count_sweep),
    ("repro.serve.engine:Engine.estimate", "engine", None),
    ("repro.serve.engine:Engine.estimate_batch", "engine", None),
    ("repro.schema:PowerQuery.from_dict", "schema.decode", None),
    ("repro.schema:PowerQuoteReport.to_dict", "schema.encode", None),
)

#: Layers in report order (``schema`` folds encode and decode).
LAYERS = ("circuits", "synth", "mapper", "foundry", "timing", "sim",
          "pricing", "sweep", "engine", "schema")


def instrument_layers(tracer: Tracer) -> None:
    """Span every layer call of :data:`LAYER_CALLS`.  Import every
    module that imports a layer function by name first, so each copy of
    the name is rebound."""
    for module in ("repro.api", "repro.experiments.table1",
                   "repro.sweep.runner", "repro.sim.backends",
                   "repro.serve.engine", "repro.serve.http",
                   "repro.optimize", "repro.foundry"):
        importlib.import_module(module)
    for target, layer, on_result in LAYER_CALLS:
        instrument(tracer, target, layer, on_result)
