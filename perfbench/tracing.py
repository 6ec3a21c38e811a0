"""Outside-in layer tracing: spans around calls into each layer.

No span lives inside ``src/``. Instead :func:`install` replaces each
layer's public entry points (module functions and sink methods) with a
wrapper that records a span, in every loaded ``repro`` module that holds
a reference to them. A layer's *self time* is its spans' duration minus
the time of the spans they enclose, so nested layers (the extractor
inside the engine, fusion inside codegen) are never counted twice.

An entry point that no longer exists is reported on stderr and its layer
reads 0: a change that deletes a layer should show as a 0, not break
the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: Layer -> entry points, as ``module:attribute`` or ``module:Class.method``.
#: Layer names are the ``src/repro`` modules; the engine entry point is
#: split into tiers by :func:`_exec_layer`.
LAYERS: dict[str, tuple[str, ...]] = {
    "lang.parse": ("repro.lang.semantics:parse_and_analyze",),
    "lang.lint": ("repro.lang.lint:lint_source",),
    "instrument.annotate": ("repro.instrument.checkpoints:instrument",),
    "sim.lower": ("repro.sim.bytecode:lower_program",),
    "sim.fuse": ("repro.sim.bytecode:fuse_program",),
    "sim.dataflow": ("repro.sim.dataflow:static_global_layout",
                     "repro.sim.dataflow:access_facts"),
    "sim.codegen": ("repro.sim.specialize:get_specialization",),
    "sim.verify": ("repro.sim.verify:verify_compiled",),
    "sim.exec": ("repro.sim.machine:run_compiled",),
    "sim.collect": ("repro.sim.trace:TraceCollector.emit",
                    "repro.sim.trace:TraceCollector.emit_block",
                    "repro.sim.trace:TraceCollector.emit_columns"),
    "foray.extract": ("repro.foray.extractor:ForayExtractor.emit",
                      "repro.foray.extractor:ForayExtractor.emit_block",
                      "repro.foray.extractor:ForayExtractor.emit_columns"),
    "foray.finish": ("repro.foray.extractor:ForayExtractor.finish",),
    "foray.validate_sink": ("repro.foray.validate:ValidationSink.emit",
                            "repro.foray.validate:ValidationSink.emit_block",
                            "repro.foray.validate:ValidationSink.emit_columns",
                            "repro.foray.validate:ValidationSink.finish"),
    "cachesim.sink": ("repro.cachesim.sink:CacheSink.emit",
                      "repro.cachesim.sink:CacheSink.emit_block",
                      "repro.cachesim.sink:CacheSink.emit_columns",
                      "repro.cachesim.sink:CacheSink.finish"),
    "staticfar.detect": ("repro.staticfar.detector:detect",),
    "staticfar.analyze": ("repro.staticfar.analyze:analyze_static",),
    "staticfar.oracle": ("repro.staticfar.oracle:compare_models",),
    "analysis.tables": ("repro.analysis.census:loop_census",
                        "repro.analysis.coverage:table2_coverage",
                        "repro.analysis.coverage:table3_behavior"),
    "spm.graph": ("repro.spm.graph:ReuseGraph.from_model",),
    "spm.explore": ("repro.spm.explore:explore",),
    "spm.allocate": ("repro.spm.allocator:allocate_graph",),
    "spm.replay": ("repro.spm.transform:emit_replay_source",
                   "repro.spm.transform:emit_transformed_source"),
    "store.put": ("repro.store:ArtifactStore.put",),
    "store.get": ("repro.store:ArtifactStore.get",),
    "gen.build": ("repro.gen.build:build_ir", "repro.gen.render:render_ir"),
}

#: Engine tiers: the specialized fast path is ``sim.exec``; the parity
#: tiers the fuzz battery also runs get layers of their own.
EXEC_TIERS = ("sim.exec", "sim.exec_checked", "sim.exec_unfused",
              "sim.ast_exec")

#: Every layer a traced run reports a self time for.
ALL_LAYERS = tuple(
    layer for name in LAYERS
    for layer in (EXEC_TIERS if name == "sim.exec" else (name,)))

#: Exact per-op counts: they must repeat exactly between passes.
EXACT_COUNTS = ("sim.steps", "foray.accesses", "cachesim.accesses",
                "instrument.checkpoints", "sim.fuse.instructions_after")


def _exec_layer(args: tuple, kwargs: dict) -> str:
    """The engine tier a ``run_compiled`` call runs on."""
    config = kwargs.get("config")
    if config is None and len(args) >= 5:
        config = args[4]
    if config is None:
        return "sim.exec"
    if config.engine == "ast":
        return "sim.ast_exec"
    if not config.fusion:
        return "sim.exec_unfused"
    if not getattr(config, "guard_elim", True):
        return "sim.exec_checked"
    return "sim.exec"


def _block_len(args: tuple) -> int:
    """Accesses in one sink call: a ``ColumnBlock``, a tuple list or a
    single record (which counts when it is an access)."""
    first = args[0]
    if hasattr(first, "checkpoints") or isinstance(first, list):
        return len(first)
    return 1 if hasattr(first, "addr") else 0


class Tracer:
    """Accumulates layer self times and counts for the spans it records."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []  # child time of each open span

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict):
        stack = self._stack
        stack.append(0)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            self.self_ns[layer] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed


def _count(tracer: Tracer, layer: str, args: tuple, result: Any,
           fresh: bool) -> None:
    """Exact counts taken at the same boundaries as the spans. ``fresh``
    is false when the call was answered from the program's own cache."""
    counts = tracer.counts
    if layer == "sim.exec":
        counts["sim.steps"] += result.stats.steps
    elif layer == "sim.fuse":
        if fresh:  # the fused size, once per program fused
            counts["sim.fuse.instructions_after"] += sum(
                len(fn.code) for fn in result.functions.values())
    elif layer == "instrument.annotate":
        counts["instrument.checkpoints"] += len(result)
    elif layer == "store.get":
        counts["store.hits" if result is not None else "store.misses"] += 1
    elif layer in ("foray.extract", "cachesim.sink") and args:
        key = "foray.accesses" if layer == "foray.extract" else \
            "cachesim.accesses"
        counts[key] += _block_len(args)


def _wrap(tracer: Tracer, layer: str, fn: Callable, method: bool) -> Callable:
    exec_tier = layer == "sim.exec"
    fuse = layer == "sim.fuse"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = _exec_layer(args, kwargs) if exec_tier else layer
        # ``fuse_program`` returns the program's cached fusion after the
        # first call; only a fusion actually done is counted.
        fresh = not fuse or getattr(args[0], "_fused", None) is None
        result = tracer.call(name, fn, args, kwargs)
        _count(tracer, name, args[1:] if method else args, result, fresh)
        return result

    return wrapper


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, current value)`` of one entry point."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr, owner.__dict__[attr]


def patch(target: str, make_wrapper: Callable[[Callable, bool], Callable]
          ) -> None:
    """Replace one entry point everywhere it is referenced.

    A method is replaced on its class (a classmethod stays one). A
    function is replaced in its own module and in every loaded ``repro``
    module that imported it by name.
    """
    try:
        owner, attr, value = _resolve(target)
    except (ImportError, AttributeError, KeyError):
        print(f"perfbench: entry point {target} not found; its layer "
              "reads 0", file=sys.stderr)
        return
    if isinstance(owner, type):
        if isinstance(value, classmethod):
            setattr(owner, attr, classmethod(make_wrapper(value.__func__,
                                                          False)))
        else:
            setattr(owner, attr, make_wrapper(value, True))
        return
    wrapper = make_wrapper(value, False)
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, bound in list(vars(module).items()):
            if bound is value:
                setattr(module, name, wrapper)


def install(tracer: Tracer) -> None:
    """Route every layer entry point in :data:`LAYERS` through ``tracer``."""
    for layer, targets in LAYERS.items():
        for target in targets:
            patch(target, lambda fn, method, layer=layer:
                  _wrap(tracer, layer, fn, method))
    # Bytes moved by the artifact store, counted where entries are
    # encoded and decoded.
    patch("repro.store:_encode", lambda fn, _m: _sized(
        tracer, "store.bytes_written", fn, result_sized=True))
    patch("repro.store:_decode", lambda fn, _m: _sized(
        tracer, "store.bytes_read", fn, result_sized=False))


def _sized(tracer: Tracer, counter: str, fn: Callable,
           result_sized: bool) -> Callable:
    @functools.wraps(fn)
    def wrapper(blob):
        result = fn(blob)
        tracer.counts[counter] += len(result if result_sized else blob)
        return result

    return wrapper


def count_engine(counts: dict[str, int]) -> None:
    """Count engine runs and steps into ``counts["runs"]`` and
    ``counts["steps"]``, on every tier and without timing anything."""
    def make(fn: Callable, _method: bool) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["runs"] += 1
            counts["steps"] += result.stats.steps
            return result

        return wrapper

    patch("repro.sim.machine:run_compiled", make)
