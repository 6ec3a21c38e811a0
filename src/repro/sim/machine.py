"""Compile-and-run harness tying the frontend, instrumentation and
execution engines together.

Two engines execute compiled programs:

* ``"bytecode"`` (default) — the specialized fast path: bytecode lowered
  by :mod:`repro.sim.bytecode` and compiled to Python by
  :mod:`repro.sim.specialize`;
* ``"ast"`` — the reference tree-walking interpreter of
  :mod:`repro.sim.interpreter`.

Both stream identical traces through the block sink protocol of
:mod:`repro.sim.trace`; pick one with :class:`EngineConfig` (or the
CLI's ``--engine`` flag).

Typical use::

    from repro.sim.machine import compile_program, run_compiled
    from repro.sim.trace import TraceCollector

    compiled = compile_program(source)
    collector = TraceCollector()
    result = run_compiled(compiled, sinks=(collector,))
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

from repro.sim.inputs import InputSpec
from repro.sim.trace import (
    DEFAULT_TRACE_BLOCK,
    CheckpointMap,
    RunStats,
    TraceCollector,
    TraceSink,
)
from repro.store import LazyFields

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.coverage import SourceForm
    from repro.lang import ast_nodes as ast
    from repro.staticfar.detector import StaticAnalysisResult

#: Engine names accepted by :class:`EngineConfig` and the CLI.
ENGINES = ("bytecode", "ast")
DEFAULT_ENGINE = "bytecode"


@dataclass(frozen=True)
class EngineConfig:
    """How to execute a compiled program."""

    engine: str = DEFAULT_ENGINE
    max_steps: int = 200_000_000
    max_call_depth: int = 512
    trace_block_size: int = DEFAULT_TRACE_BLOCK
    #: Not a setting, and no fusion pass exists: the bytecode engine
    #: runs the lowered code. The benchmark's layer tracer
    #: (``perfbench/tracing.py::_exec_layer``) is its only reader and
    #: files runs under ``sim.exec`` by it; ROADMAP item 1 deletes the
    #: constant along with that tracer's stale tiers.
    fusion: ClassVar[bool] = True
    #: Input ensemble consumed by the ``read_samples`` builtin.
    input: InputSpec = InputSpec()
    #: Run the structural IR verifier over the bytecode before executing
    #: (also forced by the ``REPRO_VERIFY_IR`` env var).
    verify_ir: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}"
            )


@dataclass
class CompiledProgram:
    """An analyzed (and optionally instrumented) program plus metadata.

    Pickled, ``program`` and ``detector`` are one nested pickle that is
    unpickled on the first read of either, next to
    :meth:`source_form`: a process that only prints tables from a stored
    compile node (a warm suite run) never rebuilds the AST.
    """

    program: ast.Program
    checkpoint_map: CheckpointMap
    source: str
    #: Set once the checkpoint pass has run, whatever it annotated: a
    #: loop-free program is instrumented with an empty checkpoint map.
    is_instrumented: bool = False
    #: Lazily populated bytecode lowering (see :func:`lower_compiled`).
    bytecode: object | None = field(default=None, repr=False, compare=False)
    #: Set once the IR verifier has passed this program (idempotence memo).
    ir_verified: bool = field(default=False, repr=False, compare=False)
    #: The static baseline detector's result on ``program``, filled
    #: lazily by the pipeline's analyze stage. It refers to the program's
    #: own ``Symbol`` objects, which compare by identity, so it is valid
    #: only next to this very program: the two share one pickle.
    detector: StaticAnalysisResult | None = field(default=None, repr=False,
                                                  compare=False)

    def __getstate__(self) -> dict:
        # The lowering, and the verifier's pass over it, are per-process
        # derived caches: recompute them after unpickling instead of
        # storing or shipping them.
        return {**_LAZY_PROGRAM.getstate(self), "bytecode": None,
                "ir_verified": False}

    def source_form(self) -> SourceForm | None:
        """The node ids of ``detector``'s canonical loops and analyzable
        references (Table II), or ``None`` until the detector has run;
        read without unpickling the program."""
        return _LAZY_PROGRAM.summary(self)


_LAZY_PROGRAM = LazyFields(
    CompiledProgram, ("program", "detector"),
    lambda compiled: (None if compiled.detector is None
                      else compiled.detector.source_form()))


@dataclass
class RunResult:
    """Everything produced by one simulated run.

    ``machine`` is the engine instance that ran the program (an
    :class:`~repro.sim.interpreter.Interpreter` or a
    :class:`~repro.sim.bytecode.BytecodeVM`); both expose ``memory``,
    ``stdout`` and ``stats``. It is ``None`` in results the pipeline
    hands out, which keep no engine: callers that need the final memory
    call :func:`run_compiled` themselves.
    """

    exit_code: int
    stdout: str
    stats: RunStats
    machine: object | None


def compile_program(source: str, annotate: bool = True,
                    filename: str = "<minic>") -> CompiledProgram:
    """Parse, semantically analyze and (by default) instrument ``source``."""
    from repro.instrument.checkpoints import instrument
    from repro.lang.semantics import parse_and_analyze

    program = parse_and_analyze(source, filename)
    checkpoint_map = instrument(program) if annotate else CheckpointMap()
    return CompiledProgram(program, checkpoint_map, source,
                           is_instrumented=annotate)


def lower_compiled(compiled: CompiledProgram):
    """Lower ``compiled`` to bytecode, caching the result on the object."""
    if compiled.bytecode is None:
        from repro.sim.bytecode import lower_program

        compiled.bytecode = lower_program(compiled.program)
    return compiled.bytecode


def verify_ir(compiled: CompiledProgram) -> None:
    """Run the structural IR verifier once per compiled program.

    Raises :class:`repro.sim.verify.IRVerificationError` on findings; a
    passing program is memoized on the object, so attaching the verifier
    to every run (``REPRO_VERIFY_IR=1`` in the test suite) costs one
    pass per program, not one per run.
    """
    if compiled.ir_verified:
        return
    from repro.sim.verify import verify_compiled

    verify_compiled(compiled)
    compiled.ir_verified = True


def run_compiled(
    compiled: CompiledProgram,
    sinks: tuple[TraceSink, ...] = (),
    entry: str = "main",
    max_steps: int = 200_000_000,
    config: EngineConfig | None = None,
) -> RunResult:
    """Execute a compiled program, streaming trace records to ``sinks``.

    ``config`` selects the engine and overrides ``max_steps``; without it
    the default (bytecode) engine runs with the given ``max_steps``.
    """
    if config is None:
        config = EngineConfig(max_steps=max_steps)
    if config.verify_ir or os.environ.get("REPRO_VERIFY_IR", "") not in (
            "", "0"):
        verify_ir(compiled)
    if config.engine == "ast":
        from repro.sim.interpreter import Interpreter

        machine = Interpreter(
            compiled.program,
            sinks=sinks,
            max_steps=config.max_steps,
            max_call_depth=config.max_call_depth,
            trace_block_size=config.trace_block_size,
            input_spec=config.input,
        )
    else:
        from repro.sim.bytecode import BytecodeVM

        machine = BytecodeVM(
            lower_compiled(compiled),
            sinks=sinks,
            max_steps=config.max_steps,
            max_call_depth=config.max_call_depth,
            trace_block_size=config.trace_block_size,
            input_spec=config.input,
        )
    exit_code = machine.run(entry)
    return RunResult(exit_code, machine.stdout, machine.stats, machine)


def run_and_trace(
    source: str,
    entry: str = "main",
    max_steps: int = 200_000_000,
    config: EngineConfig | None = None,
) -> tuple[RunResult, TraceCollector, CompiledProgram]:
    """Convenience: compile, run, and collect the full trace in memory."""
    compiled = compile_program(source)
    collector = TraceCollector()
    result = run_compiled(compiled, sinks=(collector,), entry=entry,
                          max_steps=max_steps, config=config)
    return result, collector, compiled
