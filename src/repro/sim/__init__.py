"""Simulator substrate: memory model, trace format, builtins, interpreter.

Replaces the paper's modified SimpleScalar functional simulator: it executes
MiniC programs over a simulated 32-bit address space and streams the
checkpoint/memory-access trace that FORAY-GEN consumes.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.sim.bytecode import BytecodeVM, lower_program
    from repro.sim.interpreter import ExecLimitExceeded, Interpreter
    from repro.sim.machine import (
        DEFAULT_ENGINE,
        ENGINES,
        CompiledProgram,
        EngineConfig,
        RunResult,
        compile_program,
        lower_compiled,
        run_and_trace,
        run_compiled,
    )
    from repro.sim.trace import (
        Access,
        Checkpoint,
        CheckpointKind,
        CheckpointMap,
        TraceCollector,
        TraceWriter,
        format_trace,
        parse_trace,
    )

__all__ = [
    "ExecLimitExceeded",
    "Interpreter",
    "BytecodeVM",
    "lower_program",
    "CompiledProgram",
    "EngineConfig",
    "ENGINES",
    "DEFAULT_ENGINE",
    "RunResult",
    "compile_program",
    "lower_compiled",
    "run_and_trace",
    "run_compiled",
    "Access",
    "Checkpoint",
    "CheckpointKind",
    "CheckpointMap",
    "TraceCollector",
    "TraceWriter",
    "format_trace",
    "parse_trace",
]

__getattr__, __dir__ = attach(__name__, {
    "bytecode": ("BytecodeVM", "lower_program"),
    "interpreter": ("ExecLimitExceeded", "Interpreter"),
    "machine": ("DEFAULT_ENGINE", "ENGINES", "CompiledProgram",
                "EngineConfig", "RunResult", "compile_program",
                "lower_compiled", "run_and_trace", "run_compiled"),
    "trace": ("Access", "Checkpoint", "CheckpointKind", "CheckpointMap",
              "TraceCollector", "TraceWriter", "format_trace",
              "parse_trace"),
})
