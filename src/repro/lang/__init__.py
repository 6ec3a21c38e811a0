"""MiniC frontend: lexer, parser, type system, semantic analysis, printer.

This package is the substrate that replaces the paper's C + gcc toolchain:
workloads are written in MiniC, instrumented by
:mod:`repro.instrument.checkpoints`, and executed by the simulator in
:mod:`repro.sim`.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.lang.errors import (
        LexError,
        MemoryFault,
        MiniCError,
        MiniCRuntimeError,
        ParseError,
        SemanticError,
        SourceLocation,
    )
    from repro.lang.lexer import tokenize
    from repro.lang.parser import parse
    from repro.lang.printer import to_source
    from repro.lang.semantics import analyze, parse_and_analyze

__all__ = [
    "LexError",
    "MemoryFault",
    "MiniCError",
    "MiniCRuntimeError",
    "ParseError",
    "SemanticError",
    "SourceLocation",
    "tokenize",
    "parse",
    "to_source",
    "analyze",
    "parse_and_analyze",
]

__getattr__, __dir__ = attach(__name__, {
    "errors": ("LexError", "MemoryFault", "MiniCError", "MiniCRuntimeError",
               "ParseError", "SemanticError", "SourceLocation"),
    "lexer": ("tokenize",),
    "parser": ("parse",),
    "printer": ("to_source",),
    "semantics": ("analyze", "parse_and_analyze"),
})
