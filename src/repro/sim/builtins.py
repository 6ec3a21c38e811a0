"""Implementations of the MiniC library builtins ("system library").

A builtin that touches simulated memory does its memory effect as one
:class:`~repro.sim.memory.Memory` call and hands the engine its trace
records as one run through the facade's ``lib_trace``. The records are
those of word-oriented library code on a 32-bit target: bulk routines
(``memcpy``, ``memmove``, ``memset``, ``calloc``, ``read_samples``)
access 4 bytes at a time with a shorter last word, string routines one
byte at a time, NUL included. This module owns the library pcs:
builtin ``i`` loads at ``LIB_PC_BASE + 8*i`` and stores 4 bytes above.
The paper's Table III counts these references in its "system calls"
column; the pc range reproduces that classification.

Math results follow C99 Annex F: a domain error gives NaN, a pole or an
overflow gives a signed infinity, never a Python exception.
"""

from __future__ import annotations

import math
import struct
from typing import Any, Callable

from repro.lang.errors import MiniCRuntimeError
from repro.sim.trace import LIB_PC_BASE

#: glibc-style LCG constants for the deterministic rand().
_RAND_MULTIPLIER = 1103515245
_RAND_INCREMENT = 12345
_RAND_MASK = 0x7FFFFFFF

#: Library-internal data segment. Math builtins read their polynomial
#: coefficient tables from here (as real libm implementations do), which is
#: the main source of "system call" memory traffic in compute-heavy
#: benchmarks — the effect behind the paper's fft row of Table III, where
#: 96% of accesses happen inside the system library.
LIBDATA_BASE = 0x70000000
#: Coefficient words read per transcendental call.
_MATH_TABLE_TERMS = 10
#: Longest string the library accepts (its NUL is one byte further).
_MAX_STRING = 1 << 20

#: Stable ordering of builtins; the index defines each builtin's lib pcs.
_BUILTIN_ORDER = [
    "printf", "putchar", "puts", "malloc", "calloc", "free",
    "memcpy", "memset", "memmove", "strlen", "strcpy", "strcmp",
    "abs", "labs", "rand", "srand", "exit", "read_samples",
    "sqrt", "fabs", "sin", "cos", "tan", "atan", "atan2",
    "exp", "log", "log10", "pow", "floor", "ceil", "fmod",
]

#: Load pc of each builtin; its stores use the pc 4 above.
BUILTIN_PC: dict[str, int] = {
    name: LIB_PC_BASE + 8 * index for index, name in enumerate(_BUILTIN_ORDER)
}

_NAN = float("nan")
_INF = float("inf")


class ExitSignal(Exception):
    """Raised by the exit() builtin; carries the exit code."""

    def __init__(self, code: int):
        self.code = code
        super().__init__(code)


# ---------------------------------------------------------------------------
# Trace record runs (flat interleaved [pc, addr, size, is_write] ints)
# ---------------------------------------------------------------------------


def _run(pc: int, is_write: int, addr: int, nbytes: int,
         width: int) -> list[int]:
    """Records of a sweep over ``nbytes`` at ``addr`` in ``width``-byte
    accesses, the last one shorter when ``width`` does not divide it."""
    whole, tail = divmod(nbytes, width)
    records = [pc, 0, width, is_write] * whole
    records[1::4] = range(addr, addr + nbytes - tail, width)
    if tail:
        records += (pc, addr + nbytes - tail, tail, is_write)
    return records


def _interleave(first: list[int], second: list[int]) -> list[int]:
    """The records of two equally long runs, alternating one by one."""
    out = first + second
    for field in range(4):
        out[field::8] = first[field::4]
        out[4 + field::8] = second[field::4]
    return out


def _read_string(machine, addr: int, pc: int) -> str:
    """The NUL-terminated string at ``addr``, traced as byte loads."""
    text = machine.memory.read_cstring(addr, _MAX_STRING + 1)
    if text is None:
        machine.lib_trace(_run(pc, 0, addr, _MAX_STRING + 1, 1))
        raise MiniCRuntimeError("unterminated string passed to library")
    machine.lib_trace(_run(pc, 0, addr, len(text) + 1, 1))
    return text


# ---------------------------------------------------------------------------
# Builtins: each takes (machine, args, pc) with pc its load pc
# ---------------------------------------------------------------------------


def _format_printf(machine, fmt: str, args: list, pc: int) -> str:
    out: list[str] = []
    arg_index = 0
    i = 0

    def next_arg():
        nonlocal arg_index
        if arg_index >= len(args):
            raise MiniCRuntimeError("printf: not enough arguments")
        value = args[arg_index]
        arg_index += 1
        return value

    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        # Collect the specifier: %[flags][width][.prec][length]conv
        j = i + 1
        spec = "%"
        while j < len(fmt) and fmt[j] in "-+ 0123456789.#lh":
            spec += fmt[j]
            j += 1
        if j >= len(fmt):
            out.append(spec)
            break
        conv = fmt[j]
        spec_body = spec[1:].replace("l", "").replace("h", "")
        if conv == "%":
            out.append("%")
        elif conv in "di":
            out.append(("%" + spec_body + "d") % int(next_arg()))
        elif conv == "u":
            out.append(("%" + spec_body + "d") % (int(next_arg()) & 0xFFFFFFFF))
        elif conv in "xX":
            out.append(("%" + spec_body + conv) % (int(next_arg()) & 0xFFFFFFFF))
        elif conv == "c":
            out.append(chr(int(next_arg()) & 0xFF))
        elif conv == "s":
            out.append(_read_string(machine, int(next_arg()), pc))
        elif conv in "feEgG":
            out.append(("%" + spec_body + conv) % float(next_arg()))
        elif conv == "p":
            out.append(f"0x{int(next_arg()):x}")
        else:
            raise MiniCRuntimeError(f"printf: unsupported conversion %{conv}")
        i = j + 1
    return "".join(out)


def _printf(machine, args: list, pc: int) -> int:
    fmt = _read_string(machine, int(args[0]), pc)
    text = _format_printf(machine, fmt, args[1:], pc)
    machine.write_stdout(text)
    return len(text)


def _putchar(machine, args: list, pc: int) -> int:
    machine.write_stdout(chr(int(args[0]) & 0xFF))
    return int(args[0])


def _puts(machine, args: list, pc: int) -> int:
    text = _read_string(machine, int(args[0]), pc)
    machine.write_stdout(text + "\n")
    return len(text) + 1


def _malloc(machine, args: list, pc: int) -> int:
    return machine.heap_alloc(int(args[0]))


def _fill(machine, dst: int, byte: int, count: int, pc: int) -> None:
    if count > 0:
        machine.memory.write_bytes(dst, bytes((byte & 0xFF,)) * count)
        machine.lib_trace(_run(pc + 4, 1, dst, count, 4))


def _calloc(machine, args: list, pc: int) -> int:
    count = int(args[0]) * int(args[1])
    addr = machine.heap_alloc(count)
    _fill(machine, addr, 0, count, pc)
    return addr


def _free(machine, args: list, pc: int) -> int:
    return 0


def _copy(machine, args: list, pc: int) -> int:
    dst, src, count = int(args[0]), int(args[1]), int(args[2])
    if count > 0:
        memory = machine.memory
        records = _interleave(_run(pc, 0, src, count, 4),
                              _run(pc + 4, 1, dst, count, 4))
        if src < 0 or dst < 0:
            # Only the first word can fault: its load when src < 0,
            # otherwise its store, after the load was traced.
            word = memory.read_bytes(src, min(4, count))
            machine.lib_trace(records[:4])
            memory.write_bytes(dst, word)
        memory.copy(dst, src, count)
        machine.lib_trace(records)
    return dst


def _memset(machine, args: list, pc: int) -> int:
    dst = int(args[0])
    _fill(machine, dst, int(args[1]), int(args[2]), pc)
    return dst


def _strlen(machine, args: list, pc: int) -> int:
    return len(_read_string(machine, int(args[0]), pc))


def _strcpy(machine, args: list, pc: int) -> int:
    dst = int(args[0])
    data = _read_string(machine, int(args[1]), pc).encode("latin-1") + b"\0"
    machine.memory.write_bytes(dst, data)
    machine.lib_trace(_run(pc + 4, 1, dst, len(data), 1))
    return dst


def _strcmp(machine, args: list, pc: int) -> int:
    left = _read_string(machine, int(args[0]), pc)
    right = _read_string(machine, int(args[1]), pc)
    return (left > right) - (left < right)


def _abs(machine, args: list, pc: int) -> int:
    return abs(int(args[0]))


def _rand(machine, args: list, pc: int) -> int:
    machine.rand_state = (
        machine.rand_state * _RAND_MULTIPLIER + _RAND_INCREMENT
    ) & _RAND_MASK
    return machine.rand_state


def _srand(machine, args: list, pc: int) -> int:
    machine.rand_state = int(args[0]) & _RAND_MASK
    return 0


def _exit(machine, args: list, pc: int) -> int:
    raise ExitSignal(int(args[0]))


def _read_samples(machine, args: list, pc: int) -> int:
    buf, count = int(args[0]), int(args[1])
    samples = machine.input_stream.samples(count)
    if samples:
        machine.memory.write_bytes(
            buf, struct.pack(f"<{count}I", *[s & 0xFFFFFFFF for s in samples]))
        machine.lib_trace(_run(pc + 4, 1, buf, 4 * count, 4))
    return count


# -- math (C99 Annex F results) -----------------------------------------------


def _is_odd_integer(y: float) -> bool:
    return y.is_integer() and y % 2 == 1


def _sqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0 else _NAN


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def _log_of(fn: Callable[[float], float]) -> Callable[[float], float]:
    def log(x: float) -> float:
        if x > 0:
            return fn(x)
        return -_INF if x == 0 else _NAN  # pole at ±0; domain error below
    return log


def _pow(x: float, y: float) -> float:
    try:
        return math.pow(x, y)
    except OverflowError:
        return -_INF if x < 0 and _is_odd_integer(y) else _INF
    except ValueError:
        if x == 0:  # pole: zero to a negative power
            return math.copysign(_INF, x) if _is_odd_integer(y) else _INF
        return _NAN  # negative base, non-integer exponent


def _nan_on_domain_error(
        fn: Callable[..., float]) -> Callable[..., float]:
    """``fn`` with Python's domain error (sin/cos/tan of ±inf, fmod of an
    infinite dividend or by zero) mapped to C's NaN."""
    def call(*xs: float) -> float:
        try:
            return fn(*xs)
        except ValueError:
            return _NAN
    return call


def _rounding(fn: Callable[[float], int]) -> Callable[[float], float]:
    """``floor``/``ceil`` as C doubles: infinities and NaN pass through,
    and a zero result keeps the argument's sign (``ceil(-0.5) == -0.0``)."""
    def call(x: float) -> float:
        if math.isfinite(x):
            return math.copysign(float(fn(x)), x)
        return x
    return call


_MATH: dict[str, Callable[..., float]] = {
    "sqrt": _sqrt,
    "fabs": abs,
    "sin": _nan_on_domain_error(math.sin),
    "cos": _nan_on_domain_error(math.cos),
    "tan": _nan_on_domain_error(math.tan),
    "atan": math.atan,
    "atan2": math.atan2,
    "exp": _exp,
    "log": _log_of(math.log),
    "log10": _log_of(math.log10),
    "pow": _pow,
    "floor": _rounding(math.floor),
    "ceil": _rounding(math.ceil),
    "fmod": _nan_on_domain_error(math.fmod),
}


def _math_builtin(fn: Callable[..., float], pc: int) -> Callable[..., float]:
    """A math builtin: one precomputed record run over its coefficient
    table. The values are never used, so instead of reading them the
    call materializes the LIBDATA page the reads would (every table lies
    in its first page); after a machine's first call it is in place."""
    table = LIBDATA_BASE + 8 * (pc - LIB_PC_BASE)  # 64 bytes per builtin
    records = tuple(_run(pc, 0, table, 8 * _MATH_TABLE_TERMS, 8))

    def call(machine, args: list, pc: int) -> float:
        values = [float(a) for a in args]
        machine.memory.touch(table)
        machine.lib_trace(records)
        return fn(*values)
    return call


_Builtin = Callable[[Any, list, int], object]

#: Builtin name → handler, called with the builtin's load pc.
_HANDLERS: dict[str, _Builtin] = {
    "printf": _printf, "putchar": _putchar, "puts": _puts,
    "malloc": _malloc, "calloc": _calloc, "free": _free,
    "memcpy": _copy, "memset": _memset, "memmove": _copy,
    "strlen": _strlen, "strcpy": _strcpy, "strcmp": _strcmp,
    "abs": _abs, "labs": _abs, "rand": _rand, "srand": _srand,
    "exit": _exit, "read_samples": _read_samples,
}
_HANDLERS.update((name, _math_builtin(fn, BUILTIN_PC[name]))
                 for name, fn in _MATH.items())


def call_builtin(machine, name: str, args: list) -> object:
    """Execute builtin ``name``; ``machine`` is the engine's facade:
    ``memory``, ``write_stdout``, ``heap_alloc``, ``lib_trace`` and the
    deterministic ``rand_state`` / ``input_stream``."""
    return _HANDLERS[name](machine, args, BUILTIN_PC[name])
