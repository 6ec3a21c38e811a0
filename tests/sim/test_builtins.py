"""Unit tests for the builtin library ("system library").

The bulk builtins are checked against the per-word library they
replaced, kept below as the reference oracle: one traced load or store
per word, run on every execution tier at several trace block sizes.
"""

import functools

import pytest

from repro.gen.fuzz import PARITY_CONFIGS
from repro.lang.errors import MiniCRuntimeError
from repro.sim import builtins as libc
from repro.sim.builtins import BUILTIN_PC, LIBDATA_BASE
from repro.sim.bytecode import BytecodeVM
from repro.sim.interpreter import Interpreter
from repro.sim.machine import compile_program, lower_compiled, run_and_trace
from repro.sim.trace import DEFAULT_TRACE_BLOCK, LIB_PC_BASE


#: Execution tier name → engine configuration.
TIERS = dict(PARITY_CONFIGS)


def run(source):
    return run_and_trace(source)


def lib_accesses(collector):
    return [a for a in collector.accesses() if a.is_library]


class TestPrintf:
    def test_basic_formats(self):
        result, _, _ = run(
            'int main() { printf("%d %c %s %x", -5, 65, "ok", 255); return 0; }'
        )
        assert result.stdout == "-5 A ok ff"

    def test_float_format(self):
        result, _, _ = run('int main() { printf("%f", 1.5); return 0; }')
        assert result.stdout.startswith("1.5")

    def test_width_format(self):
        result, _, _ = run('int main() { printf("%04d", 7); return 0; }')
        assert result.stdout == "0007"

    def test_percent_escape(self):
        result, _, _ = run('int main() { printf("100%%"); return 0; }')
        assert result.stdout == "100%"

    def test_unsigned_format(self):
        result, _, _ = run('int main() { printf("%u", -1); return 0; }')
        assert result.stdout == str(2**32 - 1)

    def test_format_string_reads_are_library_traffic(self):
        _, collector, _ = run('int main() { printf("abc"); return 0; }')
        accesses = lib_accesses(collector)
        assert len(accesses) == 4  # 'a' 'b' 'c' NUL
        assert all(not a.is_write for a in accesses)

    def test_puts_appends_newline(self):
        result, _, _ = run('int main() { puts("hi"); return 0; }')
        assert result.stdout == "hi\n"

    def test_putchar(self):
        result, _, _ = run("int main() { putchar(88); return 0; }")
        assert result.stdout == "X"


class TestMemoryBuiltins:
    def test_memset(self):
        result, _, _ = run(
            "char b[8]; int main() { memset(b, 7, 8); return b[0] + b[7]; }"
        )
        assert result.exit_code == 14

    def test_memcpy(self):
        result, _, _ = run(
            "int a[4] = {1,2,3,4}; int b[4];"
            "int main() { memcpy(b, a, 16); return b[3]; }"
        )
        assert result.exit_code == 4

    def test_memcpy_traffic_is_library_tagged(self):
        _, collector, _ = run(
            "int a[8]; int b[8]; int main() { memcpy(b, a, 32); return 0; }"
        )
        accesses = lib_accesses(collector)
        assert len(accesses) == 16  # 8 word loads + 8 word stores
        assert all(a.pc >= LIB_PC_BASE for a in accesses)

    def test_calloc_zeroes(self):
        result, _, _ = run(
            "int main() { int *p = (int*)calloc(4, 4); return p[3]; }"
        )
        assert result.exit_code == 0

    def test_malloc_regions_disjoint(self):
        result, _, _ = run(
            "int main() { char *a = (char*)malloc(16); char *b = (char*)malloc(16);"
            " *a = 1; *b = 2; return *a + *b; }"
        )
        assert result.exit_code == 3

    def test_strlen(self):
        result, _, _ = run('int main() { return strlen("hello"); }')
        assert result.exit_code == 5

    def test_strcpy(self):
        result, _, _ = run(
            'char d[8]; int main() { strcpy(d, "ab"); return d[0] + d[2]; }'
        )
        assert result.exit_code == ord("a")

    def test_strcmp(self):
        result, _, _ = run('int main() { return strcmp("abc", "abd"); }')
        assert result.exit_code == -1


class TestMathBuiltins:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("sqrt(16.0)", 4),
            ("fabs(-2.5) * 2.0", 5),
            ("pow(2.0, 10.0)", 1024),
            ("floor(3.7)", 3),
            ("ceil(3.2)", 4),
            ("cos(0.0)", 1),
            ("exp(0.0)", 1),
        ],
    )
    def test_values(self, expr, expected):
        result, _, _ = run(f"int main() {{ return (int)({expr}); }}")
        assert result.exit_code == expected

    def test_math_reads_coefficient_tables(self):
        # Real libm reads polynomial tables; our model reproduces that as
        # library loads (the paper's fft system-call traffic).
        _, collector, _ = run("int main() { double d = sin(1.0); return 0; }")
        accesses = lib_accesses(collector)
        assert len(accesses) == 10
        assert all(not a.is_write for a in accesses)

    def test_abs(self):
        result, _, _ = run("int main() { return abs(-7) + labs(-3); }")
        assert result.exit_code == 10


class TestRandAndInput:
    def test_rand_deterministic(self):
        source = "int main() { srand(1); return rand() % 1000; }"
        first, _, _ = run(source)
        second, _, _ = run(source)
        assert first.exit_code == second.exit_code

    def test_srand_changes_sequence(self):
        one, _, _ = run("int main() { srand(1); return rand() % 1000; }")
        two, _, _ = run("int main() { srand(999); return rand() % 1000; }")
        assert one.exit_code != two.exit_code

    def test_read_samples_fills_buffer(self):
        result, _, _ = run(
            "int b[64]; int main() { int i; int nonzero = 0;"
            " read_samples(b, 64);"
            " for (i = 0; i < 64; i++) if (b[i] != 0) nonzero++;"
            " return nonzero > 32; }"
        )
        assert result.exit_code == 1

    def test_read_samples_traffic_is_library(self):
        _, collector, _ = run(
            "int b[16]; int main() { read_samples(b, 16); return 0; }"
        )
        writes = [a for a in lib_accesses(collector) if a.is_write]
        assert len(writes) == 16

    def test_read_samples_values_bounded(self):
        result, _, _ = run(
            "int b[128]; int main() { int i; read_samples(b, 128);"
            " for (i = 0; i < 128; i++)"
            "   if (b[i] < -512 || b[i] > 511) return 1;"
            " return 0; }"
        )
        assert result.exit_code == 0

    def test_read_samples_deterministic_across_runs(self):
        source = "int b[8]; int main() { read_samples(b, 8); return b[5] & 255; }"
        first, _, _ = run(source)
        second, _, _ = run(source)
        assert first.exit_code == second.exit_code


# ---------------------------------------------------------------------------
# C99 Annex F results: no Python exception escapes a math builtin
# ---------------------------------------------------------------------------

ANNEX_F_CASES = [
    ("floor(sqrt(-1.0))", "nan"),
    ("pow(0.0, -1.0)", "inf"),
    ("pow(-0.0, -1.0)", "-inf"),
    ("pow(0.0, -2.0)", "inf"),
    ("pow(-8.0, 0.5)", "nan"),
    ("pow(-10.0, 401.0)", "-inf"),
    ("pow(10.0, 400.0)", "inf"),
    ("exp(1000.0)", "inf"),
    ("sin(exp(1000.0))", "nan"),
    ("cos(-exp(1000.0))", "nan"),
    ("tan(exp(1000.0))", "nan"),
    ("fmod(exp(1000.0), 2.0)", "nan"),
    ("fmod(1.0, 0.0)", "nan"),
    ("ceil(exp(1000.0))", "inf"),
    ("floor(-exp(1000.0))", "-inf"),
    ("log(-1.0)", "nan"),
    ("log10(-1.0)", "nan"),
    ("log(0.0)", "-inf"),
    ("log10(-0.0)", "-inf"),
    ("sqrt(-exp(1000.0))", "nan"),
    ("ceil(-0.5)", "-0.000000"),
    ("floor(-0.0)", "-0.000000"),
    ("floor(2.5)", "2.000000"),
    ("ceil(2.5)", "3.000000"),
]


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("expr,expected", ANNEX_F_CASES)
def test_math_follows_c99_annex_f(expr, expected, tier):
    config = TIERS[tier]
    result, _, _ = run_and_trace(
        f'int main() {{ printf("%f", {expr}); return 0; }}', config=config)
    assert result.stdout == expected


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_floor_and_ceil_return_doubles(tier):
    # 7 / 2 divides as doubles only when floor() returned a double.
    result, _, _ = run_and_trace(
        'int main() { printf("%g %g", floor(7.5) / 2, ceil(6.5) / 2);'
        ' return 0; }', config=TIERS[tier])
    assert result.stdout == "3.5 3.5"


# ---------------------------------------------------------------------------
# Reference oracle: the per-word library the bulk builtins replaced
# ---------------------------------------------------------------------------


#: The library under test (tests patch ``libc.call_builtin`` per run).
BULK_CALL = libc.call_builtin


def _ref_trace(machine, pc, addr, size, is_write):
    """Append one record the way the engines append a single access."""
    trace = machine._trace
    if trace.tracing:
        trace.acc.extend((pc, addr, size, 1 if is_write else 0))
        if len(trace.acc) >= trace.limit:
            trace.flush()


def ref_lib_load(machine, name, addr, size):
    value = machine.memory.read_int(addr, size, signed=False)
    _ref_trace(machine, BUILTIN_PC[name], addr, size, False)
    return value


def ref_lib_store(machine, name, addr, value, size):
    machine.memory.write_int(addr, value, size)
    _ref_trace(machine, BUILTIN_PC[name] + 4, addr, size, True)


def _ref_word_copy(machine, name, dst, src, count):
    offset = 0
    while offset < count:
        chunk = min(4, count - offset)
        value = ref_lib_load(machine, name, src + offset, chunk)
        ref_lib_store(machine, name, dst + offset, value, chunk)
        offset += chunk


def _ref_word_set(machine, name, dst, byte, count):
    offset = 0
    byte &= 0xFF
    while offset < count:
        chunk = min(4, count - offset)
        pattern = int.from_bytes(bytes([byte]) * chunk, "little")
        ref_lib_store(machine, name, dst + offset, pattern, chunk)
        offset += chunk


def _ref_read_cstring(machine, name, addr):
    chars = []
    offset = 0
    while True:
        byte = ref_lib_load(machine, name, addr + offset, 1)
        if byte == 0:
            return "".join(chars)
        chars.append(chr(byte & 0xFF))
        offset += 1
        if offset > libc._MAX_STRING:
            raise MiniCRuntimeError("unterminated string passed to library")


def _ref_format_printf(machine, fmt, args):
    out = []
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
            out.append(_ref_read_cstring(machine, "printf", int(next_arg())))
        elif conv in "feEgG":
            out.append(("%" + spec_body + conv) % float(next_arg()))
        elif conv == "p":
            out.append(f"0x{int(next_arg()):x}")
        else:
            raise MiniCRuntimeError(f"printf: unsupported conversion %{conv}")
        i = j + 1
    return "".join(out)


def ref_call_builtin(machine, name, args):
    """The per-word library: one traced load or store per word (per byte
    for strings, per sample for read_samples), in program order."""
    if name == "printf":
        fmt = _ref_read_cstring(machine, "printf", int(args[0]))
        text = _ref_format_printf(machine, fmt, args[1:])
        machine.write_stdout(text)
        return len(text)
    if name == "putchar":
        machine.write_stdout(chr(int(args[0]) & 0xFF))
        return int(args[0])
    if name == "puts":
        text = _ref_read_cstring(machine, "puts", int(args[0]))
        machine.write_stdout(text + "\n")
        return len(text) + 1
    if name == "malloc":
        return machine.heap_alloc(int(args[0]))
    if name == "calloc":
        count, size = int(args[0]), int(args[1])
        addr = machine.heap_alloc(count * size)
        _ref_word_set(machine, "calloc", addr, 0, count * size)
        return addr
    if name == "free":
        return 0
    if name == "memcpy" or name == "memmove":
        dst, src, count = int(args[0]), int(args[1]), int(args[2])
        _ref_word_copy(machine, name, dst, src, count)
        return dst
    if name == "memset":
        dst, byte, count = int(args[0]), int(args[1]), int(args[2])
        _ref_word_set(machine, "memset", dst, byte, count)
        return dst
    if name == "strlen":
        return len(_ref_read_cstring(machine, "strlen", int(args[0])))
    if name == "strcpy":
        dst, src = int(args[0]), int(args[1])
        text = _ref_read_cstring(machine, "strcpy", src)
        for offset, ch in enumerate(text):
            ref_lib_store(machine, "strcpy", dst + offset, ord(ch), 1)
        ref_lib_store(machine, "strcpy", dst + len(text), 0, 1)
        return dst
    if name == "strcmp":
        left = _ref_read_cstring(machine, "strcmp", int(args[0]))
        right = _ref_read_cstring(machine, "strcmp", int(args[1]))
        return (left > right) - (left < right)
    if name == "read_samples":
        buf, count = int(args[0]), int(args[1])
        for index in range(count):
            sample = machine.input_stream.next_sample()
            ref_lib_store(machine, "read_samples", buf + 4 * index, sample, 4)
        return count
    if name in libc._MATH:
        value = [float(a) for a in args]
        table = LIBDATA_BASE + 8 * (BUILTIN_PC[name] - LIB_PC_BASE)
        for term in range(10):
            ref_lib_load(machine, name, table + 8 * term, 8)
        return libc._MATH[name](*value)
    # No memory traffic: abs, labs, rand, srand, exit.
    return BULK_CALL(machine, name, args)


class _BlockRecorder:
    """Keeps every flushed block, so flush points are compared too."""

    def __init__(self):
        self.blocks = []

    def emit_columns(self, block):
        self.blocks.append((block.lists(), list(block.checkpoints)))


def _make_machine(compiled, config, block, sinks):
    if config.engine == "ast":
        return Interpreter(compiled.program, sinks=sinks,
                           trace_block_size=block)
    return BytecodeVM(lower_compiled(compiled), sinks=sinks,
                      trace_block_size=block)


#: String length limit while comparing with the reference, short enough
#: to make an unterminated string cheap and long enough to cross a page.
SHORT_STRING_LIMIT = 4500


def observe(compiled, config, block, builtin):
    """Run with ``builtin`` installed as the library; returns everything
    observable, including a fault's class and message."""
    recorder = _BlockRecorder()
    machine = _make_machine(compiled, config, block, (recorder,))
    error = code = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(libc, "call_builtin", builtin)
        patch.setattr(libc, "_MAX_STRING", SHORT_STRING_LIMIT)
        try:
            code = machine.run()
        except MiniCRuntimeError as exc:
            error = (type(exc), str(exc))
    return {"exit": code, "error": error, "stdout": machine.stdout,
            "stats": machine.stats, "blocks": recorder.blocks,
            "pages": dict(machine.memory._pages)}


BULK_PROGRAMS = {
    # Byte counts that are not a multiple of 4; zero and negative counts.
    "counts": r"""
    char a[64]; char b[64];
    int main() {
        int i, n, sum = 0;
        char *h;
        for (i = 0; i < 64; i++) a[i] = i * 7 + 1;
        for (n = -2; n <= 13; n++) {
            memcpy(b, a + 3, n);
            memset(b + 20, n, n);
            memmove(b + 40, a + 5, n);
            h = (char *)calloc(n, 1);
            sum += b[n & 7] + b[20 + (n & 3)] + b[41];
        }
        read_samples(b, 0);
        read_samples(b, -3);
        read_samples(b + 1, 3);
        for (i = 0; i < 64; i++) sum += b[i];
        printf("%d\n", sum);
        return sum & 255;
    }
    """,
    # memmove/memcpy with source and destination 1..8 bytes apart, both
    # ways round; a forward word copy re-reads bytes it already stored.
    "overlap": r"""
    char buf[96];
    int main() {
        int d, i, sum = 0;
        for (d = -8; d <= 8; d++) {
            for (i = 0; i < 96; i++) buf[i] = i + 1;
            memmove(buf + 40 + d, buf + 40, 13);
            for (i = 0; i < 96; i++) sum = sum * 31 + buf[i];
            for (i = 0; i < 96; i++) buf[i] = i + 3;
            memcpy(buf + 40, buf + 40 + d, 16);
            for (i = 0; i < 96; i++) sum = sum * 31 + buf[i];
        }
        printf("%d\n", sum);
        return 0;
    }
    """,
    # Strings across a page boundary, one ending where an untouched page
    # starts (the reader must materialize it to find the NUL).
    "strings": r"""
    char big[8192]; char far[16384]; char other[32];
    int main() {
        int off = 4096 - ((int)big & 4095);
        int off2 = 4096 - ((int)far & 4095);
        char *s = big + off - 5;
        char *t = far + off2 - 3;
        t[0] = 65; t[1] = 66; t[2] = 67;
        strcpy(s, "page-crossing");
        strcpy(other, s);
        printf("%s|%d|%d|%s|%c%x\n", s, strlen(s), strcmp(s, other), t,
               66, 255);
        puts(s);
        printf("%d %d %d\n", strcmp("abc", "abd"), strcmp("b", "a"),
               strlen(t));
        return strlen(other);
    }
    """,
    # Builtins right after chains and loops that leave the buffer past
    # the flush limit (checked once per chain by the specialized code).
    "past_limit": r"""
    int a[32]; int b[32];
    int main() {
        int i, k;
        double x = 0.0;
        for (k = 0; k < 3; k++) {
            for (i = 0; i < 32; i++) { a[i] = i + k; b[i] = a[i] * 2; }
            memcpy(b, a, 10);
            a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4; a[4] = 5;
            a[5] = 6; a[6] = 7; a[7] = 8; a[8] = 9;
            memset(b, k, 5);
            a[9] = a[0] + a[1] + a[2] + a[3] + a[4] + a[5] + a[6] + a[7];
            read_samples(b + 2, 9);
            a[10] = a[9] + b[3] + b[4] + b[5] + b[6] + b[7] + b[8] + b[9];
            x = x + sin(a[10] * 0.001) + sqrt(a[9]);
            a[11] = a[10] + a[9] + a[8] + a[7] + a[6] + a[5] + a[4];
            printf("%d %d ", a[11], b[1]);
        }
        printf("%f\n", x);
        return 0;
    }
    """,
    "math": r"""
    int main() {
        double s = 0.0;
        int i;
        for (i = 0; i < 5; i++) {
            s += sin(i * 0.5) + cos(i) + sqrt(i) + fabs(-i) + tan(0.1)
                 + atan(i) + atan2(i, 2.0) + exp(0.1 * i) + log(i + 1.0)
                 + log10(i + 1.0) + pow(2.0, i) + fmod(i, 3.0)
                 + floor(i * 0.7) + ceil(i * 0.7);
        }
        srand(3);
        printf("%f %d %d\n", s, rand() % 100, abs(-4) + labs(-5));
        exit(7);
        return 0;
    }
    """,
}

_PREFIX = "int a[8]; int b[8]; char s[4] = \"ab\";\n"
_FILL = "int i; for (i = 0; i < 8; i++) { a[i] = i; b[i] = a[i]; }"

FAULT_PROGRAMS = {
    "negative_src": "memcpy(b, -4, 8);",
    "negative_src_short": "memmove(b, -1, 3);",
    "negative_dst": "memcpy(-8, a, 8);",
    "negative_dst_string": "strcpy(-4, s);",
    "negative_string": "printf(\"%s\", -1);",
    "negative_memset": "memset(-4, 0, 8);",
    "negative_samples": "read_samples(-16, 4);",
    "unterminated": "char *p = (char *)malloc(6000); memset(p, 65, 6000);"
                    " strlen(p + 3);",
}

PROGRAMS = dict(BULK_PROGRAMS)
PROGRAMS.update(
    (f"fault_{name}", f"{_PREFIX}int main() {{ {_FILL} {body} return 0; }}")
    for name, body in FAULT_PROGRAMS.items())

BLOCK_SIZES = (1, 7, DEFAULT_TRACE_BLOCK)


@functools.lru_cache(maxsize=None)
def _compiled(name):
    return compile_program(PROGRAMS[name])


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_bulk_builtins_match_per_word_reference(program, tier, block):
    config = TIERS[tier]
    compiled = _compiled(program)
    bulk = observe(compiled, config, block, BULK_CALL)
    reference = observe(compiled, config, block, ref_call_builtin)
    assert bulk["error"] == reference["error"]
    assert bulk["blocks"] == reference["blocks"]
    assert bulk == reference
    if program.startswith("fault_"):
        assert bulk["error"] is not None and bulk["blocks"]
    else:
        assert bulk["error"] is None


def test_past_limit_program_reaches_a_builtin_past_the_limit():
    """The specialized tier at block size 7 really enters a builtin with
    the buffer already past its flush limit (the case a bulk append must
    not get wrong)."""
    seen = []

    def spy(machine, name, args):
        seen.append(len(machine._trace.acc) >= machine._trace.limit)
        return BULK_CALL(machine, name, args)

    observe(_compiled("past_limit"), TIERS["specialized"], 7,
            spy)
    assert any(seen)


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_unterminated_string_traces_every_byte_read(tier):
    """At the real limit: every one of the 2**20 + 1 non-NUL bytes read
    is traced before the library reports the unterminated string."""
    size = 1100000
    compiled = compile_program(
        f"int main() {{ char *p = (char *)malloc({size});"
        f" memset(p, 65, {size}); return strlen(p); }}")
    machine = _make_machine(compiled, TIERS[tier],
                            DEFAULT_TRACE_BLOCK, ())
    with pytest.raises(MiniCRuntimeError,
                       match="unterminated string passed to library"):
        machine.run()
    assert machine.stats.accesses == -(-size // 4) + (1 << 20) + 1
