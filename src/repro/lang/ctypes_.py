"""The MiniC type system.

Models a 32-bit embedded target (ILP32): ``int`` and pointers are 4 bytes,
``long`` is 8 bytes, ``char`` is signed and 1 byte. Struct layout follows
the usual C rules (each member aligned to its natural alignment, struct size
rounded up to the largest member alignment).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.errors import SemanticError

#: Pointer size of the simulated 32-bit target, in bytes.
POINTER_SIZE = 4


class CType:
    """Base class of all MiniC types."""

    @property
    def size(self) -> int:
        raise NotImplementedError

    @property
    def alignment(self) -> int:
        return self.size

    @property
    def is_scalar(self) -> bool:
        """True for arithmetic and pointer types (register-promotable)."""
        return False

    @property
    def is_integer(self) -> bool:
        return False

    @property
    def is_float(self) -> bool:
        return False

    @property
    def is_pointer(self) -> bool:
        return False

    @property
    def is_array(self) -> bool:
        return False

    @property
    def is_struct(self) -> bool:
        return False

    @property
    def is_void(self) -> bool:
        return False


@dataclass(frozen=True)
class IntType(CType):
    """A (possibly unsigned) integer type of a given byte width."""

    byte_size: int
    signed: bool = True
    name: str = "int"

    @property
    def size(self) -> int:
        return self.byte_size

    @property
    def is_scalar(self) -> bool:
        return True

    @property
    def is_integer(self) -> bool:
        return True

    @property
    def min_value(self) -> int:
        if not self.signed:
            return 0
        return -(1 << (8 * self.byte_size - 1))

    @property
    def max_value(self) -> int:
        if not self.signed:
            return (1 << (8 * self.byte_size)) - 1
        return (1 << (8 * self.byte_size - 1)) - 1

    def wrap(self, value: int) -> int:
        """Wrap ``value`` to this type's range (two's-complement semantics)."""
        mask = (1 << (8 * self.byte_size)) - 1
        value &= mask
        if self.signed and value > self.max_value:
            value -= mask + 1
        return value

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FloatType(CType):
    """A floating-point type (float = 4 bytes, double = 8 bytes)."""

    byte_size: int
    name: str = "double"

    @property
    def size(self) -> int:
        return self.byte_size

    @property
    def is_scalar(self) -> bool:
        return True

    @property
    def is_float(self) -> bool:
        return True

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class VoidType(CType):
    @property
    def size(self) -> int:
        return 0

    @property
    def alignment(self) -> int:
        return 1

    @property
    def is_void(self) -> bool:
        return True

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class PointerType(CType):
    """Pointer to ``pointee`` on the 32-bit simulated target."""

    pointee: CType

    @property
    def size(self) -> int:
        return POINTER_SIZE

    @property
    def is_scalar(self) -> bool:
        return True

    @property
    def is_pointer(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(CType):
    """Fixed-length array. Multi-dimensional arrays nest ArrayTypes."""

    element: CType
    length: int

    @property
    def size(self) -> int:
        return self.element.size * self.length

    @property
    def alignment(self) -> int:
        return self.element.alignment

    @property
    def is_array(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"


@dataclass(frozen=True)
class StructMember:
    name: str
    ctype: CType
    offset: int


@dataclass(frozen=True)
class StructType(CType):
    """A struct with C-style layout, computed by :func:`layout_struct`."""

    tag: str
    members: tuple[StructMember, ...] = field(default=())
    total_size: int = 0
    align: int = 1

    @property
    def size(self) -> int:
        return self.total_size

    @property
    def alignment(self) -> int:
        return self.align

    @property
    def is_struct(self) -> bool:
        return True

    def member(self, name: str) -> StructMember:
        for member in self.members:
            if member.name == name:
                return member
        raise SemanticError(f"struct {self.tag} has no member {name!r}")

    def has_member(self, name: str) -> bool:
        return any(m.name == name for m in self.members)

    def __str__(self) -> str:
        return f"struct {self.tag}"


# Canonical type singletons -------------------------------------------------

CHAR = IntType(1, signed=True, name="char")
UCHAR = IntType(1, signed=False, name="unsigned char")
SHORT = IntType(2, signed=True, name="short")
USHORT = IntType(2, signed=False, name="unsigned short")
INT = IntType(4, signed=True, name="int")
UINT = IntType(4, signed=False, name="unsigned int")
LONG = IntType(8, signed=True, name="long")
ULONG = IntType(8, signed=False, name="unsigned long")
FLOAT = FloatType(4, name="float")
DOUBLE = FloatType(8, name="double")
VOID = VoidType()


def layout_struct(tag: str, fields: list[tuple[str, CType]]) -> StructType:
    """Compute C layout for a struct: aligned members, padded total size."""
    members: list[StructMember] = []
    offset = 0
    align = 1
    for name, ctype in fields:
        member_align = max(1, ctype.alignment)
        offset = _round_up(offset, member_align)
        members.append(StructMember(name, ctype, offset))
        offset += ctype.size
        align = max(align, member_align)
    total = _round_up(offset, align) if offset else 0
    return StructType(tag, tuple(members), total, align)


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


def decay(ctype: CType) -> CType:
    """Array-to-pointer decay, as in C expression contexts."""
    if isinstance(ctype, ArrayType):
        return PointerType(ctype.element)
    return ctype


def integer_promote(ctype: CType) -> CType:
    """C integer promotion: types narrower than int promote to int."""
    if isinstance(ctype, IntType) and ctype.byte_size < INT.byte_size:
        return INT
    return ctype


def usual_arithmetic_conversion(left: CType, right: CType) -> CType:
    """The C 'usual arithmetic conversions' for binary operators."""
    if left.is_float or right.is_float:
        widest = max(
            (t for t in (left, right) if t.is_float),
            key=lambda t: t.size,
        )
        return DOUBLE if widest.size >= DOUBLE.size else widest
    left = integer_promote(left)
    right = integer_promote(right)
    assert isinstance(left, IntType) and isinstance(right, IntType)
    if left == right:
        return left
    if left.byte_size != right.byte_size:
        return left if left.byte_size > right.byte_size else right
    # Same width, different signedness: unsigned wins.
    return left if not left.signed else right


def fold_int_binary(op: str, a: int, b: int) -> int | None:
    """C's ``a op b`` on integer constants, or ``None``.

    ``/`` truncates toward zero and ``%`` takes the dividend's sign, as
    in C; a comparison folds to 0 or 1. ``None`` stands for what C
    leaves undefined, a zero divisor or a shift count outside [0, 64),
    and for an operator that does not fold. The value is not wrapped to
    any type's range.
    """
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op in ("/", "%"):
        if b == 0:
            return None
        quotient = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            quotient = -quotient
        return quotient if op == "/" else a - quotient * b
    if op in ("<", "<=", ">", ">=", "==", "!="):
        table = {"<": a < b, "<=": a <= b, ">": a > b,
                 ">=": a >= b, "==": a == b, "!=": a != b}
        return int(table[op])
    if op == "<<":
        return a << b if 0 <= b < 64 else None
    if op == ">>":
        return a >> b if 0 <= b < 64 else None
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    return None
