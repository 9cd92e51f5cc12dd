"""Piece-Wise Object Format: the on-disk module container.

All integers are little-endian.  The ``struct.Struct`` constants below
(``HEADER``, ``SYMBOL_TAIL``, ``TRAINING_KIND``, ``DEP_HEADER``,
``RECORD_HEAD``, ``IR_HEADER``) are the normative layout of every
fixed-width part, shared by writer and reader; this outline mirrors them::

    "PWOF" u16 version=1 u16 flags        flags: bit0 has-dep, bit1 executable,
    name (u16 len + utf8)                        bit2 has-ir
    needed   u16 count + names
    symbols  u32 count + (name, binding u8, defined u8, value u32, size u32)
    code     u32 length + bytes
    vtables  u16 count + (type name, u16 entry count, u32 symbol index each)
    training u16 count + (kind u8, module name, symbol name)
    .dep     "PWDP" u16 version u8 strategy u8 relocated
             u32 required count + u32 indices
             u32 record count + (symbol u32, location u32, size u32,
                                 dep count u32, (kind u8, index u32) each)
    ir       "PWIR" u32 length + utf8 IR source (pretty-printed module)

Binding wire values collapse visibility and strength: 0 = not exported
(local), 1 = exported strong, 2 = exported weak.  Asm functions are
``defined = 2``.  The trailing IR section carries the statement-level source
that the fixed 4-byte encoding cannot represent; readers that stop after the
sections they know about remain compatible.  A ``.dep`` holds at most one
record per symbol, and a decoded ``DepSection`` keys its records by that
symbol's index, in wire order.  An entry's kind byte is 1 (import) exactly
when its target symbol is undefined: ``serialize`` derives it from the
symbol table, and ``read_module`` checks it there.

``read_module`` decodes and checks the wire; a ``LoadedModule``, read or
assembled, checks its layout when it is built: the code is whole 4-byte
instructions, each led by an opcode of ``ir.OPCODES`` (the trap byte 0x6D is
the loader's alone); the symbols are the definitions in IR order (symbol k
is IR function k), each name once, inside the code, on the instruction grid
and apart, then the imports, without value or size; vtable entries index
the symbols.  Its name index holds the definitions only (an import is
reached through its binding), and a parsed IR body must fill its symbol
and encode to the code bytes there.
The vtable section is what the IR's vtables give, and a library's container
holds the module it is loaded as.

Every section but the IR is decoded, into named tuples (``SymbolEntry``,
``TrainingRecord``, ``DepRecord``): immutable, hashable, ordered field by
field, and equal to a plain tuple of the same fields.  The IR stays text
until ``LoadedModule.ir_index`` checks it against the symbol table.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import zip_longest
from typing import NamedTuple

from . import ir
from .depgraph import DepGraph, STRATEGIES
from .errors import (AlreadyRelocated, BadMagic, IndexOutOfRange, LayoutMismatch,
                     MalformedTrace, MissingIR, TruncatedSection)
from .ir import CodeImage, Module

MAGIC = b"PWOF"
DEP_MAGIC = b"PWDP"
IR_MAGIC = b"PWIR"
VERSION = 1

FLAG_HAS_DEP = 0x0001
FLAG_EXECUTABLE = 0x0002
FLAG_HAS_IR = 0x0004

BIND_LOCAL = 0
BIND_STRONG = 1
BIND_WEAK = 2

DEF_UNDEFINED = 0
DEF_DEFINED = 1
DEF_DEFINED_ASM = 2

STRATEGY_CODES = {name: i for i, name in enumerate(STRATEGIES)}

# the bytes an instruction may start with: not the trap byte, which only removal writes
_OPCODE_BYTES = bytes(ir.OPCODES.values())

U16 = struct.Struct("<H")
U32 = struct.Struct("<I")
HEADER = struct.Struct("<4sHH")        # magic, version, flags
SYMBOL_TAIL = struct.Struct("<BBII")   # after the name: binding, defined, value, size
TRAINING_KIND = struct.Struct("<B")    # 0 dlopen, 1 dlsym; module and symbol follow
DEP_HEADER = struct.Struct("<4sHBB")   # magic, version, strategy, relocated
RECORD_HEAD = struct.Struct("<III")    # symbol, location, size; u32 dep count follows
IR_HEADER = struct.Struct("<4sI")      # magic, length of the utf-8 text


@lru_cache(maxsize=256)
def _array(item: str, n: int) -> struct.Struct:
    """Layout of ``n`` back-to-back ``item`` fields: indices (``"I"``), or a
    record's (kind, index) pairs (``"BI"``) or their indices alone (``"xI"``)."""
    return struct.Struct("<" + item * n)


class SymbolEntry(NamedTuple):
    name: str
    binding: int
    defined: int
    value: int = 0
    size: int = 0


class TrainingRecord(NamedTuple):
    kind: str  # "dlopen" | "dlsym"
    module: str
    symbol: str = ""


class DepRecord(NamedTuple):
    symbol: int
    location: int
    size: int
    deps: tuple[int, ...] = ()  # target symbol indices, in wire order


@dataclass
class DepSection:
    strategy: str
    relocated: bool = False
    required: tuple[int, ...] = ()
    records: dict[int, DepRecord] = field(default_factory=dict)  # by symbol, in wire order


@dataclass
class LoadedModule:
    name: str
    is_executable: bool = False
    needed: tuple[str, ...] = ()
    symbols: tuple[SymbolEntry, ...] = ()
    code: bytes = b""
    vtables: tuple[tuple[str, tuple[int, ...]], ...] = ()  # (type name, symbol indices)
    training: tuple[TrainingRecord, ...] = ()
    dep: DepSection | None = None
    ir_text: str | None = None

    _index: dict[str, int] = field(init=False, repr=False, compare=False)  # definitions only
    _bodies: dict[str, ir.Function] = field(default_factory=dict, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        # the layout the loader trusts (see the module docstring), in one pass
        code = self.code
        if len(code) % ir.INSTRUCTION_WIDTH:
            raise LayoutMismatch(f"code length {len(code)} is not a multiple of "
                                 f"{ir.INSTRUCTION_WIDTH}")
        opcodes = code[::ir.INSTRUCTION_WIDTH]
        if opcodes.translate(None, _OPCODE_BYTES):
            bad = next(i for i, op in enumerate(opcodes) if op not in _OPCODE_BYTES)
            raise LayoutMismatch(f"instruction {bad} has unknown opcode {opcodes[bad]:#04x}")
        # name -> index of its definition; an import is reached by its binding
        index = self._index = {}
        spans = []  # (start, end, name) of each definition with code
        for i, (name, _, defined, value, size) in enumerate(self.symbols):
            if defined == DEF_UNDEFINED:
                if value or size:
                    raise LayoutMismatch(f"undefined symbol {name!r} has value/size")
            elif len(index) < i:
                raise LayoutMismatch(f"module {self.name!r} defines {name!r} after an import")
            elif index.setdefault(name, i) != i:
                raise LayoutMismatch(f"module {self.name!r} defines {name!r} twice")
            elif value + size > len(code):
                raise LayoutMismatch(f"symbol {name!r} extends past the code image")
            elif (value | size) % ir.INSTRUCTION_WIDTH:
                raise LayoutMismatch(f"symbol {name!r} is not instruction-aligned")
            elif size:
                spans.append((value, value + size, name))
        # removing one function must not touch another's code; empty functions
        # legitimately share an offset
        spans.sort()
        for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
            if start < end:
                raise LayoutMismatch(f"symbols {first!r} and {second!r} overlap")
        for type_name, entries in self.vtables:
            for idx in entries:
                if idx >= len(self.symbols):
                    raise IndexOutOfRange(f"vtable {type_name!r} entry index {idx}")

    def symbol_index(self, name: str) -> int | None:
        return self._index.get(name)

    def symbol(self, name: str) -> SymbolEntry | None:
        idx = self._index.get(name)
        return None if idx is None else self.symbols[idx]

    def defined_symbols(self) -> tuple[SymbolEntry, ...]:
        return self.symbols[:len(self._index)]

    def undefined_symbols(self) -> tuple[SymbolEntry, ...]:
        return self.symbols[len(self._index):]

    @cached_property
    def ir_index(self) -> ir.ModuleIndex:
        """The IR section's directives and function headers, built and checked
        once against the defined and undefined symbols in order and against
        the vtable section; ``function`` parses the bodies."""
        if self.ir_text is None:
            raise MissingIR(f"module {self.name!r} carries no IR section")
        index = ir.index_module(self.ir_text)
        scope = index.scope  # checks the declarations before the layout
        for names, entries in ((index.function_names(), self.defined_symbols()),
                               (list(index.imports), self.undefined_symbols())):
            symbols = [s.name for s in entries]
            if names != symbols:
                first = next(a or b for a, b in zip_longest(names, symbols) if a != b)
                raise LayoutMismatch(f"module {self.name!r}: IR and symbols differ at {first!r}")
        # check_declarations made every vtable entry a symbol, which the
        # scope numbers as the symbol table does
        if self.vtables != _vtable_section(index.vtables, scope.operands):
            raise LayoutMismatch(f"module {self.name!r}: IR and vtable section differ")
        return index

    def function(self, name: str) -> ir.Function | None:
        """The IR function ``name``, parsed and checked against its symbol's
        code on the first request, or None when the IR defines no such function."""
        fn = self._bodies.get(name)
        if fn is None:
            index = self.ir_index
            i = self._index.get(name)
            if i is None:
                return None
            fn = ir.parse_body(index, index.functions[i])
            ir.check_function(fn, index.scope)
            _, _, _, value, size = self.symbols[i]
            if len(fn.body) * ir.INSTRUCTION_WIDTH != size:
                raise LayoutMismatch(f"module {self.name!r}: size of {name!r} disagrees "
                                     f"with statement count")
            if ir.encode_body(fn, index.scope) != self.code[value:value + size]:
                raise LayoutMismatch(f"module {self.name!r}: code of {name!r} disagrees "
                                     f"with its IR")
            self._bodies[name] = fn
        return fn


# ---------------------------------------------------------------------------
# assembly from IR-level structures


def build_symbols(module: Module, image: CodeImage) -> tuple[SymbolEntry, ...]:
    syms = []
    for fn in module.functions:
        if fn.name not in image.layout:
            raise LayoutMismatch(f"layout lacks function {fn.name!r}")
        offset, size = image.layout[fn.name]
        if size != len(fn.body) * ir.INSTRUCTION_WIDTH:
            raise LayoutMismatch(f"size of {fn.name!r} disagrees with statement count")
        if fn.exported:
            binding = BIND_WEAK if fn.binding == "weak" else BIND_STRONG
        else:
            binding = BIND_LOCAL
        defined = DEF_DEFINED_ASM if fn.is_asm else DEF_DEFINED
        syms.append(SymbolEntry(fn.name, binding, defined, offset, size))
    for name in module.imports:
        syms.append(SymbolEntry(name, BIND_LOCAL, DEF_UNDEFINED, 0, 0))
    if len(image.layout) != len(module.functions):
        raise LayoutMismatch("layout and function list disagree")
    return tuple(syms)


def build_dep_section(module: Module, image: CodeImage, graph: DepGraph) -> DepSection:
    index = module.scope.operands  # edges and required globals name symbols only
    # wire order: imports (every index past the functions), then locals, each by index
    first_import = len(module.functions)
    records = {}
    for i, fn in enumerate(module.functions):
        offset, size = image.layout[fn.name]
        deps = sorted([index[name] for name in graph.edges.get(fn.name, ())],
                      key=lambda dep: (dep < first_import, dep))
        records[i] = DepRecord(i, offset, size, tuple(deps))
    required = tuple(sorted(index[name] for name in graph.required_globals))
    return DepSection(graph.strategy, False, required, records)


def _vtable_section(vtables: tuple[ir.VTable, ...],
                    index: dict[str, int]) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Each vtable's entries as the symbol indices ``index`` gives them."""
    return tuple((vt.type_name, tuple(index[e] for e in vt.entries)) for vt in vtables)


def assemble(module: Module, image: CodeImage, dep: DepSection | None,
             training: tuple[TrainingRecord, ...] = ()) -> LoadedModule:
    validate_training(training)
    return LoadedModule(
        name=module.name,
        is_executable=module.is_executable,
        needed=module.needed,
        symbols=build_symbols(module, image),
        code=image.data,
        vtables=_vtable_section(module.vtables, module.scope.operands),
        training=tuple(training),
        dep=dep,
        ir_text=ir.pretty_print(module),
    )


def validate_training(training) -> None:
    opened = set()
    for rec in training:
        if rec.kind == "dlopen":
            opened.add(rec.module)
        elif rec.kind == "dlsym":
            if rec.module not in opened:
                raise MalformedTrace(f"dlsym {rec.module}/{rec.symbol} without prior dlopen")
        else:
            raise MalformedTrace(f"unknown training record kind {rec.kind!r}")


# ---------------------------------------------------------------------------
# writing


def _string(s: str) -> bytes:
    data = s.encode("utf-8")
    return U16.pack(len(data)) + data


def _dep_kinds(symbols: tuple[SymbolEntry, ...]) -> bytes:
    """Each symbol's ``.dep`` kind byte: 1 (import) when it is undefined, else 0."""
    return bytes([sym.defined == DEF_UNDEFINED for sym in symbols])


def serialize(mod: LoadedModule) -> bytes:
    flags = ((FLAG_HAS_DEP if mod.dep is not None else 0)
             | (FLAG_EXECUTABLE if mod.is_executable else 0)
             | (FLAG_HAS_IR if mod.ir_text is not None else 0))
    out = [HEADER.pack(MAGIC, VERSION, flags), _string(mod.name), U16.pack(len(mod.needed))]
    out += map(_string, mod.needed)
    out.append(U32.pack(len(mod.symbols)))
    for sym in mod.symbols:
        out += (_string(sym.name), SYMBOL_TAIL.pack(sym.binding, sym.defined, sym.value, sym.size))
    out += (U32.pack(len(mod.code)), mod.code, U16.pack(len(mod.vtables)))
    for type_name, entries in mod.vtables:
        out += (_string(type_name), U16.pack(len(entries)),
                _array("I", len(entries)).pack(*entries))
    out.append(U16.pack(len(mod.training)))
    for rec in mod.training:
        out += (TRAINING_KIND.pack(0 if rec.kind == "dlopen" else 1),
                _string(rec.module), _string(rec.symbol))
    dep = mod.dep
    if dep is not None:
        out += (DEP_HEADER.pack(DEP_MAGIC, VERSION, STRATEGY_CODES[dep.strategy],
                                1 if dep.relocated else 0),
                U32.pack(len(dep.required)), _array("I", len(dep.required)).pack(*dep.required),
                U32.pack(len(dep.records)))
        kinds = _dep_kinds(mod.symbols)
        for rec in dep.records.values():
            pairs = [v for i in rec.deps for v in (kinds[i], i)]
            out += (RECORD_HEAD.pack(rec.symbol, rec.location, rec.size),
                    U32.pack(len(rec.deps)), _array("BI", len(rec.deps)).pack(*pairs))
    if mod.ir_text is not None:
        data = mod.ir_text.encode("utf-8")
        out += (IR_HEADER.pack(IR_MAGIC, len(data)), data)
    return b"".join(out)


def write_module(module: Module, code_image: CodeImage, dep_section: DepSection | None = None,
                 training: tuple[TrainingRecord, ...] = ()) -> bytes:
    return serialize(assemble(module, code_image, dep_section, training))


# ---------------------------------------------------------------------------
# reading
#
# One offset walks the stream; every fixed-width part is one ``unpack_from``
# at it.  A part that runs past the end raises ``struct.error``, which
# ``read_module`` reports as TruncatedSection, so only the variable-length
# takes (``_take``: strings, code, IR) check their bounds themselves.


def _take(data: bytes, pos: int, n: int) -> tuple[bytes, int]:
    """The ``n`` bytes at ``pos``, and the offset after them."""
    end = pos + n
    if end > len(data):
        raise TruncatedSection(f"need {n} bytes at offset {pos}, have {len(data) - pos}")
    return data[pos:end], end


def _read_string(data: bytes, pos: int) -> tuple[str, int]:
    """The u16-length utf-8 string at ``pos``, and the offset after it."""
    (n,) = U16.unpack_from(data, pos)
    raw, pos = _take(data, pos + U16.size, n)
    return raw.decode("utf-8"), pos


def _read_count(data: bytes, pos: int, layout: struct.Struct, min_size: int) -> tuple[int, int]:
    """A count field at ``pos``, checked against the bytes its items need at
    least, and the offset after it."""
    (n,) = layout.unpack_from(data, pos)
    pos += layout.size
    if n * min_size > len(data) - pos:
        raise TruncatedSection(f"count {n} exceeds remaining {len(data) - pos} bytes")
    return n, pos


def read_module(data: bytes) -> LoadedModule:
    """Parse a PWOF byte stream."""
    try:
        return _read_module(data)
    except struct.error as exc:  # a fixed-width part runs past the end
        raise TruncatedSection(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise TruncatedSection(f"invalid utf-8: {exc}") from None


def _read_module(data: bytes) -> LoadedModule:
    magic, version, flags = HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BadMagic("not a PWOF stream")
    if version != VERSION:
        raise BadMagic(f"unsupported PWOF version {version}")
    name, pos = _read_string(data, HEADER.size)
    n, pos = _read_count(data, pos, U16, 2)
    needed = []
    for _ in range(n):
        dep_name, pos = _read_string(data, pos)
        needed.append(dep_name)

    n, pos = _read_count(data, pos, U32, 12)
    symbols = []
    for _ in range(n):
        # a name cut short by the end of the stream leaves no room for the
        # fixed tail after it, whose unpack then raises
        (length,) = U16.unpack_from(data, pos)
        start = pos + 2
        pos = start + length
        sname = data[start:pos].decode("utf-8")
        binding, defined, value, size = SYMBOL_TAIL.unpack_from(data, pos)
        pos += SYMBOL_TAIL.size
        if binding > BIND_WEAK or defined > DEF_DEFINED_ASM:
            raise TruncatedSection(f"bad symbol field values for {sname!r}")
        symbols.append(SymbolEntry(sname, binding, defined, value, size))
    symbols = tuple(symbols)

    (n,) = U32.unpack_from(data, pos)
    code, pos = _take(data, pos + U32.size, n)

    n, pos = _read_count(data, pos, U16, 4)
    vtables = []
    for _ in range(n):
        type_name, pos = _read_string(data, pos)
        count, pos = _read_count(data, pos, U16, 4)
        entries = _array("I", count).unpack_from(data, pos)
        pos += 4 * count
        vtables.append((type_name, entries))

    n, pos = _read_count(data, pos, U16, 5)
    training = []
    for _ in range(n):
        (kind,) = TRAINING_KIND.unpack_from(data, pos)
        if kind > 1:
            raise TruncatedSection(f"bad training record kind {kind}")
        module, pos = _read_string(data, pos + TRAINING_KIND.size)
        symbol, pos = _read_string(data, pos)
        training.append(TrainingRecord("dlopen" if kind == 0 else "dlsym", module, symbol))

    dep = None
    if flags & FLAG_HAS_DEP:
        dep, pos = _read_dep(data, pos, symbols)
    ir_text = None
    if flags & FLAG_HAS_IR:
        magic, n = IR_HEADER.unpack_from(data, pos)
        if magic != IR_MAGIC:
            raise BadMagic("missing PWIR magic")
        raw, pos = _take(data, pos + IR_HEADER.size, n)
        ir_text = raw.decode("utf-8")
    return LoadedModule(
        name=name,
        is_executable=bool(flags & FLAG_EXECUTABLE),
        needed=tuple(needed),
        symbols=symbols,
        code=code,
        vtables=tuple(vtables),
        training=tuple(training),
        dep=dep,
        ir_text=ir_text,
    )


def _read_dep(data: bytes, pos: int,
              symbols: tuple[SymbolEntry, ...]) -> tuple[DepSection, int]:
    nsymbols = len(symbols)
    magic, version, strategy_code, relocated = DEP_HEADER.unpack_from(data, pos)
    if magic != DEP_MAGIC:
        raise BadMagic("missing PWDP magic")
    if version != VERSION:
        raise BadMagic(f"unsupported .dep version {version}")
    if strategy_code >= len(STRATEGIES):
        raise TruncatedSection(f"bad strategy code {strategy_code}")
    if relocated > 1:
        raise TruncatedSection(f"bad relocated flag {relocated}")
    n, pos = _read_count(data, pos + DEP_HEADER.size, U32, 4)
    required = _array("I", n).unpack_from(data, pos)
    pos += 4 * n
    if required and max(required) >= nsymbols:
        raise IndexOutOfRange(f"required-global index {max(required)}")

    # each record is checked whole: its target indices, then its kind bytes
    kinds = _dep_kinds(symbols)
    n, pos = _read_count(data, pos, U32, 16)
    records = {}
    for _ in range(n):
        symbol, location, size = RECORD_HEAD.unpack_from(data, pos)
        if symbol >= nsymbols:
            raise IndexOutOfRange(f"dep record symbol index {symbol}")
        if symbol in records:
            raise LayoutMismatch(f"second dep record for symbol {symbols[symbol].name!r}")
        # read after the symbol checks: a bad index is reported even when
        # the stream ends inside the count
        (count,) = U32.unpack_from(data, pos + RECORD_HEAD.size)
        pos += RECORD_HEAD.size + U32.size
        if count * 5 > len(data) - pos:
            raise TruncatedSection(f"count {count} exceeds remaining {len(data) - pos} bytes")
        deps = _array("xI", count).unpack_from(data, pos)
        wire = data[pos:pos + 5 * count:5]
        pos += 5 * count
        if deps and max(deps) >= nsymbols:
            raise IndexOutOfRange(f"dep target index {max(deps)}")
        if wire != bytes(map(kinds.__getitem__, deps)):
            if max(wire) > 1:
                raise TruncatedSection(f"bad dep target kind {max(wire)}")
            bad = next(i for i, kind in zip(deps, wire) if kind != kinds[i])
            raise LayoutMismatch(f"dep target {symbols[bad].name!r} of "
                                 f"{symbols[symbol].name!r} has the wrong kind")
        records[symbol] = DepRecord(symbol, location, size, deps)
    return DepSection(STRATEGIES[strategy_code], bool(relocated), required, records), pos


# ---------------------------------------------------------------------------
# relocation


def relocate_dep(dep: DepSection, base: int) -> DepSection:
    """Add ``base`` to every record location, exactly once."""
    if dep.relocated:
        raise AlreadyRelocated("dep section already relocated")
    dep.records = {symbol: DepRecord(symbol, location + base, size, deps)
                   for symbol, location, size, deps in dep.records.values()}
    dep.relocated = True
    return dep
