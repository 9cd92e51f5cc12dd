"""Piece-Wise Object Format: the on-disk module container.

All integers are little-endian.  Layout::

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
``defined = 2``.  The trailing IR section carries the statement-level
source that the fixed 4-byte encoding cannot represent; readers that stop
after the sections they know about remain compatible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from functools import cached_property

from . import ir
from .depgraph import DepGraph, DepTarget, STRATEGIES
from .errors import (AlreadyRelocated, BadMagic, IndexOutOfRange, LayoutMismatch,
                     MalformedTrace, TruncatedSection)
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


@dataclass(frozen=True)
class SymbolEntry:
    name: str
    binding: int
    defined: int
    value: int = 0
    size: int = 0


@dataclass(frozen=True)
class TrainingRecord:
    kind: str  # "dlopen" | "dlsym"
    module: str
    symbol: str = ""


@dataclass(frozen=True, order=True)
class DepEntry:
    kind: str  # "local" | "import"
    index: int


@dataclass(frozen=True)
class DepRecord:
    symbol: int
    location: int
    size: int
    deps: tuple[DepEntry, ...] = ()


@dataclass
class DepSection:
    strategy: str
    relocated: bool = False
    required: tuple[int, ...] = ()
    records: tuple[DepRecord, ...] = ()

    @cached_property
    def _positions(self) -> dict[int, int]:
        # symbol index -> position of its first record; relocation rewrites
        # locations only, so the positions stay valid
        positions: dict[int, int] = {}
        for pos, rec in enumerate(self.records):
            positions.setdefault(rec.symbol, pos)
        return positions

    def unrecorded(self, symbols: tuple[SymbolEntry, ...]) -> list[str]:
        """Names of the defined symbols that have no record."""
        return [sym.name for i, sym in enumerate(symbols)
                if sym.defined != DEF_UNDEFINED and i not in self._positions]

    def record_for(self, symbol_index: int | None) -> DepRecord | None:
        pos = self._positions.get(symbol_index)
        return None if pos is None else self.records[pos]


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

    _parsed: Module | None = field(default=None, repr=False, compare=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # name -> index of its definition, else of its first import (a module
        # may import a name it also defines: interposition); a module that
        # defines a name twice is malformed
        index = self._index = {}
        for i, sym in enumerate(self.symbols):
            if sym.defined != DEF_UNDEFINED and index.setdefault(sym.name, i) != i:
                raise LayoutMismatch(f"module {self.name!r} defines {sym.name!r} twice")
        for i, sym in enumerate(self.symbols):
            if sym.defined == DEF_UNDEFINED:
                index.setdefault(sym.name, i)

    def symbol_index(self, name: str) -> int | None:
        return self._index.get(name)

    def symbol(self, name: str) -> SymbolEntry | None:
        idx = self._index.get(name)
        return None if idx is None else self.symbols[idx]

    def defined_symbols(self) -> list[SymbolEntry]:
        return [s for s in self.symbols if s.defined != DEF_UNDEFINED]

    def undefined_symbols(self) -> list[SymbolEntry]:
        return [s for s in self.symbols if s.defined == DEF_UNDEFINED]

    def module(self) -> Module:
        if self.ir_text is None:
            from .errors import MissingIR

            raise MissingIR(f"module {self.name!r} carries no IR section")
        if self._parsed is None:
            self._parsed = ir.parse_module(self.ir_text)
        return self._parsed


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


def _reference_index(module: Module) -> dict[str, int]:
    """Symbol index a name in the module's code refers to, in the order
    ``build_symbols`` writes (functions, then imports): an import shadows a
    function of the same name, as in ``depgraph``."""
    return {name: i for i, name in enumerate(module.function_names() + list(module.imports))}


def build_dep_section(module: Module, image: CodeImage, graph: DepGraph) -> DepSection:
    index = _reference_index(module)
    records = []
    for i, fn in enumerate(module.functions):
        offset, size = image.layout[fn.name]
        deps = tuple(sorted(DepEntry(t.kind, index[t.symbol])
                            for t in graph.edges.get(fn.name, ()))
                     )
        records.append(DepRecord(i, offset, size, deps))
    required = tuple(sorted(index[name] for name in graph.required_globals))
    return DepSection(graph.strategy, False, required, tuple(records))


def assemble(module: Module, image: CodeImage, dep: DepSection | None,
             training: tuple[TrainingRecord, ...] = ()) -> LoadedModule:
    validate_training(training)
    index = _reference_index(module)
    return LoadedModule(
        name=module.name,
        is_executable=module.is_executable,
        needed=module.needed,
        symbols=build_symbols(module, image),
        code=image.data,
        vtables=tuple((vt.type_name, tuple(index[e] for e in vt.entries))
                      for vt in module.vtables),
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


class _Writer:
    def __init__(self):
        self.buf = bytearray()

    def u8(self, v):
        self.buf += struct.pack("<B", v)

    def u16(self, v):
        self.buf += struct.pack("<H", v)

    def u32(self, v):
        self.buf += struct.pack("<I", v)

    def raw(self, b):
        self.buf += b

    def string(self, s):
        data = s.encode("utf-8")
        self.u16(len(data))
        self.raw(data)


def serialize(mod: LoadedModule) -> bytes:
    w = _Writer()
    flags = 0
    if mod.dep is not None:
        flags |= FLAG_HAS_DEP
    if mod.is_executable:
        flags |= FLAG_EXECUTABLE
    if mod.ir_text is not None:
        flags |= FLAG_HAS_IR
    w.raw(MAGIC)
    w.u16(VERSION)
    w.u16(flags)
    w.string(mod.name)
    w.u16(len(mod.needed))
    for name in mod.needed:
        w.string(name)
    w.u32(len(mod.symbols))
    for sym in mod.symbols:
        w.string(sym.name)
        w.u8(sym.binding)
        w.u8(sym.defined)
        w.u32(sym.value)
        w.u32(sym.size)
    w.u32(len(mod.code))
    w.raw(mod.code)
    w.u16(len(mod.vtables))
    for type_name, entries in mod.vtables:
        w.string(type_name)
        w.u16(len(entries))
        for idx in entries:
            w.u32(idx)
    w.u16(len(mod.training))
    for rec in mod.training:
        w.u8(0 if rec.kind == "dlopen" else 1)
        w.string(rec.module)
        w.string(rec.symbol)
    if mod.dep is not None:
        w.raw(DEP_MAGIC)
        w.u16(VERSION)
        w.u8(STRATEGY_CODES[mod.dep.strategy])
        w.u8(1 if mod.dep.relocated else 0)
        w.u32(len(mod.dep.required))
        for idx in mod.dep.required:
            w.u32(idx)
        w.u32(len(mod.dep.records))
        for rec in mod.dep.records:
            w.u32(rec.symbol)
            w.u32(rec.location)
            w.u32(rec.size)
            w.u32(len(rec.deps))
            for dep in rec.deps:
                w.u8(0 if dep.kind == "local" else 1)
                w.u32(dep.index)
    if mod.ir_text is not None:
        data = mod.ir_text.encode("utf-8")
        w.raw(IR_MAGIC)
        w.u32(len(data))
        w.raw(data)
    return bytes(w.buf)


def write_module(module: Module, code_image: CodeImage, dep_section: DepSection | None = None,
                 training: tuple[TrainingRecord, ...] = ()) -> bytes:
    return serialize(assemble(module, code_image, dep_section, training))


# ---------------------------------------------------------------------------
# reading


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int) -> bytes:
        if n < 0 or self.remaining() < n:
            raise TruncatedSection(f"need {n} bytes at offset {self.pos}, have {self.remaining()}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        n = self.u16()
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TruncatedSection(f"invalid utf-8 at offset {self.pos}") from exc

    def guard_count(self, count: int, min_size: int) -> int:
        if count * min_size > self.remaining():
            raise TruncatedSection(
                f"count {count} exceeds remaining {self.remaining()} bytes")
        return count


def read_module(data: bytes, legacy: bool = False) -> LoadedModule:
    """Parse a PWOF byte stream.  ``legacy=True`` mimics a reader that stops
    after the sections it understands, ignoring .dep and IR."""
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise BadMagic("not a PWOF stream")
    version = r.u16()
    if version != VERSION:
        raise BadMagic(f"unsupported PWOF version {version}")
    flags = r.u16()
    name = r.string()
    needed = tuple(r.string() for _ in range(r.guard_count(r.u16(), 2)))
    symbols = []
    for _ in range(r.guard_count(r.u32(), 12)):
        sname = r.string()
        binding = r.u8()
        defined = r.u8()
        value = r.u32()
        size = r.u32()
        if binding > BIND_WEAK or defined > DEF_DEFINED_ASM:
            raise TruncatedSection(f"bad symbol field values for {sname!r}")
        symbols.append(SymbolEntry(sname, binding, defined, value, size))
    symbols = tuple(symbols)
    code = r.take(r.u32())
    spans = []  # (start, end, name) of each defined symbol with code
    for sym in symbols:
        if sym.defined == DEF_UNDEFINED:
            if sym.value or sym.size:
                raise LayoutMismatch(f"undefined symbol {sym.name!r} has value/size")
        elif sym.value + sym.size > len(code):
            raise LayoutMismatch(f"symbol {sym.name!r} extends past the code image")
        elif sym.size:
            spans.append((sym.value, sym.value + sym.size, sym.name))
    # removing one function must not touch another's code; empty functions
    # legitimately share an offset
    spans.sort()
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        if start < end:
            raise LayoutMismatch(f"symbols {first!r} and {second!r} overlap")
    vtables = []
    for _ in range(r.guard_count(r.u16(), 4)):
        type_name = r.string()
        entries = tuple(r.u32() for _ in range(r.guard_count(r.u16(), 4)))
        for idx in entries:
            if idx >= len(symbols):
                raise IndexOutOfRange(f"vtable {type_name!r} entry index {idx}")
        vtables.append((type_name, entries))
    training = []
    for _ in range(r.guard_count(r.u16(), 5)):
        kind = r.u8()
        if kind > 1:
            raise TruncatedSection(f"bad training record kind {kind}")
        training.append(TrainingRecord("dlopen" if kind == 0 else "dlsym",
                                       r.string(), r.string()))
    dep = None
    if flags & FLAG_HAS_DEP and not legacy:
        dep = _read_dep(r, len(symbols))
    ir_text = None
    if flags & FLAG_HAS_IR and not legacy:
        if r.take(4) != IR_MAGIC:
            raise BadMagic("missing PWIR magic")
        try:
            ir_text = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TruncatedSection("invalid utf-8 in IR section") from exc
    return LoadedModule(
        name=name,
        is_executable=bool(flags & FLAG_EXECUTABLE),
        needed=needed,
        symbols=symbols,
        code=code,
        vtables=tuple(vtables),
        training=tuple(training),
        dep=dep,
        ir_text=ir_text,
    )


def _read_dep(r: _Reader, nsymbols: int) -> DepSection:
    if r.take(4) != DEP_MAGIC:
        raise BadMagic("missing PWDP magic")
    version = r.u16()
    if version != VERSION:
        raise BadMagic(f"unsupported .dep version {version}")
    strategy_code = r.u8()
    if strategy_code >= len(STRATEGIES):
        raise TruncatedSection(f"bad strategy code {strategy_code}")
    relocated = r.u8()
    if relocated > 1:
        raise TruncatedSection(f"bad relocated flag {relocated}")
    required = tuple(r.u32() for _ in range(r.guard_count(r.u32(), 4)))
    for idx in required:
        if idx >= nsymbols:
            raise IndexOutOfRange(f"required-global index {idx}")
    records = []
    for _ in range(r.guard_count(r.u32(), 16)):
        symbol = r.u32()
        location = r.u32()
        size = r.u32()
        if symbol >= nsymbols:
            raise IndexOutOfRange(f"dep record symbol index {symbol}")
        deps = []
        for _ in range(r.guard_count(r.u32(), 5)):
            kind = r.u8()
            if kind > 1:
                raise TruncatedSection(f"bad dep target kind {kind}")
            index = r.u32()
            if index >= nsymbols:
                raise IndexOutOfRange(f"dep target index {index}")
            deps.append(DepEntry("local" if kind == 0 else "import", index))
        records.append(DepRecord(symbol, location, size, tuple(deps)))
    return DepSection(STRATEGIES[strategy_code], bool(relocated), required, tuple(records))


# ---------------------------------------------------------------------------
# relocation


def relocate_dep(dep: DepSection, base: int) -> DepSection:
    """Add ``base`` to every record location, exactly once."""
    if dep.relocated:
        raise AlreadyRelocated("dep section already relocated")
    dep.records = tuple(replace(rec, location=rec.location + base) for rec in dep.records)
    dep.relocated = True
    return dep
