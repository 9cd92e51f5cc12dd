"""Textual mini-IR: module model, parser, printer and lowering to code images.

The IR is line oriented; ``;`` starts a comment.  A module looks like::

    module demo
    needed libone libtwo
    import memcpy
    global w = &stdout_write
    vtable Shape { area draw }
    func stdout_write strong local { ret }
    func close_file strong exported {
        p = w
        icall p
        ret
    }

Function flags: ``strong``/``weak``/``local`` (binding), ``exported``,
``asm``, ``entry``.  ``local`` also clears the exported flag; a function
with neither ``exported`` nor ``local`` defaults to a hidden strong symbol.

``index_module`` reads the directives and function headers in one pass and
leaves each body as a range of lines; ``parse_body`` parses one body.
``parse_module`` is both, for every function, followed by
``validate_module`` (``check_declarations`` plus ``check_function`` per
function), so a loader can parse only the bodies it needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import OperandOverflow, ParseError, UnresolvedName

INSTRUCTION_WIDTH = 4
TRAP_BYTE = 0x6D

# opcode table (normative for sizes, gadget scanning and removal)
OP_ADDR = 0x01
OP_COPY = 0x02
OP_LOAD = 0x03
OP_STORE = 0x04
OP_CALL = 0x05
OP_ICALL = 0x06
OP_RET = 0x07
OP_SYSCALL = 0x08
OP_SPADJ = 0x09
OP_IJMP = 0x0A
OP_NEW = 0x0B
OP_VCALL = 0x0D

OPCODES = {
    "addr_of": OP_ADDR,
    "copy": OP_COPY,
    "load": OP_LOAD,
    "store": OP_STORE,
    "call": OP_CALL,
    "icall": OP_ICALL,
    "ret": OP_RET,
    "syscall": OP_SYSCALL,
    "spadj": OP_SPADJ,
    "ijmp": OP_IJMP,
    "new_object": OP_NEW,
    "vcall": OP_VCALL,
}

STATEMENT_KINDS = frozenset(OPCODES)

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.$-]*$")


@dataclass(frozen=True)
class Statement:
    """One straight-line statement.

    Operand use by kind:
      addr_of     a=destination var, b=named target (function, import or global)
      copy        a=dst, b=src
      load        a=dst, b=pointer var   (a = *b)
      store       a=pointer var, b=src   (*a = b)
      call        a=target symbol
      icall/ijmp  a=var
      vcall       a=var, b=slot index (int)
      new_object  a=var, b=type name
      ret/syscall/spadj  no operands
    """

    kind: str
    a: str | None = None
    b: str | int | None = None


@dataclass(frozen=True)
class Function:
    name: str
    binding: str = "strong"  # strong | weak | local
    exported: bool = False
    is_asm: bool = False
    is_entry: bool = False
    body: tuple[Statement, ...] = ()


@dataclass(frozen=True)
class Global:
    name: str
    initializer: str | None = None  # function name whose address seeds the cell


@dataclass(frozen=True)
class VTable:
    type_name: str
    entries: tuple[str, ...] = ()


class _Declarations:
    """Lookups over the names a module declares, shared by a parsed
    ``Module`` and a ``ModuleIndex``."""

    def function_names(self) -> list[str]:
        return [fn.name for fn in self.functions]

    def global_names(self) -> set[str]:
        return {g.name for g in self.globals}

    def entry_function(self):
        for fn in self.functions:
            if fn.is_entry:
                return fn
        return None


@dataclass(frozen=True)
class Module(_Declarations):
    name: str
    needed: tuple[str, ...] = ()
    imports: tuple[str, ...] = ()
    globals: tuple[Global, ...] = ()
    vtables: tuple[VTable, ...] = ()
    functions: tuple[Function, ...] = ()
    is_executable: bool = False


class FunctionHeader(NamedTuple):
    """A ``func`` line's name and flags, and the lines its body spans:
    ``lines[start]`` is the ``func`` line, ``lines[stop - 1]`` the one
    that closes the body."""

    name: str
    binding: str
    exported: bool
    is_asm: bool
    is_entry: bool
    start: int
    stop: int


@dataclass(frozen=True)
class ModuleIndex(_Declarations):
    """A module's directives and function headers, each body left as
    unparsed source lines for ``parse_body``."""

    name: str
    needed: tuple[str, ...]
    imports: tuple[str, ...]
    globals: tuple[Global, ...]
    vtables: tuple[VTable, ...]
    functions: tuple[FunctionHeader, ...]
    is_executable: bool
    lines: list[str] = field(repr=False, compare=False)
    by_name: dict[str, FunctionHeader] = field(repr=False, compare=False)


@dataclass(frozen=True)
class CodeImage:
    data: bytes
    layout: dict[str, tuple[int, int]] = field(default_factory=dict)  # name -> (offset, size)


# ---------------------------------------------------------------------------
# parsing


def _check_name(token: str, lineno: int) -> str:
    if not _NAME_RE.match(token):
        raise ParseError(f"bad identifier {token!r}", lineno)
    return token


def _parse_statement(text: str, lineno: int) -> Statement:
    text = text.strip()
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParseError("empty statement", lineno)
    head = tokens[0]
    if head in ("ret", "syscall", "spadj") and len(tokens) == 1:
        return Statement(head)
    if head == "call" and len(tokens) == 2:
        return Statement("call", _check_name(tokens[1], lineno))
    if head == "icall" and len(tokens) == 2:
        return Statement("icall", _check_name(tokens[1], lineno))
    if head == "ijmp" and len(tokens) == 2:
        return Statement("ijmp", _check_name(tokens[1], lineno))
    if head == "vcall" and len(tokens) == 3:
        var = _check_name(tokens[1], lineno)
        if not tokens[2].isdecimal():  # exactly the digits int() accepts
            raise ParseError(f"vcall slot must be a non-negative integer, got {tokens[2]!r}", lineno)
        return Statement("vcall", var, int(tokens[2]))
    if head.startswith("*"):
        # *a = b
        m = re.match(r"^\*\s*(\S+)\s*=\s*(\S+)$", text)
        if not m:
            raise ParseError(f"malformed store {text!r}", lineno)
        return Statement("store", _check_name(m.group(1), lineno), _check_name(m.group(2), lineno))
    if "=" in text:
        lhs, _, rhs = text.partition("=")
        lhs = _check_name(lhs.strip(), lineno)
        rhs = rhs.strip()
        if rhs.startswith("&"):
            return Statement("addr_of", lhs, _check_name(rhs[1:].strip(), lineno))
        if rhs.startswith("*"):
            return Statement("load", lhs, _check_name(rhs[1:].strip(), lineno))
        if rhs.startswith("new "):
            return Statement("new_object", lhs, _check_name(rhs[4:].strip(), lineno))
        return Statement("copy", lhs, _check_name(rhs, lineno))
    raise ParseError(f"unknown statement {text!r}", lineno)


def _parse_func_header(tokens: list[str], lineno: int) -> tuple[str, str, bool, bool, bool]:
    """Name, binding, exported, asm and entry flags of a ``func`` line."""
    if len(tokens) < 2:
        raise ParseError("func needs a name", lineno)
    name = _check_name(tokens[1], lineno)
    binding = "strong"
    exported = False
    is_asm = False
    is_entry = False
    saw_binding = False
    for flag in tokens[2:]:
        if flag in ("strong", "weak"):
            binding = flag
            saw_binding = True
        elif flag == "local":
            exported = False
            if not saw_binding:
                binding = "local"
        elif flag == "exported":
            exported = True
        elif flag == "asm":
            is_asm = True
        elif flag == "entry":
            is_entry = True
        else:
            raise ParseError(f"unknown function flag {flag!r}", lineno)
    if binding == "local" and exported:
        raise ParseError(f"local-binding function {name!r} cannot be exported", lineno)
    return name, binding, exported, is_asm, is_entry


def index_module(text: str) -> ModuleIndex:
    """Parse every directive and function header of IR source in one pass
    over its lines.  A body is only delimited: it runs to the first line
    whose code ends with ``}``, and ``parse_body`` parses it.  Nothing is
    validated; see ``check_declarations``."""
    lines = text.splitlines()
    end = len(lines)
    name = None
    needed: list[str] = []
    imports: list[str] = []
    globals_: list[Global] = []
    vtables: list[VTable] = []
    functions: list[FunctionHeader] = []
    executable_header = False

    lineno = 0
    while lineno < end:
        line = lines[lineno].split(";", 1)[0].strip()
        lineno += 1  # the 1-based number of `line`, and the index of the next one
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "func":
            if "{" not in line:
                raise ParseError("expected '{' on func line", lineno)
            before, _, after = line.partition("{")
            header = _parse_func_header(before.split(), lineno)
            start = lineno - 1
            if not after.endswith("}"):
                for lineno in range(lineno, end):
                    raw = lines[lineno]
                    if "}" in raw and raw.split(";", 1)[0].rstrip().endswith("}"):
                        break
                else:
                    raise ParseError("unterminated function body", end)
                lineno += 1
            functions.append(FunctionHeader(*header, start, lineno))
            continue
        if head == "module":
            if len(tokens) not in (2, 3) or (len(tokens) == 3 and tokens[2] != "executable"):
                raise ParseError("expected 'module NAME [executable]'", lineno)
            if name is not None:
                raise ParseError("duplicate module header", lineno)
            name = _check_name(tokens[1], lineno)
            executable_header = len(tokens) == 3
            continue
        if head == "needed":
            needed.extend(_check_name(t, lineno) for t in tokens[1:])
            continue
        if head == "import":
            imports.extend(_check_name(t, lineno) for t in tokens[1:])
            continue
        if head == "global":
            m = re.match(r"^global\s+(\S+)(?:\s*=\s*&\s*(\S+))?$", line)
            if not m:
                raise ParseError(f"malformed global {line!r}", lineno)
            globals_.append(Global(_check_name(m.group(1), lineno),
                                   _check_name(m.group(2), lineno) if m.group(2) else None))
            continue
        if head == "vtable":
            m = re.match(r"^vtable\s+(\S+)\s*\{([^}]*)\}$", line)
            if not m:
                raise ParseError(f"malformed vtable {line!r}", lineno)
            entries = tuple(_check_name(t, lineno) for t in m.group(2).replace(",", " ").split())
            if not entries:
                raise ParseError("vtable entries must be non-empty", lineno)
            vtables.append(VTable(_check_name(m.group(1), lineno), entries))
            continue
        raise ParseError(f"unknown directive {head!r}", lineno)

    if name is None:
        raise ParseError("missing 'module NAME' header", 1)
    return ModuleIndex(
        name=name,
        needed=tuple(needed),
        imports=tuple(imports),
        globals=tuple(globals_),
        vtables=tuple(vtables),
        functions=tuple(functions),
        is_executable=executable_header or any(h.is_entry for h in functions),
        lines=lines,
        by_name={h.name: h for h in functions},
    )


def parse_body(index: ModuleIndex, header: FunctionHeader) -> Function:
    """Parse one function of an indexed module; its statements are not
    validated (see ``check_function``)."""
    start = header.start
    # each line's code without its comment; the body starts after the
    # first line's "{" and ends before the last line's "}"
    segments = [line.split(";", 1)[0] for line in index.lines[start:header.stop]]
    segments[0] = segments[0].partition("{")[2]
    segments[-1] = segments[-1].rstrip()[:-1]
    body = tuple([_parse_statement(segment, lineno)
                  for lineno, segment in enumerate(segments, start + 1) if segment.strip()])
    return Function(header.name, header.binding, header.exported, header.is_asm,
                    header.is_entry, body)


def parse_module(text: str) -> Module:
    """Parse IR source into a validated Module.  Every parse error is
    raised before any validation error."""
    index = index_module(text)
    module = Module(
        name=index.name,
        needed=index.needed,
        imports=index.imports,
        globals=index.globals,
        vtables=index.vtables,
        functions=tuple(parse_body(index, header) for header in index.functions),
        is_executable=index.is_executable,
    )
    validate_module(module)
    return module


def check_declarations(module: Module | ModuleIndex) -> tuple[set[str], set[str]]:
    """The module-level invariants: unique names, no exported local, and
    initialisers and vtable entries that name a function.  Returns the
    names a body may call and the globals it may take the address of,
    which ``check_function`` takes."""
    fnames = module.function_names()
    if len(set(fnames)) != len(fnames):
        raise UnresolvedName(f"duplicate function names in module {module.name!r}")
    gnames = [g.name for g in module.globals]
    if len(set(gnames)) != len(gnames):
        raise UnresolvedName(f"duplicate global names in module {module.name!r}")
    vnames = [v.type_name for v in module.vtables]
    if len(set(vnames)) != len(vnames):
        raise UnresolvedName(f"duplicate vtable type names in module {module.name!r}")

    callable_ = set(fnames) | set(module.imports)
    for g in module.globals:
        if g.initializer is not None and g.initializer not in callable_:
            raise UnresolvedName(
                f"global {g.name!r} initializer targets unknown function {g.initializer!r}")
    for vt in module.vtables:
        for entry in vt.entries:
            if entry not in callable_:
                raise UnresolvedName(
                    f"vtable {vt.type_name!r} entry {entry!r} is not a known function")
    for fn in module.functions:
        if fn.binding == "local" and fn.exported:
            raise UnresolvedName(f"local-binding function {fn.name!r} is exported")
    return callable_, set(gnames)


def check_function(fn: Function, callable_: set[str], globals_: set[str]) -> None:
    """The per-function invariants: an asm body holds only direct calls and
    ret, and every call and addr_of target is declared."""
    for st in fn.body:
        if fn.is_asm and st.kind not in ("call", "ret"):
            raise UnresolvedName(
                f"asm function {fn.name!r} may only contain direct calls and ret")
        if st.kind == "call" and st.a not in callable_:
            raise UnresolvedName(f"call target {st.a!r} in {fn.name!r} is undefined")
        if st.kind == "addr_of" and st.b not in callable_ and st.b not in globals_:
            raise UnresolvedName(f"addr_of target {st.b!r} in {fn.name!r} is undefined")


def validate_module(module: Module) -> None:
    """Enforce the Module invariants; raises UnresolvedName on dangling references."""
    callable_, globals_ = check_declarations(module)
    for fn in module.functions:
        check_function(fn, callable_, globals_)


# ---------------------------------------------------------------------------
# printing


def _print_statement(st: Statement) -> str:
    if st.kind in ("ret", "syscall", "spadj"):
        return st.kind
    if st.kind in ("call", "icall", "ijmp"):
        return f"{st.kind} {st.a}"
    if st.kind == "vcall":
        return f"vcall {st.a}, {st.b}"
    if st.kind == "addr_of":
        return f"{st.a} = &{st.b}"
    if st.kind == "copy":
        return f"{st.a} = {st.b}"
    if st.kind == "load":
        return f"{st.a} = *{st.b}"
    if st.kind == "store":
        return f"*{st.a} = {st.b}"
    if st.kind == "new_object":
        return f"{st.a} = new {st.b}"
    raise ValueError(st.kind)


def pretty_print(module: Module) -> str:
    out = [f"module {module.name}"]
    if module.needed:
        out.append("needed " + " ".join(module.needed))
    if module.imports:
        out.append("import " + " ".join(module.imports))
    for g in module.globals:
        out.append(f"global {g.name}" + (f" = &{g.initializer}" if g.initializer else ""))
    for vt in module.vtables:
        out.append(f"vtable {vt.type_name} {{ " + " ".join(vt.entries) + " }")
    for fn in module.functions:
        flags = [fn.binding]
        if fn.exported:
            flags.append("exported")
        if fn.is_asm:
            flags.append("asm")
        if fn.is_entry:
            flags.append("entry")
        out.append(f"func {fn.name} " + " ".join(flags) + " {")
        for st in fn.body:
            out.append("    " + _print_statement(st))
        out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# lowering


def operand_index(module: Module) -> dict[str, int]:
    """Deterministic operand index space: functions, then imports, then globals."""
    names = module.function_names() + list(module.imports) + [g.name for g in module.globals]
    return {n: i for i, n in enumerate(names)}


def lower_code(module: Module) -> CodeImage:
    """Lower every function to 4-byte instructions, laid out in declaration order."""
    index = operand_index(module)
    vindex = {vt.type_name: i for i, vt in enumerate(module.vtables)}
    blob = bytearray()
    layout: dict[str, tuple[int, int]] = {}
    for fn in module.functions:
        offset = len(blob)
        for st in fn.body:
            opcode = OPCODES[st.kind]
            if st.kind in ("addr_of",):
                operand = index[st.b]
            elif st.kind == "call":
                operand = index[st.a]
            elif st.kind == "new_object":
                if st.b not in vindex:
                    operand = 0
                else:
                    operand = vindex[st.b]
            elif st.kind == "vcall":
                operand = int(st.b)
            else:
                operand = 0
            if operand > 0xFFFF:
                raise OperandOverflow(f"operand index {operand} exceeds 65535 in {fn.name!r}")
            blob += bytes((opcode, operand & 0xFF, (operand >> 8) & 0xFF, 0))
        layout[fn.name] = (offset, len(blob) - offset)
    return CodeImage(bytes(blob), layout)
