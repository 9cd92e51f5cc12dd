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
``check_declarations`` and ``check_function`` per function, so a loader can
parse and check only the bodies it needs.

Each statement kind is one row of ``STATEMENTS``: opcode, text form and operand
roles, which parsing, printing, ``check_function`` and ``encode_statement`` read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InvalidModule, OperandOverflow, ParseError, UnknownType, UnresolvedName

INSTRUCTION_WIDTH = 4
TRAP_BYTE = 0x6D


class StatementForm(NamedTuple):
    """A statement kind's opcode, text (``{a}``/``{b}`` for the operands) and
    operand roles, with the u16 an instruction encodes for each: ``var`` a
    local or global variable (none); ``sym`` a called function or import and
    ``ref`` an address-taken global, function or import (``operand_index``);
    ``type`` a vtable type (its index); ``slot`` a vtable slot (itself)."""

    opcode: int
    text: str
    roles: tuple[str, ...]


# one row per statement kind; the opcodes are normative for sizes, gadget
# scanning and removal
STATEMENTS = {
    "addr_of": StatementForm(0x01, "{a} = &{b}", ("var", "ref")),
    "copy": StatementForm(0x02, "{a} = {b}", ("var", "var")),
    "load": StatementForm(0x03, "{a} = *{b}", ("var", "var")),
    "store": StatementForm(0x04, "*{a} = {b}", ("var", "var")),
    "call": StatementForm(0x05, "call {a}", ("sym",)),
    "icall": StatementForm(0x06, "icall {a}", ("var",)),
    "ret": StatementForm(0x07, "ret", ()),
    "syscall": StatementForm(0x08, "syscall", ()),
    "spadj": StatementForm(0x09, "spadj", ()),
    "ijmp": StatementForm(0x0A, "ijmp {a}", ("var",)),
    "new_object": StatementForm(0x0B, "{a} = new {b}", ("var", "type")),
    "vcall": StatementForm(0x0D, "vcall {a}, {b}", ("var", "slot")),
}

OPCODES = {kind: form.opcode for kind, form in STATEMENTS.items()}
# the opcodes by name, in the table's order
(OP_ADDR, OP_COPY, OP_LOAD, OP_STORE, OP_CALL, OP_ICALL, OP_RET, OP_SYSCALL, OP_SPADJ, OP_IJMP,
 OP_NEW, OP_VCALL) = OPCODES.values()

# kind -> opcode, and the position in a Statement and role of the one operand
# that is not a variable, which checks and encoding read (0, "var" if none)
_ENCODED = {kind: (form.opcode, *next(((i, role) for i, role in enumerate(form.roles, 1)
                                       if role != "var"), (0, "var")))
            for kind, form in STATEMENTS.items()}

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.$-]*$")
# the statement forms' words are no names: ``ret = x`` would read as a copy
_RESERVED = {word for form in STATEMENTS.values() for word in form.text.split()
             if _NAME_RE.match(word)}


class Statement(NamedTuple):
    """One straight-line statement; ``STATEMENTS[kind]`` gives its text and
    the role of each operand."""

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


@dataclass(frozen=True)
class CodeImage:
    data: bytes
    layout: dict[str, tuple[int, int]] = field(default_factory=dict)  # name -> (offset, size)


# ---------------------------------------------------------------------------
# parsing


def _check_name(token: str, lineno: int) -> str:
    if token in _RESERVED or not _NAME_RE.match(token):
        raise ParseError(f"bad identifier {token!r}", lineno)
    return token


def _check_slot(token: str, lineno: int) -> int:
    if not token.isdecimal():  # exactly the digits int() accepts
        raise ParseError(f"vcall slot must be a non-negative integer, got {token!r}", lineno)
    return int(token)


def _checks(form: StatementForm) -> tuple:
    return tuple(_check_slot if role == "slot" else _check_name for role in form.roles)


# keyword forms by their first token, as (kind, operand checks, token
# count); assignment forms as (kind, prefix of the left side, prefix of the
# right side, operand checks), copy last: its empty prefixes match every one
_KEYWORDS = {form.text.split()[0]: (kind, _checks(form), len(form.roles) + 1)
             for kind, form in STATEMENTS.items() if " = " not in form.text}
_ASSIGNMENTS = sorted(((kind, lhs.replace("{a}", ""), rhs.replace("{b}", ""), *_checks(form))
                       for kind, form in STATEMENTS.items() if " = " in form.text
                       for lhs, _, rhs in [form.text.partition(" = ")]),
                      key=lambda row: row[0] == "copy")


def _parse_statement(text: str, lineno: int) -> Statement:
    text = text.strip()
    tokens = text.replace(",", " ").split()
    keyword = _KEYWORDS.get(tokens[0]) if tokens else None
    if keyword is not None and len(tokens) == keyword[2]:
        kind, checks, count = keyword
        if count == 1:
            return Statement(kind)
        a = checks[0](tokens[1], lineno)
        if count == 2:
            return Statement(kind, a)
        return Statement(kind, a, checks[1](tokens[2], lineno))
    lhs, eq, rhs = text.partition("=")
    if eq:
        rhs = rhs.strip()
        for kind, lhs_prefix, rhs_prefix, check_a, check_b in _ASSIGNMENTS:
            if rhs.startswith(rhs_prefix) and lhs.startswith(lhs_prefix):
                return Statement(kind, check_a(lhs[len(lhs_prefix):].strip(), lineno),
                                 check_b(rhs[len(rhs_prefix):].strip(), lineno))
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
    """Parse IR source into a Module whose invariants hold: raises
    UnresolvedName on dangling references and UnknownType on ``new`` of a
    type without a vtable.  Every parse error is raised before any of those."""
    index = index_module(text)
    functions = tuple(parse_body(index, header) for header in index.functions)
    scope = check_declarations(index)
    for fn in functions:
        check_function(fn, *scope)
    return Module(
        name=index.name,
        needed=index.needed,
        imports=index.imports,
        globals=index.globals,
        vtables=index.vtables,
        functions=functions,
        is_executable=index.is_executable,
    )


def check_declarations(module: Module | ModuleIndex) -> tuple[set[str], set[str], set[str]]:
    """The module-level invariants: unique names, no exported local, at
    most one entry function, and initialisers and vtable entries that name
    a function.  Returns the names a body may call, the globals it may take
    the address of and the types it may instantiate, which
    ``check_function`` takes."""
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
    for name in gnames:
        if name in callable_:
            raise UnresolvedName(f"global {name!r} shares its name with a function or import")
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
    entries = [fn.name for fn in module.functions if fn.is_entry]
    if len(entries) > 1:
        raise InvalidModule(f"module {module.name!r} has more than one entry function: "
                            f"{', '.join(entries)}")
    return callable_, set(gnames), set(vnames)


def check_function(fn: Function, callable_: set[str], globals_: set[str],
                   types: set[str]) -> None:
    """The per-function invariants: an asm body holds only direct calls and
    ret, a ``sym`` operand is callable, a ``ref`` operand is callable or a
    global and a ``type`` operand has a vtable."""
    for st in fn.body:
        if fn.is_asm and st.kind not in ("call", "ret"):
            raise UnresolvedName(
                f"asm function {fn.name!r} may only contain direct calls and ret")
        _, position, role = _ENCODED[st.kind]
        if role == "sym" or role == "ref":
            name = st[position]
            if name not in callable_ and (role == "sym" or name not in globals_):
                raise UnresolvedName(f"{st.kind} target {name!r} in {fn.name!r} is undefined")
        elif role == "type" and st[position] not in types:
            raise UnknownType(f"{fn.name!r} instantiates {st[position]!r} which has no vtable")


# ---------------------------------------------------------------------------
# printing


# kind -> its text as a %-format ({a} precedes {b}) and the end of its operands
_PRINT = {kind: (form.text.format(a="%s", b="%s"), len(form.roles) + 1)
          for kind, form in STATEMENTS.items()}


def pretty_print(module: Module) -> str:
    # an entry function makes a module executable (``index_module``)
    executable = module.is_executable and module.entry_function() is None
    out = [f"module {module.name}" + (" executable" if executable else "")]
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
            text, stop = _PRINT[st.kind]
            out.append("    " + text % st[1:stop])
        out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# lowering


def symbol_index(module: Module | ModuleIndex) -> dict[str, int]:
    """The symbol index of each function, then each import, as
    ``pwof.build_symbols`` writes them; an import shadows a same-named function."""
    return {name: i for i, name in enumerate(module.function_names() + list(module.imports))}


def operand_index(module: Module | ModuleIndex) -> dict[str, int]:
    """``symbol_index``, then the globals after every symbol;
    ``check_declarations`` keeps a global from sharing a symbol's name."""
    index = symbol_index(module)
    first = len(module.functions) + len(module.imports)
    index.update((g.name, i) for i, g in enumerate(module.globals, first))
    return index


def encode_statement(st: Statement, index: dict[str, int], vindex: dict[str, int]) -> bytes:
    """The 4-byte instruction of ``st``: opcode, the u16 its operand's role gives
    (``index`` is an ``operand_index``, ``vindex`` a vtable type's position), zero."""
    opcode, position, role = _ENCODED[st.kind]
    if role == "var":
        operand = 0
    elif role == "slot":
        operand = st[position]
    elif role == "type":
        operand = vindex[st[position]]
    else:
        operand = index[st[position]]
    if operand > 0xFFFF:
        raise OperandOverflow(f"operand {operand} of {st} exceeds 65535")
    return bytes((opcode, operand & 0xFF, operand >> 8, 0))


def encode_body(fn: Function, index: dict[str, int], vindex: dict[str, int]) -> bytes:
    """The code of ``fn``: each statement's ``encode_statement``, in order."""
    return b"".join([encode_statement(st, index, vindex) for st in fn.body])


def lower_code(module: Module) -> CodeImage:
    """Lower every function to 4-byte instructions, laid out in declaration order."""
    index = operand_index(module)
    vindex = {vt.type_name: i for i, vt in enumerate(module.vtables)}
    blob = bytearray()
    layout: dict[str, tuple[int, int]] = {}
    for fn in module.functions:
        offset = len(blob)
        blob += encode_body(fn, index, vindex)
        layout[fn.name] = (offset, len(blob) - offset)
    return CodeImage(bytes(blob), layout)
