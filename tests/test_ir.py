import random
import re

import pytest

from conftest import compile_source, random_system
from piecewise import ir, pwof
from piecewise.errors import InvalidModule, OperandOverflow, ParseError, UnresolvedName

BASIC = """\
module demo
needed libone libtwo
import memcpy
global w = &stdout_write
global scratch
vtable Shape { area draw }
func stdout_write strong { ret }
func area strong exported { ret }
func draw weak exported {
    syscall
    ret
}
func close_file strong exported {
    p = w
    icall p
    ret
}
func build strong {
    o = new Shape
    vcall o, 1
    spadj
    ret
}
"""


def test_parse_basic_shape():
    m = ir.parse_module(BASIC)
    assert m.name == "demo"
    assert m.needed == ("libone", "libtwo")
    assert m.imports == ("memcpy",)
    assert [g.name for g in m.globals] == ["w", "scratch"]
    vtables = {vt.type_name: vt for vt in m.vtables}
    functions = {fn.name: fn for fn in m.functions}
    assert vtables["Shape"].entries == ("area", "draw")
    assert functions["draw"].binding == "weak"
    assert functions["close_file"].body[1] == ir.Statement("icall", "p")
    assert not m.is_executable


def test_entry_flag_makes_executable():
    m = ir.parse_module("module app\nfunc main strong entry { ret }\n")
    assert m.is_executable
    assert m.entry_function().name == "main"


def test_pretty_print_round_trip():
    # an executable without an entry function keeps its header flag
    for src in (BASIC, "module prog executable\nfunc main strong { ret }\n"):
        m = ir.parse_module(src)
        assert ir.parse_module(ir.pretty_print(m)) == m
    assert m.is_executable


def test_pretty_print_is_canonical():
    text = ir.pretty_print(ir.parse_module(BASIC))
    assert ir.pretty_print(ir.parse_module(text)) == text


def test_round_trip_on_generated_modules():
    for seed in range(25):
        system = random_system(random.Random(seed))
        for src in system.sources.values():
            m = ir.parse_module(src)
            assert ir.parse_module(ir.pretty_print(m)) == m


@pytest.mark.parametrize("src, fragment", [
    ("func f { ret }", "module"),
    ("module a\nmodule b", "duplicate"),
    ("module a\nfunc f {", "unterminated"),
    ("module a\nfunc f { frobnicate }", "unknown statement"),
    ("module a\nfunc f magic { ret }", "unknown function flag"),
    ("module a\nwibble x", "unknown directive"),
    ("module a\nvtable T { }", "non-empty"),
    ("module a\nfunc f { vcall v, x }", "slot"),
])
def test_parse_errors(src, fragment):
    with pytest.raises(ParseError, match=fragment):
        ir.parse_module(src)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        ir.parse_module("module a\nfunc f {\n    bogus!\n}\n")
    assert err.value.line == 3


@pytest.mark.parametrize("src", [
    *(f"module a\nfunc f {{\n    {st}\n    ret\n}}\n"
      for st in ("ret = x", "call = f", "new = x", "x = new")),
    "module a\nfunc call { ret }\n",
    "module a\nglobal new\n",
])
def test_statement_keywords_are_not_names(src):
    # as variables these would read as copies; as symbols they could not be called
    with pytest.raises(ParseError, match="bad identifier"):
        ir.parse_module(src)


def test_vcall_slot_outside_int_syntax_is_parse_error():
    # '²'.isdigit() is true, but int() rejects it
    with pytest.raises(ParseError, match="vcall slot") as err:
        ir.parse_module("module a\nfunc f {\n    o = p\n    vcall o, \u00b2\n    ret\n}\n")
    assert err.value.line == 4


@pytest.mark.parametrize("src", [
    "module a\nfunc f { ret }\nfunc f { ret }",        # duplicate function
    "module a\nglobal g = &nope\nfunc f { ret }",       # dangling initializer
    "module a\nvtable T { ghost }\nfunc f { ret }",     # dangling vtable entry
    "module a\nfunc f { call ghost\n ret }",            # dangling call
    "module a\nfunc f asm { v = &f\n ret }",            # asm with non-call body
    # a global named like a function or an import
    "module a\nglobal g\nfunc g { ret }\nfunc main entry {\n call g\n v = &g\n ret\n}",
    "module a\nimport g\nglobal g\nfunc f { ret }",
    "module a\nglobal g\nfunc f {\n call g\n ret\n}",  # a call whose target is only a global
    "module a\nglobal g\nglobal g\nfunc f { ret }",              # duplicate global
    "module a\nvtable T { f }\nvtable T { f }\nfunc f { ret }",  # duplicate vtable type
])
def test_validation_errors(src):
    with pytest.raises(UnresolvedName):
        ir.parse_module(src)


def test_local_flag_alone_gives_a_local_binding():
    [fn] = ir.parse_module("module a\nfunc f local { ret }\n").functions
    assert (fn.binding, fn.exported) == ("local", False)


def test_exported_local_is_a_parse_error_on_its_line():
    with pytest.raises(ParseError, match="local-binding function 'f' cannot be exported") as err:
        ir.parse_module("module a\nfunc g { ret }\nfunc f local exported { ret }\n")
    assert err.value.line == 3


def test_hand_built_exported_local_rejected():
    # the parser cannot produce it; a Module built in code can
    fn = ir.Function("f", binding="local", exported=True, body=(ir.Statement("ret"),))
    with pytest.raises(UnresolvedName, match="local-binding function 'f' is exported"):
        ir.check_declarations(ir.Module("a", functions=(fn,)))


def test_two_entry_flags_rejected():
    src = "module a\nfunc a strong entry { ret }\nfunc b strong entry {\n    syscall\n    ret\n}\n"
    with pytest.raises(InvalidModule, match="a, b"):
        ir.parse_module(src)


@pytest.mark.parametrize("src", [
    "module a\nfunc f { ret }\nfunc f {\n    bogus!\n}\n",     # and a duplicate function
    "module a\nfunc f { call ghost\n ret }\nfunc g { bogus! }",  # and an earlier dangling call
    "module a\nglobal g = &nope\nfunc f { bogus! }",            # and a dangling initializer
])
def test_parse_errors_precede_validation_errors(src):
    with pytest.raises(ParseError):
        ir.parse_module(src)


def _from_index(text):
    index = ir.index_module(text)
    return ir.Module(index.name, index.needed, index.imports, index.globals, index.vtables,
                     tuple(ir.parse_body(index, h) for h in index.functions),
                     index.is_executable)


def test_index_then_parse_body_matches_parse_module():
    texts = [BASIC, "; header\nmodule a\n\nfunc f { ; inline\n    ret ; after\n}\n",
             "module a\nfunc f { spadj\n    syscall\n    ret }\nfunc g {\n}\nfunc h { }\n"]
    for seed in range(40):
        texts += random_system(random.Random(seed)).sources.values()
    for text in texts:
        assert _from_index(text) == ir.parse_module(text)


# statement texts repeated across functions, bare and behind comments
_REPEATS = """\
module m
global g
func a strong {
    x = g
    call b
    ret
}
func b strong {
    x = g; the same text as in a
    call b; and again
    call b; and again
    ret
}
func c strong { ret
    x = g
    ret}
"""


def test_each_distinct_statement_text_is_parsed_once_per_module(monkeypatch):
    expected = _from_index(_REPEATS)
    calls = []
    parse = ir._parse_statement

    def counting(text, lineno):
        calls.append(text)
        return parse(text, lineno)
    monkeypatch.setattr(ir, "_parse_statement", counting)
    assert ir.parse_module(_REPEATS) == expected
    # " ret" opens c's body: another text than the indented "    ret"
    assert sorted(calls) == sorted(["    x = g", "    call b", "    ret", " ret"])
    # a fresh index parses each text again, once, in any body order;
    # parsing its bodies a second time parses nothing
    calls.clear()
    index = ir.index_module(_REPEATS)
    bodies = [ir.parse_body(index, h) for h in reversed(index.functions)]
    assert len(calls) == 4
    assert [ir.parse_body(index, h) for h in reversed(index.functions)] == bodies
    assert len(calls) == 4
    assert bodies[::-1] == list(expected.functions)


def test_a_bad_statement_fails_on_every_line_it_is_on():
    clean = "module m\nfunc a strong {\n    ret\n}\nfunc b strong {\n    spadj\n    ret\n}\n"
    bad = "module m\nfunc a strong {\n    frob x\n}\nfunc b strong {\n    spadj\n    frob x\n}\n"
    with pytest.raises(ParseError) as err:
        ir.parse_module(bad)
    assert err.value.line == 3
    mod = pwof.read_module(compile_source(clean))
    mod.ir_text = bad
    for name, line in (("b", 7), ("a", 3), ("b", 7)):
        with pytest.raises(ParseError) as err:
            mod.function(name)
        assert err.value.line == line, name


def test_comments_and_blank_lines_ignored():
    m = ir.parse_module("; header\nmodule a\n\nfunc f { ; inline\n    ret ; after\n}\n")
    assert m.functions[0].name == "f"
    assert m.functions[0].body == (ir.Statement("ret"),)


def test_lower_code_encoding():
    m = ir.parse_module(
        "module a\nimport ext\nglobal g\nvtable T { f }\n"
        "func f {\n    v = &ext\n    call f\n    syscall\n    ret\n}\n"
        "func h {\n    v = &g\n    w = v\n    x = *w\n    *w = x\n    call ext\n"
        "    icall v\n    spadj\n    o = new T\n    vcall o, 7\n"
        "    ijmp v\n    ret\n}\n")
    image = ir.lower_code(m)
    assert image.layout == {"f": (0, 16), "h": (16, 44)}
    # operand index space is functions, then imports, then globals; the
    # opcodes are pinned here as numbers
    assert [image.data[i:i + 4].hex() for i in range(0, len(image.data), 4)] == [
        "01020000",  # v = &ext: ext is index 2
        "05000000",  # call f: index 0
        "08000000",  # syscall
        "07000000",  # ret
        "01030000",  # v = &g: the global comes after every symbol
        "02000000",  # w = v
        "03000000",  # x = *w
        "04000000",  # *w = x
        "05020000",  # call ext
        "06000000",  # icall v
        "09000000",  # spadj
        "0b000000",  # o = new T: vtable 0
        "0d070000",  # vcall o, 7: the slot
        "0a000000",  # ijmp v
        "07000000",  # ret
    ]
    body = m.functions[0].body + m.functions[1].body
    assert {st.kind for st in body} == set(ir.STATEMENTS)
    scope = m.scope
    assert scope == ({"f": 0, "h": 1, "ext": 2, "g": 3}, {"T": 0}, 3)
    assert scope == ir.check_declarations(m)
    assert b"".join(ir.encode_statement(st, scope) for st in body) == image.data
    assert b"".join(ir.encode_body(fn, scope) for fn in m.functions) == image.data
    assert ir.parse_module(ir.pretty_print(m)) == m


def test_lower_code_layout_matches_declaration_order():
    m = ir.parse_module(
        "module a\nfunc one { ret }\nfunc two {\n    syscall\n    ret\n}\nfunc three { ret }\n")
    image = ir.lower_code(m)
    assert image.layout == {"one": (0, 4), "two": (4, 8), "three": (12, 4)}
    assert len(image.data) == 16


def test_lower_code_is_deterministic():
    m = ir.parse_module(BASIC)
    assert ir.lower_code(m) == ir.lower_code(m)


def test_operand_overflow():
    lines = ["module big"]
    for i in range(70000):
        lines.append(f"func f{i} {{ ret }}")
    lines.append("func user { v = &f69999\n ret }")
    with pytest.raises(OperandOverflow):
        ir.lower_code(ir.parse_module("\n".join(lines)))


def test_vcall_slot_encoded_as_operand():
    m = ir.parse_module(
        "module a\nvtable T { f }\nfunc f { ret }\n"
        "func g {\n    o = new T\n    vcall o, 3\n    ret\n}\n")
    image = ir.lower_code(m)
    offset, _ = image.layout["g"]
    assert image.data[offset + 4] == ir.OP_VCALL
    assert image.data[offset + 5] == 3


def _reference_parse_statement(text, lineno):
    """The statement parser as an if-chain per kind, kept as the reference
    that the table-driven ``ir._parse_statement`` must agree with."""
    text = text.strip()
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParseError("empty statement", lineno)
    head = tokens[0]
    if head in ("ret", "syscall", "spadj") and len(tokens) == 1:
        return ir.Statement(head)
    if head in ("call", "icall", "ijmp") and len(tokens) == 2:
        return ir.Statement(head, ir._check_name(tokens[1], lineno))
    if head == "vcall" and len(tokens) == 3:
        var = ir._check_name(tokens[1], lineno)
        if not tokens[2].isdecimal():
            raise ParseError(f"vcall slot must be a non-negative integer, got {tokens[2]!r}",
                             lineno)
        return ir.Statement("vcall", var, int(tokens[2]))
    if head.startswith("*"):
        m = re.match(r"^\*\s*(\S+)\s*=\s*(\S+)$", text)
        if not m:
            raise ParseError(f"malformed store {text!r}", lineno)
        return ir.Statement("store", ir._check_name(m.group(1), lineno),
                            ir._check_name(m.group(2), lineno))
    if "=" in text:
        lhs, _, rhs = text.partition("=")
        lhs = ir._check_name(lhs.strip(), lineno)
        rhs = rhs.strip()
        if rhs.startswith("&"):
            return ir.Statement("addr_of", lhs, ir._check_name(rhs[1:].strip(), lineno))
        if rhs.startswith("*"):
            return ir.Statement("load", lhs, ir._check_name(rhs[1:].strip(), lineno))
        if rhs.startswith("new "):
            return ir.Statement("new_object", lhs, ir._check_name(rhs[4:].strip(), lineno))
        return ir.Statement("copy", lhs, ir._check_name(rhs, lineno))
    raise ParseError(f"unknown statement {text!r}", lineno)


_PIECES = ("=", "*", "&", ",", "new ", "new", " ", "\t", "ret", "call", "icall", "ijmp", "vcall",
           "syscall", "spadj", "\u00b2", "3", "07", "x", "f001", "a b", "$", "-", ";", "")


def _outcome(parse, text):
    try:
        st = parse(text, 7)
    except ParseError as err:
        return type(err), err.line
    return st, type(st.b)


def test_parser_agrees_with_the_reference_on_mutated_statements():
    statements = {line.strip() for seed in range(10)
                  for src in random_system(random.Random(seed)).sources.values()
                  for line in src.splitlines()[1:]
                  if not line.startswith(("needed", "import", "global", "vtable", "func", "}"))}
    statements = sorted(statements) + ["o = new T", "vcall o, 3", "*p = v", "w = *p", "spadj"]
    rng = random.Random(12)
    accepted = 0
    for _ in range(12000):
        tokens = re.findall(r"\w+|\s+|.", rng.choice(statements))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(tokens) + 1)
            op = rng.randrange(3)
            if op == 0:
                tokens.insert(i, rng.choice(_PIECES))
            elif i < len(tokens):
                if op == 1:
                    del tokens[i]
                else:
                    tokens[i] = rng.choice(_PIECES)
        text = "".join(tokens)
        expected = _outcome(_reference_parse_statement, text)
        assert _outcome(ir._parse_statement, text) == expected, text
        accepted += expected[0] is not ParseError
    assert 1000 < accepted < 11000  # both outcomes are well exercised


def _accepts(check, token):
    try:
        return check(token, 1) == token
    except ParseError:
        return False


def test_check_name_accepts_exactly_the_name_pattern():
    # every ASCII token of up to two characters, and tokens the
    # isidentifier() shortcut or a "$" anchor could get wrong
    ascii_ = [chr(c) for c in range(128)]
    tokens = ascii_ + [a + b for a in ascii_ for b in ascii_] + [
        "abc\n", "abc\r", "ret", "call", "new", "f001", "a.b$c-d", "\u00e9t\u00e9", "a\u00e9",
        "x\u00b2", "\u0391", "_\u0661"]
    for token in tokens:
        assert _accepts(ir._check_name, token) == _accepts(_reference_check_name, token), token
    assert not _accepts(ir._check_name, "abc\n")
    assert sum(_accepts(ir._check_name, t) for t in tokens) > 3000


def _reference_check_name(token, lineno):
    if token in ir._RESERVED or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.$-]*", token):
        raise ParseError(f"bad identifier {token!r}", lineno)
    return token


def _reference_parse_func_header(tokens, lineno):
    if len(tokens) < 2:
        raise ParseError("func needs a name", lineno)
    name = _reference_check_name(tokens[1], lineno)
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


def _reference_index_module(text):
    """The indexer as one loop over every line, kept as the reference that
    ``ir.index_module`` must agree with."""
    lines = text.splitlines()
    end = len(lines)
    name = None
    needed, imports, globals_, vtables, functions = [], [], [], [], []
    executable_header = False
    lineno = 0
    while lineno < end:
        line = lines[lineno].split(";", 1)[0].strip()
        lineno += 1
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "func":
            if "{" not in line:
                raise ParseError("expected '{' on func line", lineno)
            before, _, after = line.partition("{")
            header = _reference_parse_func_header(before.split(), lineno)
            start = lineno - 1
            if not after.endswith("}"):
                for lineno in range(lineno, end):
                    raw = lines[lineno]
                    if "}" in raw and raw.split(";", 1)[0].rstrip().endswith("}"):
                        break
                else:
                    raise ParseError("unterminated function body", end)
                lineno += 1
            functions.append(ir.FunctionHeader(*header, start, lineno))
            continue
        if head == "module":
            if len(tokens) not in (2, 3) or (len(tokens) == 3 and tokens[2] != "executable"):
                raise ParseError("expected 'module NAME [executable]'", lineno)
            if name is not None:
                raise ParseError("duplicate module header", lineno)
            name = _reference_check_name(tokens[1], lineno)
            executable_header = len(tokens) == 3
            continue
        if head == "needed":
            needed.extend(_reference_check_name(t, lineno) for t in tokens[1:])
            continue
        if head == "import":
            imports.extend(_reference_check_name(t, lineno) for t in tokens[1:])
            continue
        if head == "global":
            m = re.match(r"^global\s+(\S+)(?:\s*=\s*&\s*(\S+))?$", line)
            if not m:
                raise ParseError(f"malformed global {line!r}", lineno)
            globals_.append(ir.Global(_reference_check_name(m.group(1), lineno),
                                      _reference_check_name(m.group(2), lineno)
                                      if m.group(2) else None))
            continue
        if head == "vtable":
            m = re.match(r"^vtable\s+(\S+)\s*\{([^}]*)\}$", line)
            if not m:
                raise ParseError(f"malformed vtable {line!r}", lineno)
            entries = tuple(_reference_check_name(t, lineno)
                            for t in m.group(2).replace(",", " ").split())
            if not entries:
                raise ParseError("vtable entries must be non-empty", lineno)
            vtables.append(ir.VTable(_reference_check_name(m.group(1), lineno), entries))
            continue
        raise ParseError(f"unknown directive {head!r}", lineno)
    if name is None:
        raise ParseError("missing 'module NAME' header", 1)
    return ir.ModuleIndex(name, tuple(needed), tuple(imports), tuple(globals_), tuple(vtables),
                          tuple(functions), executable_header or any(h.is_entry for h in functions),
                          lines)


def _reference_parse_body(index, header):
    """One body, line by line, with the if-chain statement parser."""
    start = header.start
    segments = [line.split(";", 1)[0] for line in index.lines[start:header.stop]]
    segments[0] = segments[0].partition("{")[2]
    segments[-1] = segments[-1].rstrip()[:-1]
    body = tuple(_reference_parse_statement(segment, lineno)
                 for lineno, segment in enumerate(segments, start + 1) if segment.strip())
    return ir.Function(header.name, header.binding, header.exported, header.is_asm,
                       header.is_entry, body)


def _module_outcome(index_module, parse_body, text):
    """The index, or its error with message and line; then each body, or its
    error's line (the reference statement parser words some errors otherwise)."""
    try:
        index = index_module(text)
    except ParseError as err:
        return ParseError, err.line, str(err)
    bodies = [_body_outcome(parse_body, index, header) for header in index.functions]
    # a fresh index, its bodies parsed in another order, gives each the same outcome
    fresh = index_module(text)
    order = list(range(len(fresh.functions)))
    random.Random(text).shuffle(order)
    shuffled = {i: _body_outcome(parse_body, fresh, fresh.functions[i]) for i in order}
    assert [shuffled[i] for i in range(len(order))] == bodies, text
    return index, bodies


def _body_outcome(parse_body, index, header):
    try:
        return parse_body(index, header)
    except ParseError as err:
        return ParseError, err.line


def _mutate_line(rng, line):
    """One line of IR source with one local change of spacing, comment, brace or flag."""
    op = rng.randrange(12)
    if op == 0:
        return line + rng.choice(("; }", " ; {", ";}", "; {}", "  ;; x } y"))
    if op == 1:
        return rng.choice(("\t", " ", "\u00a0", "\u3000")) + line
    if op == 2:
        return line + rng.choice(("\t", "\u00a0", " \t "))
    if op == 3:
        return line.replace(" ", rng.choice(("\t", "\u00a0", "  ", "\u2009")), rng.randint(1, 3))
    if op == 4:  # no "{" in the code
        return line.replace("{", rng.choice(("", "; {", ";{")), 1)
    if op == 5:
        return line.replace("func ", rng.choice(("func{", "func", "func\t", "func  {")), 1)
    if op == 6:
        flags = rng.choice(("strong", "weak", "local", "exported", "asm", "entry", "bogus",
                            "local exported", "exported local", "strong strong", "{"))
        return line.replace(" {", f" {flags} {{", 1)
    if op == 7:
        return line.replace("}", rng.choice(("} }", "}}", " } ", "};", "}\t")), 1)
    if op == 8:
        return line + rng.choice((" }", "}", " ret }", " {"))
    if op == 9:
        return line.replace(",", rng.choice((" ,", ",,", "")), 1)
    if op == 10:
        return line.replace(" = ", rng.choice(("=", " =", "= ", " = = ")), 1)
    return "; " + line


def _mutated_module(rng, text):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(lines))
        op = rng.randrange(7)
        if op == 0:  # a blank or whitespace-only line, or a comment line
            lines.insert(i, rng.choice(("", "   ", "\t", "\u00a0", "; } {", "  ; func f {")))
        elif op == 1 and lines[i].strip() == "}":  # delete a closing line
            del lines[i]
        elif op == 2 and i + 2 < len(lines) and lines[i].startswith("func") \
                and lines[i + 2] == "}":  # a one-statement body on one line
            lines[i:i + 3] = [f"{lines[i]} {lines[i + 1].strip()} }}"]
        elif op == 3 and i + 1 < len(lines) and lines[i].startswith("func"):
            # the first statement on the func line
            lines[i:i + 2] = [f"{lines[i]} {lines[i + 1].strip()}"]
        elif op == 4 and i + 1 < len(lines) and lines[i + 1] == "}":
            lines[i:i + 2] = [lines[i] + rng.choice((" }", "}", " } ; x"))]
        else:
            lines[i] = _mutate_line(rng, lines[i])
    separators = ["\n"] * 6 + ["\r\n", "\x85", "\u2028", "\x1c", "\r"]
    out = lines[0]
    for line in lines[1:]:
        out += rng.choice(separators) + line
    return out + rng.choice(("", "\n", "\u2028"))


def test_indexer_and_body_parser_agree_with_the_reference_on_mutated_modules():
    rng = random.Random(22)
    texts = [BASIC] + [src for seed in range(30)
                       for src in random_system(random.Random(seed)).sources.values()]
    accepted = rejected = 0
    for text in texts:
        for _ in range(30):
            mutant = _mutated_module(rng, text)
            expected = _module_outcome(_reference_index_module, _reference_parse_body, mutant)
            assert _module_outcome(ir.index_module, ir.parse_body, mutant) == expected, mutant
            rejected += expected[0] is ParseError
            accepted += expected[0] is not ParseError
    assert accepted > 1000 and rejected > 500, (accepted, rejected)
