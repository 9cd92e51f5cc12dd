import random
import re

import pytest

from conftest import random_system
from piecewise import ir
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
    assert m.global_names() == {"w", "scratch"}
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
])
def test_validation_errors(src):
    with pytest.raises(UnresolvedName):
        ir.parse_module(src)


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
    index = ir.operand_index(m)
    vindex = {"T": 0}
    assert b"".join(ir.encode_statement(st, index, vindex) for st in body) == image.data
    assert b"".join(ir.encode_body(fn, index, vindex) for fn in m.functions) == image.data
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
