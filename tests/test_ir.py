import random

import pytest

from conftest import random_system
from piecewise import ir
from piecewise.errors import OperandOverflow, ParseError, UnresolvedName

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
    m = ir.parse_module(BASIC)
    assert ir.parse_module(ir.pretty_print(m)) == m


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
])
def test_validation_errors(src):
    with pytest.raises(UnresolvedName):
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
        "module a\nimport ext\nglobal g\n"
        "func f {\n    v = &ext\n    call f\n    syscall\n    ret\n}\n")
    image = ir.lower_code(m)
    assert image.layout["f"] == (0, 16)
    # operand index space is functions, then imports, then globals
    assert image.data[0:4] == bytes((ir.OP_ADDR, 1, 0, 0))     # &ext -> index 1
    assert image.data[4:8] == bytes((ir.OP_CALL, 0, 0, 0))     # call f -> index 0
    assert image.data[8:12] == bytes((ir.OP_SYSCALL, 0, 0, 0))
    assert image.data[12:16] == bytes((ir.OP_RET, 0, 0, 0))


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
