import dataclasses
import hashlib
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from conftest import IMPORT_SHADOW_SRC, compile_source, dep_kind_offsets, random_system
from piecewise import depgraph, ir, loader, pwof
from piecewise.errors import (AlreadyRelocated, BadMagic, IndexOutOfRange, LayoutMismatch,
                              MalformedTrace, PiecewiseError, TruncatedSection, UnresolvedName,
                              UnresolvedSymbol)

SRC = """\
module widget executable
needed libbase
import helper
global hook = &on_event
vtable Plug { on_event helper }
func on_event strong exported { ret }
func stub weak exported asm {
    call on_event
    ret
}
func main strong entry {
    v = hook
    icall v
    call helper
    o = new Plug
    vcall o, 1
    syscall
    spadj
    ret
}
"""


def build(src=SRC, strategy="localized", training=()):
    module = ir.parse_module(src)
    image = ir.lower_code(module)
    dep = pwof.build_dep_section(module, image, depgraph.build_depgraph(module, strategy))
    return pwof.assemble(module, image, dep, tuple(training))


def test_round_trip_preserves_everything():
    mod = build(training=(pwof.TrainingRecord("dlopen", "plugin"),
                          pwof.TrainingRecord("dlsym", "plugin", "init")))
    data = pwof.serialize(mod)
    back = pwof.read_module(data)
    assert back.name == "widget"
    assert back.is_executable
    assert back.needed == ("libbase",)
    assert back.symbols == mod.symbols
    assert back.code == mod.code
    assert back.vtables == mod.vtables
    assert back.training == mod.training
    assert back.dep == mod.dep
    assert back.ir_text == mod.ir_text


def test_serialization_is_byte_stable():
    mod = build()
    data = pwof.serialize(mod)
    assert pwof.serialize(pwof.read_module(data)) == data


def test_round_trip_on_generated_systems():
    for seed in range(20):
        system = random_system(random.Random(seed))
        for name, src in system.sources.items():
            data = compile_source(src)
            assert pwof.serialize(pwof.read_module(data)) == data, (seed, name)


def test_symbol_table_contents():
    mod = build()
    by_name = {s.name: s for s in mod.symbols}
    assert by_name["on_event"].binding == pwof.BIND_STRONG
    assert by_name["stub"].binding == pwof.BIND_WEAK
    assert by_name["stub"].defined == pwof.DEF_DEFINED_ASM
    assert by_name["main"].binding == pwof.BIND_LOCAL
    assert by_name["helper"].defined == pwof.DEF_UNDEFINED
    assert by_name["helper"].value == 0 and by_name["helper"].size == 0


def test_dep_section_covers_every_defined_function():
    mod = build()
    assert set(mod.dep.records) == {mod.symbol_index(s.name) for s in mod.defined_symbols()}
    main = mod.dep.records[mod.symbol_index("main")]
    dep_names = {mod.symbols[d].name for d in main.deps}
    assert dep_names == {"on_event", "helper"}


@pytest.mark.parametrize("strategy", depgraph.STRATEGIES)
def test_record_lists_imports_before_locals(strategy):
    data = compile_source(IMPORT_SHADOW_SRC, strategy)
    mod = pwof.read_module(data)
    deps = mod.dep.records[mod.symbol_index("g")].deps
    # the import f, not the function f: an import shadows a same-named function
    assert deps == (4, 5, 3)
    assert [mod.symbols[i][:3] for i in deps] == [
        ("memcpy", pwof.BIND_LOCAL, pwof.DEF_UNDEFINED), ("f", pwof.BIND_LOCAL, pwof.DEF_UNDEFINED),
        ("h", pwof.BIND_LOCAL, pwof.DEF_DEFINED)]
    # kind bytes in wire order: stub's h, then g's memcpy, f and h
    assert [data[at] for at in dep_kind_offsets(data)] == [0, 1, 1, 0]


def test_legacy_reader_ignores_trailing_sections():
    # with the has-dep and has-ir flags (header bytes 6-7) cleared, the
    # reader stops after the sections before them, as an older reader does
    data = pwof.serialize(build())
    flags = int.from_bytes(data[6:8], "little")
    assert flags & pwof.FLAG_HAS_DEP and flags & pwof.FLAG_HAS_IR
    flags &= ~(pwof.FLAG_HAS_DEP | pwof.FLAG_HAS_IR)
    legacy = pwof.read_module(data[:6] + flags.to_bytes(2, "little") + data[8:])
    full = pwof.read_module(data)
    assert legacy.dep is None
    assert legacy.ir_text is None
    assert legacy.code == full.code
    assert legacy.symbols == full.symbols


# SHA-256 of the serialized SRC module; a round trip cannot see a change made
# to writer and reader alike (a swapped field order, say), these can
GOLDEN = {
    "full_module": "8acc936a9f78bed0b5b9a502c359b85bf5257ca61d5651f9e7ee8c8f92b1b55a",
    "localized": "2700e8ffd3afe6921e386c378b6ab7c885457a829da6805c24d43918c7415ab3",
    "pta": "31ee268755072662713eb1e1846bbab82c4c49f992f8e56798283935e498daa0",
    "relocated": "fdc3f2ebe7aef86ffea7b92631716618b265ab10c73619e0275ecd7562810e43",
    "no_dep": "c9887366a6eee65ea650ce85042ec89f4503db52cd3cdd4ea9a0047166d64cd6",
}


def test_wire_format_is_pinned():
    training = (pwof.TrainingRecord("dlopen", "plugin"),
                pwof.TrainingRecord("dlsym", "plugin", "init"))
    forms = {s: build(strategy=s, training=training) for s in depgraph.STRATEGIES}
    forms["relocated"] = build()
    pwof.relocate_dep(forms["relocated"].dep, 0x4000)
    forms["no_dep"] = build()
    forms["no_dep"].dep = None
    hashes = {name: hashlib.sha256(pwof.serialize(mod)).hexdigest()
              for name, mod in forms.items()}
    assert hashes == GOLDEN


def test_compile_output_is_pinned():
    # every container compiled from random systems 0-49 under each strategy,
    # in one hash: compile may get faster, but its bytes stay these
    h = hashlib.sha256()
    for seed in range(50):
        system = random_system(random.Random(seed))
        for strategy in depgraph.STRATEGIES:
            for _, blob in sorted(system.resolver(strategy).modules.items()):
                h.update(blob)
    assert h.hexdigest() == "224a5485af0cd0987dd8ec6cba5095eea782e4a0f3d8e0bb03c9d7b551c37193"


LIB_AB = "module lib\nfunc a strong exported {\n    call b\n    ret\n}\nfunc b strong { ret }\n"


def test_second_dep_record_for_a_symbol_rejected():
    mod = pwof.read_module(compile_source(LIB_AB))
    real = mod.dep.records[mod.symbol_index("a")]
    assert [mod.symbols[d].name for d in real.deps] == ["b"]
    # an empty record placed first would hide a's edge to b from retention; a
    # decoded section holds one record per symbol, so it goes into the bytes,
    # before a's own record, which is the first (the IR text holds no NUL bytes)
    data = pwof.serialize(mod)
    head = pwof.RECORD_HEAD.pack(real.symbol, real.location, real.size)
    at = data.rindex(head)
    count = at - pwof.U32.size
    assert data[count:at] == pwof.U32.pack(len(mod.dep.records))
    duplicated = (data[:count] + pwof.U32.pack(len(mod.dep.records) + 1)
                  + head + pwof.U32.pack(0) + data[at:])
    with pytest.raises(LayoutMismatch):
        pwof.read_module(duplicated)


@pytest.mark.parametrize("other, fragment", [
    ("module m\nfunc f { ret }\n", "layout lacks function 'g'"),
    ("module m\nfunc f {\n    syscall\n    ret\n}\nfunc g { ret }\n",
     "size of 'f' disagrees with statement count"),
    ("module m\nfunc f { ret }\nfunc g { ret }\nfunc h { ret }\n",
     "layout and function list disagree"),
])
def test_write_module_rejects_a_code_image_of_another_module(other, fragment):
    module = ir.parse_module("module m\nfunc f { ret }\nfunc g { ret }\n")
    with pytest.raises(LayoutMismatch, match=fragment):
        pwof.write_module(module, ir.lower_code(ir.parse_module(other)))


def test_dep_kind_contradicting_its_target_rejected():
    mod = build()
    data = pwof.serialize(mod)
    offsets = dep_kind_offsets(data)
    assert len(offsets) == sum(len(rec.deps) for rec in mod.dep.records.values())
    assert {data[at] for at in offsets} == {0, 1}  # both local and import entries
    for at in offsets:
        flipped = data[:at] + bytes([1 - data[at]]) + data[at + 1:]
        with pytest.raises(LayoutMismatch):
            pwof.read_module(flipped)
        with pytest.raises(TruncatedSection):
            pwof.read_module(data[:at] + b"\x02" + data[at + 1:])


def test_record_types_are_immutable_hashable_and_ordered():
    sym = pwof.SymbolEntry("f", pwof.BIND_STRONG, pwof.DEF_DEFINED, 8, 4)
    rec = pwof.DepRecord(0, 8, 4, (1,))
    for record, field in ((sym, "value"), (rec, "location")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert hash(sym) == hash(sym._replace(size=4))
    assert hash(rec) == hash(pwof.DepRecord(0, 8, 4, (1,)))
    assert sorted([rec, pwof.DepRecord(0, 4, 4), rec._replace(deps=(0, 2))]) == \
        [pwof.DepRecord(0, 4, 4), rec._replace(deps=(0, 2)), rec]
    # a decoded record is a tuple: it equals the plain tuple of its fields
    assert rec == (0, 8, 4, (1,))


def test_bad_magic():
    with pytest.raises(BadMagic):
        pwof.read_module(b"ELF\x7f" + b"\x00" * 64)
    with pytest.raises(BadMagic):
        pwof.read_module(b"PWOF\x09\x00" + b"\x00" * 16)  # bad version


def test_truncation_raises_not_crashes():
    data = pwof.serialize(build())
    for cut in range(0, len(data), 7):
        with pytest.raises(PiecewiseError):
            pwof.read_module(data[:cut])


def test_every_prefix_raises_truncated_section():
    training = (pwof.TrainingRecord("dlopen", "plugin"),
                pwof.TrainingRecord("dlsym", "plugin", "init"))
    mods = [build(strategy=s, training=training) for s in depgraph.STRATEGIES]
    for seed in range(3):
        system = random_system(random.Random(seed))
        for strategy in depgraph.STRATEGIES:
            mods += map(pwof.read_module, system.resolver(strategy).modules.values())
    # every section is present in some container, so every cut is tried
    assert all(m.dep is not None and m.ir_text is not None for m in mods)
    assert any(m.vtables for m in mods) and any(m.training for m in mods)
    for mod in mods:
        data = pwof.serialize(mod)
        for cut in range(len(data)):
            try:
                pwof.read_module(data[:cut])
            except TruncatedSection:
                continue
            pytest.fail(f"{mod.name}: prefix of {cut} bytes accepted")


def test_record_index_checked_before_its_dep_count():
    data = pwof.serialize(build())
    mod = pwof.read_module(data)
    *_, last = mod.dep.records.values()
    # the last match is the last record's head: the IR text holds no NUL bytes
    head = data.rindex(pwof.RECORD_HEAD.pack(last.symbol, last.location, last.size))
    bad = data[:head] + pwof.RECORD_HEAD.pack(len(mod.symbols), last.location, last.size)
    for cut in range(len(bad), len(bad) + 4):  # the u32 dep count cut short
        with pytest.raises(IndexOutOfRange):
            pwof.read_module(bad + data[len(bad):cut])


def test_relocation_exactly_once():
    mod = pwof.read_module(pwof.serialize(build()))
    before = [rec.location for rec in mod.dep.records.values()]
    pwof.relocate_dep(mod.dep, 0x4000)
    assert [rec.location for rec in mod.dep.records.values()] == [b + 0x4000 for b in before]
    assert mod.dep.relocated
    with pytest.raises(AlreadyRelocated):
        pwof.relocate_dep(mod.dep, 0x4000)


def test_relocated_flag_survives_round_trip():
    mod = pwof.read_module(pwof.serialize(build()))
    pwof.relocate_dep(mod.dep, 0x1000)
    back = pwof.read_module(pwof.serialize(mod))
    assert back.dep.relocated
    with pytest.raises(AlreadyRelocated):
        pwof.relocate_dep(back.dep, 0x1000)


def test_training_validation():
    with pytest.raises(MalformedTrace):
        pwof.validate_training([pwof.TrainingRecord("dlsym", "plugin", "init")])
    pwof.validate_training([pwof.TrainingRecord("dlopen", "plugin"),
                            pwof.TrainingRecord("dlsym", "plugin", "init")])
    with pytest.raises(MalformedTrace):
        pwof.validate_training([pwof.TrainingRecord("dlwhat", "plugin")])


def _expect_error_only(blob):
    try:
        pwof.read_module(bytes(blob))
    except PiecewiseError:
        pass  # anything in the library's hierarchy is acceptable


def test_fuzz_random_bytes():
    rng = random.Random(7)
    for _ in range(300):
        _expect_error_only(bytes(rng.randrange(256) for _ in range(rng.randrange(200))))


def test_fuzz_mutated_valid_stream():
    data = bytearray(pwof.serialize(build()))
    rng = random.Random(8)
    for _ in range(500):
        blob = bytearray(data)
        for _ in range(rng.randrange(1, 6)):
            blob[rng.randrange(len(blob))] = rng.randrange(256)
        _expect_error_only(blob)


@given(st.binary(max_size=300))
@settings(max_examples=200, deadline=None)
def test_fuzz_hypothesis(blob):
    _expect_error_only(b"PWOF" + blob)


def test_module_accessor_parses_embedded_ir():
    mod = pwof.read_module(pwof.serialize(build()))
    index = mod.ir_index
    assert index.name == "widget"
    assert index.entry_function().name == "main"
    assert index is mod.ir_index  # cached
    parsed = {fn.name: fn for fn in ir.parse_module(SRC).functions}
    for name in ("on_event", "stub", "main"):
        assert mod.function(name) == parsed[name]
    assert mod.function("main") is mod.function("main")  # parsed once
    assert mod.function("ghost") is None


@pytest.mark.parametrize("strategy", depgraph.STRATEGIES)
def test_compile_and_load_agree_on_the_numbering(strategy):
    for seed in range(30):
        system = random_system(random.Random(seed))
        for name, src in system.sources.items():
            loaded = pwof.read_module(compile_source(src, strategy))
            assert loaded.ir_index.scope == ir.parse_module(src).scope, (seed, name)


def test_replaced_module_numbers_itself():
    module = ir.parse_module(SRC)
    assert module.scope.operands["main"] == 2
    twin = dataclasses.replace(module, functions=module.functions + (ir.Function("main"),))
    with pytest.raises(UnresolvedName, match="duplicate function names"):
        ir.lower_code(twin)
    assert ir.lower_code(module).data  # the original keeps its numbering


def _count_numberings(monkeypatch) -> list:
    calls = []
    real = ir.check_declarations

    def counting(module):
        calls.append(module.name)
        return real(module)

    monkeypatch.setattr(ir, "check_declarations", counting)
    return calls


def test_compile_numbers_a_module_once(monkeypatch):
    calls = _count_numberings(monkeypatch)
    module = ir.parse_module(SRC)
    image = ir.lower_code(module)
    graphs = [depgraph.build_depgraph(module, strategy) for strategy in depgraph.STRATEGIES]
    dep = pwof.build_dep_section(module, image, graphs[-1])
    pwof.write_module(module, image, dep)
    assert calls == ["widget"]


def test_load_numbers_a_module_once(monkeypatch):
    blob = pwof.serialize(build(strategy="pta"))
    calls = _count_numberings(monkeypatch)
    mod = pwof.read_module(blob)
    mod.ir_index
    assert all(mod.function(s.name) is not None for s in mod.defined_symbols())
    assert calls == ["widget"]


def test_symbol_defined_twice_rejected():
    data = compile_source("module lib\nfunc fa strong exported { ret }\n"
                          "func fb strong exported { ret }\n")
    # symbol names are written as u16 length + utf-8; the IR text is not
    assert data.count(b"\x02\x00fb") == 1
    with pytest.raises(LayoutMismatch):
        pwof.read_module(data.replace(b"\x02\x00fb", b"\x02\x00fa"))


def test_definition_after_an_import_rejected():
    src = ("module lib\nimport memcpy\nfunc a strong exported {\n    call memcpy\n    ret\n}\n"
           "func b strong { ret }\n")
    mod = pwof.read_module(compile_source(src, with_dep=False))
    a, b, memcpy = mod.symbols
    # `call memcpy` encodes symbol 2, which names b once the import moves first
    assert mod.code[:3] == bytes((ir.OP_CALL, 2, 0))
    mod.symbols = (memcpy, a, b)
    with pytest.raises(LayoutMismatch, match="defines 'a' after an import"):
        pwof.read_module(pwof.serialize(mod))


def test_function_header_found_by_symbol_index():
    mod = pwof.read_module(compile_source(IMPORT_SHADOW_SRC))
    parsed = ir.parse_module(IMPORT_SHADOW_SRC)
    assert [mod.function(s.name) for s in mod.defined_symbols()] == list(parsed.functions)
    # f is both defined and imported: its definition is the function
    assert mod.function("f") == parsed.functions[0]
    assert mod.function("memcpy") is None
    # the name index holds definitions only: an import is reached through
    # its binding, never through a symbol index the compiler does not encode
    assert mod.symbol("memcpy") is None and mod.symbol_index("memcpy") is None
    assert mod.symbol("f") == mod.symbols[0] and mod.symbols[0].defined == pwof.DEF_DEFINED
    resolver = loader.MemoryResolver({"tags": compile_source(IMPORT_SHADOW_SRC)})
    image = loader.preload("tags", resolver)
    image.bindings = {}
    assert image.target("tags", "f") == ("tags", "f")
    for name in ("memcpy", "ghost"):  # an unbound import; a name it neither defines nor imports
        with pytest.raises(UnresolvedSymbol, match=name):
            image.target("tags", name)


def test_vtable_section_disagreeing_with_the_ir_rejected_at_index():
    src = ("module lib\nimport memcpy\nvtable Shape { area draw }\n"
           "func area strong exported { ret }\nfunc draw strong exported { ret }\n")
    mod = pwof.read_module(compile_source(src))
    assert mod.vtables == (("Shape", (0, 1)),)
    # a `new Shape` operand names the section's table, the interpreter the IR's
    mod.vtables = (("Shape", (2, 2)),)
    loaded = pwof.read_module(pwof.serialize(mod))
    with pytest.raises(LayoutMismatch, match="IR and vtable section differ"):
        loaded.ir_index


def test_overlapping_symbols_rejected():
    # an empty function shares its offset with the next one: legal
    data = compile_source("module lib\nfunc e strong { }\n"
                          "func a strong exported {\n    syscall\n    ret\n}\n"
                          "func b strong { ret }\n")
    mod = pwof.read_module(data)
    e, a, b = (mod.symbol(name) for name in ("e", "a", "b"))
    assert e.size == 0 and e.value == a.value
    # dead b starting inside live a would have its trap bytes written over a
    mod.symbols = (e, a, b._replace(value=a.value))
    with pytest.raises(LayoutMismatch):
        pwof.read_module(pwof.serialize(mod))
    # a symbol that starts or ends inside an instruction: entering a at byte
    # 1 would decode an operand, and a trap byte there would mean removal
    for bad_a in (a._replace(value=a.value + 1, size=a.size - 1), a._replace(size=a.size - 2)):
        mod.symbols = (e, bad_a, b)
        with pytest.raises(LayoutMismatch, match="'a' is not instruction-aligned"):
            pwof.read_module(pwof.serialize(mod))
    # code that is not whole instructions
    mod.symbols = (e, a, b)
    mod.code += bytes([ir.OP_RET])
    with pytest.raises(LayoutMismatch, match="code length 13"):
        pwof.read_module(pwof.serialize(mod))


def test_global_named_like_a_symbol_rejected_at_index():
    mod = pwof.read_module(compile_source(LIB_AB))
    # for `&b` the interpreter would take the cell, depgraph the function b
    mod.ir_text = mod.ir_text.replace("module lib\n", "module lib\nglobal b\n")
    loaded = pwof.read_module(pwof.serialize(mod))
    with pytest.raises(UnresolvedName, match="global 'b'"):
        loaded.ir_index


@pytest.mark.parametrize("opcode", (ir.TRAP_BYTE, 0x00, 0x0C, 0xFF))
def test_instruction_with_an_unknown_opcode_rejected(opcode):
    prog = compile_source("module prog executable\nneeded lib\nimport a\n"
                          "func main strong entry {\n    call a\n    ret\n}\n")
    mod = pwof.read_module(compile_source(LIB_AB))
    a = mod.symbol("a")
    # a retained function that starts with the loader's trap byte would trap
    # in debloated replay although retention kept it
    code = bytearray(mod.code)
    code[a.value] = opcode
    # an operand byte may hold any value
    code[a.value + 1] = ir.TRAP_BYTE
    mod.code = bytes(code)
    blob = pwof.serialize(mod)
    with pytest.raises(LayoutMismatch, match=f"instruction {a.value // 4} has unknown opcode"):
        pwof.read_module(blob)
    with pytest.raises(LayoutMismatch):
        loader.load_and_debloat("prog", loader.MemoryResolver({"prog": prog, "lib": blob}))
    code[a.value] = ir.OP_CALL
    mod.code = bytes(code)
    assert pwof.read_module(pwof.serialize(mod)).code == mod.code


LAYOUT_SRC = ("module lib\nimport memcpy\nvtable Shape { a b }\nfunc e strong { }\n"
              "func a strong exported {\n    syscall\n    call memcpy\n    ret\n}\n"
              "func b strong { ret }\n")


def _layout_faults(mod):
    """Each class of bad layout: the fields that carry it and the error it meets."""
    e, a, b, memcpy = mod.symbols
    bad_opcode = bytes([0xFF]) + mod.code[1:]
    return {
        "overlap": (dict(symbols=(e, a, b._replace(value=a.value), memcpy)),
                    LayoutMismatch, "overlap"),
        "off-grid": (dict(symbols=(e, a._replace(value=a.value + 1, size=a.size - 1), b, memcpy)),
                     LayoutMismatch, "'a' is not instruction-aligned"),
        "past-the-code": (dict(symbols=(e, a, b._replace(size=b.size + 4), memcpy)),
                          LayoutMismatch, "'b' extends past the code image"),
        "import-with-value": (dict(symbols=(e, a, b, memcpy._replace(value=4))),
                              LayoutMismatch, "undefined symbol 'memcpy' has value/size"),
        "code-length": (dict(code=mod.code + bytes([ir.OP_RET])),
                        LayoutMismatch, f"code length {len(mod.code) + 1}"),
        "unknown-opcode": (dict(code=bad_opcode),
                           LayoutMismatch, "instruction 0 has unknown opcode"),
        "vtable-index": (dict(vtables=(("Shape", (1, 99)),)),
                         IndexOutOfRange, "vtable 'Shape' entry index 99"),
    }


@pytest.mark.parametrize("fault", _layout_faults(pwof.read_module(compile_source(LAYOUT_SRC))))
def test_layout_checked_wherever_a_module_is_built(fault):
    mod = pwof.read_module(compile_source(LAYOUT_SRC))
    changes, error, message = _layout_faults(mod)[fault]
    with pytest.raises(error, match=message) as built:
        dataclasses.replace(mod, **changes)
    # the same fields set after the module is built, written and read back
    for name, value in changes.items():
        setattr(mod, name, value)
    with pytest.raises(error, match=message) as read:
        pwof.read_module(pwof.serialize(mod))
    assert str(read.value) == str(built.value)


# ---------------------------------------------------------------------------
# reader oracle: a plain decoder, one unpack per fixed-width part and every
# check made as its field is read, with the errors of the reader it mirrors


def _reference_read_module(data: bytes, marks: dict | None = None) -> pwof.LoadedModule:
    """``read_module`` as a field-by-field walk; ``marks`` receives the
    start and end offsets of the symbol table and of the ``.dep``."""
    try:
        return _reference_decode(data, {} if marks is None else marks)
    except struct.error as exc:
        raise TruncatedSection(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise TruncatedSection(f"invalid utf-8: {exc}") from None


def _reference_decode(data: bytes, marks: dict) -> pwof.LoadedModule:
    pos = 0

    def unpack(layout):
        nonlocal pos
        fields = layout.unpack_from(data, pos)
        pos += layout.size
        return fields

    def take(n):
        nonlocal pos
        if pos + n > len(data):
            raise TruncatedSection(f"need {n} bytes at offset {pos}, have {len(data) - pos}")
        pos += n
        return data[pos - n:pos]

    def string():
        return take(unpack(pwof.U16)[0]).decode("utf-8")

    def count(layout, min_size):
        (n,) = unpack(layout)
        if n * min_size > len(data) - pos:
            raise TruncatedSection(f"count {n} exceeds remaining {len(data) - pos} bytes")
        return n

    magic, version, flags = unpack(pwof.HEADER)
    if magic != pwof.MAGIC:
        raise BadMagic("not a PWOF stream")
    if version != pwof.VERSION:
        raise BadMagic(f"unsupported PWOF version {version}")
    name = string()
    needed = tuple(string() for _ in range(count(pwof.U16, 2)))
    marks["symbols"] = pos
    symbols = []
    for _ in range(count(pwof.U32, 12)):
        (length,) = unpack(pwof.U16)
        # the name's bytes as far as the stream reaches; the tail after a
        # name cut short then fails to unpack
        sname = data[pos:pos + length].decode("utf-8")
        pos += length
        binding, defined, value, size = unpack(pwof.SYMBOL_TAIL)
        if binding > pwof.BIND_WEAK or defined > pwof.DEF_DEFINED_ASM:
            raise TruncatedSection(f"bad symbol field values for {sname!r}")
        symbols.append(pwof.SymbolEntry(sname, binding, defined, value, size))
    marks["code"] = pos
    code = take(unpack(pwof.U32)[0])
    vtables = []
    for _ in range(count(pwof.U16, 4)):
        type_name = string()
        entries = tuple(unpack(pwof.U32)[0] for _ in range(count(pwof.U16, 4)))
        vtables.append((type_name, entries))
    training = []
    for _ in range(count(pwof.U16, 5)):
        (kind,) = unpack(pwof.TRAINING_KIND)
        if kind > 1:
            raise TruncatedSection(f"bad training record kind {kind}")
        module = string()
        training.append(pwof.TrainingRecord("dlopen" if kind == 0 else "dlsym", module, string()))
    dep = None
    if flags & pwof.FLAG_HAS_DEP:
        marks["dep"] = pos
        magic, version, strategy_code, relocated = unpack(pwof.DEP_HEADER)
        if magic != pwof.DEP_MAGIC:
            raise BadMagic("missing PWDP magic")
        if version != pwof.VERSION:
            raise BadMagic(f"unsupported .dep version {version}")
        if strategy_code >= len(depgraph.STRATEGIES):
            raise TruncatedSection(f"bad strategy code {strategy_code}")
        if relocated > 1:
            raise TruncatedSection(f"bad relocated flag {relocated}")
        required = tuple(unpack(pwof.U32)[0] for _ in range(count(pwof.U32, 4)))
        if required and max(required) >= len(symbols):
            raise IndexOutOfRange(f"required-global index {max(required)}")
        records = {}
        for _ in range(count(pwof.U32, 16)):
            symbol, location, size = unpack(pwof.RECORD_HEAD)
            if symbol >= len(symbols):
                raise IndexOutOfRange(f"dep record symbol index {symbol}")
            if symbol in records:
                raise LayoutMismatch(f"second dep record for symbol {symbols[symbol].name!r}")
            entries = [unpack(pwof._array("BI", 1)) for _ in range(count(pwof.U32, 5))]
            deps = tuple(index for _, index in entries)
            if deps and max(deps) >= len(symbols):
                raise IndexOutOfRange(f"dep target index {max(deps)}")
            for kind, index in entries:
                if kind > 1:
                    raise TruncatedSection(f"bad dep target kind {max(k for k, _ in entries)}")
            for kind, index in entries:
                if kind != (symbols[index].defined == pwof.DEF_UNDEFINED):
                    raise LayoutMismatch(f"dep target {symbols[index].name!r} of "
                                         f"{symbols[symbol].name!r} has the wrong kind")
            records[symbol] = pwof.DepRecord(symbol, location, size, deps)
        dep = pwof.DepSection(depgraph.STRATEGIES[strategy_code], bool(relocated), required,
                              records)
        marks["ir"] = pos
    ir_text = None
    if flags & pwof.FLAG_HAS_IR:
        magic, n = unpack(pwof.IR_HEADER)
        if magic != pwof.IR_MAGIC:
            raise BadMagic("missing PWIR magic")
        ir_text = take(n).decode("utf-8")
    return pwof.LoadedModule(name, bool(flags & pwof.FLAG_EXECUTABLE), needed, tuple(symbols),
                             code, tuple(vtables), tuple(training), dep, ir_text)


def _outcome(read, data: bytes):
    """What ``read`` makes of ``data``: the module, or the error's class and message."""
    try:
        return read(data)
    except PiecewiseError as exc:
        return type(exc), str(exc)


def _oracle_containers() -> list[bytes]:
    training = (pwof.TrainingRecord("dlopen", "plugin"),
                pwof.TrainingRecord("dlsym", "plugin", "init"))
    blobs = [pwof.serialize(build(strategy="pta", training=training))]
    for seed in (3, 5):
        system = random_system(random.Random(seed))
        blobs.append(system.resolver("pta").modules["lib0"])
    return blobs


def test_reader_agrees_with_the_reference_on_every_truncation():
    blobs = _oracle_containers()
    mod = pwof.read_module(blobs[0])
    assert mod.vtables and mod.training and mod.dep is not None
    for data in blobs:
        assert _reference_read_module(data) == pwof.read_module(data)
        for cut in range(len(data)):
            assert _outcome(pwof.read_module, data[:cut]) == \
                _outcome(_reference_read_module, data[:cut]), cut


def test_reader_agrees_with_the_reference_on_flipped_bytes():
    rng = random.Random(26)
    seen = set()
    for data in _oracle_containers():
        marks = {}
        _reference_read_module(data, marks)
        for start, end in ((marks["symbols"], marks["code"]), (marks["dep"], marks["ir"])):
            for _ in range(300):
                at = rng.randrange(start, end)
                flipped = data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
                outcome = _outcome(pwof.read_module, flipped)
                assert outcome == _outcome(_reference_read_module, flipped), at
                seen.add(outcome[0] if isinstance(outcome, tuple) else None)
                # cut short soon after the flip, e.g. inside the dep count of
                # a record whose symbol index the flip broke
                cut = flipped[:at + rng.randrange(1, 17)]
                assert _outcome(pwof.read_module, cut) == _outcome(_reference_read_module, cut), at
    # the flips reach every class of read-time fault, and some still decode
    assert {TruncatedSection, IndexOutOfRange, LayoutMismatch, None} <= seen
