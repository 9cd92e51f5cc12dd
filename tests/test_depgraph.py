import random

import pytest

from conftest import System, random_system
from piecewise import depgraph, ir, loader, pwof
from piecewise.errors import UnknownType

# the registered-callback pattern: an IO-style object whose write slot is
# populated at initialization and invoked through a pointer later
CALLBACK = """\
module iolib
global write_slot = &stdout_write
func stdout_write strong { ret }
func file_write strong { ret }
func fwrite strong exported {
    w = write_slot
    icall w
    ret
}
"""

# the callback-argument pattern: caller takes a comparator's address and a
# sorter invokes it indirectly
COMPARATOR = """\
module sorter
func comp strong { ret }
func sort strong exported {
    icall cb
    ret
}
func foo strong exported {
    cb = &comp
    call sort
    ret
}
"""


def edges(graph, fn):
    return graph.edges.get(fn, set())


def test_direct_callgraph():
    # under full_module the edges are exactly direct calls plus vtable
    # instantiation: foo's &comp goes to the required set, not to an edge
    m = ir.parse_module(COMPARATOR)
    g = depgraph.build_depgraph(m, "full_module")
    assert edges(g, "foo") == {"sort"}
    assert edges(g, "sort") == set()


def test_localized_attaches_address_to_taking_function():
    m = ir.parse_module(COMPARATOR)
    g = depgraph.build_depgraph(m, "localized")
    assert "comp" in edges(g, "foo")
    # the sorter itself carries no edge to the comparator
    assert "comp" not in edges(g, "sort")
    assert g.required_globals == set()


def test_full_module_collects_address_taken_set():
    m = ir.parse_module(COMPARATOR)
    g = depgraph.build_depgraph(m, "full_module")
    assert g.required_globals == {"comp"}
    assert "comp" not in edges(g, "foo")


def test_initialized_global_binds_to_referencing_functions():
    m = ir.parse_module(CALLBACK)
    g = depgraph.build_depgraph(m, "localized")
    assert "stdout_write" in edges(g, "fwrite")
    assert "stdout_write" not in edges(g, "file_write")
    full = depgraph.build_depgraph(m, "full_module")
    assert full.required_globals == {"stdout_write"}


def test_vtable_instantiation_pulls_all_entries():
    m = ir.parse_module(
        "module a\nvtable Shape { area draw }\n"
        "func area strong { ret }\nfunc draw strong { ret }\n"
        "func build strong {\n    o = new Shape\n    vcall o, 0\n    ret\n}\n")
    for strategy in depgraph.STRATEGIES:
        g = depgraph.build_depgraph(m, strategy)
        assert edges(g, "build") >= {"area", "draw"}, strategy
    # vtable entries are address-taken, so full_module requires them
    assert depgraph.build_depgraph(m, "full_module").required_globals == {"area", "draw"}


def test_unknown_type_raises():
    with pytest.raises(UnknownType, match="'f' instantiates 'Ghost' which has no vtable"):
        ir.parse_module("module a\nfunc f {\n    o = new Ghost\n    ret\n}\n")


def test_asm_functions_always_retained():
    system = System(sources={
        "prog": "module prog executable\nneeded a\nfunc main strong entry { ret }\n",
        "a": "module a\nfunc helper strong { ret }\n"
             "func entrystub strong asm {\n    call helper\n    ret\n}\n"})
    retained = loader.compute_retained(loader.preload("prog", system.resolver()))
    assert retained.functions("a") == {"entrystub", "helper"}
    assert retained.provenance[("a", "entrystub")] == "asm"


def test_import_targets_marked_as_imports():
    m = ir.parse_module(
        "module a\nimport memcpy\nfunc f {\n    call memcpy\n    v = &memcpy\n    ret\n}\n")
    image = ir.lower_code(m)
    dep = pwof.build_dep_section(m, image, depgraph.build_depgraph(m, "localized"))
    mod = pwof.assemble(m, image, dep)
    [target] = mod.dep.records[mod.symbol_index("f")].deps
    assert mod.symbols[target] == ("memcpy", pwof.BIND_LOCAL, pwof.DEF_UNDEFINED, 0, 0)


def test_unknown_strategy_rejected():
    m = ir.parse_module("module a\nfunc f { ret }\n")
    with pytest.raises(ValueError):
        depgraph.build_depgraph(m, "speculative")


def test_pta_covers_indirect_sites():
    m = ir.parse_module(COMPARATOR)
    g = depgraph.build_depgraph(m, "pta")
    # cb is a local of foo; the sorter's own cb never receives a value, so
    # the icall site is flagged empty rather than guessed at
    assert "comp" not in edges(g, "foo")
    assert any(d.startswith("EmptyPointsTo") for d in g.diagnostics)


def test_pta_resolves_global_mediated_flow():
    m = ir.parse_module(
        "module a\nglobal slot\n"
        "func handler strong { ret }\n"
        "func install strong {\n    h = &handler\n    p = &slot\n    *p = h\n    ret\n}\n"
        "func dispatch strong {\n    f = slot\n    icall f\n    ret\n}\n")
    g = depgraph.build_depgraph(m, "pta")
    assert "handler" in edges(g, "dispatch")


def test_strategy_edge_targets_subset_of_address_taken():
    """localized and pta edge targets beyond direct calls always fall inside
    the full-module required set: the containment behind retention ordering."""
    for seed in range(40):
        system = random_system(random.Random(seed))
        for src in system.sources.values():
            m = ir.parse_module(src)
            # full_module edges are direct calls plus vtable instantiation
            full = depgraph.build_depgraph(m, "full_module")
            baseline = {(fn, t) for fn, ts in full.edges.items() for t in ts}
            taken = full.required_globals
            for strategy in ("localized", "pta"):
                g = depgraph.build_depgraph(m, strategy)
                extra = {(fn, t) for fn, ts in g.edges.items() for t in ts} - baseline
                assert {t for _, t in extra} <= taken, (seed, strategy)
