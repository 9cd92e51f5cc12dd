import random
import re
from collections import Counter
from dataclasses import replace

import pytest

from conftest import System, compile_source, mutate_dep, random_system
from piecewise import depgraph, loader, pwof, study, vm
from piecewise.errors import InvalidModule, LayoutMismatch, ModuleNotFound, UnresolvedSymbol
from piecewise.ir import TRAP_BYTE
from piecewise.loader import PAGE_COW, PAGE_NX, PAGE_UNTOUCHED

DIAMOND = System(sources={
    "prog": "module prog executable\nneeded a b\nimport fa fb\n"
            "func main strong entry {\n    call fa\n    call fb\n    ret\n}\n",
    "a": "module a\nneeded c\nimport fc\n"
         "func fa strong exported {\n    call fc\n    ret\n}\n",
    "b": "module b\nneeded c\nimport fc\n"
         "func fb strong exported {\n    call fc\n    ret\n}\n",
    "c": "module c\nfunc fc strong exported { ret }\n"
         "func dead strong exported {\n    syscall\n    ret\n}\n",
})


def test_preload_breadth_first_order():
    image = loader.preload("prog", DIAMOND.resolver())
    assert [m.name for m in image.load_order] == ["prog", "a", "b", "c"]


def test_preload_bases_page_aligned_and_disjoint():
    image = loader.preload("prog", DIAMOND.resolver(), page_size=256)
    bases = [image.bases[m.name] for m in image.load_order]
    assert bases[0] == 256  # address zero stays unmapped
    assert all(b % 256 == 0 for b in bases)
    assert bases == sorted(bases) and len(set(bases)) == len(bases)


def test_preload_relocates_dep_records_once():
    image = loader.preload("prog", DIAMOND.resolver(), page_size=512)
    mod = image.module("c")
    rec = mod.dep.records[mod.symbol_index("fc")]
    assert rec.location == image.bases["c"] + 0
    assert mod.dep.relocated


def test_cyclic_needed_terminates():
    system = System(sources={
        "prog": "module prog executable\nneeded x\nimport fx\n"
                "func main strong entry {\n    call fx\n    ret\n}\n",
        "x": "module x\nneeded y\nfunc fx strong exported { ret }\n",
        "y": "module y\nneeded x\nfunc fy strong exported { ret }\n",
    })
    image = loader.preload("prog", system.resolver())
    assert [m.name for m in image.load_order] == ["prog", "x", "y"]


def test_missing_module_names_requester():
    system = System(sources={
        "prog": "module prog executable\nneeded ghostlib\n"
                "func main strong entry { ret }\n"})
    with pytest.raises(ModuleNotFound) as err:
        loader.preload("prog", system.resolver())
    assert "ghostlib" in str(err.value) and "prog" in str(err.value)


def test_two_containers_with_one_module_name_rejected():
    # the image keys memory by a module's own name: removing liba's dead
    # `idle` would write the trap byte over libb's live `work`
    resolver = loader.MemoryResolver({
        "prog": compile_source("module prog executable\nneeded liba libb\nimport work\n"
                               "func main strong entry {\n    call work\n    ret\n}\n"),
        "liba": compile_source("module dup\nfunc work strong exported { ret }\n"
                               "func idle strong exported { ret }\n"),
        "libb": compile_source("module dup\nfunc pad strong exported { ret }\n"
                               "func work strong exported { ret }\n"),
    })
    with pytest.raises(LayoutMismatch, match="module 'dup'"):
        loader.preload("prog", resolver)


def test_library_container_holding_another_module_rejected():
    lib = compile_source("module lib\nfunc area strong exported { ret }\n")
    prog = compile_source("module prog executable\nneeded libx\nimport area\n"
                          "func main strong entry {\n    call area\n    ret\n}\n")
    message = "the container found for 'libx' holds module 'lib'"
    with pytest.raises(LayoutMismatch, match=message):
        loader.preload("prog", loader.MemoryResolver({"prog": prog, "libx": lib}))
    # a trained lookup in that library fails at the same check, and so does
    # the study of a program that needs it
    trained = compile_source("module prog executable\nfunc main strong entry { ret }\n",
                             training=[pwof.TrainingRecord("dlopen", "libx"),
                                       pwof.TrainingRecord("dlsym", "libx", "area")])
    with pytest.raises(LayoutMismatch, match=message):
        loader.load_and_debloat("prog", loader.MemoryResolver({"prog": trained, "libx": lib}))
    table = study.footprint(["prog"], loader.MemoryResolver({"prog": prog, "libx": lib}))
    assert not table.rows
    assert table.failures["prog"] == f"LayoutMismatch: {message}"
    # the executable keeps any file name
    libx = compile_source("module libx\nfunc area strong exported { ret }\n")
    image = loader.preload("app", loader.MemoryResolver({"app": prog, "libx": libx}))
    assert [mod.name for mod in image.load_order] == ["prog", "libx"]


def test_executable_cannot_stand_in_for_a_library_it_needs():
    libx = compile_source("module libx\nfunc area strong exported { ret }\n")
    app = compile_source("module libx executable\nneeded libx\nimport area\n"
                         "func area strong exported { ret }\n"
                         "func main strong entry {\n    call area\n    ret\n}\n")
    with pytest.raises(LayoutMismatch, match="the container found for 'app' holds module 'libx'"):
        loader.preload("app", loader.MemoryResolver({"app": app, "libx": libx}))
    # loaded under its own name, the executable is what its name reaches
    image = loader.preload("libx", loader.MemoryResolver({"libx": app}))
    assert [mod.name for mod in image.load_order] == ["libx"]


def test_dlopen_training_joins_preload():
    system = System(
        sources={
            "prog": "module prog executable\nfunc main strong entry { ret }\n",
            "plugin": "module plugin\nfunc init strong exported { ret }\n",
        },
        training=[pwof.TrainingRecord("dlopen", "plugin")])
    image = loader.preload("prog", system.resolver())
    assert [m.name for m in image.load_order] == ["prog", "plugin"]


def test_resolution_first_strong_in_load_order():
    system = System(sources={
        "prog": "module prog executable\nneeded first second\nimport shared\n"
                "func main strong entry {\n    call shared\n    ret\n}\n",
        "first": "module first\nfunc shared strong exported { ret }\n",
        "second": "module second\nfunc shared strong exported { ret }\n",
    })
    image = loader.preload("prog", system.resolver())
    bindings = loader.resolve(image)
    assert bindings[("prog", "shared")] == ("first", "shared")


def test_strong_beats_earlier_weak():
    system = System(sources={
        "prog": "module prog executable\nneeded wk stg\nimport shared\n"
                "func main strong entry {\n    call shared\n    ret\n}\n",
        "wk": "module wk\nfunc shared weak exported { ret }\n",
        "stg": "module stg\nfunc shared strong exported { ret }\n",
    })
    image = loader.preload("prog", system.resolver())
    assert loader.resolve(image)[("prog", "shared")] == ("stg", "shared")


def test_executable_strong_shadows_library_weak():
    # an allocator override in the program wins over the library's weak one:
    # libm declares calloc as an interposable import alongside its own weak
    # fallback definition, and the strong definition in the program is chosen
    system = System(sources={
        "prog": "module prog executable\nneeded libm\nimport compute\n"
                "func calloc strong exported { ret }\n"
                "func main strong entry {\n    call compute\n    ret\n}\n",
        "libm": "module libm\nimport calloc\n"
                "func calloc weak exported {\n    syscall\n    ret\n}\n"
                "func compute strong exported {\n    call calloc\n    ret\n}\n",
    })
    image = loader.preload("prog", system.resolver())
    bindings = loader.resolve(image)
    assert bindings[("libm", "calloc")] == ("prog", "calloc")
    retained = loader.compute_retained(image, bindings)
    assert "calloc" in retained.functions("prog")
    # the shadowed weak fallback is never pulled in
    assert "calloc" not in retained.functions("libm")


def _reference_bindings(image):
    """Pre-binding by its rule, one import at a time: the first module in
    load order that exports the name strong, else the first that exports it weak."""
    bindings = {}
    for mod in image.load_order:
        for sym in mod.undefined_symbols():
            providers = [(s.binding, m.name) for m in image.load_order
                         for s in m.defined_symbols() if s.name == sym.name
                         and s.binding in (pwof.BIND_STRONG, pwof.BIND_WEAK)]
            strong = [m for binding, m in providers if binding == pwof.BIND_STRONG]
            chosen = (strong or [m for _, m in providers] or [None])[0]
            if chosen is None:
                raise UnresolvedSymbol(sym.name, mod.name)
            bindings[(mod.name, sym.name)] = (chosen, sym.name)
    return bindings


def test_resolve_agrees_with_the_reference_rule():
    shadowed = 0
    for seed in range(200):
        system = random_system(random.Random(seed))
        for strategy in depgraph.STRATEGIES:
            image = loader.preload("prog", system.resolver(strategy))
            assert loader.resolve(image) == _reference_bindings(image), (seed, strategy)
        exported = Counter(s.name for m in image.load_order for s in m.defined_symbols()
                           if s.binding != pwof.BIND_LOCAL)
        shadowed += any(n > 1 for n in exported.values())
    assert shadowed >= 40  # the generator exports one name from two modules in about 35%


def test_unresolved_symbol():
    system = System(sources={
        "prog": "module prog executable\nimport nowhere\n"
                "func main strong entry {\n    call nowhere\n    ret\n}\n"})
    image = loader.preload("prog", system.resolver())
    with pytest.raises(UnresolvedSymbol):
        loader.resolve(image)


def test_retained_closure_on_diamond():
    image = loader.preload("prog", DIAMOND.resolver())
    retained = loader.compute_retained(image)
    assert retained.functions("prog") == {"main"}
    assert retained.functions("a") == {"fa"}
    assert retained.functions("b") == {"fb"}
    assert retained.functions("c") == {"fc"}
    assert retained.provenance[("prog", "main")] == "root"
    assert retained.provenance[("c", "fc")] == "dep-closure"


def test_program_roots_are_closed_before_pins():
    # under full_module `&g` pins g module-wide, but main reaches g itself
    system = System(sources={
        "prog": "module prog executable\nneeded lib\nimport g\n"
                "func main strong entry {\n    call g\n    p = &g\n    ret\n}\n",
        "lib": "module lib\nfunc g strong exported { ret }\n"})
    resolver = system.resolver("full_module")
    retained = loader.compute_retained(loader.preload("prog", resolver))
    assert retained.provenance[("lib", "g")] == "dep-closure"
    [row] = study.footprint(["prog"], resolver).rows
    assert (row.functions_used, row.pinned_functions) == (1, 0)


def test_a_function_only_a_pin_reaches_counts_as_pinned():
    # under full_module `&h` pins h module-wide, and only h reaches k
    system = System(sources={
        "prog": "module prog executable\nneeded lib\nimport used\n"
                "func main strong entry {\n    call used\n    ret\n}\n",
        "lib": "module lib\nglobal slot = &h\nfunc used strong exported { ret }\n"
               "func h strong {\n    call k\n    ret\n}\nfunc k strong { ret }\n"})
    resolver = system.resolver("full_module")
    retained = loader.compute_retained(loader.preload("prog", resolver))
    assert retained.provenance[("lib", "h")] == "required-global"
    assert retained.provenance[("lib", "k")] == "pin-closure"
    [row] = study.footprint(["prog"], resolver).rows
    assert (row.functions_used, row.pinned_functions) == (1, 2)


def _permuted(system, rng):
    """``system`` with every module's ``func`` blocks shuffled and the
    executable's dlsym records reordered (after its dlopens)."""
    sources = {}
    for name, src in system.sources.items():
        head, *blocks = re.split(r"^(?=func )", src, flags=re.M)
        rng.shuffle(blocks)
        sources[name] = head + "".join(blocks)
    dlsyms = [rec for rec in system.training if rec.kind == "dlsym"]
    rng.shuffle(dlsyms)
    training = [rec for rec in system.training if rec.kind != "dlsym"] + dlsyms
    return System(sources, training, system.exe)


def test_provenance_does_not_depend_on_seed_or_symbol_order():
    for seed in range(60):
        system = random_system(random.Random(seed))
        permuted = _permuted(system, random.Random(seed))
        for strategy in depgraph.STRATEGIES:
            original, shuffled = (
                loader.compute_retained(loader.preload(s.exe, s.resolver(strategy)))
                for s in (system, permuted))
            assert shuffled.provenance == original.provenance, (seed, strategy)


def test_provenance_does_not_depend_on_load_order():
    # a seed class is taken across the image before the next: the definitions
    # of modules kept whole before their import targets, required globals
    # before asm functions
    cases = [("localized", {"A", "B"}, "no-dep-module"),
             ("full_module", None, "required-global")]
    for strategy, without_dep, reason in cases:
        reasons = set()
        for order in ("A B", "B A"):
            system = System(sources={
                "prog": f"module prog executable\nneeded {order}\n"
                        "func main strong entry { ret }\n",
                "A": "module A\nimport f\nglobal g = &f\n"
                     "func a strong exported {\n    call f\n    ret\n}\n",
                "B": "module B\nfunc f strong exported asm { ret }\n"})
            resolver = system.resolver(strategy, dep_for={"prog"} if without_dep else None)
            retained = loader.compute_retained(loader.preload("prog", resolver))
            reasons.add(retained.provenance[("B", "f")])
        assert reasons == {reason}, strategy


def test_dlsym_training_seeds_retention():
    system = System(
        sources={
            "prog": "module prog executable\nfunc main strong entry { ret }\n",
            "plugin": "module plugin\nfunc init strong exported { ret }\n"
                      "func other strong exported { ret }\n",
        },
        training=[pwof.TrainingRecord("dlopen", "plugin"),
                  pwof.TrainingRecord("dlsym", "plugin", "init")])
    image = loader.preload("prog", system.resolver())
    retained = loader.compute_retained(image)
    assert retained.functions("plugin") == {"init"}
    assert retained.provenance[("plugin", "init")] == "training"


def test_container_with_two_entries_rejected_at_load():
    # the IR section is swapped after linking, so only the load can catch it
    src = "module prog executable\nfunc a strong entry { ret }\nfunc b strong {\n    syscall\n    ret\n}\n"
    mod = pwof.read_module(compile_source(src))
    mod.ir_text = mod.ir_text.replace("func b strong", "func b strong entry")
    resolver = loader.MemoryResolver({"prog": pwof.serialize(mod)})
    with pytest.raises(InvalidModule, match="a, b"):
        loader.load_and_debloat("prog", resolver)


def test_depless_module_fully_retained():
    image = loader.preload("prog", DIAMOND.resolver(dep_for={"prog", "a", "b"}))
    retained = loader.compute_retained(image)
    assert retained.functions("c") == {"fc", "dead"}


def test_partial_dep_module_retained_whole():
    # a's record is gone, so a's call to b is unknown: keeping a but
    # erasing b would trap when a runs
    system = System(sources={
        "prog": "module prog executable\nneeded lib\nimport a\n"
                "func main strong entry {\n    call a\n    ret\n}\n",
        "lib": "module lib\nfunc a strong exported {\n    call b\n    ret\n}\n"
               "func b strong {\n    syscall\n    ret\n}\n"
               "func dead strong { ret }\n",
    })
    resolver = system.resolver()
    a = pwof.read_module(resolver.modules["lib"]).symbol_index("a")
    resolver.modules["lib"] = mutate_dep(resolver.modules["lib"], lambda dep: replace(
        dep, records={s: rec for s, rec in dep.records.items() if s != a}))
    pristine = loader.load_and_debloat("prog", resolver, no_debloat=True)[0]
    image, retained, _ = loader.load_and_debloat("prog", resolver)
    assert retained.functions("lib") == {"a", "b", "dead"}
    assert retained.functions("prog") == {"main"}
    assert retained.diagnostics == [
        "ConservativeRetention: lib keeps every function, its .dep has no record for a"]
    after = vm.run_workloads(image, debloated=True)
    assert after["entry:main"].completed
    assert after == vm.run_workloads(pristine)


def _drop_records(rng, dep, nsymbols):
    return replace(dep, records={s: rec for s, rec in dep.records.items() if rng.random() >= 0.3})


def _shuffle_records(rng, dep, nsymbols):
    records = list(dep.records.values())
    rng.shuffle(records)
    return replace(dep, records={rec.symbol: rec for rec in records})


def _add_edge(rng, dep, nsymbols):
    rec = rng.choice(list(dep.records.values()))
    added = rec._replace(deps=rec.deps + (rng.randrange(nsymbols),))
    return replace(dep, records={**dep.records, rec.symbol: added})


# the record-drop cases are named by their strategy alone
DEP_MUTATIONS = [("", _drop_records), ("-shuffle", _shuffle_records), ("-add-edge", _add_edge)]


@pytest.mark.parametrize("strategy, mutation", [
    pytest.param(strategy, mutation, id=strategy + suffix)
    for suffix, mutation in DEP_MUTATIONS for strategy in depgraph.STRATEGIES])
def test_dropped_dep_records_never_trap(strategy, mutation):
    mutated_any = False
    for seed in range(40):
        rng = random.Random(seed)
        system = random_system(rng)
        resolver = system.resolver(strategy)
        for name, blob in resolver.modules.items():
            nsymbols = len(pwof.read_module(blob).symbols)
            mutated = mutate_dep(blob, lambda dep: mutation(rng, dep, nsymbols))
            mutated_any |= mutated != blob
            resolver.modules[name] = mutated
        pristine = loader.load_and_debloat("prog", resolver, no_debloat=True)[0]
        image = loader.load_and_debloat("prog", resolver)[0]
        before = vm.run_workloads(pristine, step_limit=2500)
        after = vm.run_workloads(image, debloated=True, step_limit=2500)
        assert all(t.outcome[0] != vm.TRAPPED for t in after.values()), seed
        assert after == before, seed
    assert mutated_any


def _import_first(rng, mod):
    """Move an import ahead of the definitions and renumber every index
    with it, so that only the code's operands still mean the old layout."""
    split = len(mod.defined_symbols())
    if split == len(mod.symbols):
        return False
    moved = rng.randrange(split, len(mod.symbols))
    order = [moved, *range(moved), *range(moved + 1, len(mod.symbols))]
    new = {old: i for i, old in enumerate(order)}.__getitem__
    mod.symbols = tuple(mod.symbols[i] for i in order)
    mod.vtables = tuple((name, tuple(map(new, entries))) for name, entries in mod.vtables)
    mod.dep = replace(mod.dep, required=tuple(map(new, mod.dep.required)), records={
        new(s): rec._replace(symbol=new(s), deps=tuple(map(new, rec.deps)))
        for s, rec in mod.dep.records.items()})
    return True


def _retarget_vtable_entry(rng, mod):
    if not mod.vtables:
        return False
    t = rng.randrange(len(mod.vtables))
    name, entries = mod.vtables[t]
    e = rng.randrange(len(entries))
    target = rng.choice([i for i in range(len(mod.symbols)) if i != entries[e]])
    vtables = list(mod.vtables)
    vtables[t] = (name, entries[:e] + (target,) + entries[e + 1:])
    mod.vtables = tuple(vtables)
    return True


def _rename_library(rng, mod):
    if mod.is_executable:
        return False  # the executable keeps any file name
    mod.name += "_renamed"
    return True


# each mutation and the rejection it meets
LAYOUT_MUTATIONS = {
    "import-first": (_import_first, "after an import"),
    "vtable-retarget": (_retarget_vtable_entry, "IR and vtable section differ"),
    "renamed-library": (_rename_library, "holds module"),
}


@pytest.mark.parametrize("mutation", LAYOUT_MUTATIONS)
def test_layout_mutations_rejected_before_replay(mutation):
    mutate, message = LAYOUT_MUTATIONS[mutation]
    mutated = 0
    for strategy in depgraph.STRATEGIES:
        for seed in range(40):
            rng = random.Random(seed)
            resolver = random_system(rng).resolver(strategy)
            names = [mod.name for mod in loader.preload("prog", resolver).load_order]
            rng.shuffle(names)
            for name in names:
                mod = pwof.read_module(resolver.modules[name])
                if mutate(rng, mod):
                    resolver.modules[name] = pwof.serialize(mod)
                    mutated += 1
                    break
            else:
                continue
            with pytest.raises(LayoutMismatch, match=message):
                image = loader.load_and_debloat("prog", resolver)[0]
                for mod in image.load_order:
                    mod.ir_index  # what replay reads first in each module
    assert mutated >= 60


def test_debloat_overwrites_dead_code_with_trap():
    image = loader.preload("prog", DIAMOND.resolver())
    retained = loader.compute_retained(image)
    report = loader.debloat(image, retained)
    c = image.module("c")
    dead = c.symbols[c.symbol_index("dead")]
    mem = image.memory["c"]
    assert set(mem[dead.value:dead.value + dead.size]) == {0x6D}
    live = c.symbols[c.symbol_index("fc")]
    assert mem[live.value:live.value + live.size] == c.code[live.value:live.value + live.size]
    assert report.modules["c"].removed_functions == 1
    assert report.modules["c"].removed_bytes == dead.size


def test_page_accounting_invariant():
    for seed in range(25):
        system = random_system(random.Random(seed))
        for page_size in (64, 4096):
            image, retained, report = loader.load_and_debloat(
                "prog", system.resolver(), page_size)
            for mod in image.load_order:
                states = image.page_state[mod.name]
                rep = report.modules[mod.name]
                assert rep.nx_pages + rep.cow_pages + rep.untouched_pages == len(states)
                for idx, state in enumerate(states):
                    assert state in (PAGE_NX, PAGE_COW, PAGE_UNTOUCHED)


def test_fully_dead_page_goes_nx_not_written():
    # one live page-sized function followed by a dead page-sized one
    body = "\n".join(["    syscall"] * 15 + ["    ret"])
    system = System(sources={
        "prog": "module prog executable\nneeded lib\nimport live\n"
                "func main strong entry {\n    call live\n    ret\n}\n",
        "lib": (f"module lib\nfunc live strong exported {{\n{body}\n}}\n"
                f"func dead strong exported {{\n{body}\n}}\n"),
    })
    image, retained, report = loader.load_and_debloat("prog", system.resolver(), page_size=64)
    states = image.page_state["lib"]
    assert states == [PAGE_UNTOUCHED, PAGE_NX]
    # nx page contents untouched: removal without copy-on-write cost
    lib = image.module("lib")
    assert bytes(image.memory["lib"]) == lib.code
    assert report.modules["lib"].nx_pages == 1
    assert report.modules["lib"].cow_pages == 0


def _reference_debloat(image, retained):
    """Byte by byte: mark each page that holds dead code and no live code NX,
    then write the trap byte over every dead byte outside NX pages."""
    reports = {}
    for mod in image.load_order:
        defined = [s for s in mod.symbols if s.defined != pwof.DEF_UNDEFINED]
        keep = retained.functions(mod.name)
        dead = [s for s in defined if s.name not in keep]
        rep = loader.ModuleReport(len(defined), sum(s.size for s in defined),
                                  len(dead), sum(s.size for s in dead))
        mem, states, page = image.memory[mod.name], image.page_state[mod.name], image.page_size
        live_mask, dead_mask = bytearray(len(mod.code)), bytearray(len(mod.code))
        for sym in defined:
            mask = live_mask if sym.name in keep else dead_mask
            mask[sym.value:sym.value + sym.size] = b"\x01" * sym.size
        for pidx in range(len(states)):
            lo, hi = pidx * page, min((pidx + 1) * page, len(mod.code))
            if hi > lo and any(dead_mask[lo:hi]) and not any(live_mask[lo:hi]):
                states[pidx] = PAGE_NX
        for sym in dead:
            for off in range(sym.value, sym.value + sym.size):
                if states[off // page] != PAGE_NX:
                    mem[off] = TRAP_BYTE
                    states[off // page] = PAGE_COW
        rep.nx_pages = states.count(PAGE_NX)
        rep.cow_pages = states.count(PAGE_COW)
        rep.untouched_pages = states.count(PAGE_UNTOUCHED)
        reports[mod.name] = rep
    return loader.DebloatReport(reports)


@pytest.mark.parametrize("strategy", ["full_module", "localized", "pta"])
def test_debloat_matches_per_byte_reference(strategy):
    # odd page sizes put a function's edge mid-instruction and let one page
    # hold live and dead code; 4096 puts a whole module on one page
    states_seen = set()
    for seed in range(30):
        resolver = random_system(random.Random(seed)).resolver(strategy)
        for page_size in (4, 5, 6, 8, 4096):
            images = [loader.preload("prog", resolver, page_size) for _ in range(2)]
            retained = [loader.compute_retained(image) for image in images]
            assert retained[0].retained == retained[1].retained
            report = loader.debloat(images[0], retained[0])
            expected = _reference_debloat(images[1], retained[1])
            assert report.as_dict() == expected.as_dict(), (seed, page_size)
            assert images[0].memory == images[1].memory, (seed, page_size)
            assert images[0].page_state == images[1].page_state, (seed, page_size)
            states_seen.update(s for states in images[0].page_state.values() for s in states)
    assert states_seen == {PAGE_NX, PAGE_COW, PAGE_UNTOUCHED}


def test_no_debloat_leaves_image_pristine():
    image, retained, report = loader.load_and_debloat(
        "prog", DIAMOND.resolver(), no_debloat=True)
    assert retained is None and report is None
    for mod in image.load_order:
        assert bytes(image.memory[mod.name]) == mod.code
        assert set(image.page_state[mod.name]) <= {PAGE_UNTOUCHED}


def test_measure_load_time_shape():
    stats = loader.measure_load_time("prog", DIAMOND.resolver(), repetitions=3)
    assert stats["debloat_enabled"]["n"] == 3
    assert stats["debloat_enabled"]["mean_ms"] > 0
    assert stats["debloat_disabled"]["mean_ms"] > 0
    assert stats["debloat_enabled"]["max_ms"] >= stats["debloat_enabled"]["mean_ms"]
