import random
from dataclasses import replace

import pytest

from conftest import System, compile_source, random_system
from piecewise import ir, loader, pwof, vm
from piecewise.errors import (LayoutMismatch, MissingIR, ParseError, PiecewiseError,
                              UnknownType, UnresolvedName, UnresolvedSymbol)
from piecewise.ir import TRAP_BYTE

CALLS = System(sources={
    "prog": "module prog executable\nneeded lib\nimport work\n"
            "global hook = &local_cb\n"
            "func local_cb strong { ret }\n"
            "func main strong entry {\n"
            "    call work\n"
            "    h = hook\n"
            "    icall h\n"
            "    ret\n}\n",
    "lib": "module lib\nfunc work strong exported {\n    syscall\n    ret\n}\n"
           "func never strong exported {\n    spadj\n    ret\n}\n",
})


def loaded(system, debloat=True, **kw):
    return loader.load_and_debloat("prog", system.resolver(), no_debloat=not debloat, **kw)[0]


def test_execute_records_entered_functions():
    trace = vm.run_workloads(loaded(CALLS, debloat=False))["entry:main"]
    assert trace.completed
    assert trace.entered == (("prog", "main"), ("lib", "work"), ("prog", "local_cb"))


def test_execute_records_indirect_targets():
    trace = vm.run_workloads(loaded(CALLS, debloat=False))["entry:main"]
    assert trace.indirect_targets == ((("prog", "main", 2), ("prog", "local_cb")),)


def test_execution_unchanged_after_debloat():
    before = vm.run_workloads(loaded(CALLS, debloat=False))["entry:main"]
    after = vm.run_workloads(loaded(CALLS), debloated=True)["entry:main"]
    assert before == after


def test_removed_function_traps_when_entered():
    image = loaded(CALLS)
    trace = vm.run_workloads(image, debloated=True)["entry:main"]
    assert trace.completed
    # force entry into the function the loader removed
    machine = vm._Machine(image, debloated=True, step_limit=100)
    trap = machine.run("lib", "never")
    assert trap.outcome[0] == vm.TRAPPED
    assert trap.outcome[1:3] == ("lib", "never")
    assert trap.outcome[3] in ("nx", "trap")


def test_null_indirect_call_faults():
    system = System(sources={
        "prog": "module prog executable\nglobal empty\n"
                "func main strong entry {\n    v = empty\n    icall v\n    ret\n}\n"})
    trace = vm.run_workloads(loaded(system, debloat=False))["entry:main"]
    assert trace.outcome == (vm.FAULT, "NullIndirectCall", "prog", "main", 1)


def test_bad_vtable_slot_faults():
    system = System(sources={
        "prog": "module prog executable\nvtable T { f }\nfunc f strong { ret }\n"
                "func main strong entry {\n    o = new T\n    vcall o, 5\n    ret\n}\n"})
    trace = vm.run_workloads(loaded(system, debloat=False))["entry:main"]
    assert trace.outcome[0:2] == (vm.FAULT, "BadVTableSlot")


def test_vcall_dispatches_through_vtable():
    system = System(sources={
        "prog": "module prog executable\nvtable T { a b }\n"
                "func a strong { ret }\nfunc b strong {\n    syscall\n    ret\n}\n"
                "func main strong entry {\n    o = new T\n    vcall o, 1\n    ret\n}\n"})
    trace = vm.run_workloads(loaded(system, debloat=False))["entry:main"]
    assert ("prog", "b") in trace.entered
    assert ("prog", "a") not in trace.entered


def test_ijmp_transfers_and_returns_to_grandparent():
    system = System(sources={
        "prog": "module prog executable\n"
                "func tail strong {\n    syscall\n    ret\n}\n"
                "func hop strong {\n    v = &tail\n    ijmp v\n    spadj\n    ret\n}\n"
                "func main strong entry {\n    call hop\n    ret\n}\n"})
    trace = vm.run_workloads(loaded(system, debloat=False))["entry:main"]
    assert trace.completed
    assert trace.entered == (("prog", "main"), ("prog", "hop"), ("prog", "tail"))


def test_store_through_global_changes_dispatch():
    system = System(sources={
        "prog": "module prog executable\nglobal slot = &first\n"
                "func first strong { ret }\nfunc second strong {\n    syscall\n    ret\n}\n"
                "func swap strong {\n    v = &second\n    p = &slot\n    *p = v\n    ret\n}\n"
                "func main strong entry {\n"
                "    a = slot\n    icall a\n    call swap\n    b = slot\n    icall b\n    ret\n}\n"})
    trace = vm.run_workloads(loaded(system, debloat=False))["entry:main"]
    entered = list(trace.entered)
    assert ("prog", "first") in entered and ("prog", "second") in entered


def test_step_limit():
    system = System(sources={
        "prog": "module prog executable\nglobal self = &spin\n"
                "func spin strong {\n    v = self\n    icall v\n    ret\n}\n"
                "func main strong entry {\n    call spin\n    ret\n}\n"})
    trace = vm.run_workloads(loaded(system, debloat=False), step_limit=50)["entry:main"]
    assert trace.outcome == (vm.LIMIT_EXCEEDED,)


def test_negative_step_limit_rejected():
    # CALLS completes, so an accepted negative limit would end the run rather than hang it
    image = loaded(CALLS, debloat=False)
    with pytest.raises(ValueError):
        vm.run_workloads(image, step_limit=-1)
    # no entry and no trained dlsym: nothing runs, yet the limit is still checked
    idle = loader.load_and_debloat("prog", System(sources={
        "prog": "module prog executable\nfunc helper strong { ret }\n"}).resolver(),
        no_debloat=True)[0]
    assert vm.run_workloads(idle) == {}
    with pytest.raises(ValueError):
        vm.run_workloads(idle, step_limit=-1)


def test_imported_main_is_not_an_entry():
    # the executable imports main but defines only helper: nothing of its
    # own is named to run, so nothing is replayed and nothing of lib rooted
    system = System(sources={
        "prog": "module prog executable\nneeded lib\nimport main\nfunc helper strong { ret }\n",
        "lib": "module lib\nfunc main strong exported {\n    syscall\n    ret\n}\n"})
    pristine = loaded(system, debloat=False)
    image, retained, _ = loader.load_and_debloat("prog", system.resolver())
    assert loader.entry_points(image) == {}
    assert vm.run_workloads(pristine) == {}
    assert vm.run_workloads(image, debloated=True) == {}
    assert retained.functions("lib") == set()
    # an unresolved image is refused even when it has nothing to run
    with pytest.raises(UnresolvedSymbol):
        vm.run_workloads(loader.preload("prog", system.resolver()))


def test_missing_ir_rejected():
    blobs = {}
    for name, src in CALLS.sources.items():
        from piecewise import ir as irmod

        module = irmod.parse_module(src)
        image = irmod.lower_code(module)
        mod = pwof.assemble(module, image, None)
        mod.ir_text = None
        blobs[name] = pwof.serialize(mod)
    image = loader.preload("prog", loader.MemoryResolver(blobs))
    loader.resolve(image)
    with pytest.raises(MissingIR):
        vm.run_workloads(image)["entry:main"]


def test_execution_requires_bindings():
    image = loader.preload("prog", CALLS.resolver())
    with pytest.raises(UnresolvedSymbol):
        vm.run_workloads(image)["entry:main"]


def test_run_workloads_covers_training():
    system = System(
        sources={
            "prog": "module prog executable\nfunc main strong entry { ret }\n",
            "plugin": "module plugin\nfunc init strong exported {\n    syscall\n    ret\n}\n",
        },
        training=[pwof.TrainingRecord("dlopen", "plugin"),
                  pwof.TrainingRecord("dlsym", "plugin", "init")])
    traces = vm.run_workloads(loaded(system, debloat=False))
    assert set(traces) == {"entry:main", "dlsym:plugin/init"}
    assert traces["dlsym:plugin/init"].entered == (("plugin", "init"),)
    assert all(t.completed for t in traces.values())


def test_workloads_deterministic_across_runs():
    for seed in range(10):
        system = random_system(random.Random(seed))
        first = vm.run_workloads(loaded(system, debloat=False), step_limit=2000)
        second = vm.run_workloads(loaded(system, debloat=False), step_limit=2000)
        assert first == second


def _assert_reused_machine_matches_fresh(image, debloated, step_limit=2000):
    targets = loader.entry_points(image)
    fresh = {wl: vm._Machine(image, debloated, step_limit).run(*target)
             for wl, target in targets.items()}
    assert vm.run_workloads(image, debloated, step_limit) == fresh
    machine = vm._Machine(image, debloated, step_limit)
    for wl in [*targets, *reversed(targets)]:
        assert machine.run(*targets[wl]) == fresh[wl], wl
        # the machine's state is plain data: this raises TypeError otherwise
        hash(tuple(machine.cells.items()))


@pytest.mark.parametrize("strategy", ["full_module", "localized", "pta"])
def test_reused_machine_matches_fresh_machine_per_workload(strategy):
    for seed in range(50):
        resolver = random_system(random.Random(seed)).resolver(strategy)
        image, _, _ = loader.load_and_debloat("prog", resolver, no_debloat=True)
        _assert_reused_machine_matches_fresh(image, debloated=False)
        image, retained, _ = loader.load_and_debloat("prog", resolver)
        _assert_reused_machine_matches_fresh(image, debloated=True)
        # retention roots every function replay starts in
        for module, func in loader.entry_points(image).values():
            assert func in retained.functions(module), seed


def test_global_cells_do_not_leak_between_workloads():
    # the entry workload arms plugin's hook; the dlsym workload starts afresh,
    # so it must see the hook empty again; prog's own hook is another cell
    system = System(
        sources={
            "prog": "module prog executable\nneeded plugin\nimport arm\n"
                    "global hook = &noop\nfunc noop strong { ret }\n"
                    "func main strong entry {\n"
                    "    call arm\n    h = hook\n    icall h\n    ret\n}\n",
            "plugin": "module plugin\nglobal hook\n"
                      "func fire strong {\n    syscall\n    ret\n}\n"
                      "func arm strong exported {\n"
                      "    v = &fire\n    p = &hook\n    *p = v\n    ret\n}\n"
                      "func poke strong exported {\n    h = hook\n    icall h\n    ret\n}\n",
        },
        training=[pwof.TrainingRecord("dlopen", "plugin"),
                  pwof.TrainingRecord("dlsym", "plugin", "poke")])
    for debloat in (False, True):
        image = loaded(system, debloat=debloat)
        traces = vm.run_workloads(image, debloated=debloat)
        assert traces["entry:main"].completed
        assert traces["entry:main"].indirect_targets == ((("prog", "main", 2), ("prog", "noop")),)
        assert traces["dlsym:plugin/poke"].outcome == \
            (vm.FAULT, "NullIndirectCall", "plugin", "poke", 1)
        _assert_reused_machine_matches_fresh(image, debloated=debloat)


def _relinked(src, **changes):
    """A container for ``src`` with fields replaced after linking, written
    without the checks ``pwof.assemble`` makes."""
    mod = pwof.read_module(compile_source(src))
    for name, value in changes.items():
        setattr(mod, name, value)
    return pwof.serialize(mod)


def test_ir_function_without_symbol_is_rejected_when_indexed():
    prog = _relinked("module prog executable\nfunc main strong entry { ret }\n",
                     ir_text="module prog executable\nfunc ghost strong { ret }\n"
                             "func main strong entry {\n    call ghost\n    ret\n}\n")
    resolver = loader.MemoryResolver({"prog": prog})
    # retention reads the executable's IR for its entry point
    with pytest.raises(LayoutMismatch, match="module 'prog'.* 'ghost'"):
        loader.load_and_debloat("prog", resolver)
    image = loader.load_and_debloat("prog", resolver, no_debloat=True)[0]
    with pytest.raises(LayoutMismatch, match="module 'prog'.* 'ghost'"):
        vm.run_workloads(image)
    assert issubclass(LayoutMismatch, PiecewiseError)


def test_symbol_without_ir_function_is_rejected_when_indexed():
    lib = _relinked("module lib\nfunc work strong exported { ret }\n",
                    ir_text="module lib\nfunc other strong { ret }\n")
    prog = compile_source("module prog executable\nneeded lib\nimport work\n"
                          "func main strong entry {\n    call work\n    ret\n}\n")
    resolver = loader.MemoryResolver({"prog": prog, "lib": lib})
    for debloat in (False, True):
        image = loader.load_and_debloat("prog", resolver, no_debloat=not debloat)[0]
        with pytest.raises(LayoutMismatch, match="module 'lib'"):
            vm.run_workloads(image, debloated=debloat)


_MALFORMED = [("frobnicate!", ParseError), ("call nowhere", UnresolvedName),
              ("vcall v, \u00b2", ParseError), ("o = new Ghost", UnknownType)]


def _with_spare_body(resolver, module, statement):
    """``resolver`` with ``module``'s IR section rewritten so that the body
    of its function ``spare`` starts with ``statement``."""
    src = pwof.read_module(resolver.modules[module]).ir_text
    head, _, tail = src.partition("func spare ")
    ir_text = head + "func spare " + tail.replace("{\n", f"{{\n    {statement}\n", 1)
    blob = _relinked(src, ir_text=ir_text)
    return loader.MemoryResolver({**resolver.modules, module: blob})


_SPARE = System(sources={
    "prog": CALLS.sources["prog"] + "func spare strong {\n    spadj\n    ret\n}\n",
    "lib": CALLS.sources["lib"] + "func spare strong exported {\n    spadj\n    ret\n}\n",
})


@pytest.mark.parametrize("module", ["prog", "lib"])
@pytest.mark.parametrize("statement, error", _MALFORMED)
def test_malformed_body_matters_only_when_entered(module, statement, error):
    clean = _SPARE.resolver()
    bad = _with_spare_body(clean, module, statement)
    for debloat in (False, True):
        expected = loader.load_and_debloat("prog", clean, no_debloat=not debloat)
        image, *retention = loader.load_and_debloat("prog", bad, no_debloat=not debloat)
        assert retention == list(expected[1:])
        assert vm.run_workloads(image, debloated=debloat) == \
            vm.run_workloads(expected[0], debloated=debloat)
    image = loader.load_and_debloat("prog", bad, no_debloat=True)[0]
    with pytest.raises(error):
        vm._Machine(image, debloated=False, step_limit=100).run(module, "spare")
    assert issubclass(error, PiecewiseError)


def _shrunk(blob: bytes, name: str, drop_edges: bool = False) -> bytes:
    """``blob`` re-serialised with ``name``'s symbol size set to 0, and,
    with ``drop_edges``, every ``.dep`` edge to it removed."""
    mod = pwof.read_module(blob)
    i = mod.symbol_index(name)
    symbols = list(mod.symbols)
    symbols[i] = symbols[i]._replace(size=0)
    mod.symbols = tuple(symbols)
    if drop_edges:
        mod.dep.records = {s: rec._replace(deps=tuple(d for d in rec.deps if d != i))
                           for s, rec in mod.dep.records.items()}
    return pwof.serialize(mod)


def test_body_that_overfills_its_symbol_rejected_when_entered():
    system = System(sources={
        "prog": "module prog executable\nneeded lib\nimport a\n"
                "func main strong entry {\n    call a\n    ret\n}\n",
        "lib": "module lib\nfunc a strong exported {\n    call b\n    ret\n}\n"
               "func b strong {\n    syscall\n    ret\n}\n",
    })
    clean = system.resolver()
    assert vm.run_workloads(loaded(system))["entry:main"].entered[-1] == ("lib", "b")
    # b says it has no code, and a's edge to b is gone, so retention removes
    # b without writing a byte; entering it must not run its body
    resolver = loader.MemoryResolver({**clean.modules,
                                      "lib": _shrunk(clean.modules["lib"], "b", drop_edges=True)})
    image, retained, _ = loader.load_and_debloat("prog", resolver)
    assert "b" not in retained.functions("lib")
    pristine = loader.load_and_debloat("prog", resolver, no_debloat=True)[0]
    for img, debloated in ((pristine, False), (image, True)):
        with pytest.raises(LayoutMismatch, match="module 'lib': size of 'b' disagrees"):
            vm.run_workloads(img, debloated=debloated)


def test_zero_size_mutation_raises_wherever_the_function_is_entered():
    entering = 0
    for strategy in ("full_module", "localized", "pta"):
        for seed in range(40):
            rng = random.Random(seed)
            clean = random_system(rng).resolver(strategy)
            libs = [pwof.read_module(blob) for name, blob in sorted(clean.modules.items())
                    if name != "prog"]
            mod = rng.choice(libs)
            name = rng.choice([s.name for s in mod.defined_symbols() if s.size])
            resolver = loader.MemoryResolver({**clean.modules,
                                              mod.name: _shrunk(clean.modules[mod.name], name)})
            pristine = loader.load_and_debloat("prog", clean, no_debloat=True)[0]
            expected = vm.run_workloads(pristine, step_limit=2500)
            entered = any((mod.name, name) in t.entered for t in expected.values())
            entering += entered
            for debloated in (False, True):
                image = loader.load_and_debloat("prog", resolver, no_debloat=not debloated)[0]
                if entered:
                    with pytest.raises(LayoutMismatch, match=f"size of {name!r}"):
                        vm.run_workloads(image, debloated=debloated, step_limit=2500)
                else:
                    assert vm.run_workloads(image, debloated=debloated,
                                            step_limit=2500) == expected
    assert entering >= 20


def _retarget_call(rng, ir_text):
    """``ir_text`` with one ``call`` retargeted to another function the
    module defines, as (the caller's name, the new text); None when no call
    can be."""
    module = ir.parse_module(ir_text)
    defined = set(module.function_names())
    sites = [(i, pc) for i, fn in enumerate(module.functions)
             for pc, st in enumerate(fn.body) if st.kind == "call" and defined - {st.a}]
    if not sites:
        return None
    i, pc = rng.choice(sites)
    fn = module.functions[i]
    body = list(fn.body)
    body[pc] = body[pc]._replace(a=rng.choice(sorted(defined - {body[pc].a})))
    functions = list(module.functions)
    functions[i] = replace(fn, body=tuple(body))
    return fn.name, ir.pretty_print(replace(module, functions=tuple(functions)))


def test_ir_call_retargeted_past_its_code_rejected_when_entered():
    system = System(sources={
        "prog": "module prog executable\nneeded lib\nimport a\n"
                "func main strong entry {\n    call a\n    ret\n}\n",
        "lib": "module lib\nfunc a strong exported {\n    call b\n    ret\n}\n"
               "func b strong {\n    syscall\n    ret\n}\n"
               "func c strong {\n    spadj\n    ret\n}\n",
    })
    clean = system.resolver()
    src = pwof.read_module(clean.modules["lib"]).ir_text
    # the IR says `call c`, the code and the .dep still say `call b`, so
    # retention removes c; the body must not be believed over its bytes
    resolver = loader.MemoryResolver({**clean.modules, "lib": _relinked(
        src, ir_text=src.replace("call b", "call c"))})
    image, retained, _ = loader.load_and_debloat("prog", resolver)
    assert "c" not in retained.functions("lib")
    pristine = loader.load_and_debloat("prog", resolver, no_debloat=True)[0]
    for img, debloated in ((pristine, False), (image, True)):
        with pytest.raises(LayoutMismatch, match="module 'lib': code of 'a' disagrees"):
            vm.run_workloads(img, debloated=debloated)


def test_ir_call_retarget_raises_wherever_the_function_is_entered():
    mutants = rejected = 0
    for strategy in ("full_module", "localized", "pta"):
        for seed in range(40):
            rng = random.Random(seed)
            clean = random_system(rng).resolver(strategy)
            libs = sorted(name for name in clean.modules if name != "prog")
            for name in rng.sample(libs, len(libs)):
                src = pwof.read_module(clean.modules[name]).ir_text
                mutant = _retarget_call(rng, src)
                if mutant is not None:
                    break
            else:
                continue
            mutants += 1
            func, ir_text = mutant
            resolver = loader.MemoryResolver({**clean.modules,
                                              name: _relinked(src, ir_text=ir_text)})
            pristine = loader.load_and_debloat("prog", clean, no_debloat=True)[0]
            expected = vm.run_workloads(pristine, step_limit=2500)
            entered = any((name, func) in t.entered for t in expected.values())
            rejected += entered
            for debloated in (False, True):
                image = loader.load_and_debloat("prog", resolver, no_debloat=not debloated)[0]
                if entered:
                    with pytest.raises(LayoutMismatch, match="disagrees with its IR"):
                        vm.run_workloads(image, debloated=debloated, step_limit=2500)
                else:
                    assert vm.run_workloads(image, debloated=debloated,
                                            step_limit=2500) == expected
    assert mutants >= 100 and rejected >= 10, (mutants, rejected)


def test_dlsym_record_for_unloaded_module_uses_executable_binding():
    lib = compile_source("module lib\nfunc work strong exported {\n    syscall\n    ret\n}\n")
    src = "module prog executable\nneeded lib\nimport work\nfunc main strong entry { ret }\n"
    bound = _relinked(src, training=(pwof.TrainingRecord("dlsym", "absent", "work"),))
    unbound = _relinked(src, training=(pwof.TrainingRecord("dlsym", "absent", "nowhere"),))

    image, _, _ = loader.load_and_debloat(
        "prog", loader.MemoryResolver({"prog": bound, "lib": lib}), no_debloat=True)
    traces = vm.run_workloads(image)
    assert traces["dlsym:absent/work"].entered == (("lib", "work"),)
    assert traces["dlsym:absent/work"].completed

    image, _, _ = loader.load_and_debloat(
        "prog", loader.MemoryResolver({"prog": unbound, "lib": lib}), no_debloat=True)
    with pytest.raises(UnresolvedSymbol):
        vm.run_workloads(image)


# libm interposes calloc: it imports the name beside its own weak fallback,
# so every reference in libm reaches the program's strong definition
_CALLOC_REACH = {
    "call": ("", "    call calloc\n"),
    "addr_of+icall": ("", "    p = &calloc\n    icall p\n"),
    "vtable slot": ("vtable Alloc { calloc }\n", "    o = new Alloc\n    vcall o, 0\n"),
}


@pytest.mark.parametrize("strategy", ["full_module", "localized", "pta"])
@pytest.mark.parametrize("reach", sorted(_CALLOC_REACH))
def test_interposed_import_reaches_its_binding(reach, strategy):
    vtable, body = _CALLOC_REACH[reach]
    system = System(sources={
        "prog": "module prog executable\nneeded libm\nimport compute\n"
                "func calloc strong exported { ret }\n"
                "func main strong entry {\n    call compute\n    ret\n}\n",
        "libm": "module libm\nimport calloc\n" + vtable +
                "func calloc weak exported {\n    syscall\n    ret\n}\n"
                "func compute strong exported {\n" + body + "    ret\n}\n",
    })
    resolver = system.resolver(strategy)
    pristine = loader.load_and_debloat("prog", resolver, no_debloat=True)[0]
    image, retained, _ = loader.load_and_debloat("prog", resolver)
    before = vm.run_workloads(pristine)
    after = vm.run_workloads(image, debloated=True)
    assert before == after
    assert before["entry:main"].completed
    assert ("prog", "calloc") in before["entry:main"].entered
    assert "calloc" not in retained.functions("libm")
    libm = image.module("libm")
    fallback = libm.symbol("calloc")
    assert (image.memory["libm"][fallback.value] == TRAP_BYTE
            or image.page_state["libm"][fallback.value // image.page_size] == loader.PAGE_NX)
