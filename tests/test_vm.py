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


@pytest.mark.parametrize("page_size, how", [(4096, "trap"), (8, "nx")])
def test_removed_function_traps_when_entered(page_size, how):
    # lib/never shares its page with lib/work at 4096 bytes and has one of its own at 8
    image = loaded(CALLS, page_size=page_size)
    trace = vm.run_workloads(image, debloated=True)["entry:main"]
    assert trace.completed
    # force entry into the function the loader removed
    machine = vm._Machine(image, debloated=True, step_limit=100)
    assert machine.run("lib", "never").outcome == (vm.TRAPPED, "lib", "never", how)


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


def test_entry_that_ends_without_ret_completes():
    # falling off the end of a body costs no step
    system = System(sources={"prog": "module prog executable\nfunc main strong entry { spadj }\n"})
    for debloat in (False, True):
        image = loaded(system, debloat=debloat)
        for step_limit, outcome in ((1, (vm.COMPLETED,)), (0, (vm.LIMIT_EXCEEDED,))):
            traces = vm.run_workloads(image, debloat, step_limit)
            assert traces == _reference_traces(image, debloat, step_limit)
            assert traces["entry:main"].outcome == outcome


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


def _reference_traces(image, debloated, step_limit):
    """Every entry point's trace from a plain interpreter that steps through
    the statements ``ir.parse_module`` reads from each module's IR, one
    statement per step, kept as the reference that ``vm.run_workloads`` (which
    decodes each body into ops once) must agree with."""
    modules = {mod.name: ir.parse_module(mod.ir_text) for mod in image.load_order}
    bodies = {(name, fn.name): fn.body for name, m in modules.items() for fn in m.functions}
    initial, vtables = {}, {}
    for name, m in modules.items():
        for g in m.globals:
            initial[name, g.name] = (None if g.initializer is None
                                     else ("func", image.target(name, g.initializer)))
        for vt in m.vtables:
            vtables[name, vt.type_name] = ("vtable",
                                           tuple(image.target(name, e) for e in vt.entries))

    def trap(module, func):
        if not debloated:
            return None
        sym = image.module(module).symbol(func)
        if sym.size == 0:
            return None
        if image.page_state[module][sym.value // image.page_size] == loader.PAGE_NX:
            return (vm.TRAPPED, module, func, "nx")
        if image.memory[module][sym.value] == TRAP_BYTE:
            return (vm.TRAPPED, module, func, "trap")
        return None

    def run(key):
        cells = dict(initial)
        entered, indirect = [key], []
        module, func = key
        callers = []  # (module, func, pc, env) of each suspended frame
        pc, env, steps = 0, {}, 0

        def var(name):  # the table and key that hold a variable of the current frame
            return (cells, (module, name)) if (module, name) in cells else (env, name)

        outcome = trap(module, func)
        while outcome is None:
            body = bodies[module, func]
            if pc == len(body):
                returning = True  # falling off the end costs no step
            elif steps == step_limit:
                outcome = (vm.LIMIT_EXCEEDED,)
                break
            else:
                steps += 1
                st = body[pc]
                site = (module, func, pc)
                pc += 1
                returning = st.kind == "ret"
                callee = None
                if st.kind == "addr_of":
                    table, k = var(st.a)
                    table[k] = (("cell", (module, st.b)) if (module, st.b) in cells
                                else ("func", image.target(module, st.b)))
                elif st.kind == "copy":
                    table, k = var(st.a)
                    source, sk = var(st.b)
                    table[k] = source.get(sk)
                elif st.kind == "load":
                    source, sk = var(st.b)
                    ptr = source.get(sk)
                    table, k = var(st.a)
                    table[k] = cells[ptr[1]] if ptr is not None and ptr[0] == "cell" else None
                elif st.kind == "store":
                    source, sk = var(st.a)
                    ptr = source.get(sk)
                    if ptr is not None and ptr[0] == "cell":
                        value, vk = var(st.b)
                        cells[ptr[1]] = value.get(vk)
                elif st.kind == "new_object":
                    table, k = var(st.a)
                    table[k] = vtables[module, st.b]
                elif st.kind == "call":
                    callee = image.target(module, st.a)
                elif st.kind in ("icall", "ijmp", "vcall"):
                    source, sk = var(st.a)
                    value = source.get(sk)
                    wanted = "vtable" if st.kind == "vcall" else "func"
                    if value is None or value[0] != wanted:
                        outcome = (vm.FAULT, "NullIndirectCall", *site)
                        break
                    if st.kind == "vcall" and st.b >= len(value[1]):
                        outcome = (vm.FAULT, "BadVTableSlot", *site)
                        break
                    callee = value[1][st.b] if st.kind == "vcall" else value[1]
                    indirect.append((site, callee))
                if callee is not None:  # a call suspends this frame, an ijmp replaces it
                    if st.kind != "ijmp":
                        callers.append((module, func, pc, env))
                    module, func = callee
                    pc, env = 0, {}
                    entered.append(callee)
                    outcome = trap(module, func)
                    continue
            if returning:
                if not callers:
                    outcome = (vm.COMPLETED,)
                    break
                module, func, pc, env = callers.pop()
        return vm.Trace(tuple(entered), tuple(indirect), outcome)

    return {name: run(key) for name, key in loader.entry_points(image).items()}


# programs that fault, jump or loop, which random systems do not
_DIRECTED = [System(sources={"prog": "module prog executable\n" + src}) for src in (
    "global empty\nfunc main strong entry {\n    v = empty\n    icall v\n    ret\n}\n",
    "vtable T { f g }\nfunc f strong { ret }\nfunc g strong {\n    syscall\n}\n"
    "func main strong entry {\n    o = new T\n    vcall o, 1\n    vcall o, 2\n    ret\n}\n",
    "vtable T { f }\nfunc f strong { ret }\n"
    "func main strong entry {\n    o = &f\n    vcall o, 0\n    ret\n}\n",
    "global self = &spin\nfunc spin strong {\n    v = self\n    p = &self\n    *p = v\n"
    "    w = *p\n    ijmp w\n}\nfunc main strong entry {\n    call spin\n    ret\n}\n",
)]
# two modules that each declare a `vtable T`: a `new T` takes its own module's
_TWO_TYPES_T = System(sources={
    "prog": "module prog executable\nneeded lib\nimport run\nvtable T { f }\n"
            "func f strong { ret }\n"
            "func main strong entry {\n    o = new T\n    vcall o, 0\n    call run\n    ret\n}\n",
    "lib": "module lib\nvtable T { g f }\nfunc f strong { ret }\nfunc g strong { ret }\n"
           "func run strong exported {\n    o = new T\n    vcall o, 0\n    ret\n}\n",
})
_DIRECTED.append(_TWO_TYPES_T)
# a library with an initialised global that only a dlsym workload enters:
# replay opens it in the middle of the machine's second run
_DLSYM_ONLY = System(
    sources={
        "prog": "module prog executable\nfunc main strong entry { ret }\n",
        "plugin": "module plugin\nglobal hook = &fire\nfunc fire strong {\n    syscall\n}\n"
                  "func poke strong exported {\n    h = hook\n    icall h\n"
                  "    p = &hook\n    *p = h\n    w = *p\n    icall w\n    ret\n}\n",
    },
    training=[pwof.TrainingRecord("dlopen", "plugin"),
              pwof.TrainingRecord("dlsym", "plugin", "poke")])
_DIRECTED.append(_DLSYM_ONLY)


def test_new_takes_its_own_modules_vtable():
    image = loader.load_and_debloat("prog", _TWO_TYPES_T.resolver())[0]
    trace = vm.run_workloads(image, debloated=True)["entry:main"]
    assert trace.completed
    assert trace.indirect_targets == ((("prog", "main", 1), ("prog", "f")),
                                      (("lib", "run", 1), ("lib", "g")))


@pytest.mark.parametrize("strategy", ["full_module", "localized", "pta"])
def test_replay_agrees_with_the_reference_interpreter(strategy):
    outcomes = set()
    systems = _DIRECTED + [random_system(random.Random(seed)) for seed in range(30)]
    for system in systems:
        resolver = system.resolver(strategy)
        pristine = loader.load_and_debloat("prog", resolver, no_debloat=True)[0]
        image = loader.load_and_debloat("prog", resolver)[0]
        for step_limit in (0, 1, 37, 500, 2500):
            for img, debloated in ((pristine, False), (image, True)):
                expected = _reference_traces(img, debloated, step_limit)
                assert vm.run_workloads(img, debloated, step_limit) == expected, \
                    (system, step_limit, debloated)
                outcomes.update(t.outcome[:2] for t in expected.values())
    assert outcomes == {(vm.COMPLETED,), (vm.LIMIT_EXCEEDED,), (vm.FAULT, "NullIndirectCall"),
                        (vm.FAULT, "BadVTableSlot")}, outcomes


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


def _relinked(src, strategy="localized", **changes):
    """A container for ``src``, linked under ``strategy``, with fields replaced
    after linking, written without the checks ``pwof.assemble`` makes."""
    mod = pwof.read_module(compile_source(src, strategy))
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


# prog needs lib and imports its work, but never calls it
_IDLE_LIB = System(sources={
    "prog": "module prog executable\nneeded lib\nimport work\n"
            "func main strong entry {\n    syscall\n    ret\n}\n",
    "lib": "module lib\nglobal hook = &work\nfunc work strong exported { ret }\n",
})


def test_a_library_is_opened_only_when_replay_enters_it():
    for debloat in (False, True):
        image = loaded(_IDLE_LIB, debloat=debloat)
        traces = vm.run_workloads(image, debloated=debloat)
        assert traces["entry:main"].outcome == (vm.COMPLETED,)
        assert "ir_index" not in image.module("lib").__dict__
        assert "ir_index" in image.module("prog").__dict__
    # a dlsym workload opens its library on the machine's second run; the
    # next run resets that library's cells too
    image = loaded(_DLSYM_ONLY, debloat=False)
    machine = vm._Machine(image, debloated=False, step_limit=100)
    assert machine.run("prog", "main").completed
    assert machine.cells == {}
    first = machine.run("plugin", "poke")
    assert machine.cells == {("plugin", "hook"): ("func", ("plugin", "fire"))}
    assert machine.run("prog", "main").completed
    assert machine.run("plugin", "poke") == first


def test_a_broken_library_that_replay_never_enters_does_not_stop_it():
    # a module-level fault (an unterminated body) is found only by indexing
    lib = _relinked(_IDLE_LIB.sources["lib"],
                    ir_text="module lib\nfunc work strong exported {\n    ret\n")
    resolver = loader.MemoryResolver({**_IDLE_LIB.resolver().modules, "lib": lib})
    for debloat in (False, True):
        image = loader.load_and_debloat("prog", resolver, no_debloat=not debloat)[0]
        assert vm.run_workloads(image, debloated=debloat)["entry:main"].outcome == \
            (vm.COMPLETED,)
        with pytest.raises(ParseError):
            image.module("lib").ir_index


_MALFORMED = [("frobnicate!", ParseError), ("call nowhere", UnresolvedName),
              ("vcall v, \u00b2", ParseError), ("o = new Ghost", UnknownType),
              ("call hook", UnresolvedName)]


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
                                              name: _relinked(src, strategy,
                                                              ir_text=ir_text)})
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


# a reads g1; only d, which nothing calls, reads g2 = &c
_VAR_RETARGET = System(sources={
    "prog": "module prog executable\nneeded lib\nimport a\n"
            "func main strong entry {\n    call a\n    ret\n}\n",
    "lib": "module lib\nglobal g1 = &b\nglobal g2 = &c\n"
           "func a strong exported {\n    h = g1\n    icall h\n    ret\n}\n"
           "func b strong {\n    syscall\n    ret\n}\n"
           "func c strong {\n    spadj\n    ret\n}\n"
           "func d strong exported {\n    h = g2\n    icall h\n    ret\n}\n",
})

_UNVOUCHED = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a variable operand encodes 0, so the body check cannot see the IR read g2 "
    "for g1, and retention, which follows the .dep, removes c"))


@pytest.mark.parametrize("strategy", ["full_module", pytest.param("localized", marks=_UNVOUCHED),
                                      pytest.param("pta", marks=_UNVOUCHED)])
def test_ir_variable_retarget_replays_as_pristine(strategy):
    clean = _VAR_RETARGET.resolver(strategy)
    src = pwof.read_module(clean.modules["lib"]).ir_text
    # the IR says `h = g2`, the code and the .dep still say what `h = g1` needs
    resolver = loader.MemoryResolver({**clean.modules, "lib": _relinked(
        src, strategy, ir_text=src.replace("h = g1", "h = g2"))})
    pristine = loader.load_and_debloat("prog", resolver, no_debloat=True)[0]
    before = vm.run_workloads(pristine)["entry:main"]
    assert before.outcome == (vm.COMPLETED,)
    assert ("lib", "c") in before.entered
    image = loader.load_and_debloat("prog", resolver)[0]
    assert vm.run_workloads(image, debloated=True)["entry:main"] == before


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
