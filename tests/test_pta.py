import random

from hypothesis import given, settings, strategies as st

from conftest import random_system
from piecewise import ir, loader, pta, vm
from piecewise.pta import Constraint, Loc


def naive_solve(constraints):
    """Reference fixpoint: re-apply every rule until nothing changes."""
    pts = {}

    def get(v):
        return pts.setdefault(v, set())

    for c in constraints:
        if c.kind == "address_of":
            get(c.lhs).add(c.rhs)
    changed = True
    while changed:
        changed = False
        for c in constraints:
            if c.kind == "copy":
                add = get(c.rhs) - get(c.lhs)
                if add:
                    get(c.lhs).update(add)
                    changed = True
            elif c.kind == "load":
                for loc in list(get(c.rhs)):
                    if loc.kind == pta.LOC_CELL:
                        add = get(loc.name) - get(c.lhs)
                        if add:
                            get(c.lhs).update(add)
                            changed = True
            elif c.kind == "store":
                for loc in list(get(c.lhs)):
                    if loc.kind == pta.LOC_CELL:
                        add = get(c.rhs) - get(loc.name)
                        if add:
                            get(loc.name).update(add)
                            changed = True
    return {v: frozenset(s) for v, s in pts.items() if s}


def random_constraints(rng, nvars=12, n=25):
    variables = [f"x{i}" for i in range(nvars)]
    cells = [f"c{i}" for i in range(4)]
    out = []
    for _ in range(n):
        kind = rng.choice(["address_of", "address_of", "copy", "load", "store"])
        if kind == "address_of":
            loc = rng.choice(
                [Loc(pta.LOC_FUNC, f"f{rng.randrange(6)}"),
                 Loc(pta.LOC_CELL, rng.choice(cells)),
                 Loc(pta.LOC_VTABLE, "T")])
            out.append(Constraint("address_of", rng.choice(variables + cells), loc))
        else:
            out.append(Constraint(kind, rng.choice(variables + cells),
                                  rng.choice(variables + cells)))
    return out


def test_worklist_matches_naive_fixpoint():
    for seed in range(200):
        constraints = random_constraints(random.Random(seed))
        solved = pta.solve_inclusion(constraints)
        assert solved.pts == naive_solve(constraints), seed


def test_solution_monotone_in_constraints():
    for seed in range(50):
        rng = random.Random(1000 + seed)
        constraints = random_constraints(rng)
        cut = rng.randrange(len(constraints))
        small = pta.solve_inclusion(constraints[:cut])
        big = pta.solve_inclusion(constraints)
        for var, locs in small.pts.items():
            assert locs <= big.of(var), (seed, var)


@given(st.integers(0, 2**32 - 1), st.integers(2, 20), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_worklist_matches_naive_fixpoint_hypothesis(seed, nvars, n):
    constraints = random_constraints(random.Random(seed), nvars, n)
    assert pta.solve_inclusion(constraints).pts == naive_solve(constraints)


def test_registered_callback_points_to_target():
    m = ir.parse_module(
        "module iolib\n"
        "global write_slot = &stdout_write\n"
        "func stdout_write strong { ret }\n"
        "func fwrite strong {\n    w = write_slot\n    icall w\n    ret\n}\n")
    solved = pta.solve_inclusion(pta.generate_constraints(m))
    assert solved.of(pta.mangle("fwrite", "w")) == \
        frozenset({Loc(pta.LOC_FUNC, "stdout_write")})


def test_store_through_global_cell():
    m = ir.parse_module(
        "module a\nglobal slot\n"
        "func handler strong { ret }\n"
        "func install strong {\n    h = &handler\n    p = &slot\n    *p = h\n    ret\n}\n"
        "func use strong {\n    f = slot\n    icall f\n    ret\n}\n")
    solved = pta.solve_inclusion(pta.generate_constraints(m))
    assert Loc(pta.LOC_FUNC, "handler") in solved.of("slot")
    assert Loc(pta.LOC_FUNC, "handler") in solved.of(pta.mangle("use", "f"))


def test_locals_do_not_leak_between_functions():
    m = ir.parse_module(
        "module a\n"
        "func one strong { ret }\n"
        "func f strong {\n    v = &one\n    ret\n}\n"
        "func g strong {\n    icall v\n    ret\n}\n")
    solved = pta.solve_inclusion(pta.generate_constraints(m))
    assert solved.of(pta.mangle("g", "v")) == frozenset()
    edges, diagnostics = pta.indirect_edges(m, solved)
    assert edges["g"] == set()
    assert any("EmptyPointsTo" in d for d in diagnostics)


def test_vcall_dispatch_through_vtable():
    m = ir.parse_module(
        "module a\nvtable Shape { area draw }\n"
        "func area strong { ret }\nfunc draw strong { ret }\n"
        "func go strong {\n    o = new Shape\n    vcall o, 1\n    ret\n}\n")
    solved = pta.solve_inclusion(pta.generate_constraints(m))
    assert solved.of(pta.mangle("go", "o")) == frozenset({Loc(pta.LOC_VTABLE, "Shape")})
    edges, diagnostics = pta.indirect_edges(m, solved)
    assert edges["go"] == {"draw"}
    assert diagnostics == []


def test_bad_vtable_slot_is_a_diagnostic():
    m = ir.parse_module(
        "module a\nvtable Shape { area }\n"
        "func area strong { ret }\n"
        "func go strong {\n    o = new Shape\n    vcall o, 7\n    ret\n}\n")
    solved = pta.solve_inclusion(pta.generate_constraints(m))
    edges, diagnostics = pta.indirect_edges(m, solved)
    assert edges["go"] == set()
    assert any("BadVTableSlot" in d for d in diagnostics)


def test_format_constraint_round_readable():
    c = Constraint("address_of", "x", Loc(pta.LOC_FUNC, "f"))
    assert pta.format_constraint(c) == "address_of x func:f"
    assert pta.format_constraint(Constraint("copy", "a", "b")) == "copy a b"


def _solved_covers(image):
    """Each indirect site's solved cover, ``(module, function, pc) -> keys``:
    the functions an ``icall``/``ijmp`` variable may hold, or the slot entry
    of each vtable a ``vcall`` variable may hold, mapped through the image."""
    covers = {}
    for mod in image.load_order:
        module = ir.parse_module(mod.ir_text)
        ptmap = pta.solve_inclusion(pta.generate_constraints(module))
        globals_ = {g.name for g in module.globals}
        vtables = {vt.type_name: vt.entries for vt in module.vtables}
        for fn in module.functions:
            for pc, st in enumerate(fn.body):
                if st.kind not in ("icall", "ijmp", "vcall"):
                    continue
                locs = ptmap.of(st.a if st.a in globals_ else pta.mangle(fn.name, st.a))
                if st.kind == "vcall":
                    names = [vtables[loc.name][st.b] for loc in locs
                             if loc.kind == pta.LOC_VTABLE and st.b < len(vtables[loc.name])]
                else:
                    names = [loc.name for loc in locs if loc.kind == pta.LOC_FUNC]
                covers[(mod.name, fn.name, pc)] = {image.target(mod.name, n) for n in names}
    return covers


def test_observed_indirect_targets_lie_inside_the_solved_cover():
    transfers = 0
    for seed in range(240):
        system = random_system(random.Random(seed))
        image = loader.load_and_debloat(system.exe, system.resolver("pta"), no_debloat=True)[0]
        covers = _solved_covers(image)
        for trace in vm.run_workloads(image, step_limit=2500).values():
            for site, target in trace.indirect_targets:
                assert target in covers[site], (seed, site, target)
            transfers += len(trace.indirect_targets)
    assert transfers > 10_000  # the property is exercised
