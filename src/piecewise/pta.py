"""Inclusion-based (Andersen-style) points-to analysis over the mini-IR.

Variables are function-mangled local names (``fn:var``) or plain global
names.  Abstract locations are function addresses, vtable bases and global
cells; a global acts both as a variable (its cell content) and as a
location (its cell address).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from .ir import Module

LOC_FUNC = "func"
LOC_CELL = "cell"
LOC_VTABLE = "vtable"


@dataclass(frozen=True, order=True)
class Loc:
    kind: str
    name: str


@dataclass(frozen=True)
class Constraint:
    kind: str  # address_of | copy | load | store
    lhs: str
    rhs: str | Loc  # Loc for address_of, variable name otherwise


@dataclass
class PointsToMap:
    pts: dict[str, frozenset[Loc]] = field(default_factory=dict)

    def of(self, var: str) -> frozenset[Loc]:
        return self.pts.get(var, frozenset())


def mangle(function: str, var: str) -> str:
    return f"{function}:{var}"


def _var(globals_: set[str], function: str, name: str) -> str:
    return name if name in globals_ else mangle(function, name)


def generate_constraints(module: Module) -> list[Constraint]:
    """One constraint per reference statement plus implicit ones for
    global initializers and object instantiations."""
    out: list[Constraint] = []
    globals_ = module.global_names()
    for g in module.globals:
        if g.initializer is not None:
            out.append(Constraint("address_of", g.name, Loc(LOC_FUNC, g.initializer)))
    for fn in module.functions:
        for st in fn.body:
            if st.kind == "addr_of":
                lhs = _var(globals_, fn.name, st.a)
                if st.b in globals_:
                    out.append(Constraint("address_of", lhs, Loc(LOC_CELL, st.b)))
                else:
                    out.append(Constraint("address_of", lhs, Loc(LOC_FUNC, st.b)))
            elif st.kind in ("copy", "load", "store"):  # each is its own constraint kind
                out.append(Constraint(st.kind, _var(globals_, fn.name, st.a),
                                      _var(globals_, fn.name, st.b)))
            elif st.kind == "new_object":
                out.append(Constraint("address_of", _var(globals_, fn.name, st.a),
                                      Loc(LOC_VTABLE, st.b)))
    return out


def solve_inclusion(constraints: list[Constraint]) -> PointsToMap:
    """Least fixpoint by FIFO worklist with dynamic edges for load/store."""
    pts: dict[str, set[Loc]] = defaultdict(set)
    succ: dict[str, set[str]] = defaultdict(set)  # copy edges: v -> w means pts(w) >= pts(v)
    loads: dict[str, set[str]] = defaultdict(set)  # p -> dst of `dst = *p`
    stores: dict[str, set[str]] = defaultdict(set)  # p -> src of `*p = src`

    work: deque[str] = deque()
    queued: set[str] = set()

    def push(v: str) -> None:
        if v not in queued:
            queued.add(v)
            work.append(v)

    def propagate(src: str, dst: str) -> None:
        if not pts[src] <= pts[dst]:
            pts[dst] |= pts[src]
            push(dst)

    for c in constraints:
        if c.kind == "address_of":
            if c.rhs not in pts[c.lhs]:
                pts[c.lhs].add(c.rhs)
                push(c.lhs)
        elif c.kind == "copy":
            succ[c.rhs].add(c.lhs)
            push(c.rhs)
        elif c.kind == "load":
            loads[c.rhs].add(c.lhs)
            push(c.rhs)
        elif c.kind == "store":
            stores[c.lhs].add(c.rhs)
            push(c.lhs)
        else:
            raise ValueError(c.kind)

    while work:
        v = work.popleft()
        queued.discard(v)
        for loc in list(pts[v]):
            if loc.kind != LOC_CELL:
                continue
            cell = loc.name
            for dst in loads[v]:
                succ[cell].add(dst)
                propagate(cell, dst)
            for src in stores[v]:
                succ[src].add(cell)
                propagate(src, cell)
        for dst in succ[v]:
            propagate(v, dst)

    return PointsToMap({v: frozenset(s) for v, s in pts.items() if s})


def indirect_edges(module: Module, ptmap: PointsToMap):
    """Edges for icall/ijmp targets and vcall slot dispatch from solved sets.

    Returns (edges, diagnostics); an empty points-to set at a call site is
    recorded as an EmptyPointsTo diagnostic, not an error.
    """
    edges: dict[str, set[str]] = {fn.name: set() for fn in module.functions}
    diagnostics: list[str] = []
    globals_ = module.global_names()
    vtables = {vt.type_name: vt for vt in module.vtables}
    for fn in module.functions:
        for idx, st in enumerate(fn.body):
            if st.kind in ("icall", "ijmp"):
                locs = ptmap.of(_var(globals_, fn.name, st.a))
                funcs = {l.name for l in locs if l.kind == LOC_FUNC}
                if not funcs:
                    diagnostics.append(f"EmptyPointsTo: {fn.name}[{idx}] {st.kind} {st.a}")
                edges[fn.name].update(funcs)
            elif st.kind == "vcall":
                locs = ptmap.of(_var(globals_, fn.name, st.a))
                bases = sorted(l.name for l in locs if l.kind == LOC_VTABLE)
                if not bases:
                    diagnostics.append(f"EmptyPointsTo: {fn.name}[{idx}] vcall {st.a}")
                for type_name in bases:
                    entries = vtables[type_name].entries
                    if st.b >= len(entries):
                        diagnostics.append(
                            f"BadVTableSlot: {fn.name}[{idx}] vcall {st.a}, {st.b} on {type_name}")
                        continue
                    edges[fn.name].add(entries[st.b])
    return edges, diagnostics


def format_constraint(c: Constraint) -> str:
    if c.kind == "address_of":
        return f"address_of {c.lhs} {c.rhs.kind}:{c.rhs.name}"
    return f"{c.kind} {c.lhs} {c.rhs}"
