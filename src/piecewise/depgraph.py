"""Per-function dependency graphs under the three code-pointer strategies.

A graph always contains direct-call edges, vtable-instantiation edges and
the always-retain set for asm functions.  The strategies differ only in how
indirect branches are covered:

* ``full_module`` records every address-taken function in a module-wide
  required set,
* ``localized`` attaches an edge from the function containing the
  address-taking reference (or reading an initialized global) to the target,
* ``pta`` feeds the inclusion-based solver and adds edges from points-to
  sets at icall/vcall sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnknownType
from .ir import Module

STRATEGIES = ("full_module", "localized", "pta")


@dataclass(frozen=True, order=True)
class DepTarget:
    kind: str  # "local" | "import"
    symbol: str


@dataclass
class DepGraph:
    strategy: str
    edges: dict[str, set[DepTarget]] = field(default_factory=dict)
    required_globals: set[str] = field(default_factory=set)  # address-taken, module-wide
    always_retain: set[str] = field(default_factory=set)  # asm functions
    diagnostics: list[str] = field(default_factory=list)

    def add_edge(self, src: str, target: DepTarget) -> None:
        self.edges.setdefault(src, set()).add(target)


def _target(imports: set[str], symbol: str) -> DepTarget:
    """The compile-side reference rule: a name the module imports is an
    import (it shadows a same-named function), any other name is local."""
    return DepTarget("import" if symbol in imports else "local", symbol)


def build_direct_callgraph(module: Module) -> DepGraph:
    """Edges for direct calls; asm functions contribute calls and are pinned."""
    graph = DepGraph("direct", edges={fn.name: set() for fn in module.functions})
    imports = set(module.imports)
    for fn in module.functions:
        if fn.is_asm:
            graph.always_retain.add(fn.name)
        for st in fn.body:
            if st.kind == "call":
                graph.add_edge(fn.name, _target(imports, st.a))
    return graph


def full_module_scan(module: Module) -> set[str]:
    """Every function whose address is referenced anywhere in the module."""
    taken: set[str] = set()
    callable_ = set(module.function_names()) | set(module.imports)
    for fn in module.functions:
        for st in fn.body:
            if st.kind == "addr_of" and st.b in callable_:
                taken.add(st.b)
    for g in module.globals:
        if g.initializer is not None:
            taken.add(g.initializer)
    for vt in module.vtables:
        taken.update(vt.entries)
    return taken


def _operand_names(fn) -> set[str]:
    names = set()
    for st in fn.body:
        for op in (st.a, st.b):
            if isinstance(op, str):
                names.add(op)
    return names


def localized_scan(module: Module) -> DepGraph:
    """Use-def style scan: address references bind to their containing function."""
    graph = build_direct_callgraph(module)
    graph.strategy = "localized"
    imports = set(module.imports)
    callable_ = set(module.function_names()) | imports
    init_by_global = {g.name: g.initializer for g in module.globals if g.initializer}
    for fn in module.functions:
        for st in fn.body:
            if st.kind == "addr_of" and st.b in callable_:
                graph.add_edge(fn.name, _target(imports, st.b))
        # a global initialized with a code address makes that address reachable
        # from every function touching the global
        for name in _operand_names(fn) & init_by_global.keys():
            graph.add_edge(fn.name, _target(imports, init_by_global[name]))
    return graph


def vtable_dependencies(module: Module) -> DepGraph:
    """Instantiation edges: F -> every virtual function of each type F news up."""
    graph = DepGraph("vtable", edges={fn.name: set() for fn in module.functions})
    vtables = {vt.type_name: vt for vt in module.vtables}
    imports = set(module.imports)
    for fn in module.functions:
        for st in fn.body:
            if st.kind == "new_object":
                vt = vtables.get(st.b)
                if vt is None:
                    raise UnknownType(f"{fn.name!r} instantiates {st.b!r} which has no vtable")
                for entry in vt.entries:
                    graph.add_edge(fn.name, _target(imports, entry))
    return graph


def _merge(dst: DepGraph, src: DepGraph) -> None:
    for fn, targets in src.edges.items():
        dst.edges.setdefault(fn, set()).update(targets)
    dst.always_retain |= src.always_retain
    dst.diagnostics.extend(src.diagnostics)


def build_depgraph(module: Module, strategy: str) -> DepGraph:
    """Union of direct-call, vtable and asm handling plus the strategy's indirect cover."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    graph = DepGraph(strategy, edges={fn.name: set() for fn in module.functions})
    _merge(graph, build_direct_callgraph(module))
    _merge(graph, vtable_dependencies(module))
    if strategy == "full_module":
        graph.required_globals = full_module_scan(module)
    elif strategy == "localized":
        _merge(graph, localized_scan(module))
    else:
        from . import pta  # local import to keep the module graph acyclic

        constraints = pta.generate_constraints(module)
        ptmap = pta.solve_inclusion(constraints)
        edges, diagnostics = pta.indirect_edges(module, ptmap)
        for fn, targets in edges.items():
            graph.edges.setdefault(fn, set()).update(targets)
        graph.diagnostics.extend(diagnostics)
    return graph
