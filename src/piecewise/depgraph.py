"""Per-function dependency graphs under the three code-pointer strategies.

``build_depgraph`` walks each function's statements once.  Every strategy
gets direct-call edges, vtable-instantiation edges (``new T`` depends on
every entry of ``T``'s vtable) and the always-retain set for asm functions.
The strategies differ only in how indirect branches are covered:

* ``full_module`` records every address-taken function in a module-wide
  required set: ``&f`` operands, global initializers and vtable entries,
* ``localized`` attaches an edge from the function containing the
  address-taking reference (or touching an initialized global) to the target,
* ``pta`` feeds the inclusion-based solver and adds edges from points-to
  sets at icall/vcall sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _target(imports: set[str], symbol: str) -> DepTarget:
    """The compile-side reference rule: a name the module imports is an
    import (it shadows a same-named function), any other name is local."""
    return DepTarget("import" if symbol in imports else "local", symbol)


def build_depgraph(module: Module, strategy: str) -> DepGraph:
    """One walk over every function's statements, plus the strategy's indirect cover."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    graph = DepGraph(strategy)
    imports = set(module.imports)
    callable_ = set(module.function_names()) | imports
    vtables = {vt.type_name: vt for vt in module.vtables}
    init_by_global = {g.name: g.initializer for g in module.globals
                      if g.initializer is not None}
    localized = strategy == "localized"
    full_module = strategy == "full_module"
    for fn in module.functions:
        out = graph.edges[fn.name] = set()
        if fn.is_asm:
            graph.always_retain.add(fn.name)
        for st in fn.body:
            if st.kind == "call":
                out.add(_target(imports, st.a))
            elif st.kind == "new_object":
                out.update(_target(imports, entry) for entry in vtables[st.b].entries)
            elif st.kind == "addr_of" and st.b in callable_:
                if localized:
                    out.add(_target(imports, st.b))
                elif full_module:
                    graph.required_globals.add(st.b)
            if localized:
                # a global initialized with a code address makes that address
                # reachable from every function touching the global
                for op in (st.a, st.b):
                    if op in init_by_global:
                        out.add(_target(imports, init_by_global[op]))
    if full_module:
        graph.required_globals.update(init_by_global.values())
        for vt in module.vtables:
            graph.required_globals.update(vt.entries)
    elif strategy == "pta":
        from . import pta  # local import to keep the module graph acyclic

        constraints = pta.generate_constraints(module)
        ptmap = pta.solve_inclusion(constraints)
        edges, diagnostics = pta.indirect_edges(module, ptmap)
        for fn, targets in edges.items():
            graph.edges.setdefault(fn, set()).update(targets)
        graph.diagnostics.extend(diagnostics)
    return graph
