"""Per-function dependency graphs under the three code-pointer strategies.

``build_depgraph`` walks each function's statements once; the module's
``scope`` says what a name is (a function or an import numbers below the
symbol count, a type gives its vtable's position).  An edge is the name of
its target: whether that is an import or a local function is the symbol's to
say, not the edge's.  Every strategy gets direct-call edges and vtable-
instantiation edges (``new T`` depends on every entry of ``T``'s vtable).
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

from . import pta
from .ir import Module

STRATEGIES = ("full_module", "localized", "pta")


@dataclass
class DepGraph:
    strategy: str
    edges: dict[str, set[str]] = field(default_factory=dict)  # function -> target names
    required_globals: set[str] = field(default_factory=set)  # address-taken, module-wide
    diagnostics: list[str] = field(default_factory=list)


def build_depgraph(module: Module, strategy: str) -> DepGraph:
    """One walk over every function's statements, plus the strategy's indirect cover."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    graph = DepGraph(strategy)
    operands, types, symbols = module.scope
    init_by_global = {g.name: g.initializer for g in module.globals
                      if g.initializer is not None}
    localized = strategy == "localized"
    full_module = strategy == "full_module"
    for fn in module.functions:
        out = graph.edges[fn.name] = set()
        for st in fn.body:
            if st.kind == "call":
                out.add(st.a)
            elif st.kind == "new_object":
                out.update(module.vtables[types[st.b]].entries)
            elif st.kind == "addr_of" and operands[st.b] < symbols:
                if localized:
                    out.add(st.b)
                elif full_module:
                    graph.required_globals.add(st.b)
            if localized:
                # a global initialized with a code address makes that address
                # reachable from every function touching the global
                for op in (st.a, st.b):
                    if op in init_by_global:
                        out.add(init_by_global[op])
    if full_module:
        graph.required_globals.update(init_by_global.values())
        for vt in module.vtables:
            graph.required_globals.update(vt.entries)
    elif strategy == "pta":
        constraints = pta.generate_constraints(module)
        ptmap = pta.solve_inclusion(constraints)
        edges, diagnostics = pta.indirect_edges(module, ptmap)
        for fn, targets in edges.items():
            graph.edges[fn] |= targets
        graph.diagnostics.extend(diagnostics)
    return graph
