"""Piece-wise loader simulator: pre-load, pre-bind, retain, remove.

The loader never executes anything; it maps modules at page-aligned bases,
resolves every undefined symbol up front (pre-binding), walks the embedded
dependency records to compute the retained set, and overwrites dead code
with the 0x6D trap byte (whole dead pages are flipped to non-executable
instead of being written).

``LoadedModule.exports`` is the one rule for what a module exports,
``ProcessImage.target`` for what a name in a module reaches and
``entry_points`` for what the program runs; pre-binding, retention and the
interpreter (``vm``) read them.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import astuple, dataclass, field

from . import pwof
from .errors import LayoutMismatch, ModuleNotFound, UnresolvedSymbol
from .ir import TRAP_BYTE, INSTRUCTION_WIDTH
from .pwof import DEF_DEFINED_ASM, LoadedModule

PAGE_UNTOUCHED = "untouched"
PAGE_COW = "cow_written"
PAGE_NX = "nx"

DEFAULT_PAGE_SIZE = 4096


class FileResolver:
    """Finds ``<name>.pwof`` on a list of directories."""

    def __init__(self, paths):
        self.paths = [str(p) for p in paths]

    def load(self, name: str) -> LoadedModule:
        for directory in self.paths:
            candidate = os.path.join(directory, name + ".pwof")
            if os.path.exists(candidate):
                with open(candidate, "rb") as fh:
                    return pwof.read_module(fh.read())
        raise KeyError(name)


class MemoryResolver:
    """Resolves module names from an in-memory mapping (tests, generators)."""

    def __init__(self, modules):
        # container bytes, so repeated loads hand out fresh, unrelocated copies
        self.modules = {name: bytes(m) for name, m in dict(modules).items()}

    def load(self, name: str) -> LoadedModule:
        return pwof.read_module(self.modules[name])


@dataclass
class ProcessImage:
    load_order: list[LoadedModule]
    bases: dict[str, int]
    page_size: int
    memory: dict[str, bytearray]
    page_state: dict[str, list[str]]
    bindings: dict[tuple[str, str], tuple[str, str]] | None = None
    modules: dict[str, LoadedModule] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.modules = {mod.name: mod for mod in self.load_order}

    def module(self, name: str) -> LoadedModule:
        return self.modules[name]

    def target(self, module: str, name: str) -> tuple[str, str]:
        """The function ``name`` reaches from ``module``: a name the module
        imports goes through its binding, else the module's own definition.
        A name with neither raises UnresolvedSymbol."""
        bound = self.bindings.get((module, name))
        if bound is not None:
            return bound
        if self.modules[module].symbol_index(name) is None:
            raise UnresolvedSymbol(name, module)
        return (module, name)

    @property
    def executable(self) -> LoadedModule:
        return self.load_order[0]


def _num_pages(code_len: int, page_size: int) -> int:
    return max(1, -(-code_len // page_size))


def preload(executable: str, resolver, page_size: int = DEFAULT_PAGE_SIZE) -> ProcessImage:
    """Breadth-first traversal of needed lists, executable first; dlopen
    training records of the executable join the queue after static needs."""
    try:
        exe = resolver.load(executable)
    except KeyError:
        raise ModuleNotFound(executable, "<command line>")

    order: list[LoadedModule] = [exe]
    seen = {exe.name}
    queue = deque((dep, exe.name) for dep in exe.needed)
    queue.extend((rec.module, exe.name) for rec in exe.training if rec.kind == "dlopen")

    while queue:
        name, requester = queue.popleft()
        if name in seen:
            # an executable under another file name cannot stand in for a library
            if name == exe.name != executable:
                raise LayoutMismatch(f"the container found for {executable!r} holds module "
                                     f"{name!r}, which {requester!r} needs")
            continue
        try:
            mod = resolver.load(name)
        except KeyError:
            raise ModuleNotFound(name, requester)
        # the image keys memory, pages and bindings by module: one container each
        if mod.name != name:
            raise LayoutMismatch(f"the container found for {name!r} holds module {mod.name!r}")
        seen.add(name)
        order.append(mod)
        queue.extend((dep, name) for dep in mod.needed)

    bases: dict[str, int] = {}
    memory: dict[str, bytearray] = {}
    page_state: dict[str, list[str]] = {}
    base = page_size  # keep address zero unmapped
    for mod in order:
        pages = _num_pages(len(mod.code), page_size)
        bases[mod.name] = base
        memory[mod.name] = bytearray(mod.code)
        page_state[mod.name] = [PAGE_UNTOUCHED] * pages
        base += pages * page_size
        if mod.dep is not None and not mod.dep.relocated:
            pwof.relocate_dep(mod.dep, bases[mod.name])
    return ProcessImage(order, bases, page_size, memory, page_state)


def resolve(image: ProcessImage) -> dict[tuple[str, str], tuple[str, str]]:
    """Pre-binding: first strong exported definition in load order wins,
    weak definitions only when no strong one exists anywhere.  Each module
    gives its export tables (``LoadedModule.exports``), built once per module."""
    strong: dict[str, tuple[str, str]] = {}
    providers: dict[str, tuple[str, str]] = {}  # name -> the definition it binds to
    # the later a table is merged, the earlier its module loads: the first
    # export of a name in load order is the one kept
    for mod in reversed(image.load_order):
        mod_strong, mod_weak = mod.exports
        strong.update(mod_strong)
        providers.update(mod_weak)
    providers.update(strong)
    bindings: dict[tuple[str, str], tuple[str, str]] = {}
    for mod in image.load_order:
        for name, _, _, _, _ in mod.undefined_symbols():
            target = providers.get(name)
            if target is None:
                raise UnresolvedSymbol(name, mod.name)
            bindings[(mod.name, name)] = target
    image.bindings = bindings
    return bindings


@dataclass
class RetainedSet:
    retained: dict[str, set[str]]  # module -> function names
    provenance: dict[tuple[str, str], str]
    diagnostics: list[str] = field(default_factory=list)

    def functions(self, module: str) -> set[str]:
        return self.retained.get(module, set())


def entry_points(image: ProcessImage) -> dict[str, tuple[str, str]]:
    """What the program runs, by trace name: ``entry:F`` for the
    executable's IR ``entry`` function, else for a ``main`` it defines;
    then ``dlsym:M/S`` for each trained lookup, which lands on loaded module
    M's export of S (``LoadedModule.exports``), else on the executable's
    binding for S.  Retention roots exactly these and replay runs them."""
    if image.bindings is None:
        raise UnresolvedSymbol("<bindings>", "run resolve() first")
    exe = image.executable
    points: dict[str, tuple[str, str]] = {}
    entry = exe.ir_index.entry_function() if exe.ir_text is not None else None
    if entry is not None:
        points["entry:" + entry.name] = (exe.name, entry.name)
    elif exe.symbol_index("main") is not None:
        points["entry:main"] = (exe.name, "main")
    for rec in exe.training:
        if rec.kind != "dlsym":
            continue
        mod = image.modules.get(rec.module)
        strong, weak = mod.exports if mod is not None else ({}, {})
        target = (strong.get(rec.symbol) or weak.get(rec.symbol)
                  or image.bindings.get((exe.name, rec.symbol)))
        if target is None:
            raise UnresolvedSymbol(rec.symbol, f"{exe.name} (dlsym training)")
        points[f"dlsym:{rec.module}/{rec.symbol}"] = target
    return points


def compute_retained(image: ProcessImage, bindings=None) -> RetainedSet:
    """Close over the dependency records from the program's roots, then the
    pins; ``bindings``, when given, become the image's (default: resolve if
    unbound)."""
    if bindings is not None:
        image.bindings = bindings
    elif image.bindings is None:
        resolve(image)
    retained: dict[str, set[str]] = {mod.name: set() for mod in image.load_order}
    provenance: dict[tuple[str, str], str] = {}
    diagnostics: list[str] = []
    roots = [(key, "training" if name.startswith("dlsym:") else "root")
             for name, key in entry_points(image).items()]

    # a module is kept whole when it has no .dep, or when its .dep lacks a
    # record for some definition: that function's dependencies are unknown;
    # its definitions and import targets are roots, and the pins are the
    # required globals and asm functions of the other modules
    whole: set[str] = set()
    # each class of seed is taken across the whole image before the next, so
    # that no reason depends on load order
    definitions, imports, required, asm = [], [], [], []
    for mod in image.load_order:
        defined = mod.defined_symbols()
        if mod.dep is None or not mod.dep.records.keys() >= set(range(len(defined))):
            if mod.dep is not None:
                missing = [sym.name for i, sym in enumerate(defined) if i not in mod.dep.records]
                diagnostics.append(f"ConservativeRetention: {mod.name} keeps every function, "
                                   f"its .dep has no record for {', '.join(missing)}")
            whole.add(mod.name)
            reason = "root" if mod is image.executable else "no-dep-module"
            definitions += [((mod.name, name), reason) for name, _, _, _, _ in defined]
            imports += [(image.target(mod.name, name), "dep-closure")
                        for name, _, _, _, _ in mod.undefined_symbols()]
        else:
            required += [(image.target(mod.name, mod.symbols[idx].name), "required-global")
                         for idx in mod.dep.required]
            asm += [((mod.name, name), "asm") for name, _, kind, _, _ in defined
                    if kind == DEF_DEFINED_ASM]
    roots += definitions + imports
    pins = required + asm

    # the roots close before the pins, and a pass gives its seeds their
    # reasons before it follows a record: no reason depends on worklist order
    for seeds, reached in ((roots, "dep-closure"), (pins, "pin-closure")):
        for key, reason in seeds:
            provenance.setdefault(key, reason)
        work = [key for key, _ in seeds]
        while work:
            mname, func = key = work.pop()
            funcs = retained[mname]
            if func in funcs:
                continue
            funcs.add(func)
            provenance.setdefault(key, reached)
            if mname in whole:
                continue  # a whole module's definitions and imports are all seeded
            mod = image.modules[mname]
            # a key is a definition, and a followed module has a record for each
            for dep in mod.dep.records[mod.symbol_index(func)].deps:
                work.append(image.target(mname, mod.symbols[dep].name))
    return RetainedSet(retained, provenance, diagnostics)


@dataclass
class ModuleReport:
    total_functions: int = 0
    total_bytes: int = 0
    removed_functions: int = 0
    removed_bytes: int = 0
    nx_pages: int = 0
    cow_pages: int = 0
    untouched_pages: int = 0

    def as_dict(self) -> dict:
        insns = self.total_bytes // INSTRUCTION_WIDTH
        removed_insns = self.removed_bytes // INSTRUCTION_WIDTH
        return {
            "total_functions": self.total_functions,
            "removed_functions": self.removed_functions,
            "removed_bytes": self.removed_bytes,
            "nx_pages": self.nx_pages,
            "cow_pages": self.cow_pages,
            "untouched_pages": self.untouched_pages,
            "function_reduction_pct": _pct(self.removed_functions, self.total_functions),
            "instruction_reduction_pct": _pct(removed_insns, insns),
        }


def _pct(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


@dataclass
class DebloatReport:
    modules: dict[str, ModuleReport]

    @property
    def removed_functions(self) -> int:
        return sum(m.removed_functions for m in self.modules.values())

    @property
    def removed_bytes(self) -> int:
        return sum(m.removed_bytes for m in self.modules.values())

    def as_dict(self) -> dict:
        # the totals are one module report of the summed counts
        total = ModuleReport(*map(sum, zip(*map(astuple, self.modules.values())))).as_dict()
        return {
            "modules": {name: rep.as_dict() for name, rep in self.modules.items()},
            "totals": {key: total[key] for key in ("removed_functions", "removed_bytes",
                                                   "function_reduction_pct",
                                                   "instruction_reduction_pct")},
        }


def debloat(image: ProcessImage, retained: RetainedSet) -> DebloatReport:
    """Overwrite dead functions with the trap byte; fully dead pages are
    marked non-executable instead of written (no copy-on-write cost)."""
    page = image.page_size
    trap = bytes([TRAP_BYTE])
    reports: dict[str, ModuleReport] = {}
    for mod in image.load_order:
        keep = retained.functions(mod.name)
        defined = mod.defined_symbols()
        live_pages = set()  # first and last page of each retained function
        dead = []  # (start, end) of each dead function
        total = removed = 0
        for name, _, _, value, size in defined:
            total += size
            if name not in keep:
                dead.append((value, value + size))
                removed += size
            elif size:
                # a page between these two holds this function's code alone
                # (read_module rejects overlapping symbols), never dead code
                live_pages.add(value // page)
                live_pages.add((value + size - 1) // page)
        rep = ModuleReport(total_functions=len(defined), total_bytes=total,
                           removed_functions=len(dead), removed_bytes=removed)

        # each page a dead function touches is written (copy-on-write) when it
        # also holds live code, and made non-executable when it does not
        mem = image.memory[mod.name]
        states = image.page_state[mod.name]
        for start, end in dead:
            while start < end:
                pidx = start // page
                stop = (pidx + 1) * page
                if stop > end:
                    stop = end
                if pidx in live_pages:
                    mem[start:stop] = trap * (stop - start)
                    states[pidx] = PAGE_COW
                else:
                    states[pidx] = PAGE_NX
                start = stop

        rep.nx_pages = states.count(PAGE_NX)
        rep.cow_pages = states.count(PAGE_COW)
        rep.untouched_pages = states.count(PAGE_UNTOUCHED)
        reports[mod.name] = rep
    return DebloatReport(reports)


def load_and_debloat(executable: str, resolver, page_size: int = DEFAULT_PAGE_SIZE,
                     no_debloat: bool = False):
    """Full preload/resolve/retain/remove workflow; returns (image, retained, report)."""
    image = preload(executable, resolver, page_size)
    bindings = resolve(image)
    if no_debloat:
        return image, None, None
    retained = compute_retained(image, bindings)
    report = debloat(image, retained)
    return image, retained, report


def measure_load_time(executable: str, resolver, repetitions: int = 5,
                      page_size: int = DEFAULT_PAGE_SIZE) -> dict:
    """Wall-clock of the full pipeline versus preload+resolve alone."""
    def stats(samples):
        ms = [s * 1000.0 for s in samples]
        return {"mean_ms": sum(ms) / len(ms), "max_ms": max(ms), "n": len(ms)}

    with_debloat = []
    without_debloat = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        load_and_debloat(executable, resolver, page_size, no_debloat=True)
        without_debloat.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        load_and_debloat(executable, resolver, page_size)
        with_debloat.append(time.perf_counter() - t0)

    enabled = stats(with_debloat)
    disabled = stats(without_debloat)
    return {
        "debloat_enabled": enabled,
        "debloat_disabled": disabled,
        "overhead_ms": enabled["mean_ms"] - disabled["mean_ms"],
    }
