"""Seeded workload generators for the pipeline benchmark.

Every generator returns IR source text and plain tuples only; nothing here
imports ``piecewise``, so the reachability oracle that ``wide_link``
returns is worked out from the generator's own edge lists and does not
depend on the loader it checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

STRATEGIES = ("full_module", "localized", "pta")

MIX_STEP_LIMIT = 2500  # the acceptance gate's replay limit
DEFAULT_STEP_LIMIT = 100_000  # vm.run_workloads' own default


@dataclass
class Corpus:
    """Modules compiled together under one strategy, and the executables
    loaded from them."""

    strategy: str
    sources: dict[str, str]
    programs: list[str]
    training: dict[str, list[tuple[str, str, str]]] = field(default_factory=dict)
    # program -> module -> functions the program can reach, or None
    oracle: dict[str, dict[str, set[str]]] | None = None
    group: int = 0  # corpora built from the same sources share a group


@dataclass
class Workload:
    name: str
    corpora: list[Corpus]
    step_limit: int
    min_passes: int  # fewest timed passes of a run

    @property
    def programs(self) -> int:
        return sum(len(c.programs) for c in self.corpora)


# ---------------------------------------------------------------------------
# mix: random linkable systems, ported from the acceptance gate's generator


def random_system(rng: random.Random, max_modules: int = 5, max_funcs: int = 8):
    """Random linkable system ``(sources, training)`` with executable ``prog``.

    Function names carry a global rank and most control transfers target
    strictly higher ranks, so runs usually finish well under the step
    limit; stored code pointers can still loop, which the interpreter's
    limit handles deterministically.
    """
    nlibs = rng.randint(1, max_modules - 1)
    names = ["prog"] + [f"lib{i}" for i in range(nlibs)]

    slots = []
    for m in names:
        slots += [m] * rng.randint(2, max_funcs)
    rng.shuffle(slots)

    funcs: dict[str, list[tuple[str, int]]] = {m: [] for m in names}
    flags: dict[tuple[str, str], str] = {}
    export_pool: dict[str, list[tuple[str, int]]] = {m: [] for m in names}
    for rank, m in enumerate(slots):
        fname = f"f{rank:03d}"
        funcs[m].append((fname, rank))
        exported = rng.random() < (0.4 if m == "prog" else 0.75)
        binding = "weak" if exported and rng.random() < 0.2 else "strong"
        flags[(m, fname)] = f"{binding} exported" if exported else "strong"
        if exported:
            export_pool[m].append((fname, rank))

    # occasionally shadow an exported symbol in a second module
    if nlibs >= 2 and rng.random() < 0.35:
        donors = [m for m in names[1:] if export_pool[m]]
        if donors:
            donor = rng.choice(donors)
            fname, rank = rng.choice(export_pool[donor])
            other = rng.choice([m for m in names if m != donor])
            if all(f != fname for f, _ in funcs[other]):
                funcs[other].append((fname, rank))
                flags[(other, fname)] = "weak exported"
                export_pool[other].append((fname, rank))

    needed: dict[str, set[str]] = {m: set() for m in names}
    imports: dict[str, dict[str, int]] = {m: {} for m in names}
    for m in names:
        providers = [o for o in names[1:] if o != m and export_pool[o]]
        for _ in range(rng.randint(0, 3)):
            if not providers:
                break
            provider = rng.choice(providers)
            fname, rank = rng.choice(export_pool[provider])
            if any(f == fname for f, _ in funcs[m]) or fname in imports[m]:
                continue
            imports[m][fname] = rank
            needed[m].add(provider)
    if nlibs >= 2 and rng.random() < 0.25:  # a needed cycle
        needed[names[1]].add(names[2])
        needed[names[2]].add(names[1])

    globals_: dict[str, list[tuple[str, str | None]]] = {}
    vtables: dict[str, list[str]] = {}
    for m in names:
        callables = sorted(funcs[m], key=lambda p: p[1]) + \
            sorted(imports[m].items(), key=lambda p: p[1])
        gl = []
        for gi in range(rng.randint(0, 3)):
            init = None
            if callables and rng.random() < 0.6:
                # bias initializers toward high ranks to keep runs short
                init = rng.choice(callables[len(callables) // 2:])[0]
            gl.append((f"g{gi}", init))
        globals_[m] = gl
        if callables and rng.random() < 0.4:
            vtables[m] = [rng.choice(callables)[0] for _ in range(rng.randint(1, 3))]

    def emit_body(m: str, rank: int, is_asm: bool) -> list[str]:
        targets = [f for f, r in funcs[m] if r > rank] + \
            [f for f, r in imports[m].items() if r > rank]
        inited = [g for g, init in globals_[m] if init]
        any_global = [g for g, _ in globals_[m]]
        body = []
        if is_asm:
            if targets and rng.random() < 0.7:
                body.append(f"call {rng.choice(targets)}")
            body.append("ret")
            return body
        tmp = 0
        for _ in range(rng.randint(1, 5)):
            options = ["misc"]
            if targets:
                options += ["call", "icall", "ijmp", "store_icall"]
            if inited:
                options.append("load_icall")
            if m in vtables:
                options.append("vcall")
            kind = rng.choice(options)
            if kind == "call":
                body.append(f"call {rng.choice(targets)}")
            elif kind in ("icall", "ijmp"):
                body.append(f"v{tmp} = &{rng.choice(targets)}")
                body.append(f"{kind} v{tmp}")
                tmp += 1
                if kind == "ijmp":
                    break  # nothing after a tail transfer runs
            elif kind == "load_icall":
                g = rng.choice(inited)
                body.append(f"v{tmp} = {g}")
                body.append(f"icall v{tmp}")
                tmp += 1
            elif kind == "store_icall" and any_global:
                g = rng.choice(any_global)
                body.append(f"v{tmp} = &{rng.choice(targets)}")
                body.append(f"p{tmp} = &{g}")
                body.append(f"*p{tmp} = v{tmp}")
                body.append(f"w{tmp} = *p{tmp}")
                body.append(f"icall w{tmp}")
                tmp += 1
            elif kind == "vcall":
                slot = rng.randrange(len(vtables[m]))
                body.append(f"o{tmp} = new T{m}")
                body.append(f"vcall o{tmp}, {slot}")
                tmp += 1
            else:
                body.append(rng.choice(["syscall", "spadj", f"c{tmp} = v0"
                                        if tmp else "syscall"]))
        body.append("ret")
        return body

    sources = {}
    for m in names:
        lines = [f"module {m}" + (" executable" if m == "prog" else "")]
        if needed[m]:
            lines.append("needed " + " ".join(sorted(needed[m])))
        if imports[m]:
            lines.append("import " + " ".join(sorted(imports[m])))
        for g, init in globals_[m]:
            lines.append(f"global {g}" + (f" = &{init}" if init else ""))
        if m in vtables:
            lines.append(f"vtable T{m} {{ " + " ".join(vtables[m]) + " }")
        if m == "prog":
            lines.append("func main strong entry {")
            lines.extend("    " + st for st in emit_body(m, -1, False))
            lines.append("}")
        for fname, rank in funcs[m]:
            is_asm = rng.random() < 0.08
            lines.append(f"func {fname} {flags[(m, fname)]}{' asm' if is_asm else ''} {{")
            lines.extend("    " + st for st in emit_body(m, rank, is_asm))
            lines.append("}")
        sources[m] = "\n".join(lines) + "\n"

    training: list[tuple[str, str, str]] = []
    if nlibs and rng.random() < 0.5:
        lib = rng.choice(names[1:])
        training.append(("dlopen", lib, ""))
        for _ in range(rng.randint(0, 2)):
            if export_pool[lib]:
                training.append(("dlsym", lib, rng.choice(export_pool[lib])[0]))
    return sources, training


def mix(seed: int, systems: int = 360) -> Workload:
    """``systems`` random systems, each compiled under all three strategies."""
    corpora = []
    for i in range(systems):
        sources, training = random_system(random.Random(seed * 1_000_003 + i))
        for strategy in STRATEGIES:
            corpora.append(Corpus(strategy, sources, ["prog"], {"prog": training}, group=i))
    return Workload("mix", corpora, MIX_STEP_LIMIT, min_passes=2)


# ---------------------------------------------------------------------------
# helpers for the structured workloads


def _closure(roots, edges: dict[str, list[str]], owner: dict[str, str]) -> dict[str, set[str]]:
    """Functions reachable from ``roots`` over ``edges``, grouped by module.
    Names are unique across modules, so ``owner`` maps each to its module."""
    seen: set[str] = set()
    work = list(roots)
    while work:
        name = work.pop()
        if name not in seen:
            seen.add(name)
            work.extend(edges.get(name, ()))
    out = {module: set() for module in set(owner.values())}
    for name in seen:
        out[owner[name]].add(name)
    return out


def _module_text(header: str, needed=(), imports=(), functions=()) -> str:
    lines = [header]
    if needed:
        lines.append("needed " + " ".join(needed))
    if imports:
        lines.append("import " + " ".join(imports))
    for head, body in functions:
        lines.append(f"func {head} {{")
        lines.extend("    " + st for st in body)
        lines.append("}")
    return "\n".join(lines) + "\n"


def _filler(rng: random.Random, n: int) -> list[str]:
    return [rng.choice(("syscall", "spadj", "c = d")) for _ in range(n)]


# ---------------------------------------------------------------------------
# wide_link: a chain of large libraries with dense imports


def wide_link(seed: int, libs: int = 4, funcs: int = 500, programs: int = 5) -> Workload:
    """``libs`` libraries in a chain; each imports every other exported
    function of the next one.

    Function ``j`` of library ``k`` is ``w<k>_<j>``.  An even function calls
    the import it is paired with (a seeded permutation of the next library's
    even functions), so the even half of each library is reachable from a
    program that reaches it.  Most of those calls sit after the function's
    ``ret``: the analysis follows them, the interpreter never runs them, so
    replay stays small while the retained set is large.  A few even
    functions take the address of an odd one and call it indirectly; dead
    odd functions take addresses too.  Under ``localized`` only the first
    kind keeps its target, so the oracle follows calls and address-taking
    from reachable functions only.
    """
    rng = random.Random(seed)
    lib_names = [f"lib{k}" for k in range(libs)]
    owner: dict[str, str] = {}
    edges: dict[str, list[str]] = {}
    sources: dict[str, str] = {}
    even = list(range(0, funcs, 2))
    odd = list(range(1, funcs, 2))

    def fname(k: int, j: int) -> str:
        return f"w{k}_{j:04d}"

    for k, lib in enumerate(lib_names):
        last = k == libs - 1
        pairing = even[:]
        rng.shuffle(pairing)
        callbacks = set(rng.sample(odd, max(1, len(odd) // 25)))
        callback_of = dict(zip(rng.sample(even, len(callbacks)), sorted(callbacks)))
        functions = []
        for j in range(funcs):
            name = fname(k, j)
            owner[name] = lib
            out: list[str] = []
            body = _filler(rng, rng.randint(1, 3))
            if j % 2 == 0:
                cb = callback_of.get(j)
                if cb is not None:
                    body += [f"v = &{fname(k, cb)}", "icall v"]
                    out.append(fname(k, cb))
                late: list[str] = []
                if not last:
                    target = fname(k + 1, pairing[j // 2])
                    out.append(target)
                    # one call in ten runs; the rest are reachable but dead
                    (body if rng.random() < 0.1 else late).append(f"call {target}")
                body += ["ret"] + late
            elif j in callbacks:
                body.append("ret")
            else:
                taken = fname(k, rng.choice(odd))
                body += [f"u = &{taken}", "icall u"]
                if not last:
                    body.append(f"call {fname(k + 1, rng.choice(even))}")
                body.append("ret")
            edges[name] = out
            functions.append((f"{name} strong exported", body))
        imports = [] if last else [fname(k + 1, j) for j in even]
        needed = [] if last else [lib_names[k + 1]]
        sources[lib] = _module_text(f"module {lib}", needed, imports, functions)

    corpus = Corpus("localized", sources, [], oracle={})
    for p in range(programs):
        exe = f"prog{p}"
        called = [fname(0, j) for j in even if rng.random() < 0.9]
        main = _filler(rng, 2) + [f"call {c}" for c in called] + ["ret"]
        sources[exe] = _module_text(f"module {exe} executable", [lib_names[0]], called,
                                    [("main strong entry", main)])
        reach = _closure(called, edges, owner)
        reach[exe] = {"main"}
        corpus.programs.append(exe)
        corpus.oracle[exe] = reach
    # eight passes of five loads leave ten loads beyond the tail percentile
    return Workload("wide_link", [corpus], DEFAULT_STEP_LIMIT, min_passes=8)


GENERATORS = {"mix": mix, "wide_link": wide_link}
