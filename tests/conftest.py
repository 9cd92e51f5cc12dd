"""Shared helpers: IR compilation shortcuts and a seeded random generator
for whole module systems (executable + libraries) that are guaranteed to
link and very likely to terminate quickly under the interpreter."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from piecewise import depgraph, ir, loader, pwof


def compile_source(src: str, strategy: str = "localized", training=(),
                   with_dep: bool = True) -> bytes:
    module = ir.parse_module(src)
    image = ir.lower_code(module)
    dep = None
    if with_dep:
        graph = depgraph.build_depgraph(module, strategy)
        dep = pwof.build_dep_section(module, image, graph)
    return pwof.write_module(module, image, dep, tuple(training))


# a module whose g reaches two imports (one of which shadows the function f)
# and a local, under every strategy, and whose stub is an asm function
IMPORT_SHADOW_SRC = """\
module tags
import memcpy f
func f strong exported { ret }
func stub strong asm {
    call h
    ret
}
func g {
    call f
    call memcpy
    call h
    ret
}
func h strong { ret }
"""


def mutate_dep(blob: bytes, fn) -> bytes:
    """``blob`` re-serialised with its ``DepSection`` replaced by ``fn(section)``."""
    mod = pwof.read_module(blob)
    mod.dep = fn(mod.dep)
    return pwof.serialize(mod)


def dep_kind_offsets(data: bytes) -> list[int]:
    """The offset of every ``.dep`` entry's kind byte in a serialized
    container that has a ``.dep``, in wire order; the walk reads only the
    counts and lengths that ``pwof``'s layout constants place."""
    def after_string(pos):
        return pos + pwof.U16.size + pwof.U16.unpack_from(data, pos)[0]

    def count(layout, pos):
        return layout.unpack_from(data, pos)[0], pos + layout.size

    pos = after_string(pwof.HEADER.size)  # the module name
    n, pos = count(pwof.U16, pos)
    for _ in range(n):  # needed
        pos = after_string(pos)
    n, pos = count(pwof.U32, pos)
    for _ in range(n):  # symbols
        pos = after_string(pos) + pwof.SYMBOL_TAIL.size
    n, pos = count(pwof.U32, pos)
    pos += n  # code
    n, pos = count(pwof.U16, pos)
    for _ in range(n):  # vtables
        entries, pos = count(pwof.U16, after_string(pos))
        pos += pwof.U32.size * entries
    n, pos = count(pwof.U16, pos)
    for _ in range(n):  # training: kind, module, symbol
        pos = after_string(after_string(pos + pwof.TRAINING_KIND.size))
    n, pos = count(pwof.U32, pos + pwof.DEP_HEADER.size)
    n, pos = count(pwof.U32, pos + pwof.U32.size * n)  # past the required indices
    offsets = []
    for _ in range(n):
        entries, pos = count(pwof.U32, pos + pwof.RECORD_HEAD.size)
        entry = 1 + pwof.U32.size  # kind u8, index u32
        offsets += range(pos, pos + entry * entries, entry)
        pos += entry * entries
    return offsets


@dataclass
class System:
    sources: dict[str, str]
    training: list[pwof.TrainingRecord] = field(default_factory=list)
    exe: str = "prog"

    def resolver(self, strategy: str = "localized", dep_for=None) -> loader.MemoryResolver:
        """Compile every module; ``dep_for`` restricts which modules get a
        dependency section (None means all)."""
        blobs = {}
        for name, src in self.sources.items():
            training = self.training if name == self.exe else ()
            with_dep = dep_for is None or name in dep_for
            blobs[name] = compile_source(src, strategy, training, with_dep)
        return loader.MemoryResolver(blobs)


def random_system(rng: random.Random, max_modules: int = 5,
                  max_funcs: int = 8) -> System:
    """Random linkable system.  Function names carry a global rank and most
    control transfers target strictly higher ranks, so runs usually finish
    well under the step limit; stored code pointers can still loop, which
    the interpreter's limit handles deterministically."""
    nlibs = rng.randint(1, max_modules - 1)
    names = ["prog"] + [f"lib{i}" for i in range(nlibs)]

    slots = []
    for m in names:
        slots += [m] * rng.randint(2, max_funcs)
    rng.shuffle(slots)

    funcs: dict[str, list[tuple[str, int]]] = {m: [] for m in names}
    flags: dict[tuple[str, str], str] = {}  # (module, fname) -> header flags
    export_pool: dict[str, list[tuple[str, int]]] = {m: [] for m in names}
    for rank, m in enumerate(slots):
        fname = f"f{rank:03d}"
        funcs[m].append((fname, rank))
        if m == "prog":
            exported = rng.random() < 0.4
        else:
            exported = rng.random() < 0.75
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
    imports: dict[str, dict[str, int]] = {m: {} for m in names}  # fname -> rank
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
            vtables[m] = [rng.choice(callables)[0]
                          for _ in range(rng.randint(1, 3))]

    def emit_body(m: str, rank: int, is_asm: bool) -> list[str]:
        higher_local = [f for f, r in funcs[m] if r > rank]
        higher_import = [f for f, r in imports[m].items() if r > rank]
        targets = higher_local + higher_import
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
            for st in emit_body(m, -1, False):
                lines.append("    " + st)
            lines.append("}")
        for fname, rank in funcs[m]:
            is_asm = rng.random() < 0.08
            header_flags = flags[(m, fname)] + (" asm" if is_asm else "")
            lines.append(f"func {fname} {header_flags} {{")
            for st in emit_body(m, rank, is_asm):
                lines.append("    " + st)
            lines.append("}")
        sources[m] = "\n".join(lines) + "\n"

    training: list[pwof.TrainingRecord] = []
    if nlibs and rng.random() < 0.5:
        lib = rng.choice(names[1:])
        training.append(pwof.TrainingRecord("dlopen", lib))
        for _ in range(rng.randint(0, 2)):
            if export_pool[lib]:
                sym = rng.choice(export_pool[lib])[0]
                training.append(pwof.TrainingRecord("dlsym", lib, sym))
    return System(sources, training)
