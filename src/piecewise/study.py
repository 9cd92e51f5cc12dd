"""Corpus-wide footprint study: how much of each library do programs use.

Runs the loader pipeline (localized strategy `.dep` sections are expected
in the corpus) for every executable, then tabulates per-library retained
counts.  The footprint columns count retention attributable to the
program's own roots: its entry points and trained lookups, and the modules
kept whole.  A separate column counts the functions that only a pin keeps:
a required global, an asm function, or a function that only their closure
reaches (reason ``pin-closure``).

One table decodes each container once: `footprint` keeps one decoded
module per name for the duration of the call and hands the same object to
every program that loads it, so a library that backs the whole corpus is
read once, not once per program.  Sharing is safe because the table reads
only symbols, `.dep` records, training records and the executable's IR
index.  A shared module keeps the relocation of the first image that loaded
it; no column reads a record's location.  Its export table
(``LoadedModule.exports``) is built once per call too, by the first
program that binds against it; every program still merges the tables in
its own load order.  A load that fails is not kept, so each program that
needs a missing or corrupt container fails on its own.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from . import loader
from .errors import PiecewiseError
from .ir import INSTRUCTION_WIDTH
from .pwof import LoadedModule

IMPORT_REASONS = frozenset({"root", "dep-closure", "training", "no-dep-module"})


@dataclass
class StudyRow:
    program: str
    library: str
    linkage: str  # "direct" | "transitive"
    functions_used: int
    instructions_used: int
    pinned_functions: int  # required-global / asm / pin-closure retention
    total_functions: int
    total_instructions: int

    @property
    def fn_footprint_pct(self) -> float:
        return 100.0 * self.functions_used / self.total_functions if self.total_functions else 0.0

    @property
    def insn_footprint_pct(self) -> float:
        return (100.0 * self.instructions_used / self.total_instructions
                if self.total_instructions else 0.0)


@dataclass
class StudyTable:
    rows: list[StudyRow] = field(default_factory=list)
    programs: list[str] = field(default_factory=list)  # every program tabulated
    failures: dict[str, str] = field(default_factory=dict)  # program -> error
    zero_adjusted: bool = False  # geometric mean saw zero percentages

    def geometric_mean(self) -> dict:
        """Geometric mean of per-program footprints; zero percentages are
        replaced with the smallest positive observed value (flagged).  A
        program that loads no library counts in ``programs`` but has no
        footprint to average, so the mean covers the ``with_library`` ones."""
        per_program: dict[str, list[float, float, float, float]] = {}
        for row in self.rows:
            acc = per_program.setdefault(row.program, [0, 0, 0, 0])
            acc[0] += row.functions_used
            acc[1] += row.total_functions
            acc[2] += row.instructions_used
            acc[3] += row.total_instructions
        fn_pcts = []
        insn_pcts = []
        for used_fn, tot_fn, used_in, tot_in in per_program.values():
            fn_pcts.append(100.0 * used_fn / tot_fn if tot_fn else 0.0)
            insn_pcts.append(100.0 * used_in / tot_in if tot_in else 0.0)
        return {
            "programs": len(self.programs),
            "with_library": len(per_program),
            "fn_footprint_pct": self._geomean(fn_pcts),
            "insn_footprint_pct": self._geomean(insn_pcts),
            "zero_adjusted": self.zero_adjusted,
        }

    def _geomean(self, values: list[float]) -> float:
        if not values:
            return 0.0
        positive = [v for v in values if v > 0]
        if not positive:
            return 0.0
        floor = min(positive)
        adjusted = []
        for v in values:
            if v <= 0:
                self.zero_adjusted = True
                v = floor
            adjusted.append(v)
        return math.exp(sum(math.log(v) for v in adjusted) / len(adjusted))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["program", "library", "linkage", "functions_used",
                             "instructions_used", "pinned_functions",
                             "fn_footprint_pct", "insn_footprint_pct"])
            for row in self.rows:
                writer.writerow([row.program, row.library, row.linkage,
                                 row.functions_used, row.instructions_used,
                                 row.pinned_functions,
                                 f"{row.fn_footprint_pct:.2f}",
                                 f"{row.insn_footprint_pct:.2f}"])
            mean = self.geometric_mean()
            writer.writerow(["geometric_mean", "", "",
                             "", "", "",
                             f"{mean['fn_footprint_pct']:.2f}",
                             f"{mean['insn_footprint_pct']:.2f}"])


class SharedModules:
    """Resolver that decodes each module name once and hands the same
    decoded module to every later load.  Failed loads are not kept."""

    def __init__(self, resolver):
        self.resolver = resolver
        self.decoded = {}

    def load(self, name: str) -> LoadedModule:
        mod = self.decoded.get(name)
        if mod is None:
            mod = self.decoded[name] = self.resolver.load(name)
        return mod


def footprint(executables: list[str], resolver) -> StudyTable:
    """Per-program, per-library usage table over a corpus.  Each module is
    decoded once per call (see the module docstring); pass a
    `SharedModules` to seed the table with modules already decoded."""
    resolver = SharedModules(resolver)
    table = StudyTable()
    for program in executables:
        try:
            image = loader.preload(program, resolver)
            bindings = loader.resolve(image)
            retained = loader.compute_retained(image, bindings)
        except PiecewiseError as exc:
            table.failures[program] = f"{type(exc).__name__}: {exc}"
            continue
        table.programs.append(program)
        exe = image.executable
        direct = set(exe.needed) | {rec.module for rec in exe.training if rec.kind == "dlopen"}
        for mod in image.load_order[1:]:
            defined = mod.defined_symbols()
            used = pinned = insns = 0
            for name in retained.functions(mod.name):
                reason = retained.provenance[(mod.name, name)]
                if reason in IMPORT_REASONS:
                    used += 1
                    insns += mod.symbol(name).size // INSTRUCTION_WIDTH
                else:
                    pinned += 1
            table.rows.append(StudyRow(
                program=program,
                library=mod.name,
                linkage="direct" if mod.name in direct else "transitive",
                functions_used=used,
                instructions_used=insns,
                pinned_functions=pinned,
                total_functions=len(defined),
                total_instructions=sum(s.size for s in defined) // INSTRUCTION_WIDTH,
            ))
    return table
