"""Gadget scanning and classification over toy code images.

A gadget is an instruction-aligned suffix of at most ``depth`` instructions
ending at RET/ICALL/IJMP whose opcodes contain no trap byte.  Gadgets are
deduplicated by exact byte sequence; a sequence belongs to a class if any
of its occurrences qualifies:

    syscall  contains a SYSCALL instruction
    SPU      contains a SPADJ instruction
    COP      terminator is ICALL
    JOP      terminator is IJMP
    CS       first instruction immediately follows a CALL
    EP       first instruction is a function entry

The span kernel (``_scan``) yields every candidate ``[start, end]`` span;
classification is array work over all spans at once.  A span that has any
byte on an NX page is dropped by a prefix count of dead bytes.  syscall and
SPU compare prefix counts of SYSCALL and SPADJ opcodes at the span's ends,
COP and JOP look at ``opcodes[end]``, CS at ``opcodes[start - 1]``, and EP
indexes an entry mask with ``start``.  Each class is one bit of a mask, so
deduplication is one pass that ORs masks per byte sequence.  Several images
(the modules of a process) are scanned as one buffer with one trap
instruction after each image, which no span crosses.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from ._scan import find_gadget_spans
from .errors import MisalignedImage
from .ir import (INSTRUCTION_WIDTH, OP_CALL, OP_ICALL, OP_IJMP, OP_SPADJ, OP_SYSCALL,
                 TRAP_BYTE)
from .loader import PAGE_NX, ProcessImage

if TYPE_CHECKING:
    import numpy as np

CLASSES = ("syscall", "SPU", "COP", "CS", "JOP", "EP")

DEFAULT_DEPTH = 5

# class set of each mask whose bit i stands for CLASSES[i]
_CLASS_SETS = tuple(frozenset(cls for i, cls in enumerate(CLASSES) if m >> i & 1)
                    for m in range(1 << len(CLASSES)))

_SEPARATOR = bytes((TRAP_BYTE,)) * INSTRUCTION_WIDTH


@dataclass
class GadgetReport:
    depth: int = DEFAULT_DEPTH
    gadgets: dict[bytes, set[str]] = field(default_factory=dict)  # byte seq -> classes

    @property
    def unique_total(self) -> int:
        return len(self.gadgets)

    def count(self, cls: str) -> int:
        return sum(1 for classes in self.gadgets.values() if cls in classes)

    def merge(self, other: "GadgetReport") -> None:
        for seq, classes in other.gadgets.items():
            self.gadgets.setdefault(seq, set()).update(classes)

    def as_dict(self) -> dict:
        return {
            "depth": self.depth,
            "unique_total": self.unique_total,
            "classes": {cls: self.count(cls) for cls in CLASSES},
            "gadgets": {seq.hex(): sorted(classes) for seq, classes in self.gadgets.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GadgetReport":
        report = cls(depth=data.get("depth", DEFAULT_DEPTH))
        report.gadgets = {bytes.fromhex(seq): set(classes)
                          for seq, classes in data["gadgets"].items()}
        return report


class Segment(NamedTuple):
    """One code image to scan: its bytes, its function entry byte offsets
    and the indices of its dead (NX) pages of ``page_size`` bytes."""
    data: bytes | bytearray
    entry_offsets: Iterable[int] = ()
    nx_pages: Collection[int] = frozenset()
    page_size: int | None = None


def scan(data: bytes, entry_offsets=(), depth: int = DEFAULT_DEPTH,
         nx_pages=frozenset(), page_size: int | None = None) -> GadgetReport:
    """Scan one code image.  ``entry_offsets`` are function start byte
    offsets from the layout; pages listed in ``nx_pages`` are dead and
    cannot contribute gadget bytes."""
    return scan_segments([Segment(data, entry_offsets, nx_pages, page_size)], depth)


def scan_process(image: ProcessImage, depth: int = DEFAULT_DEPTH) -> GadgetReport:
    """Scan every module of a (possibly debloated) process image,
    honouring non-executable pages, into one deduplicated report."""
    return scan_segments(
        [Segment(image.memory[mod.name], [s.value for s in mod.defined_symbols()],
                 [i for i, state in enumerate(image.page_state[mod.name]) if state == PAGE_NX],
                 image.page_size)
         for mod in image.load_order], depth)


def scan_segments(segments: Iterable[Segment], depth: int = DEFAULT_DEPTH) -> GadgetReport:
    """Scan several code images with one span-kernel call.  The report
    equals the ``merge`` of one ``scan`` per image.

    The images are laid out as one buffer, each followed by one trap
    instruction, so that no span crosses from one image into the next and
    an image's first instruction never follows the previous image's CALL."""
    import numpy as np

    parts: list = []
    entries: list[int] = []  # buffer instruction indices
    dead: list[tuple[int, int]] = []  # buffer byte ranges on NX pages
    base = 0  # buffer instruction index of the current image
    for seg in segments:
        size = len(seg.data)
        if size % INSTRUCTION_WIDTH:
            raise MisalignedImage(f"image length {size} not a multiple of {INSTRUCTION_WIDTH}")
        count = size // INSTRUCTION_WIDTH
        entries += [base + i for i in (off // INSTRUCTION_WIDTH for off in seg.entry_offsets)
                    if 0 <= i < count]
        if seg.page_size:
            offset, ps = base * INSTRUCTION_WIDTH, seg.page_size
            dead += [(offset + p * ps, offset + min((p + 1) * ps, size))
                     for p in seg.nx_pages if 0 <= p * ps < size]
        parts += (seg.data, _SEPARATOR)
        base += count + 1
    if depth < 1:
        raise ValueError("depth must be >= 1")
    buf = b"".join(parts)
    opcodes = np.frombuffer(buf, dtype=np.uint8)[::INSTRUCTION_WIDTH]
    starts, ends = find_gadget_spans(opcodes, depth)
    lo, hi = starts * INSTRUCTION_WIDTH, (ends + 1) * INSTRUCTION_WIDTH

    if dead:
        # a span is dead when any of its bytes lies on an NX page
        is_dead = np.zeros(len(buf), dtype=bool)
        for a, b in dead:
            is_dead[a:b] = True
        dead_before = _prefix_count(is_dead)
        live = dead_before[hi] == dead_before[lo]
        starts, ends, lo, hi = starts[live], ends[live], lo[live], hi[live]

    syscalls, spadjs = _prefix_count(opcodes == OP_SYSCALL), _prefix_count(opcodes == OP_SPADJ)
    term = opcodes[ends]
    is_entry = np.zeros(len(opcodes), dtype=bool)
    is_entry[entries] = True
    bits = np.packbits(np.stack((  # one row per class, in CLASSES order
        syscalls[ends + 1] > syscalls[starts],
        spadjs[ends + 1] > spadjs[starts],
        term == OP_ICALL,
        (starts > 0) & (opcodes[starts - 1] == OP_CALL),
        term == OP_IJMP,
        is_entry[starts],
    )), axis=0, bitorder="little")[0]

    acc: dict[bytes, int] = {}
    get = acc.get
    for a, b, m in zip(lo.tolist(), hi.tolist(), bits.tolist()):
        seq = buf[a:b]
        acc[seq] = get(seq, 0) | m
    return GadgetReport(depth, {seq: set(_CLASS_SETS[m]) for seq, m in acc.items()})


def _prefix_count(mask: np.ndarray) -> np.ndarray:
    """``out[i]`` is the number of true entries of ``mask[:i]``."""
    import numpy as np

    out = np.zeros(len(mask) + 1, dtype=np.int64)
    np.cumsum(mask, out=out[1:])
    return out


def diff(before: GadgetReport, after: GadgetReport) -> dict:
    """Per-class percentage reduction; classes absent before are n/a.
    Gadgets present only after debloating are flagged as anomalies."""
    out: dict = {"classes": {}, "anomalies": []}

    def reduction(b: int, a: int):
        if b == 0:
            return None
        return (1.0 - a / b) * 100.0

    out["unique_total"] = reduction(before.unique_total, after.unique_total)
    for cls in CLASSES:
        out["classes"][cls] = reduction(before.count(cls), after.count(cls))
    for seq in after.gadgets:
        if seq not in before.gadgets:
            out["anomalies"].append(seq.hex())
    return out
