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

The span kernel (``_scan``) yields every candidate ``[start, end]`` span,
ordered by length and then by end, in a fixed number of array passes: an
instruction with a trap opcode or a byte on an NX page is a barrier, and a
terminator's spans reach back no further than the instruction after its
last barrier.  Classification is array work over all spans at once, with
last-class indices in place of counts: a span holds a SYSCALL when the last
SYSCALL at or before its end lies at or after its start, and likewise for
SPADJ.  COP and JOP look up ``opcodes[end]``, CS ``opcodes[start - 1]``, and
EP indexes an entry mask with ``start``.  Each class is one bit of a mask,
so deduplication is one pass that ORs masks per byte sequence, and every
sequence with the same mask shares one frozen class set.  Several images
(the modules of a process) are scanned as one buffer with one trap
instruction after each image, which no span crosses.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from ._scan import find_gadget_spans, last_index
from .errors import MisalignedImage
from .ir import (INSTRUCTION_WIDTH, OP_CALL, OP_ICALL, OP_IJMP, OP_SPADJ, OP_SYSCALL,
                 TRAP_BYTE)
from .loader import PAGE_NX, ProcessImage

if TYPE_CHECKING:
    import numpy as np

CLASSES = ("syscall", "SPU", "COP", "CS", "JOP", "EP")

DEFAULT_DEPTH = 5

_BIT = {cls: 1 << i for i, cls in enumerate(CLASSES)}

# class set of each mask whose bit i stands for CLASSES[i]; every report
# hands out these sets, so they are frozen
_CLASS_SETS = tuple(frozenset(cls for cls, bit in _BIT.items() if m & bit)
                    for m in range(1 << len(CLASSES)))
_SHARED = {classes: classes for classes in _CLASS_SETS}

_SEPARATOR = bytes((TRAP_BYTE,)) * INSTRUCTION_WIDTH


@dataclass
class GadgetReport:
    depth: int = DEFAULT_DEPTH
    # byte seq -> classes, one of the shared ``_CLASS_SETS``
    gadgets: dict[bytes, frozenset[str]] = field(default_factory=dict)

    @property
    def unique_total(self) -> int:
        return len(self.gadgets)

    def count(self, cls: str) -> int:
        return sum(1 for classes in self.gadgets.values() if cls in classes)

    def as_dict(self) -> dict:
        return {
            "depth": self.depth,
            "unique_total": self.unique_total,
            "classes": {cls: self.count(cls) for cls in CLASSES},
            "gadgets": {seq.hex(): sorted(classes) for seq, classes in self.gadgets.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GadgetReport":
        """Inverse of ``as_dict``; data of another shape, or a class name
        outside ``CLASSES``, raises ``ValueError``."""
        if not isinstance(data, dict) or not isinstance(data.get("gadgets"), dict):
            raise ValueError("a gadget report is an object whose 'gadgets' is an object")
        report = cls(depth=data.get("depth", DEFAULT_DEPTH))
        for seq, classes in data["gadgets"].items():
            if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
                raise ValueError(f"gadget {seq}: classes must be a list of names")
            shared = _SHARED.get(frozenset(classes))
            if shared is None:
                raise ValueError(f"gadget {seq}: unknown class in {sorted(classes)}")
            report.gadgets[bytes.fromhex(seq)] = shared
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
    segments = []
    for mod in image.load_order:
        states = image.page_state[mod.name]
        nx = [i for i, state in enumerate(states) if state == PAGE_NX] if PAGE_NX in states else ()
        segments.append(Segment(image.memory[mod.name],
                                [s.value for s in mod.defined_symbols()], nx, image.page_size))
    return scan_segments(segments, depth)


def scan_segments(segments: Iterable[Segment], depth: int = DEFAULT_DEPTH) -> GadgetReport:
    """Scan several code images with one span-kernel call.  The report
    equals the union of one ``scan`` per image, classes joined per byte
    sequence.

    The images are laid out as one buffer, each followed by one trap
    instruction, so that no span crosses from one image into the next and
    an image's first instruction never follows the previous image's CALL."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    import numpy as np

    parts: list = []
    entries: list[int] = []  # buffer instruction indices
    dead: list[tuple[int, int]] = []  # buffer instruction ranges touching NX pages
    base = 0  # buffer instruction index of the current image
    for seg in segments:
        size = len(seg.data)
        if size % INSTRUCTION_WIDTH:
            raise MisalignedImage(f"image length {size} not a multiple of {INSTRUCTION_WIDTH}")
        count = size // INSTRUCTION_WIDTH
        entries += [base + off // INSTRUCTION_WIDTH for off in seg.entry_offsets
                    if 0 <= off < size]
        if seg.page_size:
            ps = seg.page_size
            # every instruction with a byte in [p * ps, (p + 1) * ps)
            dead += [(base + p * ps // INSTRUCTION_WIDTH,
                      base + -(-min((p + 1) * ps, size) // INSTRUCTION_WIDTH))
                     for p in seg.nx_pages if 0 <= p * ps < size]
        parts += (seg.data, _SEPARATOR)
        base += count + 1
    buf = b"".join(parts)
    opcodes = np.frombuffer(buf, dtype=np.uint8)[::INSTRUCTION_WIDTH]
    is_dead = None
    if dead:
        is_dead = np.zeros(len(opcodes), dtype=bool)
        for lo, hi in dead:
            is_dead[lo:hi] = True
    starts, ends = find_gadget_spans(opcodes, depth, is_dead)

    # one bit per class, in CLASSES order; opcodes[starts - 1] at start 0
    # wraps to the last separator, which is no CALL
    at_end, before_start = _opcode_bits()
    entry_bits = np.zeros(len(opcodes), dtype=np.uint8)
    entry_bits[entries] = _BIT["EP"]
    bits = (at_end[opcodes[ends]] | before_start[opcodes[starts - 1]] | entry_bits[starts]
            | (last_index(opcodes == OP_SYSCALL)[ends] >= starts) * _BIT["syscall"]
            | (last_index(opcodes == OP_SPADJ)[ends] >= starts) * _BIT["SPU"])
    acc: dict[bytes, int] = {}
    get = acc.get
    seqs = [buf[a:b] for a, b in zip((starts * INSTRUCTION_WIDTH).tolist(),
                                     ((ends + 1) * INSTRUCTION_WIDTH).tolist())]
    for seq, m in zip(seqs, bits.tolist()):
        acc[seq] = get(seq, 0) | m
    return GadgetReport(depth, dict(zip(acc, map(_CLASS_SETS.__getitem__, acc.values()))))


@cache
def _opcode_bits() -> tuple[np.ndarray, np.ndarray]:
    """Class bits by the opcode of a span's terminator, and by the opcode of
    the instruction before its start."""
    import numpy as np

    at_end = np.zeros(256, dtype=np.uint8)
    at_end[OP_ICALL], at_end[OP_IJMP] = _BIT["COP"], _BIT["JOP"]
    before_start = np.zeros(256, dtype=np.uint8)
    before_start[OP_CALL] = _BIT["CS"]
    return at_end, before_start


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
