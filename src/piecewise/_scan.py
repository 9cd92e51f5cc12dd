"""Gadget-span kernel.

Answers one question: which instruction-aligned spans of at most ``depth``
instructions end at a terminator and hold no barrier, that is no trap
opcode and no instruction the caller marks dead.  The work is a fixed
number of array passes, whatever the depth: ``last_index`` of the barrier
mask gives each terminator its longest clean span, and every span up to
that length is emitted at once.  numpy is imported on the first call, so
importing the package does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .ir import OP_ICALL, OP_IJMP, OP_RET, TRAP_BYTE

if TYPE_CHECKING:
    import numpy as np

def last_index(mask: np.ndarray) -> np.ndarray:
    """``out[i]`` is the largest ``j <= i`` with ``mask[j]`` true, or -1."""
    import numpy as np

    return np.maximum.accumulate(np.where(mask, np.arange(len(mask)), -1))


def find_gadget_spans(opcodes: np.ndarray, depth: int, dead: np.ndarray | None = None):
    """Return (starts, ends) int64 instruction-index arrays of candidate
    gadgets, ordered by length and then by end.  ``dead``, a boolean mask
    as long as ``opcodes``, marks instructions no span may hold."""
    import numpy as np

    barrier = opcodes == TRAP_BYTE
    if dead is not None:
        barrier |= dead
    ends = ((opcodes == OP_RET) | (opcodes == OP_ICALL) | (opcodes == OP_IJMP)).nonzero()[0]
    # the longest clean span of a terminator starts after its last barrier;
    # no span is longer than the image
    longest = min(depth, len(opcodes))
    clean = np.minimum(ends - last_index(barrier)[ends], longest)
    # one entry per span, so memory follows the spans emitted, not the depth:
    # terminator i contributes start offsets 0..clean[i]-1, then a stable
    # sort by offset keeps the terminators in order within each length
    # (numpy sorts 8- and 16-bit keys by radix)
    offsets = np.arange(clean.sum()) - (clean.cumsum() - clean).repeat(clean)
    order = offsets.astype(np.min_scalar_type(longest)).argsort(kind="stable")
    ends = ends.repeat(clean)[order]
    return ends - offsets[order], ends
