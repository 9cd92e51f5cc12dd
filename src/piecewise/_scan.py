"""Gadget-span kernel.

Answers one question: which instruction-aligned spans of at most ``depth``
instructions end at a terminator and contain no trap opcode.  numpy is
imported on the first call, so importing the package does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

TRAP = 0x6D
TERMINATORS = (0x07, 0x06, 0x0A)  # RET, ICALL, IJMP


def find_gadget_spans(opcodes: np.ndarray, depth: int):
    """Return (starts, ends) instruction-index arrays of candidate gadgets."""
    import numpy as np

    is_term = (opcodes == TERMINATORS[0]) | (opcodes == TERMINATORS[1]) | \
              (opcodes == TERMINATORS[2])
    terms = np.flatnonzero(is_term)
    trap_psum = np.concatenate(([0], np.cumsum(opcodes == TRAP)))
    starts_all = []
    ends_all = []
    # no span is longer than the image
    for length in range(1, min(depth, len(opcodes)) + 1):
        starts = terms - length + 1
        ok = starts >= 0
        s, e = starts[ok], terms[ok]
        clean = trap_psum[e + 1] - trap_psum[s] == 0
        starts_all.append(s[clean])
        ends_all.append(e[clean])
    if not starts_all:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return (np.concatenate(starts_all).astype(np.int64),
            np.concatenate(ends_all).astype(np.int64))
