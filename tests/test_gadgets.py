import numpy as np
import pytest

from piecewise import _scan, gadgets
from piecewise.errors import MisalignedImage
from piecewise.ir import (OP_CALL, OP_COPY, OP_ICALL, OP_IJMP, OP_RET,
                          OP_SPADJ, OP_SYSCALL, TRAP_BYTE)


def img(*opcodes):
    return b"".join(bytes((op, 0, 0, 0)) for op in opcodes)


def test_syscall_ret_yields_two_gadgets():
    report = gadgets.scan(img(OP_SYSCALL, OP_RET))
    assert report.unique_total == 2
    assert report.count("syscall") == 1  # only the 2-instruction suffix


def test_trap_bytes_yield_nothing():
    report = gadgets.scan(bytes([TRAP_BYTE]) * 64)
    assert report.unique_total == 0


def test_spu_and_cs_overlap():
    report = gadgets.scan(img(OP_CALL, OP_SPADJ, OP_RET), entry_offsets=[0])
    two = img(OP_SPADJ, OP_RET)
    assert report.gadgets[two] == {"SPU", "CS"}
    three = img(OP_CALL, OP_SPADJ, OP_RET)
    assert report.gadgets[three] == {"SPU", "EP"}


def test_terminator_classes():
    assert gadgets.scan(img(OP_ICALL)).gadgets[img(OP_ICALL)] == {"COP"}
    assert gadgets.scan(img(OP_IJMP)).gadgets[img(OP_IJMP)] == {"JOP"}
    assert gadgets.scan(img(OP_RET)).gadgets[img(OP_RET)] == set()


def test_depth_limits_window():
    ops = [OP_COPY] * 9 + [OP_RET]
    assert gadgets.scan(img(*ops), depth=3).unique_total == 3
    assert gadgets.scan(img(*ops), depth=10).unique_total == 10


def test_duplicates_collapse_by_byte_sequence():
    report = gadgets.scan(img(OP_SYSCALL, OP_RET, OP_SYSCALL, OP_RET))
    # [RET], [SYSCALL RET], [RET SYSCALL RET], [SYSCALL RET SYSCALL RET]
    assert report.unique_total == 4


def test_class_membership_is_any_occurrence():
    # the same [RET] byte sequence occurs plainly and as a call-site suffix
    report = gadgets.scan(img(OP_RET, OP_CALL, OP_RET))
    assert report.gadgets[img(OP_RET)] == {"CS"}


def test_misaligned_image_rejected():
    with pytest.raises(MisalignedImage):
        gadgets.scan(b"\x07\x00\x00")


def test_nx_pages_excluded():
    # page 0 holds syscall gadgets, page 1 stack-pivot ones (32-byte pages)
    data = img(OP_SYSCALL, OP_RET) * 4 + img(OP_SPADJ, OP_RET) * 4
    full = gadgets.scan(data, page_size=32)
    assert full.count("SPU") > 0
    masked = gadgets.scan(data, nx_pages={1}, page_size=32)
    assert masked.count("SPU") == 0
    assert masked.count("syscall") > 0
    assert masked.unique_total < full.unique_total
    both_dead = gadgets.scan(data, nx_pages={0, 1}, page_size=32)
    assert both_dead.unique_total == 0


def test_report_round_trips_through_dict():
    report = gadgets.scan(img(OP_CALL, OP_SPADJ, OP_SYSCALL, OP_RET), entry_offsets=[0])
    clone = gadgets.GadgetReport.from_dict(report.as_dict())
    assert clone.gadgets == report.gadgets
    assert clone.depth == report.depth


def test_merge_unions_classes():
    a = gadgets.scan(img(OP_SYSCALL, OP_RET))
    b = gadgets.scan(img(OP_CALL, OP_SYSCALL, OP_RET))
    a.merge(b)
    assert a.gadgets[img(OP_SYSCALL, OP_RET)] >= {"syscall", "CS"}


def test_diff_reports_reduction_and_anomalies():
    before = gadgets.scan(img(OP_SYSCALL, OP_RET, OP_SPADJ, OP_RET))
    after = gadgets.scan(img(OP_SPADJ, OP_RET))
    delta = gadgets.diff(before, after)
    assert delta["classes"]["syscall"] == 100.0
    assert delta["classes"]["JOP"] is None  # absent before: not applicable
    assert delta["anomalies"] == []
    inverted = gadgets.diff(after, before)
    assert inverted["anomalies"]  # gadgets that appeared from nowhere


def _reference_spans(opcodes, depth):
    """Brute force: every suffix of at most ``depth`` instructions that ends
    at RET/ICALL/IJMP and holds no trap opcode."""
    spans = set()
    ops = opcodes.tolist()
    for end, op in enumerate(ops):
        if op not in (OP_RET, OP_ICALL, OP_IJMP):
            continue
        for start in range(max(0, end - depth + 1), end + 1):
            if TRAP_BYTE not in ops[start:end + 1]:
                spans.add((start, end))
    return spans


def test_kernel_parity_random_images():
    rng = np.random.default_rng(42)
    # a small alphabet makes terminators and trap bytes dense
    alphabet = np.array([OP_COPY, OP_CALL, OP_SYSCALL, OP_SPADJ, TRAP_BYTE,
                         OP_RET, OP_ICALL, OP_IJMP], dtype=np.uint8)
    for depth in (1, 3, 5, 8):
        for opcodes in (rng.integers(0, 256, size=4096, dtype=np.uint8),
                        rng.choice(alphabet, size=2048)):
            starts, ends = _scan.find_gadget_spans(opcodes, depth)
            spans = list(zip(starts.tolist(), ends.tolist()))
            assert len(spans) == len(set(spans))
            assert set(spans) == _reference_spans(opcodes, depth)


def test_empty_image():
    assert gadgets.scan(b"").unique_total == 0
