import random
import tracemalloc

import numpy as np
import pytest

from conftest import compile_source, random_system
from piecewise import _scan, gadgets, loader
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


def _merge(total, other):
    """Reference union of two reports: classes joined per byte sequence."""
    for seq, classes in other.gadgets.items():
        total.gadgets[seq] = total.gadgets.get(seq, frozenset()) | classes


def test_merge_unions_classes():
    a = gadgets.scan(img(OP_SYSCALL, OP_RET))
    b = gadgets.scan(img(OP_CALL, OP_SYSCALL, OP_RET))
    _merge(a, b)
    assert a.gadgets[img(OP_SYSCALL, OP_RET)] == {"syscall", "CS"}
    both = gadgets.scan_segments([gadgets.Segment(img(OP_SYSCALL, OP_RET)),
                                  gadgets.Segment(img(OP_CALL, OP_SYSCALL, OP_RET))])
    assert both.as_dict() == a.as_dict()


def test_reports_share_one_class_set_per_mask():
    data = img(OP_SYSCALL, OP_RET, OP_COPY, OP_RET, OP_SYSCALL, OP_COPY, OP_RET)
    report = gadgets.scan(data)
    clone = gadgets.GadgetReport.from_dict(report.as_dict())
    for classes in (*report.gadgets.values(), *clone.gadgets.values()):
        assert isinstance(classes, frozenset)
        assert any(classes is shared for shared in gadgets._CLASS_SETS)
    with pytest.raises(ValueError, match="unknown class"):
        gadgets.GadgetReport.from_dict({"gadgets": {"07000000": ["ROP"]}})


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
            assert spans == sorted(spans, key=lambda span: (span[1] - span[0], span[1]))


def test_kernel_depth_beyond_image_is_bounded_by_its_length():
    opcodes = np.array([OP_COPY, OP_RET, OP_SPADJ, OP_COPY, OP_ICALL, TRAP_BYTE, OP_IJMP],
                       dtype=np.uint8)
    full = _scan.find_gadget_spans(opcodes, len(opcodes))
    huge = _scan.find_gadget_spans(opcodes, 10**9)
    assert [a.tolist() for a in huge] == [a.tolist() for a in full]
    assert set(zip(*(a.tolist() for a in huge))) == _reference_spans(opcodes, len(opcodes))


def test_memory_follows_the_spans_emitted_not_the_depth():
    rng = np.random.default_rng(11)
    alphabet = np.array([OP_COPY, OP_CALL, OP_SYSCALL, OP_SPADJ, TRAP_BYTE,
                         OP_RET, OP_ICALL, OP_IJMP], dtype=np.uint8)
    opcodes = rng.choice(alphabet, size=1100)
    data = np.column_stack((opcodes, rng.integers(0, 2, size=(1100, 3)))).astype(np.uint8).tobytes()
    terminators = int(np.isin(opcodes, (OP_RET, OP_ICALL, OP_IJMP)).sum())
    tracemalloc.start()
    try:
        starts, ends = _scan.find_gadget_spans(opcodes, 10**9)
        kernel_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        report = gadgets.scan(data, depth=10**9)
        scan_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one entry per instruction of the image or per span emitted; a table of
    # one row per length up to the image's, per terminator, holds more
    entries = len(opcodes) + len(starts)
    assert 64 * entries < len(opcodes) * terminators
    assert kernel_peak < 64 * entries
    span_bytes = int((ends - starts + 1).sum()) * 4
    assert scan_peak < 2 * span_bytes + 256 * len(starts)
    assert report.gadgets == gadgets.scan(data, depth=len(opcodes)).gadgets


def _reference_scan_segments(segments, depth=gadgets.DEFAULT_DEPTH):
    """Brute force: classify each span of ``_reference_spans`` on its own and
    union the classes per byte sequence, visiting the spans by length, then
    by image, then by end."""
    spans, images = [], []
    for i, (data, entry_offsets, nx_pages, page_size) in enumerate(segments):
        opcodes = np.frombuffer(bytes(data), dtype=np.uint8)[::4]
        images.append((data, opcodes, {off // 4 for off in entry_offsets}, nx_pages, page_size))
        spans += [(end - start, i, end, start) for start, end in _reference_spans(opcodes, depth)]
    found = {}
    for _, i, end, start in sorted(spans):
        data, opcodes, entries, nx_pages, page_size = images[i]
        lo, hi = start * 4, (end + 1) * 4
        if nx_pages and page_size:
            if any(p in nx_pages for p in range(lo // page_size, (hi - 1) // page_size + 1)):
                continue
        classes = found.setdefault(bytes(data[lo:hi]), set())
        window = opcodes[start:end + 1].tolist()
        if OP_SYSCALL in window:
            classes.add("syscall")
        if OP_SPADJ in window:
            classes.add("SPU")
        if opcodes[end] == OP_ICALL:
            classes.add("COP")
        elif opcodes[end] == OP_IJMP:
            classes.add("JOP")
        if start > 0 and opcodes[start - 1] == OP_CALL:
            classes.add("CS")
        if start in entries:
            classes.add("EP")
    return gadgets.GadgetReport(depth, found)


def _reference_scan(data, entry_offsets=(), depth=gadgets.DEFAULT_DEPTH,
                    nx_pages=frozenset(), page_size=None):
    return _reference_scan_segments([gadgets.Segment(data, entry_offsets, nx_pages, page_size)],
                                    depth)


def _assert_same_report(report, expected):
    assert report.as_dict() == expected.as_dict()
    assert list(report.gadgets) == list(expected.gadgets)  # the visiting order


@pytest.mark.parametrize("depth", (1, 3, 5, 8))
def test_classification_parity_random_images(depth):
    rng = np.random.default_rng(depth)
    alphabet = np.array([OP_COPY, OP_CALL, OP_SYSCALL, OP_SPADJ, TRAP_BYTE,
                         OP_RET, OP_ICALL, OP_IJMP], dtype=np.uint8)
    segments, merged = [], gadgets.GadgetReport(depth)
    for size in (1, 40, 1100):  # instructions; 1100 spans two 4096-byte pages
        for opcodes in (rng.integers(0, 256, size=size, dtype=np.uint8),
                        rng.choice(alphabet, size=size)):
            # operand bytes from {0, 1} make repeated byte sequences common
            rows = np.column_stack((opcodes, rng.integers(0, 2, size=(size, 3))))
            data = rows.astype(np.uint8).tobytes()
            offsets = rng.integers(-8, len(data) + 8, size=size // 4 + 2).tolist()
            offsets += offsets[:3]  # duplicates
            _assert_same_report(gadgets.scan(data, offsets, depth),
                                _reference_scan(data, offsets, depth))
            # odd page sizes let an instruction touch a page with one byte
            for page_size in (4, 5, 6, 32, 4096):
                pages = -(-len(data) // page_size)
                # page numbers from one before the image to one past its end
                nx = set(rng.integers(-1, pages + 1, size=rng.integers(0, pages + 2)).tolist())
                expected = _reference_scan(data, offsets, depth, nx, page_size)
                _assert_same_report(gadgets.scan(data, offsets, depth, nx, page_size), expected)
                segments.append(gadgets.Segment(data, offsets, nx, page_size))
                _merge(merged, expected)
            # NX pages without a page size exclude nothing
            _assert_same_report(gadgets.scan(data, offsets, depth, {0}),
                                gadgets.scan(data, offsets, depth))
    # all images as one buffer: no page or entry reaches a neighbouring image
    report = gadgets.scan_segments(segments, depth)
    assert report.as_dict() == merged.as_dict()
    _assert_same_report(report, _reference_scan_segments(segments, depth))


def _merged_module_scans(image):
    """``scan_process`` as one ``scan`` per module and a ``_merge``."""
    total = gadgets.GadgetReport()
    for mod in image.load_order:
        nx = {i for i, state in enumerate(image.page_state[mod.name]) if state == loader.PAGE_NX}
        _merge(total, gadgets.scan(bytes(image.memory[mod.name]),
                                   [s.value for s in mod.defined_symbols()],
                                   nx_pages=nx, page_size=image.page_size))
    return total


@pytest.mark.parametrize("seed", range(30))
def test_scan_process_equals_merge_of_module_scans(seed):
    system = random_system(random.Random(seed))
    resolver = system.resolver()
    for page_size in (8, 4096):  # small pages make NX pages common after removal
        for debloat in (False, True):
            image = loader.load_and_debloat("prog", resolver, page_size,
                                            no_debloat=not debloat)[0]
            assert gadgets.scan_process(image).as_dict() == \
                _merged_module_scans(image).as_dict()


def test_module_boundary_is_not_a_call_site():
    # load order prog, a, e, b: a ends in CALL, e has no code, b starts with a gadget
    resolver = loader.MemoryResolver({
        "prog": compile_source("module prog executable\nneeded a e b\n"
                               "func main strong entry { ret }\n"),
        "a": compile_source("module a\nimport f\nfunc g strong {\n    call f\n}\n"),
        "e": compile_source("module e\n"),
        "b": compile_source("module b\nfunc f strong exported {\n    syscall\n    ret\n}\n"),
    })
    image = loader.load_and_debloat("prog", resolver, no_debloat=True)[0]
    assert [mod.name for mod in image.load_order] == ["prog", "a", "e", "b"]
    assert image.memory["a"][-4] == OP_CALL and not image.memory["e"]
    report = gadgets.scan_process(image)
    assert report.gadgets[img(OP_SYSCALL, OP_RET)] == {"syscall", "EP"}
    assert report.as_dict() == _merged_module_scans(image).as_dict()


def test_misaligned_module_rejected_among_several():
    with pytest.raises(MisalignedImage):
        gadgets.scan_segments([gadgets.Segment(img(OP_RET)), gadgets.Segment(b"\x07")])


def test_empty_image():
    assert gadgets.scan(b"").unique_total == 0


@pytest.mark.parametrize("depth", (0, -1))
def test_depth_checked_before_any_segment_is_laid_out(depth):
    def segments():
        raise AssertionError("a segment was read before the depth check")
        yield

    with pytest.raises(ValueError, match="depth must be >= 1"):
        gadgets.scan_segments(segments(), depth=depth)
    # a bad depth is reported ahead of a bad image
    with pytest.raises(ValueError, match="depth must be >= 1"):
        gadgets.scan_segments([gadgets.Segment(b"\x07")], depth=depth)
