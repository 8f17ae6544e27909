"""The enclave image format and the OS model's loading/reclaim paths."""

import pytest

from repro.hw.memory import PAGE_SIZE
from repro.hw.paging import PTE_R, PTE_W, PTE_X
from repro.kernel.loader import EnclaveImage, EnclaveSegment, image_from_assembly
from repro.kernel.os_model import OsError
from repro.sm.events import OsEventKind
from tests.conftest import trivial_enclave_image

RWX = PTE_R | PTE_W | PTE_X


# ---------------------------------------------------------------------------
# Image format
# ---------------------------------------------------------------------------

def test_segment_pages_split_and_pad():
    segment = EnclaveSegment(0x40000000, b"x" * (PAGE_SIZE + 10), RWX)
    pages = segment.pages()
    assert len(pages) == 2
    assert pages[0] == (0x40000000, b"x" * PAGE_SIZE)
    assert pages[1][1] == b"x" * 10 + bytes(PAGE_SIZE - 10)


def test_empty_segment_still_occupies_one_page():
    segment = EnclaveSegment(0x40000000, b"", RWX)
    assert len(segment.pages()) == 1


def test_segment_must_be_page_aligned():
    with pytest.raises(ValueError):
        EnclaveSegment(0x40000010, b"x", RWX)


def test_image_rejects_segment_escaping_evrange():
    with pytest.raises(ValueError):
        EnclaveImage(
            evrange_base=0x40000000,
            evrange_size=PAGE_SIZE,
            segments=(EnclaveSegment(0x40001000, b"x", RWX),),
            entry_pc=0x40000000,
            entry_sp=0,
        )


def test_required_pages_accounting():
    image = image_from_assembly("entry:\n    halt\n", stack_pages=2)
    # 1 root + 1 L0 (all within one 4MB block) + 1 code + 2 stack.
    assert image.required_pages() == 1 + len(image.l0_blocks()) + image.total_pages()
    assert image.total_pages() == 3


def test_l0_blocks_span_4mb_boundaries():
    image = EnclaveImage(
        evrange_base=0x40000000,
        evrange_size=0x800000,
        segments=(
            EnclaveSegment(0x40000000, b"a", RWX),
            EnclaveSegment(0x40400000, b"b", RWX),  # next 4 MB block
        ),
        entry_pc=0x40000000,
        entry_sp=0,
    )
    assert len(image.l0_blocks()) == 2


def test_fault_symbol_configures_handler():
    image = image_from_assembly(
        "entry:\n    halt\nhandler:\n    halt\n", fault_symbol="handler"
    )
    assert image.fault_pc != 0 and image.fault_sp != 0


# ---------------------------------------------------------------------------
# OS loading / reclaim
# ---------------------------------------------------------------------------

def test_load_enclave_end_to_end(any_system):
    buffer = any_system.kernel.alloc_buffer(1)
    loaded = any_system.kernel.load_enclave(trivial_enclave_image(buffer, value=5))
    events = any_system.kernel.enter_and_run(loaded.eid, loaded.tids[0])
    assert events[0].kind is OsEventKind.ENCLAVE_EXIT
    assert any_system.machine.memory.read_u32(buffer) == 5


def test_destroy_and_reload_reuses_memory(any_system):
    kernel = any_system.kernel
    image = trivial_enclave_image()
    first = kernel.load_enclave(image)
    base = first.region_base
    kernel.destroy_enclave(first.eid)
    second = kernel.load_enclave(image)
    assert second.region_base == base, "reclaimed memory is reused (LIFO)"


def test_many_load_destroy_cycles(any_system):
    kernel = any_system.kernel
    image = trivial_enclave_image()
    for _ in range(10):
        loaded = kernel.load_enclave(image)
        events = kernel.enter_and_run(loaded.eid, loaded.tids[0])
        assert events[0].kind is OsEventKind.ENCLAVE_EXIT
        kernel.destroy_enclave(loaded.eid)


def test_load_enclave_leaves_no_staging_frame(any_system):
    """The staging frame every image page passes through is scrubbed
    once the last page is loaded, so sparse DRAM does not keep it."""
    kernel = any_system.kernel
    memory = kernel.machine.memory
    image = trivial_enclave_image()
    for _ in range(3):
        first_frame = kernel._frame_cursor
        loaded = kernel.load_enclave(image)
        allocated = set(range(first_frame, kernel._frame_cursor))
        assert allocated, "the load allocated a staging frame"
        assert allocated.isdisjoint(memory.touched_frames())
        events = kernel.enter_and_run(loaded.eid, loaded.tids[0])
        assert events[0].kind is OsEventKind.ENCLAVE_EXIT


def test_concurrent_enclaves(any_system):
    kernel = any_system.kernel
    outs = [kernel.alloc_buffer(1) for _ in range(3)]
    loaded = [
        kernel.load_enclave(trivial_enclave_image(out, value=i + 1))
        for i, out in enumerate(outs)
    ]
    for enclave in loaded:
        kernel.enter_and_run(enclave.eid, enclave.tids[0])
    for i, out in enumerate(outs):
        assert kernel.machine.memory.read_u32(out) == i + 1


def test_alloc_buffer_is_contiguous_and_zeroed(any_system):
    kernel = any_system.kernel
    buffer = kernel.alloc_buffer(3)
    assert kernel.machine.memory.read(buffer, 3 * PAGE_SIZE) == bytes(3 * PAGE_SIZE)
    with pytest.raises(ValueError):
        kernel.alloc_buffer(0)


def test_donation_exhaustion_raises(sanctum_system):
    kernel = sanctum_system.kernel
    # 8 regions: 1 SM + 1 kernel = 6 donatable on the small config.
    big = kernel.machine.config.dram_size  # impossible to satisfy
    with pytest.raises(OsError):
        kernel.donate_memory(0x40000, big * 2)


def test_shared_read_write(any_system):
    kernel = any_system.kernel
    buffer = kernel.alloc_buffer(1)
    kernel.write_shared(buffer, b"hello")
    assert kernel.read_shared(buffer, 5) == b"hello"
