"""Physical memory: 4 KB frames on a DRAM bus.

Frames are allocated sparsely, so a machine configured with the paper's
full 2 GB (64 regions × 32 MB, §VII-A) costs only what is actually
touched.  All accesses are bounds-checked against the configured DRAM
size; isolation checks (region ownership / PMP) live above this layer,
in the machine's access path, because physical DRAM itself is oblivious
to protection domains.
"""

from __future__ import annotations

from repro.errors import HardwareError
from repro.util.bits import is_pow2

PAGE_SIZE = 4096
PAGE_SHIFT = 12


class PhysicalMemory:
    """Byte-addressable physical memory backed by sparse 4 KB frames."""

    def __init__(self, size: int) -> None:
        if size <= 0 or size % PAGE_SIZE != 0:
            raise ValueError(f"memory size must be a positive multiple of {PAGE_SIZE}")
        if not is_pow2(size):
            raise ValueError(f"memory size must be a power of two, got {size:#x}")
        self.size = size
        self._frames: dict[int, bytearray] = {}
        #: Optional (paddr, length) callback fired on every mutation
        #: (write or zero) — the machine uses it to keep decoded-
        #: instruction caches coherent with DRAM contents.
        self._write_observer = None

    def set_write_observer(self, observer) -> None:
        """Install (or clear, with None) the mutation observer."""
        self._write_observer = observer

    @property
    def num_frames(self) -> int:
        """Total number of 4 KB frames in the address space."""
        return self.size // PAGE_SIZE

    def _frame(self, frame_number: int) -> bytearray:
        frame = self._frames.get(frame_number)
        if frame is None:
            frame = bytearray(PAGE_SIZE)
            self._frames[frame_number] = frame
        return frame

    def check_range(self, paddr: int, length: int) -> None:
        """Raise :class:`HardwareError` unless ``[paddr, paddr + length)`` is DRAM."""
        if paddr < 0 or length < 0 or paddr + length > self.size:
            raise HardwareError(
                f"physical access [{paddr:#x}, {paddr + length:#x}) outside "
                f"DRAM of size {self.size:#x}"
            )

    def read(self, paddr: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``paddr``."""
        self.check_range(paddr, length)
        out = bytearray()
        while length > 0:
            frame_number, offset = divmod(paddr, PAGE_SIZE)
            take = min(length, PAGE_SIZE - offset)
            frame = self._frames.get(frame_number)
            if frame is None:
                out += bytes(take)
            else:
                out += frame[offset : offset + take]
            paddr += take
            length -= take
        return bytes(out)

    def write(self, paddr: int, data: bytes) -> None:
        """Write ``data`` starting at ``paddr``."""
        self.check_range(paddr, len(data))
        if self._write_observer is not None and data:
            self._write_observer(paddr, len(data))
        offset_in_data = 0
        remaining = len(data)
        while remaining > 0:
            frame_number, offset = divmod(paddr, PAGE_SIZE)
            take = min(remaining, PAGE_SIZE - offset)
            self._frame(frame_number)[offset : offset + take] = data[
                offset_in_data : offset_in_data + take
            ]
            paddr += take
            offset_in_data += take
            remaining -= take

    def read_u32(self, paddr: int) -> int:
        """Read a little-endian 32-bit word."""
        return int.from_bytes(self.read(paddr, 4), "little")

    def write_u32(self, paddr: int, value: int) -> None:
        """Write a little-endian 32-bit word."""
        self.write(paddr, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def read_u64(self, paddr: int) -> int:
        """Read a little-endian 64-bit word."""
        return int.from_bytes(self.read(paddr, 8), "little")

    def write_u64(self, paddr: int, value: int) -> None:
        """Write a little-endian 64-bit word."""
        self.write(paddr, (value & ((1 << 64) - 1)).to_bytes(8, "little"))

    def zero_range(self, paddr: int, length: int) -> None:
        """Zero ``length`` bytes — the SM's resource-cleaning primitive."""
        self.check_range(paddr, length)
        if self._write_observer is not None and length:
            self._write_observer(paddr, length)
        while length > 0:
            frame_number, offset = divmod(paddr, PAGE_SIZE)
            take = min(length, PAGE_SIZE - offset)
            if offset == 0 and take == PAGE_SIZE:
                # Whole frame: drop it rather than keep a zero page.
                self._frames.pop(frame_number, None)
            elif frame_number in self._frames:
                self._frames[frame_number][offset : offset + take] = bytes(take)
            paddr += take
            length -= take

    def touched_frames(self) -> list[int]:
        """Frame numbers that have ever been written (for diagnostics)."""
        return sorted(self._frames)
