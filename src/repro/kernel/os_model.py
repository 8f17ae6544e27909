"""The untrusted OS: resource management, enclave loading, scheduling.

"SM is not a kernel, as it does not make resource management decisions,
instead only verifying the decisions made by system software" (§V) —
this module is that system software.  It owns frame allocation, picks
every physical placement, donates memory to enclaves, and drives the
SM API.  It is *untrusted*: nothing it does can violate an enclave, and
the adversarial subclass in :mod:`repro.kernel.adversary` tries.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ApiResult
from repro.hw.asm import assemble
from repro.hw.core import DOMAIN_UNTRUSTED
from repro.hw.machine import Machine
from repro.hw.memory import PAGE_SHIFT, PAGE_SIZE
from repro.hw.paging import PTE_R, PTE_W, PTE_X, PageTableBuilder
from repro.hw.pmp import Privilege
from repro.kernel.loader import EnclaveImage, L0_SPAN
from repro.platforms.base import IsolationPlatform
from repro.sm.abi import arg_errors
from repro.sm.api import SecurityMonitor
from repro.sm.enclave import (
    ENCLAVE_METADATA_BASE_SIZE,
    ENCLAVE_METADATA_PER_MAILBOX,
)
from repro.sm.events import OsEvent
from repro.sm.resources import ResourceState, ResourceType
from repro.sm.thread import THREAD_METADATA_SIZE
from repro.util.bits import align_up


class OsError(Exception):
    """The OS model hit a condition it cannot recover from.

    These are kernel-side failures (out of memory, SM refused a call
    the kernel expected to succeed) — simulation diagnostics, not
    security events.
    """


@dataclasses.dataclass
class LoadedEnclave:
    """Kernel-side record of an enclave it has loaded."""

    eid: int
    tids: list[int]
    region_base: int
    region_size: int
    #: Region ids donated to this enclave.
    rids: list[int]
    image: EnclaveImage


@dataclasses.dataclass
class InstalledProgram:
    """An untrusted user program resident at a fixed physical address."""

    kernel: "OsKernel"
    base: int
    stack_top: int

    def run(
        self, core_id: int = 0, max_steps: int = 1_000_000
    ) -> tuple["Core", list[OsEvent]]:  # noqa: F821
        """Execute the program from its entry point on an idle core."""
        core = self.kernel.machine.cores[core_id]
        core.clean_architectural_state()
        core.domain = DOMAIN_UNTRUSTED
        core.privilege = Privilege.U
        core.context.paging_enabled = True
        core.context.evrange = None
        core.pc = self.base
        core.regs[2] = self.stack_top  # sp
        self.kernel.platform.configure_core(core)
        core.halted = False
        self.kernel.machine.run_core(core_id, max_steps)
        return core, self.kernel.sm.os_events.drain(core_id)


class OsKernel:
    """A functional (if untrusted) operating system for the machine."""

    def __init__(
        self,
        machine: Machine,
        sm: SecurityMonitor,
        platform: IsolationPlatform,
    ) -> None:
        self.machine = machine
        self.sm = sm
        self.platform = platform
        self.enclaves: dict[int, LoadedEnclave] = {}
        self._init_memory_management()
        self._build_page_tables()

    # ------------------------------------------------------------------
    # Physical memory management (fully OS-owned policy)
    # ------------------------------------------------------------------

    def _init_memory_management(self) -> None:
        untrusted = [
            record.rid
            for record in self.sm.state.resources.all_records()
            if record.rtype is ResourceType.DRAM_REGION
            and record.owner == DOMAIN_UNTRUSTED
            and record.state is ResourceState.OWNED
        ]
        if self.platform.name == "sanctum":
            if not untrusted:
                raise OsError("no untrusted DRAM regions to boot the OS in")
            # First untrusted region hosts kernel structures; the rest
            # are kept empty so they can be donated whole.
            self._own_regions = [untrusted[0]]
            self._donatable_regions = untrusted[1:]
            base, size = self.platform.region_range(self._own_regions[0])
            self._frame_cursor = base >> PAGE_SHIFT
            self._frame_limit = (base + size) >> PAGE_SHIFT
        else:
            # Keystone: memory outside SM regions is one untrusted pool.
            # Kernel frames grow from the bottom; enclave intervals are
            # carved from the top.
            self._own_regions = []
            self._donatable_regions = []
            reserved = [
                self.platform.region_range(rid) for rid in self.platform.region_ids()
            ]
            cursor = 0
            for region_base, region_size in sorted(reserved):
                if region_base <= cursor < region_base + region_size:
                    cursor = region_base + region_size
            self._frame_cursor = align_up(cursor, PAGE_SIZE) >> PAGE_SHIFT
            self._frame_limit = self.machine.config.dram_size >> PAGE_SHIFT
            self._carve_cursor = self.machine.config.dram_size

    def alloc_frame(self) -> int:
        """Allocate one physical frame for kernel use; returns its ppn."""
        if self._frame_cursor >= self._frame_limit:
            raise OsError("kernel out of physical frames")
        ppn = self._frame_cursor
        self._frame_cursor += 1
        self.machine.memory.zero_range(ppn << PAGE_SHIFT, PAGE_SIZE)
        return ppn

    def alloc_buffer(self, n_pages: int) -> int:
        """Allocate a contiguous untrusted buffer; returns its paddr."""
        if n_pages <= 0:
            raise ValueError(f"buffer size must be positive, got {n_pages}")
        base_ppn = self.alloc_frame()
        previous = base_ppn
        for _ in range(n_pages - 1):
            ppn = self.alloc_frame()
            if ppn != previous + 1:
                raise OsError("frame allocator lost contiguity")
            previous = ppn
        return base_ppn << PAGE_SHIFT

    # ------------------------------------------------------------------
    # OS page tables (identity map of all DRAM)
    # ------------------------------------------------------------------

    def _build_page_tables(self) -> None:
        self.page_tables = PageTableBuilder(self.machine.memory, self.alloc_frame)
        self.page_tables.map_range(
            0, 0, self.machine.config.dram_size, PTE_R | PTE_W | PTE_X
        )
        for core in self.machine.cores:
            core.context.os_root_ppn = self.page_tables.root_ppn

    # ------------------------------------------------------------------
    # Memory donation to enclaves
    # ------------------------------------------------------------------

    def donate_memory(self, eid: int, min_bytes: int) -> tuple[int, int, list[int]]:
        """Give the (LOADING) enclave an isolated interval of memory.

        Returns (base, size, region ids).  On Sanctum this blocks,
        cleans, and grants whole OS-owned regions (Fig. 2 cycle); on
        Keystone it carves a fresh PMP region of the requested size.
        """
        if self.platform.name == "sanctum":
            region_size = self.platform.region_range(0)[1]
            needed = max(1, -(-min_bytes // region_size))
            if len(self._donatable_regions) < needed:
                raise OsError(f"no free regions to donate ({needed} needed)")
            rids = [self._donatable_regions.pop(0) for _ in range(needed)]
            for rid in rids:
                self._sm_ok(self.sm.block_resource, ResourceType.DRAM_REGION, rid)
                self._sm_ok(self.sm.clean_resource, ResourceType.DRAM_REGION, rid)
                self._sm_ok(self.sm.grant_resource, ResourceType.DRAM_REGION, rid, eid)
            bases = sorted(self.platform.region_range(rid)[0] for rid in rids)
            return bases[0], needed * region_size, rids
        size = align_up(max(min_bytes, PAGE_SIZE), PAGE_SIZE)
        base = self._carve_cursor - size
        if base < self._frame_cursor << PAGE_SHIFT:
            raise OsError("untrusted pool exhausted")
        self._carve_cursor = base
        result = self.sm.create_enclave_region(DOMAIN_UNTRUSTED, eid, base, size)
        if result is not ApiResult.OK:
            raise OsError(f"create_enclave_region failed: {result.name}")
        rid = self.platform.region_of(base)
        return base, size, [rid]

    def reclaim_enclave_memory(self, loaded: LoadedEnclave) -> None:
        """After delete_enclave: clean the blocked regions for reuse."""
        for rid in reversed(loaded.rids):
            self._sm_ok(self.sm.clean_resource, ResourceType.DRAM_REGION, rid)
            if self.platform.name == "sanctum":
                # Take the cleaned region back into OS ownership; LIFO
                # reuse keeps physical placement stable across
                # load/destroy cycles (and experiments deterministic).
                self._sm_ok(
                    self.sm.grant_resource, ResourceType.DRAM_REGION, rid, DOMAIN_UNTRUSTED
                )
                self._donatable_regions.insert(0, rid)
        if self.platform.dynamic_regions and loaded.region_base == self._carve_cursor:
            # The dissolved region sat at the top of the carve stack;
            # reclaim the interval for future enclaves.
            self._carve_cursor += loaded.region_size

    # ------------------------------------------------------------------
    # Enclave loading (the Fig.-3 sequence)
    # ------------------------------------------------------------------

    def load_enclave(self, image: EnclaveImage, extra_threads: int = 0) -> LoadedEnclave:
        """Create, load, and initialize an enclave from an image.

        Follows the measured-initialization order the SM enforces:
        create_enclave, grant memory, root table, L0 tables, data pages
        in ascending physical order, threads, init_enclave.
        """
        metadata_size = (
            ENCLAVE_METADATA_BASE_SIZE
            + ENCLAVE_METADATA_PER_MAILBOX * image.num_mailboxes
        )
        eid = self.sm.state.suggest_metadata(metadata_size)
        if eid is None:
            raise OsError("SM metadata arenas exhausted")
        self._sm_ok(
            self.sm.create_enclave,
            eid,
            image.evrange_base,
            image.evrange_size,
            image.num_mailboxes,
        )
        base, size, rids = self.donate_memory(eid, image.required_pages() * PAGE_SIZE)

        next_paddr = base
        self._sm_ok(self.sm.allocate_page_table, eid, 0, 1, next_paddr)
        next_paddr += PAGE_SIZE
        for block in image.l0_blocks():
            self._sm_ok(
                self.sm.allocate_page_table, eid, block * L0_SPAN, 0, next_paddr
            )
            next_paddr += PAGE_SIZE

        staging = self.alloc_frame() << PAGE_SHIFT
        pages = sorted(
            (vaddr, data, segment.acl)
            for segment in image.segments
            for vaddr, data in segment.pages()
        )
        for vaddr, data, acl in pages:
            self.machine.memory.write(staging, data)
            self._sm_ok(self.sm.load_page, eid, vaddr, next_paddr, staging, acl)
            next_paddr += PAGE_SIZE
        # Scrubbing the whole frame drops it from the sparse DRAM model;
        # otherwise every load would keep 4 KB of host memory for good.
        self.machine.memory.zero_range(staging, PAGE_SIZE)

        tids = []
        for _ in range(1 + extra_threads):
            tid = self.sm.state.suggest_metadata(THREAD_METADATA_SIZE)
            if tid is None:
                raise OsError("SM metadata arenas exhausted (thread)")
            self._sm_ok(
                self.sm.create_thread,
                eid,
                tid,
                image.entry_pc,
                image.entry_sp,
                image.fault_pc,
                image.fault_sp,
            )
            tids.append(tid)

        self._sm_ok(self.sm.init_enclave, eid)
        loaded = LoadedEnclave(eid, tids, base, size, rids, image)
        self.enclaves[eid] = loaded
        return loaded

    def destroy_enclave(self, eid: int) -> None:
        """delete_enclave + clean everything it held."""
        loaded = self.enclaves.pop(eid)
        self._sm_ok(self.sm.delete_enclave, eid)
        self.reclaim_enclave_memory(loaded)
        for tid in loaded.tids:
            self._sm_ok(self.sm.clean_resource, ResourceType.THREAD, tid)

    # ------------------------------------------------------------------
    # Running enclaves and untrusted programs
    # ------------------------------------------------------------------

    def enter_and_run(
        self, eid: int, tid: int, core_id: int = 0, max_steps: int = 2_000_000
    ) -> list[OsEvent]:
        """enter_enclave, run the core to the next OS event, drain events."""
        result = self.sm.enter_enclave(DOMAIN_UNTRUSTED, eid, tid, core_id)
        if result is not ApiResult.OK:
            raise OsError(f"enter_enclave failed: {result.name}")
        self.machine.run_core(core_id, max_steps)
        return self.sm.os_events.drain(core_id)

    def install_user_program(self, source: str) -> "InstalledProgram":
        """Load untrusted U-mode SVM code once, for repeated runs.

        Placement is stable across runs, which matters for cache
        experiments: re-loading a program at a fresh address would
        perturb the cache sets its own fetches touch.
        """
        probe = assemble(source, base=0)
        n_pages = max(1, -(-len(probe.data) // PAGE_SIZE))
        base = self.alloc_buffer(n_pages)
        relocated = assemble(source, base=base)
        self.machine.memory.write(base, relocated.data)
        stack_top = self.alloc_buffer(1) + PAGE_SIZE
        return InstalledProgram(self, base, stack_top)

    def run_user_program(
        self, source: str, core_id: int = 0, max_steps: int = 1_000_000
    ) -> tuple["Core", list[OsEvent]]:  # noqa: F821
        """Install and run untrusted U-mode SVM code once.

        The program executes with the OS's identity page tables, so
        physical addresses double as virtual ones.  Returns the core
        (for register inspection) and the delegated events.
        """
        return self.install_user_program(source).run(core_id, max_steps)

    # ------------------------------------------------------------------
    # Shared-memory mailboxes between host and enclaves
    # ------------------------------------------------------------------

    def write_shared(self, paddr: int, data: bytes) -> None:
        """Host-side OS write into untrusted memory (e.g. enclave inputs)."""
        self.machine.memory.write(paddr, data)

    def read_shared(self, paddr: int, length: int) -> bytes:
        """Host-side OS read of untrusted memory (e.g. enclave outputs)."""
        return self.machine.memory.read(paddr, length)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _sm_ok(self, api_call, *args) -> None:
        result = api_call(DOMAIN_UNTRUSTED, *args)
        if result is not ApiResult.OK:
            # The ABI registry's generic argument checks double as the
            # kernel's diagnostics: when a call fails, explain which
            # declared constraint the arguments violated (if any) —
            # the same spec-checking the SM handlers run, not a
            # parallel reimplementation.
            detail = "; ".join(arg_errors(api_call.__name__, args))
            raise OsError(
                f"{api_call.__name__}{args!r} failed: {result.name}"
                + (f" ({detail})" if detail else "")
            )
