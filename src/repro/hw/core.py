"""The in-order SVM-32 core.

Each core owns its architected state (16 registers, pc, privilege), a
private L1 cache and TLB (both flushed by the SM when the core changes
protection domain — §IV-B2's time-multiplexing), and the *translation
context* the SM programs on enclave entry: the OS page-table root, the
enclave page-table root, and ``evrange``.

The dual page-table walk (§VII-A) is implemented in :meth:`translate`:
a virtual address inside ``evrange`` walks the enclave's private
tables; anything outside walks the OS tables — so enclave accesses to
OS-shared buffers work without the OS ever learning enclave
translations.

The core executes one instruction per :meth:`step`; all memory traffic
(fetches, loads, stores, and the walker's PTE reads) flows through the
machine's physical access path, where isolation checks and cache
timing live.
"""

from __future__ import annotations

import dataclasses

from repro.hw.cache import LINE_SIZE, Cache
from repro.hw.isa import INSTRUCTION_SIZE, NUM_REGS, Opcode, decode
from repro.hw.memory import PAGE_SHIFT
from repro.hw.paging import AccessType, PageFault, PageTableWalker, Translation
from repro.hw.pmp import PmpPerm, PmpUnit, Privilege
from repro.hw.tlb import Tlb
from repro.hw.traps import Trap, TrapCause
from repro.util.bits import to_signed32, to_unsigned32

#: Reserved protection-domain constants ("SM and untrusted software are
#: identified via reserved constants" — §V-C).  Enclave domains are the
#: physical addresses of their metadata structures (their eid), which
#: are always >= one page, so these small values can never collide.
DOMAIN_UNTRUSTED = 0
DOMAIN_SM = 1

_ACCESS_TO_PAGE_FAULT = {
    AccessType.FETCH: TrapCause.PAGE_FAULT_FETCH,
    AccessType.LOAD: TrapCause.PAGE_FAULT_LOAD,
    AccessType.STORE: TrapCause.PAGE_FAULT_STORE,
}
_ACCESS_TO_ACCESS_FAULT = {
    AccessType.FETCH: TrapCause.ACCESS_FAULT_FETCH,
    AccessType.LOAD: TrapCause.ACCESS_FAULT_LOAD,
    AccessType.STORE: TrapCause.ACCESS_FAULT_STORE,
}
_ACCESS_TO_PMP_PERM = {
    AccessType.FETCH: PmpPerm.X,
    AccessType.LOAD: PmpPerm.R,
    AccessType.STORE: PmpPerm.W,
}
#: Permission bitmask per access type, used by the translation memo
#: (mirrors Translation.readable/writable/executable).
_PERM_R, _PERM_W, _PERM_X = 1, 2, 4
_ACCESS_TO_PERM_BIT = {
    AccessType.FETCH: _PERM_X,
    AccessType.LOAD: _PERM_R,
    AccessType.STORE: _PERM_W,
}


#: Instructions occupy 8-byte-aligned slots; a write invalidates exactly
#: the cached slots it overlaps.
_SLOT_MASK = ~(INSTRUCTION_SIZE - 1)
#: Writes spanning at most this many bytes of slots are checked slot by
#: slot (one dict lookup each); larger ones (page loads, region scrubs)
#: walk the per-page index instead.
_SLOT_WALK_BYTES = 16 * INSTRUCTION_SIZE


def _indexed_pages(pages: dict, base: int, end: int) -> list[int]:
    """Page numbers in ``pages`` that intersect ``[base, end)``."""
    first, last = base >> PAGE_SHIFT, (end - 1) >> PAGE_SHIFT
    if last - first >= len(pages):
        return [ppn for ppn in pages if first <= ppn <= last]
    return [ppn for ppn in range(first, last + 1) if ppn in pages]


class DecodeCache:
    """Decoded-instruction cache keyed by instruction slot.

    The interpreter's hot path is fetch → decode: without this cache
    every step re-reads 8 bytes from DRAM frames and re-constructs an
    :class:`~repro.hw.isa.Instruction` (enum conversion + validated
    dataclass), which dominates host time.  A decoded instruction is a
    pure function of the 8 bytes in its slot (its 8-byte-aligned
    physical address), so caching it by slot is architecturally
    invisible — simulated cycle counts never change.  Every fetch still
    translates and passes the isolation check before the lookup.

    Invalidation rules (see docs/SIMULATOR.md):

    * any write overlapping a cached slot (core stores, SM page
      loads/scrubs, DMA) drops that entry, and only that entry;
    * DRAM-region reassignment and cleaning drop the region's range on
      every core;
    * ``fence`` and domain teardown drop one domain's entries.

    The SM's core clean leaves the cache alone: no entry depends on
    registers, L1, TLB or the protection domain.  Entries are tagged
    with the domain that fetched them so domain flushes can be
    selective.
    """

    __slots__ = (
        "entries",
        "pages",
        "hits",
        "misses",
        "peak_entries",
        "invalidation_events",
        "entries_dropped",
    )

    def __init__(self) -> None:
        #: slot paddr -> (decoded instruction, fetching domain)
        self.entries: dict[int, tuple["Instruction", int]] = {}  # noqa: F821
        #: physical page number -> set of cached slots on that page.
        self.pages: dict[int, set[int]] = {}
        self.hits = 0
        self.misses = 0
        #: High-water mark of resident entries.
        self.peak_entries = 0
        #: Invalidation *causes* that dropped at least one entry (one
        #: write/reassignment/fence event each), and the total entries
        #: those events removed.
        self.invalidation_events = 0
        self.entries_dropped = 0

    @property
    def invalidations(self) -> int:
        """Backwards-compatible alias for :attr:`invalidation_events`."""
        return self.invalidation_events

    def lookup(self, paddr: int):
        """Return the cached decoded instruction, or None."""
        entry = self.entries.get(paddr)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry[0]

    def insert(self, paddr: int, instruction, domain: int) -> None:
        """Cache one decoded instruction."""
        self.entries[paddr] = (instruction, domain)
        self.pages.setdefault(paddr >> PAGE_SHIFT, set()).add(paddr)
        if len(self.entries) > self.peak_entries:
            self.peak_entries = len(self.entries)

    def _drop(self, stale) -> None:
        """Remove the given slots; one invalidation event if any."""
        if not stale:
            return
        entries = self.entries
        pages = self.pages
        for slot in stale:
            del entries[slot]
            page = pages[slot >> PAGE_SHIFT]
            page.discard(slot)
            if not page:
                del pages[slot >> PAGE_SHIFT]
        self.invalidation_events += 1
        self.entries_dropped += len(stale)

    def invalidate(self, base: int, size: int) -> None:
        """Drop the entries whose slot overlaps ``[base, base + size)``."""
        entries = self.entries
        if not entries:
            return
        first = base & _SLOT_MASK
        end = base + size
        if end - first <= _SLOT_WALK_BYTES:
            stale = [slot for slot in range(first, end, INSTRUCTION_SIZE) if slot in entries]
        else:
            pages = self.pages
            stale = [
                slot
                for ppn in _indexed_pages(pages, base, end)
                for slot in pages[ppn]
                if first <= slot < end
            ]
        self._drop(stale)

    def flush_domain(self, domain: int) -> None:
        """Drop all entries fetched by one protection domain."""
        self._drop([p for p, (_, d) in self.entries.items() if d == domain])

    def __len__(self) -> int:
        return len(self.entries)


class _TraceAbort(Exception):
    """Internal: a trace's validity guard failed mid-execution.

    Raised by a guarded micro-op when the TLB generation or trace-cache
    epoch moved under a running trace (a store hit a code page, a data
    access evicted a TLB entry, ...).  The core falls back to the
    reference interpreter at the exact instruction boundary the guard
    protects, so the abort is architecturally invisible.
    """


#: A trace becomes eligible for compilation after its head pc has been
#: single-stepped this many times in one domain.
_TRACE_HOT_THRESHOLD = 16
#: Longest straight-line run compiled into one trace.
_TRACE_MAX_LEN = 64
#: Traces shorter than this are not worth the dispatch they save.
_TRACE_MIN_LEN = 2
#: Cap on the hotness-counter table (cleared wholesale when exceeded).
#: The table outlives core cleans and every enclave brings new keys.
_TRACE_HEAT_LIMIT = 1024

#: Control transfers that may *end* a superblock (they redirect pc but
#: cannot trap, so they are safe to execute inside a trace).
_TRACE_TERMINALS = frozenset(
    {
        Opcode.BEQ,
        Opcode.BNE,
        Opcode.BLTU,
        Opcode.BGEU,
        Opcode.BLT,
        Opcode.BGE,
        Opcode.JAL,
        Opcode.JALR,
    }
)
#: Opcodes never compiled into a trace: they trap by design, halt the
#: core, flush translation/decode state, or have data-dependent cost
#: models (CRYPTO).  A trace ends *before* any of these.
_TRACE_EXCLUDED = frozenset(
    {Opcode.ECALL, Opcode.EBREAK, Opcode.HALT, Opcode.FENCE, Opcode.CRYPTO}
)

#: Register-register ALU semantics for the trace compiler; each entry
#: mirrors the corresponding _execute arm exactly (results are masked
#: to 32 bits by the caller, as write_reg would).
_TRACE_ALU = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIVU: lambda a, b: 0xFFFFFFFF if b == 0 else a // b,
    Opcode.REMU: lambda a, b: a if b == 0 else a % b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SLL: lambda a, b: a << (b & 31),
    Opcode.SRL: lambda a, b: a >> (b & 31),
    Opcode.SRA: lambda a, b: to_signed32(a) >> (b & 31),
    Opcode.SLT: lambda a, b: 1 if to_signed32(a) < to_signed32(b) else 0,
    Opcode.SLTU: lambda a, b: 1 if a < b else 0,
}

#: Branch-taken predicates for the trace compiler's terminal uops.
_TRACE_BRANCH = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLTU: lambda a, b: a < b,
    Opcode.BGEU: lambda a, b: a >= b,
    Opcode.BLT: lambda a, b: to_signed32(a) < to_signed32(b),
    Opcode.BGE: lambda a, b: to_signed32(a) >= to_signed32(b),
}


class Trace:
    """One compiled superblock: a hot straight-line run of instructions.

    ``uops`` is a tuple of closures, one per instruction, each applying
    that instruction's full architectural effect (registers, memory,
    cycles, pc, retired count) exactly as the reference interpreter
    would.  The trailing metadata lets :meth:`Core.try_trace`
    revalidate the trace against the current translation and isolation
    state before running a single uop.
    """

    __slots__ = (
        "head",
        "domain",
        "uops",
        "length",
        "slots",
        "paging",
        "evrange",
        "page_checks",
    )

    def __init__(self, head, domain, uops, slots, paging, evrange, page_checks):
        self.head = head
        self.domain = domain
        self.uops = tuple(uops)
        self.length = len(self.uops)
        #: Physical instruction slot of each uop (invalidation keys).
        self.slots = tuple(slots)
        self.paging = paging
        self.evrange = evrange
        #: Per spanned page: (memo_key, expected_paddr_base, probe_paddr).
        #: memo_key is None when the trace was built with paging off.
        self.page_checks = tuple(page_checks)


class TraceCache:
    """Superblock/trace cache keyed by (domain, head virtual pc).

    The decode cache removed fetch/decode cost but left one full
    interpreter dispatch per instruction; this cache removes the
    dispatch itself for hot straight-line code.  Traces are compiled
    from *physical* bytes via the translation memo, so they are valid
    only while every spanned page still translates to the same frames
    with execute permission — revalidated on entry and guarded
    per-micro-op via the TLB generation and this cache's ``epoch``.  A
    trace whose paging mode, ``evrange`` or page bases no longer match
    on entry (a reused eid, relocated code) is dropped so its key can be
    rebuilt.

    Invalidation mirrors the decode cache (a write overlapping one of a
    trace's instruction slots, DRAM-region reassignment, FENCE/domain
    flush; never the SM's core clean), with ``epoch`` bumped whenever
    live traces are dropped so in-flight traces abort at their next
    guard.
    """

    __slots__ = (
        "entries",
        "failed",
        "slots",
        "pages",
        "epoch",
        "built",
        "executions",
        "instructions",
        "aborts",
        "peak_traces",
        "invalidation_events",
        "entries_dropped",
    )

    def __init__(self) -> None:
        #: (domain, head vaddr) -> Trace
        self.entries: dict[tuple[int, int], Trace] = {}
        #: Heads known untraceable (e.g. an ECALL at the head) -> the
        #: physical slot that made them so.  Skips the hotness
        #: accounting until that slot is written or the head moves.
        self.failed: dict[tuple[int, int], int] = {}
        #: slot paddr -> keys of traces covering it and failed heads at it.
        self.slots: dict[int, set[tuple[int, int]]] = {}
        #: physical page number -> keys with a slot on that page.
        self.pages: dict[int, set[tuple[int, int]]] = {}
        #: Bumped whenever live traces are dropped; guards compare it.
        self.epoch = 0
        self.built = 0
        self.executions = 0
        #: Instructions retired from inside traces.
        self.instructions = 0
        self.aborts = 0
        self.peak_traces = 0
        self.invalidation_events = 0
        self.entries_dropped = 0

    def _spans(self, key: tuple[int, int]) -> tuple[int, ...]:
        trace = self.entries.get(key)
        return trace.slots if trace is not None else (self.failed[key],)

    def _buckets(self, spans):
        """(index, bucket key) pairs a key with these slots lives in."""
        for slot in spans:
            yield self.slots, slot
        for ppn in {slot >> PAGE_SHIFT for slot in spans}:
            yield self.pages, ppn

    def _index(self, key: tuple[int, int], spans) -> None:
        for index, bucket_key in self._buckets(spans):
            index.setdefault(bucket_key, set()).add(key)

    def _unindex(self, key: tuple[int, int], spans) -> None:
        for index, bucket_key in self._buckets(spans):
            bucket = index.get(bucket_key)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del index[bucket_key]

    def register(self, key: tuple[int, int], trace: Trace) -> None:
        self.entries[key] = trace
        self._index(key, trace.slots)
        self.built += 1
        if len(self.entries) > self.peak_traces:
            self.peak_traces = len(self.entries)

    def mark_failed(self, key: tuple[int, int], head_slot: int) -> None:
        """Blacklist an untraceable head until its slot changes."""
        self.failed[key] = head_slot
        self._index(key, (head_slot,))

    def discard(self, keys) -> None:
        """Drop traces and blacklist entries by key (one event if any
        live trace went)."""
        dropped = 0
        for key in keys:
            trace = self.entries.pop(key, None)
            if trace is not None:
                self._unindex(key, trace.slots)
                dropped += 1
            else:
                head = self.failed.pop(key, None)
                if head is not None:
                    self._unindex(key, (head,))
        if dropped:
            self.invalidation_events += 1
            self.entries_dropped += dropped
            self.epoch += 1

    def invalidate(self, base: int, size: int) -> None:
        """Drop every trace and blacklist entry with a slot overlapping
        ``[base, base + size)``."""
        slots = self.slots
        if not slots:
            return
        first = base & _SLOT_MASK
        end = base + size
        if end - first <= _SLOT_WALK_BYTES:
            stale = {
                key
                for slot in range(first, end, INSTRUCTION_SIZE)
                for key in slots.get(slot, ())
            }
        else:
            pages = self.pages
            stale = {
                key
                for ppn in _indexed_pages(pages, base, end)
                for key in pages[ppn]
                if any(first <= slot < end for slot in self._spans(key))
            }
        self.discard(stale)

    def flush_domain(self, domain: int) -> None:
        """Drop all traces and blacklist entries of one protection domain."""
        self.discard(
            [key for key in self.entries if key[0] == domain]
            + [key for key in self.failed if key[0] == domain]
        )

    def __len__(self) -> int:
        return len(self.entries)


@dataclasses.dataclass
class TranslationContext:
    """The address-translation state the SM programs on a core."""

    #: Paging on/off; off means vaddr == paddr (M-mode / pre-boot).
    paging_enabled: bool = False
    #: Physical page number of the OS page-table root.
    os_root_ppn: int = 0
    #: Physical page number of the enclave page-table root (if entered).
    enclave_root_ppn: int = 0
    #: Enclave virtual range as (base, size); None when no enclave.
    evrange: tuple[int, int] | None = None

    def in_evrange(self, vaddr: int) -> bool:
        if self.evrange is None:
            return False
        base, size = self.evrange
        return base <= vaddr < base + size


class Core:
    """One in-order, single-thread SVM-32 pipeline.

    Besides the architected state, each core carries host-speed
    structures (decode cache, translation memo, trace cache and its
    heat table).  Only the memo models hardware state — it rides the
    TLB and goes with it on a core clean; the decode and trace caches
    outlive cleans and are invalidated by the instruction slots that
    writes overlap.
    """

    #: Cycle cost charged per TLB-miss page-table level walked, on top
    #: of the cache cost of the PTE reads themselves.
    WALK_CYCLES_PER_LEVEL = 2

    def __init__(self, core_id: int, machine: "Machine") -> None:  # noqa: F821
        self.core_id = core_id
        self.machine = machine
        self.regs = [0] * NUM_REGS
        self.pc = 0
        self.privilege = Privilege.M
        self.halted = True
        self.cycles = 0
        self.instructions_retired = 0
        #: Protection domain on whose behalf the core currently executes.
        self.domain = DOMAIN_UNTRUSTED
        self.context = TranslationContext()
        self.l1 = Cache(
            n_sets=machine.config.l1_sets,
            n_ways=machine.config.l1_ways,
            hit_cycles=machine.config.l1_hit_cycles,
            miss_penalty=0,
            name=f"l1[{core_id}]",
        )
        self.tlb = Tlb(capacity=machine.config.tlb_entries)
        self.pmp = PmpUnit()
        self._walker = PageTableWalker(machine.memory, self._walker_read_u32)
        #: Host-speed fast path (decode cache + translation memo).
        #: Architecturally invisible; gated so the reference interpreter
        #: path stays runnable for determinism regressions.
        self.fast_path_enabled = getattr(machine.config, "decode_cache_enabled", True)
        self.decode_cache = DecodeCache()
        #: Translation memo riding the TLB: (tlb_domain, vpn) ->
        #: (paddr_base, perm_bits).  Valid only while the TLB generation
        #: is unchanged, i.e. while every memoized entry is still
        #: TLB-resident — so a memo hit is exactly a TLB hit and the
        #: cycle model is untouched.
        self._xlate_memo: dict[tuple[int, int], tuple[int, int]] = {}
        self._xlate_generation = -1
        #: Superblock/trace cache: compiled hot straight-line runs.
        #: Rides on the decode fast path (both gates must be on) and is
        #: dispatched only by Machine.step_core when batching is safe.
        self.trace_cache = TraceCache()
        self.trace_cache_enabled = self.fast_path_enabled and getattr(
            machine.config, "trace_cache_enabled", True
        )
        #: (domain, head pc) -> times single-stepped; feeds compilation.
        self._trace_heat: dict[tuple[int, int], int] = {}
        #: Index of the in-flight uop inside the currently executing
        #: trace; read by _execute_trace to attribute partial progress
        #: when a trap or guard abort interrupts a pass.
        self._trace_pos = 0

    # ------------------------------------------------------------------
    # Register file
    # ------------------------------------------------------------------

    def read_reg(self, index: int) -> int:
        """Read a register; r0 always reads zero."""
        return 0 if index == 0 else self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        """Write a register; writes to r0 are discarded."""
        if index != 0:
            self.regs[index] = to_unsigned32(value)

    def clean_architectural_state(self) -> None:
        """Zero registers, flush L1 and TLB — the SM's core clean.

        §V-C: "Before delegating execution to the OS, SM cleans the
        core's state (this is a re-allocation of the 'core' resource to
        another protection domain)."

        The translation memo goes with the TLB.  The host-side decode
        and trace caches stay: they hold no register, cache or
        translation state of their own, and every fetch and trace entry
        re-checks translation and isolation.
        """
        self.regs = [0] * NUM_REGS
        self.l1.flush()
        self.tlb.flush_all()
        self._xlate_memo.clear()
        self._xlate_generation = -1

    # ------------------------------------------------------------------
    # Memory access path
    # ------------------------------------------------------------------

    def _walker_read_u32(self, paddr: int) -> int:
        """PTE read issued by the hardware walker.

        Walker traffic is checked and timed like any other access by
        this core's current domain; a denied PTE read surfaces as a
        page fault on the original access (handled by the caller).
        """
        self.cycles += self.machine.physical_access_cycles(self, paddr)
        if not self.machine.check_isolation(self, paddr, AccessType.LOAD):
            raise PageFault(paddr, AccessType.LOAD, "walker denied by isolation hardware")
        return self.machine.memory.read_u32(paddr)

    def translate(self, vaddr: int, access: AccessType) -> int:
        """Translate a virtual address, using the dual-root scheme.

        Raises :class:`Trap` (page fault) when translation fails.
        """
        vaddr = to_unsigned32(vaddr)
        if not self.context.paging_enabled:
            return vaddr
        use_enclave_root = self.context.in_evrange(vaddr)
        # TLB entries are tagged by the domain whose tables produced them.
        tlb_domain = self.domain if use_enclave_root else DOMAIN_UNTRUSTED
        vpn = vaddr >> 12
        tlb = self.tlb
        if self.fast_path_enabled:
            if self._xlate_generation == tlb.generation:
                memo = self._xlate_memo.get((tlb_domain, vpn))
                if memo is not None and memo[1] & _ACCESS_TO_PERM_BIT[access]:
                    # The memoized entry is still TLB-resident, so the
                    # slow path would have been a TLB hit: count it as
                    # one to keep stats identical, charge no cycles.
                    tlb.hits += 1
                    return memo[0] | (vaddr & 0xFFF)
            else:
                self._xlate_memo.clear()
                self._xlate_generation = tlb.generation
        cached = tlb.lookup(tlb_domain, vpn)
        if cached is not None and cached.permits(access):
            if self.fast_path_enabled:
                self._memoize(tlb_domain, vpn, cached)
            return cached.paddr(vaddr)
        root_ppn = (
            self.context.enclave_root_ppn if use_enclave_root else self.context.os_root_ppn
        )
        try:
            translation = self._walker.walk(root_ppn, vaddr, access)
        except PageFault as fault:
            raise Trap(_ACCESS_TO_PAGE_FAULT[access], tval=fault.vaddr, pc=self.pc) from fault
        self.cycles += self.WALK_CYCLES_PER_LEVEL * 2
        tlb.insert(tlb_domain, translation)
        if self.fast_path_enabled:
            # The insert may have evicted an entry (generation bump);
            # resync before memoizing the fresh, definitely-resident one.
            if self._xlate_generation != tlb.generation:
                self._xlate_memo.clear()
                self._xlate_generation = tlb.generation
            self._memoize(tlb_domain, vpn, translation)
        return translation.paddr(vaddr)

    def _memoize(self, tlb_domain: int, vpn: int, translation: Translation) -> None:
        perms = (
            (_PERM_R if translation.readable else 0)
            | (_PERM_W if translation.writable else 0)
            | (_PERM_X if translation.executable else 0)
        )
        self._xlate_memo[(tlb_domain, vpn)] = (translation.ppn << 12, perms)

    def _checked_physical(self, paddr: int, access: AccessType) -> None:
        """Isolation check + cache timing for one physical access."""
        if not self.machine.check_isolation(self, paddr, access):
            raise Trap(_ACCESS_TO_ACCESS_FAULT[access], tval=paddr, pc=self.pc)
        self.cycles += self.machine.physical_access_cycles(self, paddr)

    def load(self, vaddr: int, size: int) -> int:
        """Translated, checked, timed load of 1 or 4 bytes."""
        paddr = self.translate(vaddr, AccessType.LOAD)
        self._checked_physical(paddr, AccessType.LOAD)
        data = self.machine.memory.read(paddr, size)
        return int.from_bytes(data, "little")

    def store(self, vaddr: int, value: int, size: int) -> None:
        """Translated, checked, timed store of 1 or 4 bytes."""
        paddr = self.translate(vaddr, AccessType.STORE)
        self._checked_physical(paddr, AccessType.STORE)
        self.machine.memory.write(paddr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def fetch(self, vaddr: int) -> bytes:
        """Translated, checked, timed instruction fetch.

        Instructions are naturally aligned; a misaligned pc (e.g. from a
        corrupted jump target) traps as an illegal instruction rather
        than decoding byte salad.
        """
        if vaddr % INSTRUCTION_SIZE:
            raise Trap(TrapCause.ILLEGAL_INSTRUCTION, tval=vaddr, pc=self.pc)
        paddr = self.translate(vaddr, AccessType.FETCH)
        self._checked_physical(paddr, AccessType.FETCH)
        return self.machine.memory.read(paddr, INSTRUCTION_SIZE)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Fetch, decode, and execute one instruction.

        Raises :class:`Trap` for every exceptional condition; the
        machine routes the trap to the SM.  On a trap, pc still points
        at the faulting instruction and no architectural state from the
        faulting instruction has been committed.
        """
        pc = self.pc
        if pc % INSTRUCTION_SIZE:
            raise Trap(TrapCause.ILLEGAL_INSTRUCTION, tval=pc, pc=pc)
        paddr = self.translate(pc, AccessType.FETCH)
        self._checked_physical(paddr, AccessType.FETCH)
        instruction = self.decode_cache.lookup(paddr) if self.fast_path_enabled else None
        if instruction is None:
            raw = self.machine.memory.read(paddr, INSTRUCTION_SIZE)
            try:
                instruction = decode(raw)
            except ValueError:
                raise Trap(TrapCause.ILLEGAL_INSTRUCTION, tval=pc, pc=pc) from None
            if self.fast_path_enabled:
                self.decode_cache.insert(paddr, instruction, self.domain)
        self.cycles += 1
        self._execute(instruction)
        self.instructions_retired += 1

    # ------------------------------------------------------------------
    # Superblock/trace cache
    # ------------------------------------------------------------------
    #
    # The decode cache removed fetch/decode cost; per-instruction Python
    # dispatch is the remaining wall.  try_trace() compiles hot
    # straight-line runs into tuples of micro-op closures and executes
    # whole blocks (and, for loops closing on their own head, whole
    # loop nests) per Machine.step_core call.  Everything here is
    # architecturally invisible: each uop applies exactly the register,
    # memory, cycle, pc, and retired-count effects of the reference
    # interpreter, in the same order, with the same trap behaviour.

    def try_trace(self, limit: int) -> int:
        """Execute a cached trace at the current pc, if one applies.

        Returns the number of global steps consumed (0 means no trace
        ran and the caller should single-step).  The caller
        (Machine.step_core) guarantees batching is safe: no trace hook,
        interrupts quiescent, and every other core halted.
        """
        pc = self.pc
        if pc % INSTRUCTION_SIZE:
            return 0
        tcache = self.trace_cache
        key = (self.domain, pc)
        trace = tcache.entries.get(key)
        if trace is None:
            failed_head = tcache.failed.get(key)
            if failed_head is not None:
                resolved = self._resolve_fetch(pc)
                if resolved is None or resolved[0] == failed_head:
                    return 0
                # The head now maps to other code: forget the verdict.
                tcache.discard((key,))
            heat = self._trace_heat
            count = heat.get(key, 0) + 1
            if count < _TRACE_HOT_THRESHOLD:
                if len(heat) >= _TRACE_HEAT_LIMIT:
                    heat.clear()
                heat[key] = count
                return 0
            heat.pop(key, None)
            trace, untraceable_head = self._build_trace(pc)
            if trace is None:
                if untraceable_head is not None:
                    tcache.mark_failed(key, untraceable_head)
                return 0
            tcache.register(key, trace)
        # Revalidate the compiled block against current translation and
        # isolation state before running a single uop.  A trace built
        # under another paging mode, evrange or page mapping is stale
        # for good (eids and vaddrs get reused): drop it so the key can
        # be rebuilt.  A page not yet memoized or denied by isolation
        # only means "not now".
        ctx = self.context
        if trace.paging != ctx.paging_enabled or trace.evrange != ctx.evrange:
            tcache.discard((key,))
            return 0
        machine = self.machine
        if trace.paging:
            if self._xlate_generation != self.tlb.generation:
                return 0
            memo = self._xlate_memo
            for memo_key, base, probe in trace.page_checks:
                entry = memo.get(memo_key)
                if entry is None:
                    return 0
                if entry[0] != base or not entry[1] & _PERM_X:
                    tcache.discard((key,))
                    return 0
                if not machine.check_isolation(self, probe, AccessType.FETCH):
                    return 0
        else:
            for _memo_key, _base, probe in trace.page_checks:
                if not machine.check_isolation(self, probe, AccessType.FETCH):
                    return 0
        return self._execute_trace(trace, limit)

    def _execute_trace(self, trace: Trace, limit: int) -> int:
        """Run a validated trace under a step budget.

        Executes full passes while the budget allows and — for traces
        whose terminal branch loops back to the head — keeps iterating
        without leaving the trace.  A partial pass (budget smaller than
        the trace) runs uops one by one and stops at the boundary, which
        is exact because every uop commits its instruction completely.
        """
        tcache = self.trace_cache
        uops = trace.uops
        length = trace.length
        head = trace.head
        generation = self.tlb.generation
        epoch = tcache.epoch
        steps = 0
        passes = 0
        self._trace_pos = 0
        try:
            while True:
                if limit - steps >= length:
                    for uop in uops:
                        uop(generation, epoch)
                    steps += length
                    passes += 1
                    if self.pc != head or steps >= limit:
                        break
                else:
                    for index in range(limit - steps):
                        uops[index](generation, epoch)
                    steps = limit
                    passes += 1
                    break
        except _TraceAbort:
            steps += self._trace_pos
            tcache.aborts += 1
        except Trap as trap:
            # The faulting uop already restored pc to its own vaddr and
            # committed nothing; deliver the trap exactly as step_core's
            # reference path would.  The faulting step itself counts.
            steps += self._trace_pos
            tcache.executions += passes
            tcache.instructions += steps
            self.machine.deliver_trap(self, trap)
            return steps + 1
        tcache.executions += passes
        tcache.instructions += steps
        return steps

    def _resolve_fetch(self, vaddr: int):
        """Side-effect-free fetch translation used by the trace builder.

        Returns (paddr, memo_key) when the address is executable and
        already memoized (i.e. TLB-resident), else None.  memo_key is
        None with paging off.
        """
        ctx = self.context
        if not ctx.paging_enabled:
            if vaddr + INSTRUCTION_SIZE > self.machine.memory.size:
                return None
            return vaddr, None
        tlb_domain = self.domain if ctx.in_evrange(vaddr) else DOMAIN_UNTRUSTED
        memo_key = (tlb_domain, vaddr >> 12)
        memo = self._xlate_memo.get(memo_key)
        if memo is None or not memo[1] & _PERM_X:
            return None
        return memo[0] | (vaddr & 0xFFF), memo_key

    def _build_trace(self, head: int):
        """Compile a superblock starting at ``head``.

        Returns (trace, untraceable_head): ``trace`` is None when
        compilation failed; ``untraceable_head`` is the head's physical
        slot when the failure is tied to the code itself (untraceable
        opcode or undecodable bytes at the head) so the head can be
        blacklisted, and None for transient translation state that may
        memoize later.

        The walk is pure: it only consults the translation memo (so a
        missing page just ends the trace), the isolation platform
        (verified side-effect-free), and raw physical bytes.
        """
        if self.context.paging_enabled and self._xlate_generation != self.tlb.generation:
            return None, False
        machine = self.machine
        memory = machine.memory
        paging = self.context.paging_enabled
        uops = []
        slots = []
        seen_pages: set = set()
        page_checks = []
        vaddr = head
        guarded = False
        untraceable_head = None
        while len(uops) < _TRACE_MAX_LEN:
            resolved = self._resolve_fetch(vaddr)
            if resolved is None:
                break
            paddr, memo_key = resolved
            if not machine.check_isolation(self, paddr, AccessType.FETCH):
                break
            page_token = memo_key if paging else paddr >> PAGE_SHIFT
            if page_token not in seen_pages:
                seen_pages.add(page_token)
                page_checks.append((memo_key, paddr & ~0xFFF, paddr))
            try:
                ins = decode(memory.read(paddr, INSTRUCTION_SIZE))
            except ValueError:
                ins = None
            if ins is None or ins.opcode in _TRACE_EXCLUDED:
                if not uops:
                    untraceable_head = paddr
                break
            op = ins.opcode
            index = len(uops)
            slots.append(paddr)
            if op in _TRACE_TERMINALS:
                uops.append(self._compile_terminal(ins, vaddr, paddr, guarded, index))
                break
            uop, is_mem = self._compile_uop(ins, vaddr, paddr, guarded, index)
            uops.append(uop)
            guarded = guarded or is_mem
            vaddr = (vaddr + INSTRUCTION_SIZE) & 0xFFFFFFFF
        if len(uops) < _TRACE_MIN_LEN:
            return None, untraceable_head
        evrange = self.context.evrange
        return Trace(head, self.domain, uops, slots, paging, evrange, page_checks), None

    def _compile_uop(self, ins, vaddr: int, paddr: int, guarded: bool, index: int):
        """Compile one non-terminal instruction into a micro-op closure.

        Returns (uop, is_memory_op).  A uop's contract: replicate the
        reference interpreter's effects for this instruction exactly —
        TLB hit count (fetch memo hit), L1/LLC fetch timing, +1 execute
        cycle, register/memory effects, pc advance, retired count.
        Guarded uops (anything after the first memory op in the trace)
        first re-check the TLB generation and trace-cache epoch
        captured at trace entry and abort cleanly when stale.
        """
        core = self
        machine = self.machine
        l1_access = self.l1.access
        tlb = self.tlb
        tcache = self.trace_cache
        domain = self.domain
        paging = self.context.paging_enabled
        next_pc = (vaddr + INSTRUCTION_SIZE) & 0xFFFFFFFF
        op = ins.opcode
        rd = ins.rd
        rs1 = ins.rs1
        rs2 = ins.rs2
        imm = ins.imm
        is_mem = False

        # --- per-opcode architectural effect, applied to the register
        # file after fetch accounting (mirrors _execute's dispatch) ---
        if op is Opcode.NOP:
            def effect(regs):
                pass
        elif op is Opcode.LI:
            value = imm & 0xFFFFFFFF
            if rd:
                def effect(regs):
                    regs[rd] = value
            else:
                def effect(regs):
                    pass
        elif op is Opcode.ADDI:
            if rd:
                def effect(regs):
                    regs[rd] = (regs[rs1] + imm) & 0xFFFFFFFF
            else:
                def effect(regs):
                    pass
        elif op in (Opcode.ANDI, Opcode.ORI, Opcode.XORI):
            value = imm & 0xFFFFFFFF
            if not rd:
                def effect(regs):
                    pass
            elif op is Opcode.ANDI:
                def effect(regs):
                    regs[rd] = regs[rs1] & value
            elif op is Opcode.ORI:
                def effect(regs):
                    regs[rd] = regs[rs1] | value
            else:
                def effect(regs):
                    regs[rd] = regs[rs1] ^ value
        elif op in (Opcode.LW, Opcode.LBU):
            is_mem = True
            size = 4 if op is Opcode.LW else 1
            load = self.load
            if rd:
                def effect(regs):
                    regs[rd] = load(regs[rs1] + imm, size)
            else:
                def effect(regs):
                    load(regs[rs1] + imm, size)
        elif op in (Opcode.SW, Opcode.SB):
            is_mem = True
            size = 4 if op is Opcode.SW else 1
            store = self.store
            def effect(regs):
                store(regs[rs1] + imm, regs[rs2], size)
        elif op is Opcode.RDCYCLE:
            if rd:
                def effect(regs):
                    regs[rd] = core.cycles & 0xFFFFFFFF
            else:
                def effect(regs):
                    pass
        else:
            alu = _TRACE_ALU[op]
            if rd:
                def effect(regs):
                    regs[rd] = alu(regs[rs1], regs[rs2]) & 0xFFFFFFFF
            else:
                def effect(regs):
                    alu(regs[rs1], regs[rs2])

        if is_mem:
            def uop(generation, epoch):
                if guarded and (tlb.generation != generation or tcache.epoch != epoch):
                    core._trace_pos = index
                    core.pc = vaddr
                    raise _TraceAbort
                if paging:
                    tlb.hits += 1
                cycles, hit = l1_access(paddr, domain)
                if not hit:
                    llc = machine.llc
                    if llc is not None:
                        cycles += llc.access(paddr, domain)[0]
                core.cycles += cycles + 1
                # Restore the reference trap contract before the risky
                # part: on a fault, pc names the faulting instruction
                # and _trace_pos the committed prefix.
                core.pc = vaddr
                core._trace_pos = index
                effect(core.regs)
                core.pc = next_pc
                core.instructions_retired += 1
        else:
            def uop(generation, epoch):
                if guarded and (tlb.generation != generation or tcache.epoch != epoch):
                    core._trace_pos = index
                    core.pc = vaddr
                    raise _TraceAbort
                if paging:
                    tlb.hits += 1
                cycles, hit = l1_access(paddr, domain)
                if not hit:
                    llc = machine.llc
                    if llc is not None:
                        cycles += llc.access(paddr, domain)[0]
                core.cycles += cycles + 1
                effect(core.regs)
                core.pc = next_pc
                core.instructions_retired += 1
        return uop, is_mem

    def _compile_terminal(self, ins, vaddr: int, paddr: int, guarded: bool, index: int):
        """Compile a trace-ending control transfer (branch/JAL/JALR)."""
        core = self
        machine = self.machine
        l1_access = self.l1.access
        tlb = self.tlb
        tcache = self.trace_cache
        domain = self.domain
        paging = self.context.paging_enabled
        op = ins.opcode
        rd = ins.rd
        rs1 = ins.rs1
        rs2 = ins.rs2
        imm = ins.imm
        taken = (vaddr + imm) & 0xFFFFFFFF
        fall = (vaddr + INSTRUCTION_SIZE) & 0xFFFFFFFF

        if op is Opcode.JAL:
            def settle(regs):
                if rd:
                    regs[rd] = fall
                return taken
        elif op is Opcode.JALR:
            def settle(regs):
                target = (regs[rs1] + imm) & 0xFFFFFFFF
                if rd:
                    regs[rd] = fall
                return target
        else:
            cond = _TRACE_BRANCH[op]
            def settle(regs):
                return taken if cond(regs[rs1], regs[rs2]) else fall

        def uop(generation, epoch):
            if guarded and (tlb.generation != generation or tcache.epoch != epoch):
                core._trace_pos = index
                core.pc = vaddr
                raise _TraceAbort
            if paging:
                tlb.hits += 1
            cycles, hit = l1_access(paddr, domain)
            if not hit:
                llc = machine.llc
                if llc is not None:
                    cycles += llc.access(paddr, domain)[0]
            core.cycles += cycles + 1
            core.pc = settle(core.regs)
            core.instructions_retired += 1
        return uop

    def _execute(self, ins) -> None:
        op = ins.opcode
        rs1 = self.read_reg(ins.rs1)
        rs2 = self.read_reg(ins.rs2)
        next_pc = to_unsigned32(self.pc + INSTRUCTION_SIZE)

        if op is Opcode.NOP:
            pass
        elif op is Opcode.FENCE:
            # Address-translation fence: drops this domain's TLB entries
            # (how an enclave managing its own page tables makes PTE
            # edits visible, cf. RISC-V's sfence.vma).  Also acts as an
            # instruction fence for the host-speed decode cache
            # (cf. fence.i), though stores already invalidate it.
            self.tlb.flush_domain(self.domain)
            self.decode_cache.flush_domain(self.domain)
            self.trace_cache.flush_domain(self.domain)
        elif op is Opcode.HALT:
            self.halted = True
        elif op is Opcode.LI:
            self.write_reg(ins.rd, ins.imm)
        elif op is Opcode.ADDI:
            self.write_reg(ins.rd, rs1 + ins.imm)
        elif op is Opcode.ANDI:
            self.write_reg(ins.rd, rs1 & to_unsigned32(ins.imm))
        elif op is Opcode.ORI:
            self.write_reg(ins.rd, rs1 | to_unsigned32(ins.imm))
        elif op is Opcode.XORI:
            self.write_reg(ins.rd, rs1 ^ to_unsigned32(ins.imm))
        elif op is Opcode.ADD:
            self.write_reg(ins.rd, rs1 + rs2)
        elif op is Opcode.SUB:
            self.write_reg(ins.rd, rs1 - rs2)
        elif op is Opcode.MUL:
            self.write_reg(ins.rd, rs1 * rs2)
        elif op is Opcode.DIVU:
            self.write_reg(ins.rd, 0xFFFFFFFF if rs2 == 0 else rs1 // rs2)
        elif op is Opcode.REMU:
            self.write_reg(ins.rd, rs1 if rs2 == 0 else rs1 % rs2)
        elif op is Opcode.AND:
            self.write_reg(ins.rd, rs1 & rs2)
        elif op is Opcode.OR:
            self.write_reg(ins.rd, rs1 | rs2)
        elif op is Opcode.XOR:
            self.write_reg(ins.rd, rs1 ^ rs2)
        elif op is Opcode.SLL:
            self.write_reg(ins.rd, rs1 << (rs2 & 31))
        elif op is Opcode.SRL:
            self.write_reg(ins.rd, rs1 >> (rs2 & 31))
        elif op is Opcode.SRA:
            self.write_reg(ins.rd, to_signed32(rs1) >> (rs2 & 31))
        elif op is Opcode.SLT:
            self.write_reg(ins.rd, 1 if to_signed32(rs1) < to_signed32(rs2) else 0)
        elif op is Opcode.SLTU:
            self.write_reg(ins.rd, 1 if rs1 < rs2 else 0)
        elif op is Opcode.LW:
            self.write_reg(ins.rd, self.load(rs1 + ins.imm, 4))
        elif op is Opcode.LBU:
            self.write_reg(ins.rd, self.load(rs1 + ins.imm, 1))
        elif op is Opcode.SW:
            self.store(rs1 + ins.imm, rs2, 4)
        elif op is Opcode.SB:
            self.store(rs1 + ins.imm, rs2, 1)
        elif op is Opcode.BEQ:
            if rs1 == rs2:
                next_pc = to_unsigned32(self.pc + ins.imm)
        elif op is Opcode.BNE:
            if rs1 != rs2:
                next_pc = to_unsigned32(self.pc + ins.imm)
        elif op is Opcode.BLTU:
            if rs1 < rs2:
                next_pc = to_unsigned32(self.pc + ins.imm)
        elif op is Opcode.BGEU:
            if rs1 >= rs2:
                next_pc = to_unsigned32(self.pc + ins.imm)
        elif op is Opcode.BLT:
            if to_signed32(rs1) < to_signed32(rs2):
                next_pc = to_unsigned32(self.pc + ins.imm)
        elif op is Opcode.BGE:
            if to_signed32(rs1) >= to_signed32(rs2):
                next_pc = to_unsigned32(self.pc + ins.imm)
        elif op is Opcode.JAL:
            self.write_reg(ins.rd, self.pc + INSTRUCTION_SIZE)
            next_pc = to_unsigned32(self.pc + ins.imm)
        elif op is Opcode.JALR:
            self.write_reg(ins.rd, self.pc + INSTRUCTION_SIZE)
            next_pc = to_unsigned32(rs1 + ins.imm)
        elif op is Opcode.ECALL:
            cause = (
                TrapCause.ECALL_FROM_S
                if self.privilege is Privilege.S
                else TrapCause.ECALL_FROM_U
            )
            raise Trap(cause, pc=self.pc)
        elif op is Opcode.EBREAK:
            raise Trap(TrapCause.BREAKPOINT, pc=self.pc)
        elif op is Opcode.RDCYCLE:
            self.write_reg(ins.rd, self.cycles)
        elif op is Opcode.CRYPTO:
            self._execute_crypto(ins.imm)
        else:  # pragma: no cover - decode() rejects unknown opcodes first
            raise Trap(TrapCause.ILLEGAL_INSTRUCTION, tval=self.pc, pc=self.pc)

        self.pc = next_pc

    def pmp_perm_for(self, access: AccessType) -> PmpPerm:
        """Map an access type to the PMP permission it requires."""
        return _ACCESS_TO_PMP_PERM[access]

    # ------------------------------------------------------------------
    # Crypto accelerator (Opcode.CRYPTO)
    # ------------------------------------------------------------------

    def _transfer(self, vaddr: int, length: int, access: AccessType) -> list[tuple[int, int]]:
        """Translate, check and time a crypto-unit operand; moves no byte.

        Returns the operand as ``(paddr, size)`` chunks, one per part of
        a cache line (a line never crosses a page, nor does an evrange
        boundary, so one translation serves the chunk).  Every byte is
        charged exactly as a 1-byte load or store of it would be: the
        chunk's first byte goes through :meth:`translate` and
        :meth:`_checked_physical`; each later byte passes its own
        isolation check and costs a TLB hit (with paging on: the first
        translation left the page resident) and an L1 hit on the line
        the first byte brought in.  A fault is raised at the first
        failing byte, with the bytes before it charged.
        """
        check = self.machine.check_isolation
        check_range = self.machine.memory.check_range
        paging = self.context.paging_enabled
        chunks = []
        while length > 0:
            vaddr = to_unsigned32(vaddr)
            size = min(length, LINE_SIZE - (vaddr & (LINE_SIZE - 1)))
            paddr = self.translate(vaddr, access)
            self._checked_physical(paddr, access)
            # Before any byte moves: a huge length that isolation lets
            # through (M-mode) stops at the end of DRAM, not at 4 GiB.
            check_range(paddr, size)
            denied = next(
                (i for i in range(1, size) if not check(self, paddr + i, access)), None
            )
            later = size - 1 if denied is None else denied - 1
            if paging:
                self.tlb.hits += later + (denied is not None)
            if later:
                self.l1.stats.hits += later
                self.l1.stats.last_was_hit = True
                self.cycles += later * self.l1.hit_cycles
            if denied is not None:
                raise Trap(_ACCESS_TO_ACCESS_FAULT[access], tval=paddr + denied, pc=self.pc)
            chunks.append((paddr, size))
            vaddr += size
            length -= size
        return chunks

    def _commit(self, chunks: list[tuple[int, int]], data: bytes) -> None:
        """Write ``data`` over the chunks :meth:`_transfer` returned.

        A chunk on a page holding cached code is written one instruction
        slot at a time, so the decode and trace caches count the same
        invalidation events as byte-by-byte stores would.
        """
        write = self.machine.memory.write
        cores = self.machine.cores
        start = 0
        for paddr, size in chunks:
            ppn = paddr >> PAGE_SHIFT
            if size > 1 and any(
                ppn in core.decode_cache.pages or ppn in core.trace_cache.pages
                for core in cores
            ):
                end = paddr + size
                while paddr < end:
                    step = min(end, (paddr | (INSTRUCTION_SIZE - 1)) + 1) - paddr
                    write(paddr, data[start : start + step])
                    paddr += step
                    start += step
            else:
                write(paddr, data[start : start + size])
                start += size

    def read_buffer(self, vaddr: int, length: int) -> bytes:
        """Read ``length`` bytes through the translated access path."""
        read = self.machine.memory.read
        chunks = self._transfer(vaddr, length, AccessType.LOAD)
        return b"".join(read(paddr, size) for paddr, size in chunks)

    def write_buffer(self, vaddr: int, data: bytes) -> None:
        """Write bytes through the translated access path; a fault writes none."""
        self._commit(self._transfer(vaddr, len(data), AccessType.STORE), data)

    def _execute_crypto(self, function: int) -> None:
        """Execute one crypto-accelerator operation.

        Operand buffers are accessed with the core's *current*
        translation context and isolation checks, so the accelerator
        cannot be used to cross protection domains; faults on operand
        access surface exactly like load/store faults.
        """
        from repro.crypto.ed25519 import ed25519_public_key, ed25519_sign
        from repro.crypto.sha3 import sha3_512
        from repro.crypto.x25519 import x25519, x25519_base
        from repro.errors import CryptoError
        from repro.hw.isa import CryptoFn, Reg

        a1 = self.read_reg(Reg.A1)
        a2 = self.read_reg(Reg.A2)
        a3 = self.read_reg(Reg.A3)
        a4 = self.read_reg(Reg.A4)
        try:
            fn = CryptoFn(function)
        except ValueError:
            raise Trap(TrapCause.ILLEGAL_INSTRUCTION, tval=self.pc, pc=self.pc) from None
        try:
            if fn is CryptoFn.SHA3_512:
                self.write_buffer(a3, sha3_512(self.read_buffer(a1, a2)))
                self.cycles += 100 + 4 * a2
            elif fn is CryptoFn.ED25519_SIGN:
                key = self.read_buffer(a1, 32)
                message = self.read_buffer(a2, a3)
                self.write_buffer(a4, ed25519_sign(key, message))
                self.cycles += 60_000
            elif fn is CryptoFn.ED25519_PUB:
                self.write_buffer(a2, ed25519_public_key(self.read_buffer(a1, 32)))
                self.cycles += 30_000
            elif fn is CryptoFn.X25519_BASE:
                self.write_buffer(a2, x25519_base(self.read_buffer(a1, 32)))
                self.cycles += 30_000
            elif fn is CryptoFn.X25519:
                scalar = self.read_buffer(a1, 32)
                point = self.read_buffer(a2, 32)
                self.write_buffer(a3, x25519(scalar, point))
                self.cycles += 30_000
            elif fn is CryptoFn.RANDOM:
                # Draw from the TRNG only once the destination is known good.
                chunks = self._transfer(a1, a2, AccessType.STORE)
                self._commit(chunks, self.machine.trng.read(a2))
                self.cycles += 10 * a2
        except CryptoError:
            # Bad key/point material is the program's bug, reported the
            # way hardware would: an illegal-operand trap.
            raise Trap(TrapCause.ILLEGAL_INSTRUCTION, tval=self.pc, pc=self.pc) from None
