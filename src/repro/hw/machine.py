"""The machine: cores, memory, caches, devices, and trap routing.

This is the "abstract machine consisting of an array of typed resources
isolated by the hardware platform" (§VII) the SM runs on.  The machine
owns:

* the DRAM bus (:class:`~repro.hw.memory.PhysicalMemory`),
* the shared LLC (installed by the platform backend),
* the cores, each with private L1/TLB/PMP,
* the interrupt controller and DMA filter,
* the *isolation platform* — the Sanctum region unit or the Keystone
  PMP discipline — consulted on every physical access, and
* the trap handler, which is always the security monitor: **every**
  event on every core is delivered to the SM before any other software
  sees it (Fig. 1).

The run loop is a deterministic round-robin interleaving of core
steps, which makes every experiment replayable and lets the bounded
checker enumerate interleavings.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Protocol

from repro.hw.cache import PartitionedLlc
from repro.hw.core import Core
from repro.hw.dma import DmaFilter
from repro.hw.interrupts import InterruptController
from repro.hw.isa import INSTRUCTION_SIZE
from repro.hw.memory import PhysicalMemory
from repro.hw.paging import AccessType
from repro.hw.perf import PerfMonitor
from repro.hw.traps import Trap
from repro.telemetry.tracer import Tracer
from repro.util.rng import DeterministicTRNG


class IsolationCheck(Protocol):
    """The hook an isolation platform installs on the machine."""

    def check_access(self, core: Core, paddr: int, access: AccessType) -> bool:
        """Decide whether the core's current domain may touch ``paddr``."""
        ...


@dataclasses.dataclass
class MachineConfig:
    """Machine geometry.  Defaults are laptop-scale; the paper's full
    2 GB / 64-region Sanctum configuration is constructible (memory is
    sparse) but slower to simulate."""

    n_cores: int = 4
    dram_size: int = 64 * 1024 * 1024
    l1_sets: int = 64
    l1_ways: int = 4
    l1_hit_cycles: int = 2
    llc_sets: int = 512
    llc_ways: int = 8
    llc_hit_cycles: int = 20
    llc_miss_penalty: int = 100
    tlb_entries: int = 64
    trng_seed: int = 2019
    #: Host-speed fast path: decoded-instruction cache + translation
    #: memo.  Architecturally invisible (identical simulated cycles,
    #: measurements, and register state); disable to run the reference
    #: interpreter path, e.g. for determinism regressions.  The caches
    #: survive the SM's core clean; a write drops only the cached
    #: instructions (and traces) whose 8-byte slots it overlaps.
    decode_cache_enabled: bool = True
    #: Second fast-path stage: superblock/trace cache plus batched
    #: stepping (see docs/SIMULATOR.md).  Rides on the decode fast path
    #: (it has no effect when that is off) and is equally invisible:
    #: simulated cycles, state, and interleaving at trap boundaries are
    #: bit-identical with it on or off.
    trace_cache_enabled: bool = True


class Machine:
    """A simulated enclave-capable multiprocessor system."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()
        self.memory = PhysicalMemory(self.config.dram_size)
        self.interrupts = InterruptController(self.config.n_cores)
        self.dma_filter = DmaFilter()
        self.trng = DeterministicTRNG(self.config.trng_seed)
        self.cores = [Core(i, self) for i in range(self.config.n_cores)]
        #: Shared LLC; the platform backend replaces this with a
        #: partitioned instance when it installs itself.
        self.llc: PartitionedLlc | None = None
        self._isolation: IsolationCheck | None = None
        self._trap_handler: Callable[[Core, Trap], None] | None = None
        #: Optional per-instruction observer (see repro.hw.trace).
        self._trace_hook: Callable[[Core], None] | None = None
        #: Optional trap observer, called before the handler.
        self._trap_observer: Callable[[Core, Trap], None] | None = None
        #: Monotonic global step counter used for fair interleaving.
        #: Counts every productive core step, including interrupt and
        #: trap deliveries.
        self.global_steps = 0
        #: Machine-wide performance counters (see repro.hw.perf).
        self.perf = PerfMonitor(self)
        #: Span tracer on the machine's virtual clock (disabled by
        #: default; see repro.telemetry.tracer).  Always present so the
        #: instrumented hot paths pay only one ``enabled`` check.
        self.tracer = Tracer(clock=lambda: self.global_steps)
        # Keep the decode caches coherent with DRAM: any write (core
        # store, SM page load/scrub, DMA) drops the decoded instructions
        # and traces whose 8-byte instruction slots it overlaps.
        if self.config.decode_cache_enabled:
            self.memory.set_write_observer(self._on_memory_write)

    def _on_memory_write(self, paddr: int, length: int) -> None:
        """Invalidate decoded instructions and traces the write overlaps."""
        slot = paddr & ~(INSTRUCTION_SIZE - 1)
        if paddr + length > slot + INSTRUCTION_SIZE:
            self.invalidate_decode_range(paddr, length)
            return
        # Inside one slot (every aligned core store): one lookup per
        # cache per core, however much code shares the page.
        for core in self.cores:
            if slot in core.decode_cache.entries:
                core.decode_cache.invalidate(paddr, length)
            if slot in core.trace_cache.slots:
                core.trace_cache.invalidate(paddr, length)

    def invalidate_decode_range(self, base: int, size: int) -> None:
        """Drop decoded instructions and traces overlapping a physical
        interval on all cores.

        Called for multi-slot writes and on DRAM-region reassignment
        and cleaning — the page-reassignment invalidation rule of the
        decode and trace caches.
        """
        for core in self.cores:
            core.decode_cache.invalidate(base, size)
            core.trace_cache.invalidate(base, size)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def dma_device(self, name: str) -> "DmaDevice":
        """A DMA-capable device attached behind the machine's DMA filter.

        Convenience constructor used by adversarial drivers and the
        fault-injection harness: every transfer the device attempts is
        policed by the SM-programmed filter.
        """
        from repro.hw.dma import DmaDevice

        return DmaDevice(name, self.memory, self.dma_filter)

    def install_isolation(self, platform: IsolationCheck) -> None:
        """Attach the isolation platform (Sanctum regions or PMP)."""
        self._isolation = platform

    def install_llc(self, llc: PartitionedLlc) -> None:
        """Attach the shared last-level cache."""
        self.llc = llc

    def set_trap_handler(self, handler: Callable[[Core, Trap], None]) -> None:
        """Register the SM as the machine's sole trap handler."""
        self._trap_handler = handler

    def set_trace_hook(self, hook: Callable[[Core], None] | None) -> None:
        """Install (or clear) a pre-instruction observer.

        Debug instrumentation only: the hook sees the core *before*
        each instruction and must not mutate machine state.
        """
        self._trace_hook = hook

    def set_trap_observer(self, observer: Callable[[Core, Trap], None] | None) -> None:
        """Install (or clear) a trap observer (runs before the handler)."""
        self._trap_observer = observer

    # ------------------------------------------------------------------
    # Physical access path (called by cores and the page-table walker)
    # ------------------------------------------------------------------

    def check_isolation(self, core: Core, paddr: int, access: AccessType) -> bool:
        """Ask the installed platform whether this access is legal.

        With no platform installed (bare machine, pre-boot) everything
        is permitted — matching hardware before the SM programs it.
        """
        if self._isolation is None:
            return True
        return self._isolation.check_access(core, paddr, access)

    def physical_access_cycles(self, core: Core, paddr: int) -> int:
        """Charge cache cycles for one physical access.

        An L1 hit costs the L1 hit latency; an L1 miss propagates to
        the shared LLC (when installed), which adds its hit latency or
        its DRAM miss penalty.
        """
        cycles, hit = core.l1.access(paddr, core.domain)
        if not hit and self.llc is not None:
            llc_cycles, _ = self.llc.access(paddr, core.domain)
            cycles += llc_cycles
        return cycles

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def deliver_trap(self, core: Core, trap: Trap) -> None:
        """Route a trap to the SM (the registered handler)."""
        if self._trap_handler is None:
            raise RuntimeError(f"trap with no handler installed: {trap}")
        self.perf.record_trap(core.core_id, trap.cause)
        if self._trap_observer is not None:
            self._trap_observer(core, trap)
        self._trap_handler(core, trap)

    def _uncontended(self, core_id: int) -> bool:
        """True when every other core is halted.

        With a single runnable core the round-robin interleaving is
        degenerate, so advancing that core by a whole trace between
        scheduling points is observably identical to single-stepping.
        """
        for core in self.cores:
            if core.core_id != core_id and not core.halted:
                return False
        return True

    def step_core(self, core_id: int, budget: int = 1) -> bool:
        """Advance one core (or deliver one trap/interrupt).

        Returns True when the core did any work (was not halted).
        Every productive step — instruction, trap, or interrupt
        delivery — advances ``global_steps``, so the fair-interleaving
        counter never undercounts interrupt-heavy workloads.

        ``budget`` is the number of global steps the caller can absorb
        from this call.  With the default of 1 this is exactly the
        historical one-instruction contract.  A larger budget permits
        the batched fast path: when no trace hook is installed, the
        core's interrupts are quiescent (nothing pending, timer
        disarmed — so the per-instruction poll is a no-op), and every
        other core is halted (so the interleaving is degenerate), the
        core may retire a whole compiled trace — or many passes of a
        hot loop — in one call without changing observable behaviour.
        """
        core = self.cores[core_id]
        if core.halted:
            return False
        if (
            budget > 1
            and core.trace_cache_enabled
            and self._trace_hook is None
            and self.interrupts.quiescent(core_id)
            and self._uncontended(core_id)
        ):
            executed = core.try_trace(budget)
            if executed:
                self.global_steps += executed
                return True
        interrupt = self.interrupts.poll(core_id, core.cycles)
        if interrupt is not None:
            self.deliver_trap(core, dataclasses.replace(interrupt, pc=core.pc))
            self.global_steps += 1
            return True
        if self._trace_hook is not None:
            self._trace_hook(core)
        try:
            core.step()
        except Trap as trap:
            self.deliver_trap(core, trap)
        self.global_steps += 1
        return True

    def run(self, max_steps: int = 1_000_000) -> int:
        """Round-robin all cores until all halt or the budget expires.

        Returns the number of core-steps executed.  Each core's turn
        carries the remaining step budget so an uncontended core can
        advance in trace-sized chunks between interrupt-poll points;
        with multiple runnable cores every turn is exactly one step,
        preserving the historical interleaving.
        """
        start = self.global_steps
        while True:
            progressed = False
            for core_id in range(self.config.n_cores):
                remaining = max_steps - (self.global_steps - start)
                if remaining <= 0:
                    return self.global_steps - start
                if self.step_core(core_id, remaining):
                    progressed = True
            if not progressed:
                return self.global_steps - start

    def run_core(self, core_id: int, max_steps: int = 1_000_000) -> int:
        """Run a single core until it halts or the budget expires."""
        start = self.global_steps
        while True:
            remaining = max_steps - (self.global_steps - start)
            if remaining <= 0 or not self.step_core(core_id, remaining):
                return self.global_steps - start
