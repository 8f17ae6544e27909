"""The decoded-instruction fast path, perf counters, and step accounting.

Regression tests for the simulator's host-speed machinery: the decode
cache must be architecturally invisible (every invalidation rule of
docs/SIMULATOR.md is exercised here), interrupt delivery must advance
``global_steps``, and the stats fixes (shootdown/flush counting,
``CacheStats.reset``) must hold.
"""

import pytest

from repro.hw.asm import assemble
from repro.hw.cache import LINE_SIZE, Cache, CacheStats
from repro.hw.isa import Reg
from repro.hw.machine import Machine, MachineConfig
from repro.hw.paging import Translation
from repro.hw.perf import LATENCY_BUCKETS_NS, LatencyHistogram
from repro.hw.tlb import Tlb
from repro.hw.traps import TrapCause


def _machine(n_cores=1, **overrides):
    config = MachineConfig(n_cores=n_cores, dram_size=1 << 20, **overrides)
    return Machine(config)


def _run_at(machine, source, base=0x1000):
    machine.set_trap_handler(lambda core, trap: setattr(core, "halted", True))
    image = assemble(source, base=base)
    machine.memory.write(base, image.data)
    core = machine.cores[0]
    core.pc = base
    core.halted = False
    machine.run()
    return core


# ---------------------------------------------------------------------------
# Decode-cache invalidation rules
# ---------------------------------------------------------------------------

def test_decode_cache_populates_and_hits_on_loops():
    # Trace cache off: compiled traces bypass decode-cache lookups, and
    # this test counts exactly those lookups.
    machine = _machine(trace_cache_enabled=False)
    core = _run_at(
        machine,
        """
entry:
    li   t0, 0
    li   t1, 50
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    halt
""",
    )
    assert core.read_reg(Reg.T0) == 50
    assert len(core.decode_cache) == 5
    # Every loop iteration after the first hits the cache.
    assert core.decode_cache.hits > 90
    assert core.decode_cache.misses == 5


def test_host_write_to_code_page_invalidates_decode_cache():
    machine = _machine()
    core = _run_at(machine, "li a0, 1\nhalt")
    assert core.read_reg(Reg.A0) == 1
    # Re-load different code at the same physical address (what a DMA
    # device or the OS loader does) and re-run it.
    patched = assemble("li a0, 2\nhalt", base=0x1000)
    machine.memory.write(0x1000, patched.data)
    core.pc = 0x1000
    core.halted = False
    machine.run()
    assert core.read_reg(Reg.A0) == 2, "stale decoded instruction executed"


def test_guest_store_to_code_invalidates_decode_cache():
    """Self-modifying code: the second pass must see the patched insn."""
    # 8-byte encoding of the replacement instruction `li a0, 7`.
    patch_bytes = assemble("li a0, 7", base=0).data.hex(" ", 1)
    machine = _machine()
    core = _run_at(
        machine,
        f"""
entry:
    li   t0, 0
    li   a3, target
    li   a4, patch
    lw   t1, 0(a4)
    lw   t2, 4(a4)
again:
    addi t0, t0, 1
target:
    li   a0, 9
    li   a5, 2
    beq  t0, a5, done
    sw   t1, 0(a3)
    sw   t2, 4(a3)
    jal  zero, again
done:
    halt
patch:
    .bytes {patch_bytes}
""",
    )
    # Pass 1 executed (and cached) `li a0, 9`, then overwrote it; pass 2
    # must fetch the patched `li a0, 7`.
    assert core.read_reg(Reg.T0) == 2
    assert core.read_reg(Reg.A0) == 7, "decode cache served stale code"


class _DenyDomain:
    """Isolation platform that denies one domain every access to a page."""

    def __init__(self, domain, ppn):
        self.domain, self.ppn = domain, ppn

    def check_access(self, core, paddr, access):
        return not (core.domain == self.domain and paddr >> 12 == self.ppn)


def test_core_clean_keeps_decoded_entries_but_fetch_still_checks_isolation():
    """The decode cache survives the SM's core clean, yet a domain the
    isolation hardware denies still traps on fetch: the lookup happens
    only after translation and ``_checked_physical``."""
    machine = _machine()
    machine.install_isolation(_DenyDomain(domain=0x5000, ppn=0x1))
    core = _run_at(machine, "li a0, 1\nhalt")
    assert core.read_reg(Reg.A0) == 1
    traps = []
    machine.set_trap_handler(
        lambda core, trap: (traps.append(trap.cause), setattr(core, "halted", True))
    )
    cached = len(core.decode_cache)
    assert cached > 0
    core.clean_architectural_state()
    assert len(core.decode_cache) == cached
    core.domain = 0x5000
    core.pc = 0x1000
    core.halted = False
    hits_before = core.decode_cache.hits
    machine.run()
    assert traps == [TrapCause.ACCESS_FAULT_FETCH]
    assert core.read_reg(Reg.A0) == 0, "denied code executed after a core clean"
    assert core.decode_cache.hits == hits_before


def test_region_reassignment_invalidates_decode_range_on_all_cores():
    machine = _machine(n_cores=2)
    core = _run_at(machine, "li a0, 1\nhalt", base=0x1000)
    assert len(core.decode_cache) > 0
    invalidations_before = core.decode_cache.invalidations
    machine.invalidate_decode_range(0x1000, 0x2000)
    assert len(core.decode_cache) == 0
    assert core.decode_cache.invalidations == invalidations_before + 1
    # Untouched pages elsewhere survive a disjoint invalidation.
    core2 = machine.cores[0]
    machine.invalidate_decode_range(0x10000, 0x1000)
    assert core2.decode_cache.invalidations == invalidations_before + 1


def test_fence_flushes_current_domain_decode_entries():
    machine = _machine()
    core = _run_at(machine, "li a0, 1\nfence\nhalt")
    # fence dropped the entries its own domain had cached up to that
    # point; only instructions fetched after it remain.
    assert core.read_reg(Reg.A0) == 1
    assert core.decode_cache.invalidations >= 1


def test_decode_cache_disabled_runs_reference_path():
    machine = _machine(decode_cache_enabled=False)
    core = _run_at(
        machine,
        """
entry:
    li   t0, 0
    li   t1, 10
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    halt
""",
    )
    assert core.read_reg(Reg.T0) == 10
    assert len(core.decode_cache) == 0
    assert core.decode_cache.hits == 0 and core.decode_cache.misses == 0


# ---------------------------------------------------------------------------
# global_steps accounting (interrupt-delivery regression)
# ---------------------------------------------------------------------------

def test_interrupt_delivery_advances_global_steps():
    machine = _machine()
    delivered = []

    def handler(core, trap):
        delivered.append(trap.cause)
        core.halted = True

    machine.set_trap_handler(handler)
    core = machine.cores[0]
    core.halted = False
    machine.interrupts.send_ipi(0)
    before = machine.global_steps
    assert machine.step_core(0) is True
    assert machine.global_steps == before + 1
    assert delivered == [TrapCause.SOFTWARE_INTERRUPT]


def test_interrupt_storm_counts_every_step():
    """An interrupt-heavy run keeps global_steps == executed steps."""
    machine = _machine()
    machine.set_trap_handler(lambda core, trap: None)
    core = machine.cores[0]
    core.halted = False
    for _ in range(8):
        machine.interrupts.send_ipi(0)
    executed = machine.run(max_steps=5)
    assert executed == 5
    assert machine.global_steps == 5


# ---------------------------------------------------------------------------
# Stats-counting fixes
# ---------------------------------------------------------------------------

def test_cache_stats_reset_clears_last_was_hit():
    stats = CacheStats()
    stats.last_was_hit = True
    stats.hits = 3
    stats.reset()
    assert stats.last_was_hit is False
    assert stats.hits == 0


def test_cache_flush_domain_only_counts_real_flushes():
    cache = Cache(n_sets=2, n_ways=2, hit_cycles=1, miss_penalty=10)
    cache.access(0, domain=1)
    cache.flush_domain(2)  # nothing cached for domain 2
    assert cache.stats.flushes == 0
    cache.flush_domain(1)
    assert cache.stats.flushes == 1
    assert not cache.probe(0)


def _translation(vpn, ppn):
    return Translation(vpn=vpn, ppn=ppn, readable=True, writable=True, executable=False)


def test_tlb_flush_ppn_only_counts_real_shootdowns():
    tlb = Tlb(capacity=4)
    tlb.insert(0, _translation(vpn=1, ppn=0x10))
    tlb.insert(0, _translation(vpn=2, ppn=0x20))
    tlb.flush_ppn(0x99)  # maps nothing
    assert tlb.shootdowns == 0
    assert len(tlb) == 2
    tlb.flush_ppn(0x10)
    assert tlb.shootdowns == 1
    assert len(tlb) == 1
    assert tlb.lookup(0, 2) is not None


def test_tlb_generation_tracks_every_entry_removal():
    tlb = Tlb(capacity=2)
    start = tlb.generation
    tlb.insert(0, _translation(vpn=1, ppn=1))
    tlb.insert(0, _translation(vpn=2, ppn=2))
    assert tlb.generation == start  # inserts without eviction don't bump
    tlb.insert(0, _translation(vpn=3, ppn=3))  # evicts the oldest
    assert tlb.generation == start + 1
    tlb.flush_ppn(3)
    assert tlb.generation == start + 2
    tlb.flush_all()
    assert tlb.generation == start + 3


# ---------------------------------------------------------------------------
# Perf counters and latency histograms
# ---------------------------------------------------------------------------

def test_latency_histogram_summary_and_percentiles():
    histogram = LatencyHistogram()
    assert histogram.summary()["count"] == 0
    assert histogram.percentile_ns(0.99) == 0
    for ns in (500, 1_500, 4_000, 90_000, 2 * LATENCY_BUCKETS_NS[-1]):
        histogram.record(ns)
    summary = histogram.summary()
    assert summary["count"] == 5
    assert summary["min_us"] == 0.5
    assert summary["max_us"] == 2 * LATENCY_BUCKETS_NS[-1] / 1000
    assert histogram.percentile_ns(0.2) == 1_000
    assert histogram.percentile_ns(1.0) == histogram.max_ns
    assert histogram.mean_ns == pytest.approx(sum((500, 1_500, 4_000, 90_000, 2 * LATENCY_BUCKETS_NS[-1])) / 5)


def test_percentile_of_single_sample_is_the_sample():
    """One observation *is* every percentile — not its bucket's bound.

    Regression: a lone 66.389µs sample used to report p50 = 100µs (the
    enclosing bucket's upper bound)."""
    histogram = LatencyHistogram()
    histogram.record(66_389)
    assert histogram.percentile_ns(0.50) == 66_389
    assert histogram.percentile_ns(0.99) == 66_389
    summary = histogram.summary()
    assert summary["p50_us"] == summary["p99_us"] == summary["max_us"] == 66.389


def test_percentile_clamped_to_observed_max():
    """No percentile may exceed the recorded maximum.

    Regression: samples topping out at 624.51µs used to report
    p99 = 1000µs (their bucket's upper bound)."""
    histogram = LatencyHistogram()
    for ns in (400_000, 450_000, 550_000, 624_510):
        histogram.record(ns)
    assert histogram.max_ns == 624_510
    assert histogram.percentile_ns(0.99) == 624_510
    summary = histogram.summary()
    assert summary["p99_us"] <= summary["max_us"]
    # Percentiles that resolve to a bucket below the max keep their
    # bucket-bound semantics.
    assert histogram.percentile_ns(0.25) == 500_000


def test_decode_cache_invalidation_counters_have_distinct_units():
    """invalidation_events counts causes; entries_dropped counts entries.

    Regression: the old single ``invalidations`` counter bumped once
    per *page* on write invalidations but once per *call* on flushes,
    mixing units."""
    from repro.hw.core import DecodeCache

    cache = DecodeCache()
    cache.insert(0x1000, "ins-a", domain=0)
    cache.insert(0x1008, "ins-b", domain=0)
    cache.insert(0x2000, "ins-c", domain=0)
    assert cache.peak_entries == 3
    cache.invalidate(0x1004, 8)  # overlaps both page-1 slots
    assert cache.invalidation_events == 1
    assert cache.entries_dropped == 2
    cache.invalidate(0x1010, 0x100)  # no cached slot: no event
    cache.invalidate(0x7000, 1)
    assert cache.invalidation_events == 1
    # A range spanning many pages is still ONE invalidation event.
    cache.insert(0x3000, "ins-d", domain=0)
    cache.insert(0x4000, "ins-e", domain=0)
    cache.invalidate(0x2000, 0x3000)
    assert cache.invalidation_events == 2
    assert cache.entries_dropped == 5
    cache.insert(0x5000, "ins-f", domain=7)
    cache.insert(0x5008, "ins-g", domain=7)
    cache.flush_domain(7)
    assert cache.invalidation_events == 3
    assert cache.entries_dropped == 7
    assert len(cache) == 0
    assert cache.peak_entries == 3  # high-water mark survives the drops
    # Back-compat alias used by older tests and tooling.
    assert cache.invalidations == cache.invalidation_events


def test_decode_cache_write_drops_exactly_the_overlapped_slots():
    from repro.hw.core import DecodeCache

    cache = DecodeCache()
    for slot in range(0x1000, 0x1040, 8):
        cache.insert(slot, f"ins-{slot:x}", domain=0)
    cache.invalidate(0x1013, 1)  # one byte inside slot 0x1010
    assert sorted(cache.entries) == [s for s in range(0x1000, 0x1040, 8) if s != 0x1010]
    cache.invalidate(0x101E, 4)  # straddles slots 0x1018 and 0x1020
    assert 0x1018 not in cache.entries and 0x1020 not in cache.entries
    cache.invalidate(0x0F00, 0x104)  # large write ending inside slot 0x1000
    assert 0x1000 not in cache.entries and 0x1008 in cache.entries
    assert cache.entries_dropped == 4 and cache.invalidation_events == 3


def test_perf_monitor_counts_traps_and_renders_report():
    machine = _machine()
    machine.set_trap_handler(lambda core, trap: setattr(core, "halted", True))
    _run_at(machine, "ecall")
    snap = machine.perf.snapshot()
    assert snap["cores"][0]["traps"] == {"ECALL_FROM_U": 1}
    assert snap["cores"][0]["instructions"] == 0  # trapped, not retired
    report = machine.perf.format_report()
    assert "per core:" in report
    machine.perf.reset()
    assert machine.perf.snapshot()["cores"][0]["traps"] == {}


def test_perf_snapshot_structure_on_bare_machine():
    machine = _machine()
    _run_at(machine, "li a0, 1\nhalt")
    snap = machine.perf.snapshot()
    assert snap["instructions"] == 2
    core = snap["cores"][0]
    assert core["ipc"] > 0
    assert set(core["decode_cache"]) == {
        "entries", "peak_entries", "hits", "misses", "hit_rate",
        "invalidation_events", "entries_dropped",
    }
    assert set(core["trace_cache"]) == {
        "traces", "peak_traces", "built", "executions", "instructions",
        "aborts", "coverage", "invalidation_events", "entries_dropped",
    }
    assert core["decode_cache"]["peak_entries"] >= core["decode_cache"]["entries"]
    assert core["l1"]["hits"] + core["l1"]["misses"] > 0
