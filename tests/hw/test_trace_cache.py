"""The superblock/trace cache and batched stepping.

Unit coverage for the second fast-path stage (docs/SIMULATOR.md):
traces compile from hot straight-line code, execute whole loops per
``step_core`` call, honour every invalidation rule the decode cache
has, abort cleanly when translation state moves underneath them, and
stay bit-identical to the reference interpreter — including when a
step budget cuts a trace mid-block.
"""

from repro.hw.asm import assemble
from repro.hw.isa import Reg
from repro.hw.machine import Machine, MachineConfig
from repro.hw.paging import PTE_R, PTE_X, PageTableBuilder


def _machine(n_cores=1, **overrides):
    config = MachineConfig(n_cores=n_cores, dram_size=1 << 20, **overrides)
    return Machine(config)


def _load_at(machine, source, base=0x1000):
    machine.set_trap_handler(lambda core, trap: setattr(core, "halted", True))
    image = assemble(source, base=base)
    machine.memory.write(base, image.data)
    core = machine.cores[0]
    core.pc = base
    core.halted = False
    return core


def _run_at(machine, source, base=0x1000):
    core = _load_at(machine, source, base)
    machine.run()
    return core


_LOOP = """
entry:
    li   t0, 0
    li   t1, 500
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    halt
"""


def test_hot_loop_compiles_and_executes_in_traces():
    machine = _machine()
    core = _run_at(machine, _LOOP)
    tcache = core.trace_cache
    assert core.read_reg(Reg.T0) == 500
    assert tcache.built >= 1
    assert tcache.peak_traces >= 1
    assert tcache.executions > 0
    # The loop body dominates; almost every retired instruction should
    # have come from inside a trace.
    assert tcache.instructions > 900
    assert tcache.aborts == 0


def test_trace_cache_matches_reference_interpreter_exactly():
    def run(trace_cache_enabled):
        machine = _machine(trace_cache_enabled=trace_cache_enabled)
        core = _run_at(machine, _LOOP)
        return (
            list(core.regs),
            core.pc,
            core.cycles,
            core.instructions_retired,
            machine.global_steps,
            (core.tlb.hits, core.tlb.misses),
            (core.l1.stats.hits, core.l1.stats.misses),
        )

    assert run(False) == run(True)


def test_step_budget_cuts_a_trace_at_an_exact_instruction_boundary():
    """run(max_steps=N) must stop after exactly N instructions even when
    N lands in the middle of a compiled trace pass."""
    def run_budgeted(trace_cache_enabled, budget):
        machine = _machine(trace_cache_enabled=trace_cache_enabled)
        core = _load_at(machine, _LOOP)
        executed = machine.run(max_steps=budget)
        return executed, machine.global_steps, list(core.regs), core.pc, core.cycles

    for budget in (7, 40, 41, 333):
        assert run_budgeted(True, budget) == run_budgeted(False, budget)
        assert run_budgeted(True, budget)[0] == budget


def test_guest_store_to_trace_page_invalidates_and_stays_correct():
    """Self-modifying code: the store drops the trace covering the
    patched instruction and the next pass executes the new code."""
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
    li   a5, 40
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
    assert core.read_reg(Reg.T0) == 40
    assert core.read_reg(Reg.A0) == 7, "trace cache served stale code"


def test_region_reassignment_drops_traces_on_all_cores():
    machine = _machine(n_cores=2)
    core = _run_at(machine, _LOOP, base=0x1000)
    assert len(core.trace_cache) > 0
    events_before = core.trace_cache.invalidation_events
    machine.invalidate_decode_range(0x1000, 0x2000)
    assert len(core.trace_cache) == 0
    assert core.trace_cache.invalidation_events == events_before + 1
    assert core.trace_cache.entries_dropped >= 1
    # A disjoint range is a no-op (no phantom events).
    machine.invalidate_decode_range(0x10000, 0x1000)
    assert core.trace_cache.invalidation_events == events_before + 1


def test_fence_flushes_current_domain_traces():
    machine = _machine()
    core = _run_at(
        machine,
        """
entry:
    li   t0, 0
    li   t1, 100
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    fence
    halt
""",
    )
    assert core.read_reg(Reg.T0) == 100
    assert len(core.trace_cache) == 0
    assert core.trace_cache.invalidation_events >= 1


def test_core_clean_keeps_traces_and_reruns_them():
    """The SM's core clean flushes L1 and TLB but not the host-side
    trace cache: a second run reuses the compiled trace."""
    machine = _machine()
    core = _run_at(machine, _LOOP)
    built = core.trace_cache.built
    assert len(core.trace_cache) > 0
    core.clean_architectural_state()
    assert len(core.trace_cache) == built
    core.pc = 0x1000
    core.halted = False
    machine.run()
    assert core.read_reg(Reg.T0) == 500
    assert core.trace_cache.built == built
    assert core.trace_cache.instructions > 1800


_EVRANGE = (0x400000, 0x10000)


def _run_enclave(machine, domain, code_ppn, evrange=_EVRANGE):
    """Clean the core and run the code at evrange base as ``domain``.

    The code page is mapped (R+X) at the base of ``evrange`` by a fresh
    enclave page table, as on every enclave entry of a reused eid.
    """
    frames = iter(range(0x80, 0x100))
    tables = PageTableBuilder(machine.memory, lambda: next(frames))
    tables.map_page(evrange[0], code_ppn, PTE_R | PTE_X)
    core = machine.cores[0]
    core.clean_architectural_state()
    core.domain = domain
    core.context.paging_enabled = True
    core.context.enclave_root_ppn = tables.root_ppn
    core.context.evrange = evrange
    core.pc = evrange[0]
    core.halted = False
    machine.run()
    return core


def _counting_loop(step):
    return assemble(
        f"""
entry:
    li   t0, 0
    li   a0, 0
    li   t1, 100
loop:
    addi a0, a0, {step}
    addi t0, t0, 1
    bne  t0, t1, loop
    halt
""",
        base=_EVRANGE[0],
    ).data


def test_reused_eid_with_relocated_code_or_new_evrange_gets_a_fresh_trace():
    """Trace keys are (domain, vaddr) and eids get reused.  A trace
    whose pages now map elsewhere, or whose evrange changed, must never
    run again; it is dropped and rebuilt from the current code."""
    machine = _machine()
    machine.set_trap_handler(lambda core, trap: setattr(core, "halted", True))
    eid = 0x9000
    machine.memory.write(0x10000, _counting_loop(1))
    machine.memory.write(0x11000, _counting_loop(3))
    core = _run_enclave(machine, eid, code_ppn=0x10)
    assert core.read_reg(Reg.A0) == 100
    key = (eid, _EVRANGE[0] + 3 * 8)
    assert core.trace_cache.entries[key].page_checks[0][1] == 0x10000
    # Same eid, same vaddrs, code now in another frame (no write to the
    # old one, so no write invalidation can help).
    core = _run_enclave(machine, eid, code_ppn=0x11)
    assert core.read_reg(Reg.A0) == 300, "stale trace ran relocated code"
    assert core.trace_cache.entries[key].page_checks[0][1] == 0x11000
    assert core.trace_cache.instructions > 2 * 250
    # Same eid and frame, different evrange: rebuilt again.
    evrange = (_EVRANGE[0], 2 * _EVRANGE[1])
    built = core.trace_cache.built
    core = _run_enclave(machine, eid, code_ppn=0x11, evrange=evrange)
    assert core.read_reg(Reg.A0) == 300
    assert core.trace_cache.entries[key].evrange == evrange
    assert core.trace_cache.built == built + 1


_NESTED = """
entry:
    li   a0, 0
    li   t2, 0
    li   t1, 20
    li   a5, 40
outer:
    li   t0, 0
inner:
site:
    addi a0, a0, 3
    addi t0, t0, 1
    bne  t0, t1, inner
    addi t2, t2, 1
    bne  t2, a5, outer
    halt
patch:
    li   a3, site
    li   a4, 7
    sb   a4, 4(a3)
    halt
scratch:
    .bytes 00 00 00 00 00 00 00 00
"""


def test_store_outside_instruction_slots_keeps_decoded_entries_and_traces():
    """Data stores into a code page that overlap no instruction slot
    drop no decoded entry and no trace, and abort no running trace."""
    machine = _machine()
    core = _run_at(
        machine,
        """
entry:
    li   t0, 0
    li   t1, 300
    li   a3, scratch
loop:
    addi t0, t0, 1
    sw   t0, 0(a3)
    sb   t0, 5(a3)
    bne  t0, t1, loop
    halt
scratch:
    .bytes 00 00 00 00 00 00 00 00
""",
    )
    assert core.read_reg(Reg.T0) == 300
    tcache = core.trace_cache
    assert tcache.built == 1 and len(tcache) == 1
    assert tcache.instructions > 1000
    assert tcache.aborts == 0
    assert tcache.invalidation_events == 0
    assert core.decode_cache.invalidation_events == 0
    assert core.decode_cache.misses == 8  # each instruction decoded once


def test_one_byte_store_into_an_instruction_drops_it_and_every_covering_trace():
    image = assemble(_NESTED, base=0x1000)
    site, patch = image.symbols["site"], image.symbols["patch"]
    machine = _machine()
    core = _run_at(machine, _NESTED)
    assert core.read_reg(Reg.A0) == 3 * 20 * 40
    tcache, dcache = core.trace_cache, core.decode_cache
    covering = {key for key, trace in tcache.entries.items() if site in trace.slots}
    assert len(covering) == 2  # the inner loop, and the outer head falling into it
    survivors = set(tcache.entries) - covering
    assert survivors  # the outer-loop tail
    decoded = set(dcache.entries)
    dropped = dcache.entries_dropped
    # Run the patcher: `sb` rewrites one immediate byte of `site`.
    core.pc = patch
    core.halted = False
    machine.run()
    assert set(tcache.entries) == survivors
    assert site not in dcache.entries
    assert dcache.entries_dropped == dropped + 1
    assert decoded - {site} <= set(dcache.entries)
    assert tcache.aborts == 0
    # The program now sees the new code.
    core.write_reg(Reg.A0, 0)
    core.pc = 0x1000
    core.halted = False
    machine.run()
    assert core.read_reg(Reg.A0) == 7 * 20 * 40


def test_armed_timer_suppresses_trace_execution():
    """A pending timer deadline means the per-instruction interrupt
    poll is live, so batching must stand down — and the workload still
    runs correctly one step at a time."""
    machine = _machine()
    core = _load_at(machine, _LOOP)
    machine.interrupts.arm_timer(0, 10**12)  # far future, but armed
    machine.run()
    assert core.read_reg(Reg.T0) == 500
    assert core.trace_cache.executions == 0


def test_contended_cores_suppress_trace_execution():
    """With two runnable cores the round-robin interleaving is
    observable, so each turn stays a single step."""
    machine = _machine(n_cores=2)
    machine.set_trap_handler(lambda core, trap: setattr(core, "halted", True))
    image = assemble(_LOOP, base=0x1000)
    machine.memory.write(0x1000, image.data)
    image2 = assemble(_LOOP, base=0x8000)
    machine.memory.write(0x8000, image2.data)
    for core, base in zip(machine.cores, (0x1000, 0x8000)):
        core.pc = base
        core.halted = False
    machine.run()
    assert machine.cores[0].read_reg(Reg.T0) == 500
    assert machine.cores[1].read_reg(Reg.T0) == 500
    assert machine.cores[0].trace_cache.executions == 0
    # Once core 1 halts, core 0 may batch again: verified by the fact
    # that a fresh single-core run does use traces (see above tests).


def test_trace_cache_disabled_runs_decode_only_path():
    machine = _machine(trace_cache_enabled=False)
    core = _run_at(machine, _LOOP)
    assert core.read_reg(Reg.T0) == 500
    assert core.trace_cache.built == 0
    assert core.trace_cache.executions == 0
    assert core.decode_cache.hits > 900  # decode fast path still active
