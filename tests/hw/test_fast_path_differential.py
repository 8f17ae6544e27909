"""Differential check of the interpreter fast paths.

Hypothesis generates SVM-32 programs that loop long enough to compile
traces and that store into their own code page: data stores past the
code, and self-modifying byte and word stores ahead of (and behind) pc.
Each example is a sequence of runs separated by the SM's core clean,
switching between protection domains and reusing one domain with its
code relocated to another frame or its evrange changed.  The whole
sequence runs three ways — reference interpreter, decode cache only,
decode + trace cache — and must agree on registers, pc, traps, memory,
cycles, retired instructions, global steps and TLB/L1/LLC statistics.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import PartitionedLlc
from repro.hw.isa import Instruction, Opcode, Reg
from repro.hw.machine import Machine, MachineConfig
from repro.hw.memory import PAGE_SIZE
from repro.hw.paging import PTE_R, PTE_W, PTE_X, PageTableBuilder

CODE_VADDR = 0x400000
DATA_VADDR = CODE_VADDR + PAGE_SIZE
#: Physical frames the code may be loaded into (relocation targets).
CODE_PPNS = (0x10, 0x11, 0x12)
DATA_PPN = 0x20
#: Protection domains: the untrusted one (OS tables, no evrange) and
#: two enclave-like ones with their own tables.
DOMAINS = (0, 0x9000, 0xA000)
#: Enclave evranges: two that hold code and data, and one that holds
#: only the data page (code is then fetched through the OS tables).
EVRANGES = ((CODE_VADDR, 0x10000), (CODE_VADDR, 0x20000), (DATA_VADDR, 0x10000))
STEP_BUDGET = 1200

_DATA_REGS = (Reg.T0, Reg.T1, Reg.A0, Reg.A1, Reg.A2, Reg.A3, Reg.A4, Reg.A5)
_ALU = (Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.AND, Opcode.OR, Opcode.MUL,
        Opcode.SLL, Opcode.SRL, Opcode.SLTU)

reg = st.sampled_from(_DATA_REGS)


def _op(opcode, rd=0, rs1=0, rs2=0, imm=0):
    """One instruction as a tuple; ``_encode`` builds the encoding."""
    return [(opcode, int(rd), int(rs1), int(rs2), imm)]


#: Marks a store whose offset points into the program's own code; the
#: generated offset is reduced modulo the code length at encode time.
_PATCH = "patch"

alu = st.builds(lambda op, rd, a, b: _op(op, rd, a, b), st.sampled_from(_ALU), reg, reg, reg)
addi = st.builds(
    lambda rd, a, imm: _op(Opcode.ADDI, rd, a, imm=imm), reg, reg, st.integers(-50, 50)
)
li = st.builds(lambda rd, imm: _op(Opcode.LI, rd, imm=imm), reg, st.integers(0, 1 << 20))
load = st.builds(
    lambda op, rd, base, off: _op(op, rd, base, imm=off),
    st.sampled_from((Opcode.LW, Opcode.LBU)),
    reg,
    st.sampled_from((Reg.A6, Reg.A7)),
    st.integers(0, PAGE_SIZE - 4),
)
#: Data store: to the data page, or into the code page past the code.
data_store = st.builds(
    lambda op, src, base, off: _op(op, 0, base, src, imm=off),
    st.sampled_from((Opcode.SW, Opcode.SB)),
    reg,
    st.sampled_from((Reg.A6, Reg.A7)),
    st.integers(0x800, PAGE_SIZE - 4),
)
#: Self-modifying store into the program's own instruction slots, ahead
#: of or behind pc: a fixed byte/word, or one that changes every
#: iteration (the loop counter t2, a data register), so code compiled
#: into a trace goes stale while the loop runs.
fixed_patch = st.builds(
    lambda op, off, value: _op(Opcode.LI, Reg.A5, imm=value)
    + _op(op, 0, Reg.A6, Reg.A5, imm=(_PATCH, off)),
    st.sampled_from((Opcode.SB, Opcode.SW)),
    st.integers(0, 1 << 12),
    st.one_of(st.integers(0, 40), st.integers(0, (1 << 31) - 1)),
)
moving_patch = st.builds(
    lambda op, src, off: _op(op, 0, Reg.A6, src, imm=(_PATCH, off)),
    st.sampled_from((Opcode.SB, Opcode.SW)),
    st.one_of(st.just(Reg.T2), reg),
    st.integers(0, 1 << 12),
)
code_patch = st.one_of(fixed_patch, moving_patch)
fence = st.just(_op(Opcode.FENCE))
body_op = st.one_of(alu, addi, li, load, data_store, code_patch, fence)

program = st.builds(
    lambda iterations, body, tail: (iterations, sum(body, []), sum(tail, [])),
    st.integers(16, 40),
    st.lists(body_op, min_size=1, max_size=6),
    st.lists(body_op, max_size=3),
)


def _encode(iterations, body, tail) -> bytes:
    """Lay out prologue, counted loop, tail and halt; resolve patches."""
    prologue = (
        _op(Opcode.LI, Reg.T2, imm=iterations)
        + _op(Opcode.LI, Reg.A6, imm=CODE_VADDR)
        + _op(Opcode.LI, Reg.A7, imm=DATA_VADDR)
    )
    loop = (
        body
        + _op(Opcode.ADDI, Reg.T2, Reg.T2, imm=-1)
        + _op(Opcode.BNE, 0, Reg.T2, Reg.ZERO, imm=-8 * (len(body) + 1))
    )
    ops = prologue + loop + tail + _op(Opcode.HALT)
    code_len = 8 * len(ops)
    out = b""
    for opcode, rd, rs1, rs2, imm in ops:
        if isinstance(imm, tuple):
            imm = imm[1] % code_len
            if opcode is Opcode.SW:
                imm = min(imm, code_len - 4)
        out += Instruction(opcode, rd, rs1, rs2, imm).encode()
    return out


run_plan = st.builds(
    lambda domain, evrange, frame, reload, prog: (domain, evrange, frame, reload, prog),
    st.sampled_from(range(len(DOMAINS))),
    st.sampled_from(range(len(EVRANGES))),
    st.sampled_from(range(len(CODE_PPNS))),
    st.booleans(),
    program,
)


class _Harness:
    """One single-core machine with OS and per-domain page tables."""

    def __init__(self, decode: bool, trace: bool) -> None:
        config = MachineConfig(
            n_cores=1, dram_size=1 << 20,
            decode_cache_enabled=decode, trace_cache_enabled=trace,
        )
        self.machine = Machine(config)
        self.machine.install_llc(
            PartitionedLlc(n_sets=64, n_ways=4, region_size=1 << 16, n_regions=16,
                           partitioned=False)
        )
        self.traps = []
        self.machine.set_trap_handler(self._on_trap)
        frames = iter(range(0x80, 0x100))
        self.tables = {
            domain: PageTableBuilder(self.machine.memory, lambda: next(frames))
            for domain in DOMAINS
        }
        self.core = self.machine.cores[0]

    def _on_trap(self, core, trap) -> None:
        self.traps.append((trap.cause.name, trap.pc, trap.tval))
        core.halted = True

    def run(self, domain_index, evrange_index, frame_index, reload, code) -> None:
        domain = DOMAINS[domain_index]
        code_ppn = CODE_PPNS[frame_index]
        if reload:
            self.machine.memory.write(code_ppn * PAGE_SIZE, code)
        tables = self.tables[domain]
        tables.map_page(CODE_VADDR, code_ppn, PTE_R | PTE_W | PTE_X)
        tables.map_page(DATA_VADDR, DATA_PPN, PTE_R | PTE_W)
        core = self.core
        core.clean_architectural_state()
        core.domain = domain
        context = core.context
        context.paging_enabled = True
        context.os_root_ppn = self.tables[0].root_ppn
        context.enclave_root_ppn = tables.root_ppn
        context.evrange = EVRANGES[evrange_index] if domain else None
        core.pc = CODE_VADDR
        core.halted = False
        self.machine.run(max_steps=STEP_BUDGET)

    def state(self) -> dict:
        core, machine = self.core, self.machine
        memory = machine.memory
        return {
            "regs": list(core.regs),
            "pc": core.pc,
            "halted": core.halted,
            "traps": list(self.traps),
            "cycles": core.cycles,
            "retired": core.instructions_retired,
            "global_steps": machine.global_steps,
            "memory": {
                frame: memory.read(frame * PAGE_SIZE, PAGE_SIZE)
                for frame in memory.touched_frames()
            },
            "tlb": (core.tlb.hits, core.tlb.misses, core.tlb.shootdowns),
            "l1": dataclasses.asdict(core.l1.stats),
            "llc": dataclasses.asdict(machine.llc.stats),
        }


def _execute(plans, decode, trace):
    harness = _Harness(decode, trace)
    states = []
    for domain, evrange, frame, reload, prog in plans:
        harness.run(domain, evrange, frame, reload, _encode(*prog))
        states.append(harness.state())
    return states, harness


@given(st.lists(run_plan, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_fast_paths_match_the_reference_interpreter(plans):
    # A frame's first use always loads code into it.
    loaded, runs = set(), []
    for domain, evrange, frame, reload, prog in plans:
        runs.append((domain, evrange, frame, reload or frame not in loaded, prog))
        loaded.add(frame)
    reference, _ = _execute(runs, decode=False, trace=False)
    decode_only, _ = _execute(runs, decode=True, trace=False)
    assert decode_only == reference
    traced, _ = _execute(runs, decode=True, trace=True)
    assert traced == reference


def test_relocated_code_under_a_reused_domain_matches_reference():
    """A fixed plan sure to compile, keep and then relocate traces: one
    loop shape with two step sizes in two frames, run alternately by
    one domain with no reload in between, then by a second domain and
    under a changed evrange."""
    def step(size):
        return _op(Opcode.ADDI, Reg.A0, Reg.A0, imm=size)

    plans = [
        (1, 0, 0, True, (30, step(1), [])),
        (1, 0, 1, True, (30, step(5), [])),
        (1, 0, 0, False, (30, step(1), [])),
        (2, 0, 0, False, (30, step(1), [])),
        (1, 1, 1, False, (30, step(5), [])),
    ]
    reference, _ = _execute(plans, decode=False, trace=False)
    traced, harness = _execute(plans, decode=True, trace=True)
    assert traced == reference
    assert [state["regs"][Reg.A0] for state in traced] == [30, 150, 30, 30, 150]
    tcache = harness.core.trace_cache
    # Runs 2, 3 and 5 each find domain 1's trace stale and drop it.
    assert tcache.entries_dropped >= 3
    assert tcache.instructions > 200
    assert tcache.aborts == 0
