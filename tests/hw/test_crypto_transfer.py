"""Differential check of the crypto unit's line-granular operand transfer.

``Core._transfer`` moves an operand one cache-line chunk at a time while
charging every byte as a 1-byte load or store would.  Its oracle is the
per-byte loop, kept here: translate and check each byte in turn, and
write nothing until every byte has passed.  The same ``CRYPTO``
programs run on identical bare machines, one with each, under both
isolation platforms, with paging on and off and the fast path on and
off; the machines must agree on registers, traps (cause, pc, tval),
memory, cycles, TLB/L1/LLC statistics, the TRNG and the decode/trace
cache counters.
"""

import dataclasses
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.isa import CryptoFn, Instruction, Opcode, Reg
from repro.hw.machine import Machine, MachineConfig
from repro.hw.memory import PAGE_SIZE
from repro.hw.paging import PTE_R, PTE_W, PTE_X, PageTableBuilder
from repro.hw.pmp import PmpEntry, PmpPerm, Privilege
from repro.platforms.keystone import KeystonePlatform
from repro.platforms.sanctum import SanctumPlatform
from repro.util.bits import to_signed32

DRAM = 1 << 20
CODE_VADDR = 0x400000
#: The crypto operations start here in the code page, past every
#: ``("code", offset)`` operand the tests write.
OPS_OFFSET = 0x800
DATA_VADDR = 0x500000
DATA_PAGES = 6
#: Without paging the data window is DRAM from ``DATA_BASE`` on.  With
#: paging, data page -> frame; pages 3 and 5 are unmapped.  Either way
#: data page 2 is the first one in Sanctum region 3 (64 KiB regions),
#: which the core's domain does not own, and page 1 holds Keystone's
#: PMP entries.
DATA_BASE = 0x2E000
DATA_FRAMES = {0: 0x2E, 1: 0x2F, 2: 0x30, 4: 0x2D}
UNMAPPED_PAGE = 5
CODE_PPN = 0x12
DENIED_REGION = 3
REGION_BOUNDARY = 2 * PAGE_SIZE
#: Keystone: a deny entry and a read-only entry, both with boundaries
#: in the middle of a cache line of data page 1.
PMP_DENY = (DATA_BASE + PAGE_SIZE + 0x830, 0x18)
PMP_READ_ONLY = (DATA_BASE + PAGE_SIZE + 0x910, 0x40)
DOMAIN = 0
ENCLAVE = 0x9000
LOOP_ITERATIONS = 40


def per_byte_transfer(core, vaddr, length, access):
    """The oracle: each byte translated, checked and timed in turn."""
    chunks = []
    for i in range(length):
        paddr = core.translate(vaddr + i, access)
        core._checked_physical(paddr, access)
        chunks.append((paddr, 1))
    return chunks


class Rig:
    """A single-core bare machine running one ``CRYPTO`` program."""

    def __init__(self, platform: str, paging: bool, fast: bool, oracle: bool) -> None:
        config = MachineConfig(
            n_cores=1, dram_size=DRAM, decode_cache_enabled=fast, trace_cache_enabled=fast
        )
        self.machine = machine = Machine(config)
        self.core = core = machine.cores[0]
        if platform == "sanctum":
            sanctum = SanctumPlatform(machine, n_regions=16)
            sanctum.assign_region(DENIED_REGION, ENCLAVE)
        else:
            KeystonePlatform(machine)
            pmp = core.pmp
            pmp.set_entry(0, PmpEntry(*PMP_DENY, {}))
            pmp.set_entry(1, PmpEntry(*PMP_READ_ONLY, {Privilege.U: PmpPerm.R}))
            pmp.set_entry(15, PmpEntry(0, DRAM, {Privilege.U: PmpPerm.RWX}))
        if oracle:
            core._transfer = types.MethodType(per_byte_transfer, core)
        self.traps = []
        machine.set_trap_handler(self._on_trap)
        self.paging = paging
        if paging:
            frames = iter(range(0x80, 0xC0))
            tables = PageTableBuilder(machine.memory, lambda: next(frames))
            tables.map_page(CODE_VADDR, CODE_PPN, PTE_R | PTE_W | PTE_X)
            for page, ppn in DATA_FRAMES.items():
                tables.map_page(DATA_VADDR + page * PAGE_SIZE, ppn, PTE_R | PTE_W)
            core.context.paging_enabled = True
            core.context.os_root_ppn = tables.root_ppn
        core.privilege = Privilege.U
        core.domain = DOMAIN
        # Recognisable data everywhere, so a write is always visible.
        for ppn in range(0x2D, 0x34):
            machine.memory.write(ppn * PAGE_SIZE, bytes((ppn * 37 + i) & 0xFF for i in range(PAGE_SIZE)))

    def code(self) -> int:
        return CODE_VADDR if self.paging else CODE_PPN * PAGE_SIZE

    def data(self, offset: int) -> int:
        """The address of ``offset`` into the data window."""
        if self.paging:
            return DATA_VADDR + offset
        return DATA_BASE + offset

    def _on_trap(self, core, trap) -> None:
        self.traps.append((trap.cause.name, trap.pc, trap.tval))
        core.halted = True

    def run(self, ops) -> None:
        """Run a counted loop (so code is cached and traced), then each
        ``(fn, operands)``; an operand is an int or ``("data", offset)``
        or ``("code", offset)``."""
        def value(operand):
            if isinstance(operand, tuple):
                kind, offset = operand
                return self.data(offset) if kind == "data" else self.code() + offset
            return operand

        loop = [
            Instruction(Opcode.LI, Reg.T2, imm=LOOP_ITERATIONS),
            Instruction(Opcode.ADDI, Reg.A0, Reg.A0, imm=3),
            Instruction(Opcode.ADDI, Reg.T2, Reg.T2, imm=-1),
            Instruction(Opcode.BNE, 0, Reg.T2, Reg.ZERO, imm=-16),
            Instruction(Opcode.JAL, 0, imm=OPS_OFFSET - 4 * 8),
        ]
        program = []
        for fn, operands in ops:
            for reg, operand in zip((Reg.A1, Reg.A2, Reg.A3, Reg.A4), operands):
                program.append(Instruction(Opcode.LI, reg, imm=to_signed32(value(operand))))
            program.append(Instruction(Opcode.CRYPTO, imm=int(fn)))
        program.append(Instruction(Opcode.HALT))
        memory = self.machine.memory
        memory.write(CODE_PPN * PAGE_SIZE, b"".join(i.encode() for i in loop))
        memory.write(CODE_PPN * PAGE_SIZE + OPS_OFFSET, b"".join(i.encode() for i in program))
        self.core.pc = self.code()
        self.core.halted = False
        self.machine.run(max_steps=2000)

    def state(self) -> dict:
        core, machine = self.core, self.machine
        decode, trace = core.decode_cache, core.trace_cache
        return {
            "regs": list(core.regs),
            "pc": core.pc,
            "traps": list(self.traps),
            "cycles": core.cycles,
            "retired": core.instructions_retired,
            "memory": {
                frame: machine.memory.read(frame * PAGE_SIZE, PAGE_SIZE)
                for frame in machine.memory.touched_frames()
            },
            "trng": machine.trng.next_u64(),
            "tlb": (core.tlb.hits, core.tlb.misses, core.tlb.shootdowns),
            "l1": dataclasses.asdict(core.l1.stats),
            "llc": dataclasses.asdict(machine.llc.stats),
            "decode": (decode.hits, decode.misses, decode.invalidation_events,
                       decode.entries_dropped, len(decode)),
            "trace": (trace.built, trace.executions, trace.instructions, trace.aborts,
                      trace.invalidation_events, trace.entries_dropped, len(trace)),
        }


CONFIGS = [
    (platform, paging, fast)
    for platform in ("sanctum", "keystone")
    for paging in (True, False)
    for fast in (True, False)
]


def run_both(config, ops):
    """Run ``ops`` with the line-granular transfer and with the oracle."""
    states = []
    for oracle in (False, True):
        rig = Rig(*config, oracle=oracle)
        rig.run(ops)
        states.append(rig.state())
    fast, reference = states
    assert fast == reference
    return fast


def config_id(config):
    platform, paging, fast = config
    return f"{platform}-paging{int(paging)}-fast{int(fast)}"


SHA3, RANDOM = CryptoFn.SHA3_512, CryptoFn.RANDOM


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_operands_straddling_lines_and_pages(config):
    state = run_both(config, [
        (SHA3, [("data", PAGE_SIZE - 100), 200, ("data", PAGE_SIZE - 30)]),
        (RANDOM, [("data", 0x1F1), 150]),
        (CryptoFn.X25519_BASE, [("data", PAGE_SIZE - 7), ("data", 0x3FD)]),
        (CryptoFn.ED25519_SIGN, [("data", 0x20), ("data", PAGE_SIZE - 50), 90, ("data", 0xFE0)]),
    ])
    assert state["traps"] == []


@pytest.mark.parametrize("config", [c for c in CONFIGS if c[1]], ids=config_id)
def test_unmapped_second_page(config):
    unmapped = UNMAPPED_PAGE * PAGE_SIZE
    store = run_both(config, [(RANDOM, [("data", unmapped - 16), 64])])
    assert store["traps"][0][0] == "PAGE_FAULT_STORE"
    assert store["traps"][0][2] == DATA_VADDR + unmapped
    load = run_both(config, [(SHA3, [("data", unmapped - 100), 101, ("data", 0)])])
    assert load["traps"][0][0] == "PAGE_FAULT_LOAD"


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_isolation_boundary_inside_an_operand(config):
    if config[0] == "sanctum":
        boundary, read_only = REGION_BOUNDARY, None
    else:
        boundary, read_only = PMP_DENY[0] - DATA_BASE, PMP_READ_ONLY[0] - DATA_BASE
    store = run_both(config, [(RANDOM, [("data", boundary - 16), 64])])
    assert store["traps"][0][0] == "ACCESS_FAULT_STORE"
    load = run_both(config, [(SHA3, [("data", boundary - 3), 40, ("data", 0)])])
    assert load["traps"][0][0] == "ACCESS_FAULT_LOAD"
    if read_only is not None:
        # Readable but not writable: the read passes, the write faults
        # at the entry's first byte, in the middle of a line.
        ok = run_both(config, [(SHA3, [("data", read_only - 5), 0x50, ("data", 0)])])
        assert ok["traps"] == []
        write = run_both(config, [(SHA3, [("data", 0), 8, ("data", read_only - 9)])])
        assert write["traps"][0][0] == "ACCESS_FAULT_STORE"
        assert write["traps"][0][2] == PMP_READ_ONLY[0]


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_operand_over_cached_instruction_slots(config):
    # The bytes land on the loop the program just ran (slots 0-3, all
    # decoded, and traced when the fast path is on), from mid-slot 0.
    state = run_both(config, [(RANDOM, [("code", 5), 20])])
    assert state["traps"] == []
    if config[2]:
        assert state["decode"][2] > 1
        assert state["trace"][0] > 0 and state["trace"][4] > 0


operand = st.one_of(
    st.tuples(st.just("data"), st.integers(0, DATA_PAGES * PAGE_SIZE - 1)),
    st.tuples(st.just("code"), st.integers(0, 0x200)),
)
crypto_op = st.one_of(
    st.tuples(st.just(SHA3), st.tuples(operand, st.integers(0, 300), operand)),
    st.tuples(st.just(RANDOM), st.tuples(operand, st.integers(0, 300))),
    st.tuples(st.just(CryptoFn.ED25519_PUB), st.tuples(operand, operand)),
    st.tuples(st.just(CryptoFn.X25519_BASE), st.tuples(operand, operand)),
)


@given(st.sampled_from(CONFIGS), st.lists(crypto_op, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_random_operands_match_the_per_byte_oracle(config, ops):
    run_both(config, ops)
