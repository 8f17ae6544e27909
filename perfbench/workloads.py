"""The benchmark's three workloads.

Each workload turns a seed into inputs (host-side, with
:class:`random.Random`), builds fresh simulated machines from them in
:meth:`Workload.setup`, and then serves a closed loop of operations,
one outstanding at a time, through :meth:`Instance.op`.  Every
operation checks its own outputs and returns the problems it found;
an empty list means the operation succeeded.

* ``fleet_mix`` — the job a fleet client waits for: Fig.-7 remote
  attestation, two sealed channel updates, and on one client in four
  the Fig.-6 local attestation, alternating between one Sanctum and one
  Keystone machine (both run local attestation) and counted only once
  the verifier accepts the report.  Crypto does most of the host work.
* ``preempt_compute`` — four enclaves time-sliced over the two cores of
  a Sanctum machine: two ALU loops and two pointer walks over a private
  array four times the simulated L1.  The interpreter and the
  TLB/L1/LLC model do the work, with an AEX and core clean every slice.
* ``mailbox_pingpong`` — two Keystone enclaves on the two cores trade
  messages through SM mailboxes, retrying until each call succeeds:
  mostly SM dispatch and trap delivery, with SM writes landing in the
  enclaves' code pages.
"""

from __future__ import annotations

import copy
import random

from repro.errors import ApiResult
from repro.fleet.verify import CachedChainVerifier
from repro.fleet.worker import FLEET_MACHINE_CONFIG, MachineServer
from repro.hw.cache import LINE_SIZE as LINE
from repro.hw.core import DOMAIN_UNTRUSTED
from repro.hw.machine import MachineConfig
from repro.kernel.loader import image_from_assembly
from repro.kernel.scheduler import SmpScheduler
from repro.sdk.measure import predict_measurement
from repro.sdk.runtime import exit_sequence, with_runtime
from repro.sm.api import EnclaveEcall
from repro.sm.attestation import MEASUREMENT_SIZE, AttestationReport
from repro.sm.events import OsEventKind
from repro.system import build_keystone_system, build_sanctum_system

MASK32 = 0xFFFFFFFF


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten(f"{prefix}.{index}", item, out)
    else:
        out[prefix] = value


def machine_counters(machine) -> dict:
    """Deterministic counters of one machine, flattened to dotted names.

    The perf snapshot minus its host-time API latency table: simulated
    cycles, global steps, instructions, decode/trace-cache, TLB, L1,
    LLC and trap counters.
    """
    snapshot = machine.perf.snapshot()
    snapshot.pop("api")
    out: dict = {}
    _flatten("", snapshot, out)
    return out


def words_of(data: bytes) -> str:
    """``.word`` operands for ``data``, little-endian, zero padded."""
    return ", ".join(
        str(int.from_bytes(data[i : i + 4].ljust(4, b"\0"), "little"))
        for i in range(0, len(data), 4)
    )


class Instance:
    """One set-up copy of a workload, ready to serve operations."""

    def machines(self) -> list:
        raise NotImplementedError

    def op(self, index: int) -> list[str]:
        raise NotImplementedError

    def deterministic(self) -> dict:
        """Every deterministic output so far, flattened to dotted names."""
        out: dict = {}
        for i, machine in enumerate(self.machines()):
            for key, value in machine_counters(machine).items():
                out[f"m{i}.{key}"] = value
        return out


# ----------------------------------------------------------------------
# fleet_mix
# ----------------------------------------------------------------------


class FleetInstance(Instance):
    def __init__(self, workload: "FleetMix") -> None:
        self.workload = workload
        self.servers = []
        self.identities = []
        for index, (platform, trng_seed) in enumerate(workload.machine_seeds):
            server = MachineServer(
                {
                    "index": index,
                    "platform": platform,
                    "trng_seed": trng_seed,
                    "device_id": f"perfbench-{platform}-{trng_seed:016x}",
                }
            )
            self.identities.append(server.boot())
            self.servers.append(server)
        self.verifier = CachedChainVerifier()

    def machines(self) -> list:
        return [server.system.machine for server in self.servers]

    def op(self, index: int) -> list[str]:
        job = self.workload.job(index)
        machine_index = self.workload.machine_of(index)
        result = self.servers[machine_index].serve_client(job)
        return check_fleet_job(job, result, self.identities[machine_index], self.verifier)

    def deterministic(self) -> dict:
        out = super().deterministic()
        for i, server in enumerate(self.servers):
            # Digesting finalizes the running transcript: digest a copy.
            out[f"m{i}.transcript"] = copy.deepcopy(server._transcript).hexdigest()
            out[f"m{i}.audit_head"] = server.system.sm.audit.head_hex
            out[f"m{i}.jobs_served"] = server.jobs_served
        out["verifier.chain_verifications"] = self.verifier.chain_verifications
        out["verifier.chain_cache_hits"] = self.verifier.chain_cache_hits
        return out


def check_fleet_job(job: dict, result: dict, identity: dict, verifier) -> list[str]:
    """The verifier's acceptance test for one served fleet job."""
    problems = []
    report = AttestationReport.from_bytes(result["report"])
    verification = verifier.verify(
        report,
        identity["root_public"],
        expected_nonce=job["nonce"],
        expected_enclave_measurement=result["expected_enclave_measurement"],
        expected_sm_measurement=identity["sm_measurement"],
    )
    if not verification.ok:
        problems.append(f"client {job['client_id']}: report rejected: {verification.reason}")
    if not result["channel_ok"]:
        problems.append(f"client {job['client_id']}: channel-key proof mismatch")
    expected = [job["client_id"] * 1000 + i + 1 for i in range(job["channel_updates"])]
    if result["channel_values"] != expected:
        problems.append(
            f"client {job['client_id']}: channel values "
            f"{result['channel_values']} != {expected}"
        )
    if job["local_attest"] and result["local_ok"] is not True:
        problems.append(f"client {job['client_id']}: local attestation not authenticated")
    return problems


class FleetMix:
    name = "fleet_mix"
    prefix_ops = 4
    #: One Sanctum and one Keystone machine; jobs alternate between them.
    platforms = ("sanctum", "keystone")
    #: Clients (job index mod 8) that also run Fig.-6 local attestation:
    #: one in four, on each machine in turn (0 is Sanctum's, 3 is
    #: Keystone's), so the deterministic prefix covers both platforms.
    local_attest_slots = (0, 3)

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"fleet_mix/{seed}")
        seeds: list[int] = []
        while len(seeds) < len(self.platforms):
            candidate = rng.getrandbits(64)
            if candidate not in seeds:
                seeds.append(candidate)
        self.machine_seeds = list(zip(self.platforms, seeds))
        # Client ids of 1 to 6 digits: the Fig.-6 message names the
        # client, so its length (and the simulated work) varies a little.
        self.client_base = rng.randrange(10 ** rng.randrange(1, 7))
        self._rng = rng
        self._jobs: list[dict] = []

    def job(self, index: int) -> dict:
        """Client job ``index``; inputs are drawn in order, so stable per seed."""
        while len(self._jobs) <= index:
            i = len(self._jobs)
            self._jobs.append(
                {
                    "client_id": self.client_base + i,
                    "nonce": self._rng.randbytes(32),
                    "verifier_seed": self._rng.randbytes(32),
                    "channel_updates": 2,
                    "local_attest": i % 8 in self.local_attest_slots,
                }
            )
        return self._jobs[index]

    def machine_of(self, index: int) -> int:
        """The machine that serves job ``index``: jobs alternate."""
        return index % len(self.platforms)

    def setup(self) -> FleetInstance:
        return FleetInstance(self)


# ----------------------------------------------------------------------
# preempt_compute
# ----------------------------------------------------------------------

#: The walked array is four times the simulated L1 of the default geometry.
WALK_LINES = 4 * MachineConfig.l1_sets * MachineConfig.l1_ways
WALK_STEPS = WALK_LINES // 4
ALU_ITERATIONS = 700
LCG_MUL, LCG_ADD = 1103515245, 12345
SLICE_CYCLES = 3000


def alu_source(out_addr: int, x0: int) -> str:
    return with_runtime(
        f"""
main:
    li   t0, {x0}
    li   t1, {ALU_ITERATIONS}
    li   t2, {LCG_MUL}
loop:
    mul  t0, t0, t2
    addi t0, t0, {LCG_ADD}
    addi t1, t1, -1
    bne  t1, zero, loop
    sw   t0, {out_addr}(zero)
{exit_sequence()}"""
    )


def alu_reference(x0: int) -> int:
    x = x0
    for _ in range(ALU_ITERATIONS):
        x = (x * LCG_MUL + LCG_ADD) & MASK32
    return x


def walker_source(out_addr: int, next_offset: list[int], values: list[int], start: int) -> str:
    """Pointer walk over a private array; the position persists across runs.

    Line ``i`` of the array holds the byte offset of the next line and a
    value; each run takes ``WALK_STEPS`` steps from where the previous
    run stopped and publishes the sum of the values it visited.
    """
    array = "\n".join(
        f"    .word {nxt}, {val}\n    .zero {LINE - 8}"
        for nxt, val in zip(next_offset, values)
    )
    return with_runtime(
        f"""
main:
    li   t2, position
    lw   t0, 0(t2)
    li   t1, {WALK_STEPS}
    li   a4, 0
loop:
    li   t2, array
    add  t2, t2, t0
    lw   a5, 4(t2)
    add  a4, a4, a5
    lw   t0, 0(t2)
    addi t1, t1, -1
    bne  t1, zero, loop
    li   t2, position
    sw   t0, 0(t2)
    sw   a4, {out_addr}(zero)
{exit_sequence()}
    .align {LINE}
position:
    .word {start}
    .align {LINE}
array:
{array}
"""
    )


class Walk:
    """Host-side model of one walker enclave's array and position."""

    def __init__(self, rng: random.Random) -> None:
        order = list(range(WALK_LINES))
        rng.shuffle(order)
        self.next_offset = [0] * WALK_LINES
        for i, line in enumerate(order):
            self.next_offset[line] = order[(i + 1) % WALK_LINES] * LINE
        self.values = [rng.getrandbits(32) for _ in range(WALK_LINES)]
        self.start = order[0] * LINE
        self._position = self.start
        self._sums: list[int] = []

    def expected_sum(self, run: int) -> int:
        """The sum the walker publishes on its ``run``-th entry (from 0)."""
        while len(self._sums) <= run:
            total, position = 0, self._position
            for _ in range(WALK_STEPS):
                line = position // LINE
                total = (total + self.values[line]) & MASK32
                position = self.next_offset[line]
            self._position = position
            self._sums.append(total)
        return self._sums[run]


class PreemptInstance(Instance):
    def __init__(self, workload: "PreemptCompute") -> None:
        self.workload = workload
        self.system = build_sanctum_system(
            config=MachineConfig(**FLEET_MACHINE_CONFIG),
            trng_seed=workload.trng_seed,
            device_id="perfbench-preempt",
        )
        kernel = self.system.kernel
        self.tasks = []
        for index in range(4):
            out = kernel.alloc_buffer(1)
            if index < 2:
                source = alu_source(out, workload.alu_seeds[index])
            else:
                walk = workload.walks[index - 2]
                source = walker_source(out, walk.next_offset, walk.values, walk.start)
            image = image_from_assembly(
                source, evrange_base=0x40000000 + index * 0x1000000, entry_symbol="_start"
            )
            self.tasks.append((kernel.load_enclave(image), out))

    def machines(self) -> list:
        return [self.system.machine]

    def op(self, index: int) -> list[str]:
        kernel = self.system.kernel
        memory = self.system.machine.memory
        for _, out in self.tasks:
            memory.write_u32(out, 0)
        scheduler = SmpScheduler(kernel, slice_cycles=SLICE_CYCLES)
        for loaded, _ in self.tasks:
            scheduler.add(loaded.eid, loaded.tids[0])
        trace = scheduler.run()
        observed = [memory.read_u32(out) for _, out in self.tasks]
        return check_preempt(self.workload.expected(index), observed, trace.voluntary_exits)


def check_preempt(expected: list[int], observed: list[int], exits: int) -> list[str]:
    """Each enclave's published result against the host-side value."""
    problems = []
    if exits != len(expected):
        problems.append(f"{exits} of {len(expected)} enclaves exited")
    for index, (want, got) in enumerate(zip(expected, observed)):
        if want != got:
            problems.append(f"enclave {index}: result {got:#x} != {want:#x}")
    return problems


class PreemptCompute:
    name = "preempt_compute"
    prefix_ops = 4

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"preempt_compute/{seed}")
        self.trng_seed = rng.getrandbits(64)
        self.alu_seeds = [rng.getrandbits(31) for _ in range(2)]
        self.walks = [Walk(rng) for _ in range(2)]
        self._alu = [alu_reference(x0) for x0 in self.alu_seeds]

    def expected(self, index: int) -> list[int]:
        """Published results of operation ``index`` (walks continue)."""
        return self._alu + [walk.expected_sum(index) for walk in self.walks]

    def setup(self) -> PreemptInstance:
        return PreemptInstance(self)


# ----------------------------------------------------------------------
# mailbox_pingpong
# ----------------------------------------------------------------------

#: Message rounds per operation (both enclaves entered once).
PINGPONG_ROUNDS = 20


def pingpong_source(shared: int, payload: bytes, initiator: bool) -> str:
    """One side of the ping-pong; the initiator sends first each round.

    Shared page: 0x00 peer eid (in), 0x04 rounds (in), 0x40 rounds done
    (out), 0x80 last message received then the sender's measurement
    (out).  The receive buffers share the code page on purpose: the
    SM's ``get_mail`` writes land in a page holding instructions.
    """
    length = len(payload)
    accept = f"""
accept:
    li   a0, {int(EnclaveEcall.ACCEPT_MAIL)}
    li   a1, 0
    lw   a2, {shared}(zero)
    ecall
    bne  a0, zero, accept
"""
    send = f"""
    li   t0, message
    sw   a6, 0(t0)
send:
    li   a0, {int(EnclaveEcall.SEND_MAIL)}
    lw   a1, {shared}(zero)
    li   a2, message
    li   a3, {length}
    ecall
    bne  a0, zero, send
"""
    receive = f"""
receive:
    li   a0, {int(EnclaveEcall.GET_MAIL)}
    li   a1, 0
    li   a2, inbox
    li   a3, sender
    ecall
    bne  a0, zero, receive
"""
    body = accept + (send + receive if initiator else receive + send)
    return f"""
_start:
    li   a6, 0
round:
{body}
    addi a6, a6, 1
    sw   a6, {shared + 0x40}(zero)
    lw   t0, {shared + 4}(zero)
    bltu a6, t0, round
    li   t0, 0
export:
    li   t1, inbox
    add  t1, t1, t0
    lw   t2, 0(t1)
    li   t1, {shared + 0x80}
    add  t1, t1, t0
    sw   t2, 0(t1)
    addi t0, t0, 4
    li   t1, {length + MEASUREMENT_SIZE}
    bltu t0, t1, export
    li   a0, {int(EnclaveEcall.EXIT_ENCLAVE)}
    ecall
    .align 8
message:
    .word {words_of(payload)}
inbox:
    .zero {length}
sender:
    .zero {MEASUREMENT_SIZE}
"""


class PingPongInstance(Instance):
    def __init__(self, workload: "MailboxPingPong") -> None:
        self.workload = workload
        system = build_keystone_system(
            config=MachineConfig(**FLEET_MACHINE_CONFIG),
            trng_seed=workload.trng_seed,
            device_id="perfbench-pingpong",
        )
        self.system = system
        kernel = system.kernel
        self.pages = [kernel.alloc_buffer(1) for _ in range(2)]
        images = [
            image_from_assembly(
                pingpong_source(page, payload, initiator=(side == 0)),
                evrange_base=0x44000000 + side * 0x4000000,
                entry_symbol="_start",
            )
            for side, (page, payload) in enumerate(zip(self.pages, workload.payloads))
        ]
        self.enclaves = [kernel.load_enclave(image) for image in images]
        self.measurements = [
            predict_measurement(image, system.boot.sm_measurement, system.platform.name)
            for image in images
        ]
        rounds = PINGPONG_ROUNDS.to_bytes(4, "little")
        for side, page in enumerate(self.pages):
            peer = self.enclaves[1 - side].eid
            kernel.write_shared(page, peer.to_bytes(4, "little") + rounds)

    def machines(self) -> list:
        return [self.system.machine]

    def op(self, index: int) -> list[str]:
        sm, machine, kernel = self.system.sm, self.system.machine, self.system.kernel
        for core_id, loaded in enumerate(self.enclaves):
            result = sm.enter_enclave(DOMAIN_UNTRUSTED, loaded.eid, loaded.tids[0], core_id)
            if result is not ApiResult.OK:
                return [f"enter_enclave on core {core_id}: {result.name}"]
        machine.run(max_steps=2_000_000)
        problems = []
        for side, page in enumerate(self.pages):
            events = sm.os_events.drain(side)
            if [event.kind for event in events] != [OsEventKind.ENCLAVE_EXIT]:
                problems.append(f"core {side}: events {events}")
            peer = 1 - side
            payload = self.workload.payloads[peer]
            problems += check_pingpong(
                side,
                machine.memory.read_u32(page + 0x40),
                kernel.read_shared(page + 0x80, len(payload)),
                kernel.read_shared(page + 0x80 + len(payload), MEASUREMENT_SIZE),
                self.workload.last_message(peer),
                self.measurements[peer],
            )
        return problems


def check_pingpong(
    side: int, rounds: int, message: bytes, sender: bytes, want_message: bytes, want_sender: bytes
) -> list[str]:
    """One side's round count, last message and recorded sender."""
    problems = []
    if rounds != PINGPONG_ROUNDS:
        problems.append(f"side {side}: {rounds} rounds, expected {PINGPONG_ROUNDS}")
    if message != want_message:
        problems.append(f"side {side}: last message {message.hex()} != {want_message.hex()}")
    if sender != want_sender:
        problems.append(f"side {side}: recorded sender measurement is not the peer's")
    return problems


class MailboxPingPong:
    name = "mailbox_pingpong"
    prefix_ops = 8

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"mailbox_pingpong/{seed}")
        self.trng_seed = rng.getrandbits(64)
        length = 4 * rng.randrange(12, 15)
        self.payloads = [rng.randbytes(length) for _ in range(2)]

    def last_message(self, side: int) -> bytes:
        """What ``side`` sends in the final round: its round index in word 0."""
        return (PINGPONG_ROUNDS - 1).to_bytes(4, "little") + self.payloads[side][4:]

    def setup(self) -> PingPongInstance:
        return PingPongInstance(self)


WORKLOADS = {w.name: w for w in (FleetMix, PreemptCompute, MailboxPingPong)}
