"""Wrong outputs count as failures; divergence and deadlines are named."""

import dataclasses
import math
import time

import pytest

import run
from layers import LayerTracer
from workloads import (
    FleetMix,
    PINGPONG_ROUNDS,
    WALK_LINES,
    WALK_STEPS,
    PreemptCompute,
    alu_reference,
    check_fleet_job,
    check_pingpong,
    check_preempt,
)


@pytest.fixture(scope="module")
def served_job():
    """One real fleet job on a Sanctum machine, with its verifier inputs."""
    workload = FleetMix(seed=5)
    instance = workload.setup()
    job = workload.job(0)
    result = instance.servers[0].serve_client(job)
    return job, result, instance.identities[0], instance.verifier


def test_genuine_fleet_job_passes(served_job):
    job, result, identity, verifier = served_job
    assert check_fleet_job(job, result, identity, verifier) == []


def test_wrong_nonce_is_a_failure(served_job):
    job, result, identity, verifier = served_job
    tampered = dict(job, nonce=bytes(32))
    problems = check_fleet_job(tampered, result, identity, verifier)
    assert problems and "report rejected" in problems[0]


def test_wrong_enclave_measurement_is_a_failure(served_job):
    job, result, identity, verifier = served_job
    tampered = dict(result, expected_enclave_measurement=bytes(64))
    assert check_fleet_job(job, tampered, identity, verifier)


def test_wrong_channel_value_and_failed_local_attestation(served_job):
    job, result, identity, verifier = served_job
    values = list(result["channel_values"])
    values[-1] += 1
    assert check_fleet_job(job, dict(result, channel_values=values), identity, verifier)
    assert job["local_attest"]
    assert check_fleet_job(job, dict(result, local_ok=False), identity, verifier)


def test_both_machines_serve_local_attestation_in_the_prefix():
    for seed in range(5):
        workload = FleetMix(seed)
        local = [i for i in range(FleetMix.prefix_ops) if workload.job(i)["local_attest"]]
        assert {workload.machine_of(i) for i in local} == {0, 1}
        jobs = [workload.job(i) for i in range(800)]
        assert sum(job["local_attest"] for job in jobs) == 200


def test_wrong_enclave_result_is_a_failure():
    workload = PreemptCompute(seed=3)
    expected = workload.expected(0)
    assert expected[:2] == [alu_reference(x) for x in workload.alu_seeds]
    assert check_preempt(expected, list(expected), 4) == []
    tampered = list(expected)
    tampered[2] ^= 1
    assert check_preempt(expected, tampered, 4) == [
        f"enclave 2: result {tampered[2]:#x} != {expected[2]:#x}"
    ]
    assert check_preempt(expected, list(expected), 3)


def test_walks_continue_across_operations():
    workload = PreemptCompute(seed=3)
    walk = workload.walks[0]
    runs_per_cycle = WALK_LINES // WALK_STEPS
    first_cycle = [walk.expected_sum(i) for i in range(runs_per_cycle)]
    # A full cycle visits every line once, whichever run it starts in.
    assert sum(first_cycle) & 0xFFFFFFFF == sum(walk.values) & 0xFFFFFFFF
    assert walk.expected_sum(runs_per_cycle) == first_cycle[0]


def test_wrong_pingpong_outputs_are_failures():
    good = (PINGPONG_ROUNDS, b"m" * 8, b"s" * 64, b"m" * 8, b"s" * 64)
    assert check_pingpong(0, *good) == []
    assert check_pingpong(0, PINGPONG_ROUNDS - 1, *good[1:])
    assert check_pingpong(0, good[0], b"x" * 8, *good[2:])
    assert check_pingpong(0, *good[:2], b"t" * 64, *good[3:])


@dataclasses.dataclass
class FakeInstance:
    """An instance whose operations fail on chosen indices."""

    failing: set
    cost_s: float = 0.0
    #: Called with each operation's index.
    on_op: object = None

    def machines(self):
        return []

    def deterministic(self):
        return {}

    def op(self, index):
        time.sleep(self.cost_s)
        if self.on_op is not None:
            self.on_op(index)
        return ["wrong nonce"] if index in self.failing else []


def fake_workload():
    workload = dataclasses.make_dataclass("W", [])()
    workload.name, workload.prefix_ops = "fake", 4
    return workload


def test_serve_counts_failed_operations():
    loop = run.Loop(fake_workload(), FakeInstance({1, 3}), run.Phase("fake"), "timed")
    loop.serve()
    assert len(loop.latencies_ns) == 4
    assert loop.failed == 2
    assert loop.problems == ["op 1: wrong nonce", "op 3: wrong nonce"]
    # A failed operation misses every latency limit.
    assert math.isinf(loop.latencies_ns[1]) and math.isinf(loop.latencies_ns[3])


def test_stretches_add_up():
    loop = run.Loop(fake_workload(), FakeInstance(set()), run.Phase("fake"), "timed")
    loop.serve(until=2)
    loop.serve(until=6)
    assert loop.ops == 6 and loop.prefix_record == {}
    first = loop.wall
    loop.serve(seconds=0)
    assert loop.ops == 7 and loop.wall >= first


class FakeInstallation:
    def __init__(self):
        self.applied = True

    def apply(self):
        self.applied = True

    def undo(self):
        self.applied = False


def test_alternate_serves_the_same_operations_traced_and_untraced():
    installation = FakeInstallation()
    seen = {True: [], False: []}

    def record(traced):
        def on_op(index):
            assert installation.applied is traced
            seen[traced].append(index)

        return on_op

    workload, phase = fake_workload(), run.Phase("fake")
    traced = run.Loop(
        workload, FakeInstance(set(), 0.002, record(True)), phase, "traced", LayerTracer()
    )
    untraced = run.Loop(workload, FakeInstance(set(), 0.001, record(False)), phase, "untraced")
    run.alternate(traced, untraced, installation, seconds=0.05)
    assert seen[True] == seen[False] == list(range(traced.ops))
    assert traced.ops >= workload.prefix_ops
    assert traced.wall + untraced.wall >= 0.05
    assert not installation.applied and not traced.tracer.keeping


def test_divergence_names_the_field():
    assert run.first_divergence({"a": 1, "b": 2}, {"a": 1, "b": 2}) is None
    assert run.first_divergence({"a": 1, "b": 2}, {"a": 1, "b": 3}) == "b: 2 != 3"
    assert run.first_divergence({"a": 1}, {}) == "a: 1 != '<missing>'"


def test_deadline_names_workload_and_last_span():
    phase = run.Phase("fake")
    phase.name = "timed op 3"
    run.arm_deadline(phase, 0.05)
    try:
        with pytest.raises(run.DeadlineExpired) as info:
            while True:
                pass
    finally:
        run.signal.setitimer(run.signal.ITIMER_REAL, 0)
    assert "workload fake" in str(info.value)
    assert "timed op 3" in str(info.value)
