"""The fleet harness end to end: serve, verify, stay deterministic."""

import multiprocessing
import time

import pytest

from repro.fleet import FleetSpec, harness, run_fleet
from repro.fleet.harness import FleetError
from repro.fleet.bench import run_fleet_bench


@pytest.fixture(scope="module")
def small_fleet():
    """2 machines × 4 clients, full workload mix, inline backend."""
    return run_fleet(
        FleetSpec(n_machines=2, clients=4, platform="sanctum",
                  fleet_seed=11, channel_updates=2, local_attest_every=2,
                  mode="inline")
    )


def test_every_attestation_verifies_cross_machine(small_fleet):
    assert small_fleet.attestations == 4
    assert small_fleet.all_verified, small_fleet.failures
    assert small_fleet.p99_attest_ms >= small_fleet.p50_attest_ms > 0


def test_fleet_machines_carry_distinct_identities(small_fleet):
    assert small_fleet.distinct_identities
    roots = {m["root_public"] for m in small_fleet.machines}
    assert len(roots) == 2


def test_negative_probes_rejected(small_fleet):
    assert small_fleet.replay_rejected is True
    assert small_fleet.splice_rejected is True


def test_chain_verification_amortized(small_fleet):
    """4 requests from 2 machines: 2 chain checks for the requests
    (plus the replay probe's failed attempt), the rest cache hits."""
    assert small_fleet.chain_verifications == 3
    assert small_fleet.chain_cache_hits >= 2


def test_workload_mix_executed(small_fleet):
    jobs = sum(m["jobs_served"] for m in small_fleet.machines)
    assert jobs == 4
    assert all(m["global_steps"] > 0 for m in small_fleet.machines)


def test_same_seed_same_transcript():
    """Per-machine determinism: same machine seed → bit-identical
    transcript, independent of host timing."""
    spec = FleetSpec(n_machines=1, clients=2, platform="sanctum",
                     fleet_seed=33, channel_updates=1, local_attest_every=2,
                     mode="inline")
    first = run_fleet(spec)
    second = run_fleet(spec)
    assert first.transcripts == second.transcripts
    assert first.transcripts[0] != ""


def test_different_fleet_seed_different_transcript():
    base = FleetSpec(n_machines=1, clients=1, platform="sanctum",
                     fleet_seed=33, channel_updates=0, local_attest_every=0,
                     mode="inline")
    other = run_fleet(base)
    shifted = run_fleet(
        FleetSpec(n_machines=1, clients=1, platform="sanctum",
                  fleet_seed=34, channel_updates=0, local_attest_every=0,
                  mode="inline")
    )
    assert other.transcripts[0] != shifted.transcripts[0]


def test_process_backend_matches_inline_transcripts():
    """The multiprocessing backend changes the host schedule, never the
    simulated machines: transcripts are identical across backends."""
    kwargs = dict(n_machines=2, clients=2, platform="keystone",
                  fleet_seed=5, channel_updates=1, local_attest_every=0)
    inline = run_fleet(FleetSpec(mode="inline", **kwargs))
    process = run_fleet(FleetSpec(mode="process", **kwargs))
    assert inline.all_verified and process.all_verified
    assert inline.transcripts == process.transcripts


def test_fleet_bench_shape(tmp_path):
    out = tmp_path / "BENCH_fleet.json"
    result = run_fleet_bench(
        machine_counts=(1, 2), clients=2, platforms=("sanctum",),
        fleet_seed=3, channel_updates=0, local_attest_every=0,
        mode="inline", out_path=str(out),
    )
    assert out.exists()
    data = result["platforms"]["sanctum"]
    assert [e["machines"] for e in data["counts"]] == [1, 2]
    assert all(e["all_verified"] for e in data["counts"])
    assert all(e["distinct_identities"] for e in data["counts"])
    assert data["counts"][0]["replay_rejected"] is None  # single machine
    assert data["counts"][1]["replay_rejected"] is True
    assert data["scaling_1_to_max"] > 0


def _stalling_worker(conn, spec):
    """Reports ready at once; machine 0 then signs off, the rest never answer."""
    conn.send(("ready", {}))
    while conn.recv()[0] != "done":
        pass
    if spec["index"] == 0:
        conn.send(("summary", {}))
    else:
        time.sleep(120)


def _silent_worker(conn, spec):
    """Never reports ready."""
    time.sleep(120)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched worker reaches the child only through fork",
)
@pytest.mark.parametrize("worker,message", [
    (_stalling_worker, r"machines \[1, 2\] stalled with 3 of 3 results outstanding"),
    (_silent_worker, r"machine 0 did not boot within 0.5 s"),
])
def test_stalled_worker_fails_within_the_deadline(monkeypatch, worker, message):
    monkeypatch.setattr(harness, "worker_main", worker)
    monkeypatch.setattr(harness, "WORKER_DEADLINE_S", 0.5)
    spec = FleetSpec(n_machines=3, clients=3, channel_updates=0,
                     local_attest_every=0, mode="process")
    started = time.perf_counter()
    with pytest.raises(FleetError, match=message):
        run_fleet(spec)
    assert time.perf_counter() - started < 30
