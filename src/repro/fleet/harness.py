"""Fleet orchestration: N machines, M clients, cross-machine verification.

The harness plays every role *outside* the simulated machines:

* the **operator**, booting N independent machines (multiprocessing
  workers — the machines share no state, so the fleet is embarrassingly
  parallel) each with a distinct fleet-derived identity;
* the **clients**, generating per-request nonces and X25519 keypairs
  from a deterministic fleet-seeded stream and dispatching jobs
  round-robin across machines;
* the **remote verifier**, holding only each machine's manufacturer
  root public key and verifying every report cross-machine through the
  amortizing :class:`~repro.fleet.verify.CachedChainVerifier` —
  including negative probes that replay one machine's report against
  another machine's root and chain.

Timing: the service window opens after every worker reports ready
(boot and signing-enclave provisioning are setup, not service) and
closes when the last result arrives.  Throughput is attestations per
wall-clock second of that window; latency percentiles come from the
workers' per-request measurements.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time

from repro.fleet.identity import MachineIdentity, derive_identities
from repro.fleet.verify import CachedChainVerifier
from repro.fleet.worker import MachineServer, worker_main
from repro.sm.attestation import AttestationReport
from repro.util.rng import DeterministicTRNG


#: Seconds the process backend waits for the workers: for each boot,
#: and for the whole service window.  A worker that has not answered by
#: then fails the run instead of hanging it.
WORKER_DEADLINE_S = 600.0


class FleetError(RuntimeError):
    """A fleet run failed outside the simulated machines."""


@dataclasses.dataclass
class FleetSpec:
    """Parameters of one fleet run."""

    n_machines: int = 2
    clients: int = 8
    platform: str = "sanctum"
    fleet_seed: int = 2026
    #: Sealed command/response round trips per client after attesting.
    channel_updates: int = 2
    #: Every k-th client also performs Fig.-6 mailbox local attestation
    #: (0 disables the mix-in).
    local_attest_every: int = 4
    #: "process" spawns one worker per machine; "inline" runs all
    #: machines in this process (deterministic debugging, tests).
    mode: str = "process"
    #: Enable span tracing on every machine (virtual clock only) and
    #: merge the shipped buffers into one cross-process trace.
    telemetry: bool = False


@dataclasses.dataclass
class FleetResult:
    """Everything a fleet run produced, JSON-friendly."""

    spec: FleetSpec
    #: Per-machine public identity (index, device_id, key material hex).
    machines: list[dict]
    #: Per-client verified results (reports omitted; see failures).
    attestations: int
    all_verified: bool
    failures: list[str]
    wall_seconds: float
    attestations_per_sec: float
    p50_attest_ms: float
    p99_attest_ms: float
    #: Distinctness of device identities across the fleet.
    distinct_identities: bool
    #: Cross-machine negative probes (None when n_machines == 1).
    replay_rejected: bool | None
    splice_rejected: bool | None
    #: Verifier-side chain-cache statistics.
    chain_verifications: int
    chain_cache_hits: int
    #: Per-machine deterministic transcript hashes (hex).
    transcripts: dict[int, str]
    #: Per-machine audit-chain heads (hex) — deterministic per seed.
    audit_heads: dict[int, str] = dataclasses.field(default_factory=dict)
    #: Whether every machine's shipped audit chain re-verified against
    #: its public boot identity (chain recomputed harness-side).
    audit_verified: bool = True
    #: Merged cross-process span stream (telemetry runs only), sorted
    #: by (machine, virtual time); each span dict carries a ``pid``.
    spans: list[dict] = dataclasses.field(default_factory=list)
    #: Fleet-wide SM API latency histograms (telemetry runs only),
    #: merged across machines: call name -> summary dict.
    api_latency_summaries: dict[str, dict] = dataclasses.field(default_factory=dict)

    def chrome_trace(self) -> dict:
        """The merged trace as a Perfetto-loadable document."""
        from repro.telemetry.export import chrome_trace

        return chrome_trace(
            self.spans,
            process_names={0: "harness"}
            | {i + 1: f"machine-{i}" for i in range(self.spec.n_machines)},
        )

    def trace_fingerprint(self) -> str:
        """SHA3-256 over the merged virtual-time span stream."""
        from repro.telemetry.tracer import spans_fingerprint

        return spans_fingerprint(self.spans)

    def to_json(self) -> dict:
        """Flatten for ``BENCH_fleet.json``."""
        return {
            "machines": self.spec.n_machines,
            "clients": self.spec.clients,
            "platform": self.spec.platform,
            "fleet_seed": self.spec.fleet_seed,
            "channel_updates": self.spec.channel_updates,
            "local_attest_every": self.spec.local_attest_every,
            "mode": self.spec.mode,
            "attestations": self.attestations,
            "all_verified": self.all_verified,
            "failures": self.failures[:10],
            "wall_seconds": round(self.wall_seconds, 4),
            "attestations_per_sec": round(self.attestations_per_sec, 3),
            "p50_attest_ms": round(self.p50_attest_ms, 2),
            "p99_attest_ms": round(self.p99_attest_ms, 2),
            "distinct_identities": self.distinct_identities,
            "replay_rejected": self.replay_rejected,
            "splice_rejected": self.splice_rejected,
            "chain_verifications": self.chain_verifications,
            "chain_cache_hits": self.chain_cache_hits,
            "transcripts": {str(k): v for k, v in self.transcripts.items()},
            "audit_heads": {str(k): v for k, v in self.audit_heads.items()},
            "audit_verified": self.audit_verified,
            "spans": len(self.spans),
            "trace_fingerprint": self.trace_fingerprint() if self.spans else None,
            "api_latency_summaries": self.api_latency_summaries,
        }


def _client_jobs(spec: FleetSpec) -> list[dict]:
    """Deterministic client population for this fleet seed."""
    rng = DeterministicTRNG(spec.fleet_seed).fork(b"fleet-clients")
    jobs = []
    for client_id in range(spec.clients):
        jobs.append(
            {
                "client_id": client_id,
                "nonce": rng.read(32),
                "verifier_seed": rng.read(32),
                "channel_updates": spec.channel_updates,
                "local_attest": (
                    spec.local_attest_every > 0
                    and client_id % spec.local_attest_every == 0
                ),
                #: Cross-process correlation key: every span the serving
                #: machine emits for this job carries this id.
                "trace_id": f"client-{client_id:04d}",
            }
        )
    return jobs


def _worker_specs(spec: FleetSpec) -> list[dict]:
    return [
        {
            "index": ident.index,
            "platform": spec.platform,
            "trng_seed": ident.trng_seed,
            "device_id": ident.device_id,
            "telemetry": spec.telemetry,
        }
        for ident in derive_identities(spec.fleet_seed, spec.n_machines)
    ]


def _percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile, clamped to the observed range."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


# ----------------------------------------------------------------------
# Execution backends
# ----------------------------------------------------------------------

def _run_inline(spec: FleetSpec, jobs_per_machine: list[list[dict]]):
    """All machines in this process: sequential, fully deterministic."""
    servers = [MachineServer(ws) for ws in _worker_specs(spec)]
    ready = [server.boot() for server in servers]
    t_start = time.perf_counter()
    results = []
    for server, jobs in zip(servers, jobs_per_machine):
        for job in jobs:
            results.append(server.serve_client(job))
    wall = time.perf_counter() - t_start
    summaries = [server.summary() for server in servers]
    return ready, results, summaries, wall


def _run_processes(spec: FleetSpec, jobs_per_machine: list[list[dict]]):
    """One OS process per machine; results stream back over pipes."""
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    parents, processes = [], []
    try:
        for ws in _worker_specs(spec):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=worker_main, args=(child_conn, ws), daemon=True
            )
            process.start()
            child_conn.close()
            parents.append(parent_conn)
            processes.append(process)

        ready = [None] * spec.n_machines
        for index, conn in enumerate(parents):
            if not conn.poll(WORKER_DEADLINE_S):
                raise FleetError(
                    f"machine {index} did not boot within {WORKER_DEADLINE_S:g} s"
                )
            kind, payload = conn.recv()
            if kind == "error":
                raise FleetError(
                    f"machine {index} failed to boot: {payload['error']}\n"
                    f"{payload['traceback']}"
                )
            ready[index] = payload

        # Service window: dispatch everything, then drain all pipes.
        t_start = time.perf_counter()
        deadline = t_start + WORKER_DEADLINE_S
        expected = 0
        for conn, jobs in zip(parents, jobs_per_machine):
            for job in jobs:
                conn.send(("job", job))
                expected += 1
            conn.send(("done",))

        results, summaries = [], [None] * spec.n_machines
        pending = set(range(spec.n_machines))
        wall = None
        while pending:
            live = [parents[i] for i in sorted(pending)]
            remaining = deadline - time.perf_counter()
            ready_conns = multiprocessing.connection.wait(live, timeout=max(remaining, 0))
            if not ready_conns and time.perf_counter() >= deadline:
                raise FleetError(
                    f"service window exceeded {WORKER_DEADLINE_S:g} s: machines "
                    f"{sorted(pending)} stalled with {expected - len(results)} "
                    f"of {expected} results outstanding"
                )
            for conn in ready_conns:
                index = parents.index(conn)
                try:
                    kind, payload = conn.recv()
                except EOFError as exc:
                    raise FleetError(f"machine {index} died mid-run") from exc
                if kind == "error":
                    raise FleetError(
                        f"machine {index} failed: {payload['error']}\n"
                        f"{payload['traceback']}"
                    )
                if kind == "result":
                    results.append(payload)
                    if len(results) == expected:
                        wall = time.perf_counter() - t_start
                elif kind == "summary":
                    summaries[index] = payload
                    pending.discard(index)
        if wall is None:
            wall = time.perf_counter() - t_start
        for process in processes:
            process.join(timeout=60)
        return ready, results, summaries, wall
    finally:
        for conn in parents:
            conn.close()
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=10)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

def run_fleet(spec: FleetSpec) -> FleetResult:
    """Boot the fleet, drive the client population, verify everything."""
    jobs = _client_jobs(spec)
    jobs_per_machine: list[list[dict]] = [[] for _ in range(spec.n_machines)]
    for job in jobs:
        jobs_per_machine[job["client_id"] % spec.n_machines].append(job)

    backend = _run_inline if spec.mode == "inline" else _run_processes
    ready, results, summaries, wall = backend(spec, jobs_per_machine)

    # -- cross-machine verification (the harness is the remote verifier).
    verifier = CachedChainVerifier()
    job_by_id = {job["client_id"]: job for job in jobs}
    failures: list[str] = []
    attest_latencies: list[float] = []
    first_report_by_machine: dict[int, AttestationReport] = {}
    for result in results:
        machine = ready[result["machine_index"]]
        job = job_by_id[result["client_id"]]
        report = AttestationReport.from_bytes(result["report"])
        first_report_by_machine.setdefault(result["machine_index"], report)
        verification = verifier.verify(
            report,
            machine["root_public"],
            expected_nonce=job["nonce"],
            expected_enclave_measurement=result["expected_enclave_measurement"],
            expected_sm_measurement=machine["sm_measurement"],
        )
        if not verification.ok:
            failures.append(
                f"client {result['client_id']} on machine "
                f"{result['machine_index']}: {verification.reason}"
            )
        if not result["channel_ok"]:
            failures.append(
                f"client {result['client_id']}: channel-key proof mismatch"
            )
        expected_values = [
            job["client_id"] * 1000 + i + 1 for i in range(job["channel_updates"])
        ]
        if result["channel_values"] != expected_values:
            failures.append(
                f"client {result['client_id']}: channel values "
                f"{result['channel_values']} != {expected_values}"
            )
        if result["local_ok"] is False:
            failures.append(
                f"client {result['client_id']}: local attestation failed"
            )
        attest_latencies.append(result["attest_latency_s"])

    # -- identity distinctness across the fleet.
    device_certs = {m["device_certificate"] for m in ready}
    sm_keys = {m["sm_public_key"] for m in ready}
    roots = {m["root_public"] for m in ready}
    distinct = (
        len(device_certs) == len(ready)
        and len(sm_keys) == len(ready)
        and len(roots) == len(ready)
    )

    # -- negative probes: a report must not verify against another
    #    machine's trust anchors (replayed root or spliced chain).
    replay_rejected = splice_rejected = None
    if spec.n_machines >= 2 and 0 in first_report_by_machine:
        probe = first_report_by_machine[0]
        job = job_by_id[
            next(r["client_id"] for r in results if r["machine_index"] == 0)
        ]
        replay = verifier.verify(
            probe, ready[1]["root_public"], expected_nonce=job["nonce"]
        )
        replay_rejected = not replay.ok
        import dataclasses as _dc

        from repro.crypto.cert import Certificate

        spliced = _dc.replace(
            probe,
            device_certificate=Certificate.from_bytes(
                ready[1]["device_certificate"]
            ),
            sm_certificate=Certificate.from_bytes(ready[1]["sm_certificate"]),
        )
        splice = verifier.verify(
            spliced, ready[1]["root_public"], expected_nonce=job["nonce"]
        )
        splice_rejected = not splice.ok

    # -- audit chains: re-derive every machine's head from the shipped
    #    records and its *public* boot identity (the chain genesis is
    #    sm_measurement || sm_public_key, both in the ready message), so
    #    tamper evidence holds without trusting the worker's own head.
    from repro.telemetry.audit import verify_chain_dicts

    audit_heads: dict[int, str] = {}
    audit_verified = True
    for s in summaries:
        if s is None or "audit_head" not in s:
            continue
        audit_heads[s["index"]] = s["audit_head"]
        machine = ready[s["index"]]
        genesis = machine["sm_measurement"] + machine["sm_public_key"]
        records = s["audit_records"]
        chain_ok = verify_chain_dicts(records, genesis=genesis)
        head_ok = (not records) or records[-1]["digest"] == s["audit_head"]
        if not (chain_ok and head_ok):
            audit_verified = False
            failures.append(f"machine {s['index']}: audit chain verification failed")

    # -- merged cross-process trace: order is deterministic even though
    #    process-mode results arrive in arrival order — per-machine span
    #    streams are deterministic, and the merge sorts by (machine,
    #    virtual time).
    spans: list[dict] = []
    if spec.telemetry:
        for result in results:
            pid = result["machine_index"] + 1
            for span in result.get("spans", ()):
                span["pid"] = pid
                spans.append(span)
        spans.sort(key=lambda s: (s["pid"], s["start_steps"], s["start_seq"]))

    api_latency_summaries: dict[str, dict] = {}
    if spec.telemetry:
        from repro.telemetry.metrics import merge_api_latencies

        merged = merge_api_latencies(
            s["api_latencies"] for s in summaries if s and "api_latencies" in s
        )
        api_latency_summaries = {
            name: histogram.summary() for name, histogram in sorted(merged.items())
        }

    return FleetResult(
        spec=spec,
        machines=[
            {
                "index": m["index"],
                "device_id": m["device_id"],
                "trng_seed": m["trng_seed"],
                "root_public": m["root_public"].hex(),
                "sm_public_key": m["sm_public_key"].hex(),
                "jobs_served": summaries[m["index"]]["jobs_served"],
                "global_steps": summaries[m["index"]]["global_steps"],
            }
            for m in ready
        ],
        attestations=len(results),
        all_verified=not failures,
        failures=failures,
        wall_seconds=wall,
        attestations_per_sec=len(results) / wall if wall > 0 else 0.0,
        p50_attest_ms=_percentile(attest_latencies, 0.50) * 1000,
        p99_attest_ms=_percentile(attest_latencies, 0.99) * 1000,
        distinct_identities=distinct,
        replay_rejected=replay_rejected,
        splice_rejected=splice_rejected,
        chain_verifications=verifier.chain_verifications,
        chain_cache_hits=verifier.chain_cache_hits,
        transcripts={
            s["index"]: s["transcript"].hex() for s in summaries if s is not None
        },
        audit_heads=audit_heads,
        audit_verified=audit_verified,
        spans=spans,
        api_latency_summaries=api_latency_summaries,
    )
