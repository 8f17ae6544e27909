"""Turn one run's measurements into the metrics the result line carries."""

from __future__ import annotations

import json
import math
import re
import statistics
import sys

from layers import self_time_by_layer
from stats import highest_trustworthy_percentile, nearest_rank, tail_is_trustworthy


def _metric(value, unit: str) -> dict:
    if isinstance(value, float) and not math.isfinite(value):
        value = None
    return {"value": value, "unit": unit}


def end_to_end_metrics(workload, loop, setup_spans, pace, peak_rss_mb: float) -> dict:
    """The untraced run's metrics (see ``perfbench/metrics.json``).

    Every time is given at the reference pace: a set-up's wall times
    the host's mean speed during it, a stretch's wall times the mean
    speed during the stretch, an operation's latency times the mean
    speed while it ran (see ``perfbench/pace.py``).  The wall-clock
    figures go to stderr, with the sample count.
    """
    ops = len(loop.latencies_ns)
    paced_wall = sum((end - start) / 1e9 * pace.factor(start, end) for start, end in loop.stretches)
    paced_latencies = [
        latency * pace.factor(t0, t1)
        for latency, (t0, t1) in zip(loop.latencies_ns, loop.op_spans)
    ]
    paced_setups = [(end - start) / 1e9 * pace.factor(start, end) for start, end in setup_spans]
    p50, _ = nearest_rank(paced_latencies, 0.50)
    p90, beyond = nearest_rank(paced_latencies, 0.90)
    raw_p50, _ = nearest_rank(loop.latencies_ns, 0.50)
    raw_p90, _ = nearest_rank(loop.latencies_ns, 0.90)
    note = (
        f"{ops} operations; wall clock: {ops / loop.wall:.4g} ops/s, "
        f"p50 {raw_p50 / 1e6:.3f} ms, p90 {raw_p90 / 1e6:.3f} ms, set-ups "
        + " ".join(f"{(end - start) / 1e9:.3f}" for start, end in setup_spans)
        + f" s; host speed {pace.factor(loop.stretches[0][0], loop.stretches[-1][1]):.3f}"
        f" of the reference pace over {len(pace.speeds)} samples"
    )
    if not tail_is_trustworthy(beyond):
        best = highest_trustworthy_percentile(ops)
        note += (
            f"; only {beyond} samples above p90, fewer than 10 (highest percentile "
            f"with 10 above it: {'none' if best is None else f'p{round(best * 100)}'})"
        )
    print(f"perfbench: {workload.name}: {note}", file=sys.stderr)
    return {
        "setup_s": _metric(statistics.median(paced_setups), "s"),
        "ops_per_s": _metric(ops / paced_wall, "1/s"),
        "op_p50_ms": _metric(p50 / 1e6, "ms"),
        "op_p90_ms": _metric(p90 / 1e6, "ms"),
        "sim_ips": _metric(loop.instructions / paced_wall, "instr/s"),
        "sim_cycles": _metric(loop.prefix_counters["cycles"], "cycles"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _delta(after: dict, before: dict) -> dict:
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


def _sum(counters: dict, pattern: str) -> int:
    regex = re.compile(pattern)
    return sum(value for key, value in counters.items() if regex.fullmatch(key))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _window(end: dict, start: dict, part: str) -> dict:
    return {k: v - start[part].get(k, 0) for k, v in end[part].items()}


def _mean_ms(by_name: dict, name: str) -> float:
    calls, total_ns = by_name.get(name, (0, 0))
    return total_ns / calls / 1e6 if calls else 0.0


def hw_counters(loop) -> dict:
    """Simulated counters over the deterministic prefix (exact)."""
    c = _delta(loop.prefix_record, loop.start_record)
    core = r"m\d+\.cores\.\d+\."
    instructions = _sum(c, core + "instructions")
    decode_hits = _sum(c, core + r"decode_cache\.hits")
    decode_lookups = decode_hits + _sum(c, core + r"decode_cache\.misses")
    l1_misses = _sum(c, core + r"l1\.misses")
    l1_total = l1_misses + _sum(c, core + r"l1\.hits")
    tlb_misses = _sum(c, core + r"tlb\.misses")
    tlb_total = tlb_misses + _sum(c, core + r"tlb\.hits")
    llc_misses = _sum(c, r"m\d+\.llc\.misses")
    llc_total = llc_misses + _sum(c, r"m\d+\.llc\.hits")
    return {
        "hw.instructions": (instructions, "instr"),
        "hw.trace_coverage": (
            _ratio(_sum(c, core + r"trace_cache\.instructions"), instructions), "ratio"
        ),
        "hw.trace_aborts": (_sum(c, core + r"trace_cache\.aborts"), "count"),
        "hw.trace_dropped": (_sum(c, core + r"trace_cache\.entries_dropped"), "count"),
        "hw.traps": (_sum(c, core + r"traps\.\w+"), "count"),
        "hw.decode_hit_rate": (_ratio(decode_hits, decode_lookups), "ratio"),
        "hw.decode_lookups": (decode_lookups, "count"),
        "hw.decode_invalidations": (
            _sum(c, core + r"decode_cache\.invalidation_events"), "count"
        ),
        "hw.l1_miss_rate": (_ratio(l1_misses, l1_total), "ratio"),
        "hw.llc_miss_rate": (_ratio(llc_misses, llc_total), "ratio"),
        "hw.tlb_miss_rate": (_ratio(tlb_misses, tlb_total), "ratio"),
    }


def layer_metrics(loop, replay, tracer, boot_windows) -> dict:
    """The traced run's per-layer breakdown of the timed phase.

    Self times, shares and call counts cover the traced blocks of the
    timed phase; ``trace.overhead`` compares their wall with that of
    the untraced blocks, which ran the same operations; the ``*_ms``
    per-call means cover every call of the run; ``boot.*`` are medians
    over the traced set-ups; the ``hw.*`` counts and rates are exact
    simulated counters over the deterministic prefix.
    """
    wall = loop.wall
    start, end = loop.window_start, loop.window_end
    self_ns = _window(end, start, "self_ns")
    calls = _window(end, start, "calls")
    counters = _window(end, start, "counters")
    by_layer = self_time_by_layer(self_ns)
    attributed = sum(by_layer.values())
    by_name = tracer.by_name
    sm_us = [
        ns / 1000
        for ns in tracer.durations["sm"][start["durations"]["sm"] : end["durations"]["sm"]]
    ]
    out: dict = {}

    def put(name, value, unit):
        out[name] = _metric(value, unit)

    def layer_calls(layer):
        return sum(n for key, n in calls.items() if key.split(".", 1)[0] == layer)

    put("crypto.self_s", by_layer["crypto"] / 1e9, "s")
    put("crypto.share", by_layer["crypto"] / 1e9 / wall, "ratio")
    put("crypto.sha3_bytes", counters["sha3_bytes"], "bytes")
    put("crypto.sha3_s", self_ns.get("crypto.sha3", 0) / 1e9, "s")
    put("crypto.sha512_s", self_ns.get("crypto.sha512", 0) / 1e9, "s")
    put("crypto.ed25519_calls", calls.get("crypto.ed25519", 0), "count")
    put("crypto.ed25519_s", self_ns.get("crypto.ed25519", 0) / 1e9, "s")
    put("crypto.x25519_calls", calls.get("crypto.x25519", 0), "count")
    put("crypto.x25519_s", self_ns.get("crypto.x25519", 0) / 1e9, "s")

    put("hw.self_s", by_layer["hw"] / 1e9, "s")
    put("hw.share", by_layer["hw"] / 1e9 / wall, "ratio")
    put("hw.ns_per_instr", _ratio(by_layer["hw"], loop.instructions), "ns")
    for name, (value, unit) in hw_counters(loop).items():
        put(name, value, unit)

    put("platforms.calls", layer_calls("platforms"), "count")
    put("platforms.self_s", by_layer["platforms"] / 1e9, "s")

    put("sm.calls", layer_calls("sm"), "count")
    put("sm.self_s", by_layer["sm"] / 1e9, "s")
    put("sm.share", by_layer["sm"] / 1e9 / wall, "ratio")
    put("sm.call_p50_us", nearest_rank(sm_us, 0.5)[0] if sm_us else 0.0, "us")
    put("sm.call_p90_us", nearest_rank(sm_us, 0.9)[0] if sm_us else 0.0, "us")
    put("sm.dispatches", counters["sm_dispatches"], "count")
    put("sm.fail_ratio", _ratio(counters["sm_not_ok"], counters["sm_dispatches"]), "ratio")

    put("kernel.calls", layer_calls("kernel"), "count")
    put("kernel.self_s", by_layer["kernel"] / 1e9, "s")
    put("kernel.load_enclave_ms", _mean_ms(by_name, "repro.kernel.os_model.OsKernel.load_enclave"), "ms")

    put("sdk.self_s", by_layer["sdk"] / 1e9, "s")
    put("sdk.remote_attestation_ms", _mean_ms(by_name, "repro.sdk.protocol.run_remote_attestation"), "ms")
    put("sdk.channel_update_ms", _mean_ms(by_name, "repro.sdk.protocol.run_channel_exchange"), "ms")
    put(
        "sdk.local_attestation_ms",
        _mean_ms(by_name, "repro.sdk.local_attestation.run_local_attestation"),
        "ms",
    )

    verifier = getattr(loop.instance, "verifier", None)
    hits = verifier.chain_cache_hits if verifier else 0
    lookups = hits + verifier.chain_verifications if verifier else 0
    put("fleet.self_s", by_layer["fleet"] / 1e9, "s")
    put("fleet.verify_ms", _mean_ms(by_name, "repro.fleet.verify.CachedChainVerifier.verify"), "ms")
    put("fleet.chain_cache_hit_ratio", _ratio(hits, lookups), "ratio")
    put("fleet.chain_cache_lookups", lookups, "count")

    def boot_median(prefixes):
        per_setup = []
        for before, after in boot_windows:
            total = 0
            for name, (_, ns) in after["by_name"].items():
                if name.startswith(prefixes):
                    total += ns - before["by_name"].get(name, (0, 0))[1]
            per_setup.append(total / 1e9)
        return statistics.median(per_setup)

    put("boot.build_system_s", boot_median(("repro.system.build_",)), "s")
    put("boot.measure_sm_image_s", boot_median(("repro.sm.boot.measure_sm_image",)), "s")
    put(
        "boot.provision_signing_s",
        boot_median(("repro.sdk.protocol.provision_signing_enclave",)),
        "s",
    )

    put("trace.wall_s", wall, "s")
    put("trace.overhead", _ratio(wall, replay.wall) - 1, "ratio")
    put("trace.attributed", attributed / 1e9 / wall, "ratio")
    put("other.self_s", wall - attributed / 1e9, "s")
    return out


def write_chrome_trace(tracer, path) -> list[str]:
    """Write the kept spans once, as Chrome trace JSON; returns problems."""
    from repro.telemetry.export import chrome_trace, validate_chrome_trace

    doc = chrome_trace(tracer.span_dicts(), process_names={0: "perfbench"}, include_wall=True)
    doc["otherData"]["clock"] = "host wall clock (1 us == 1 us since the run started)"
    doc["otherData"]["spans_dropped"] = tracer.dropped
    problems = validate_chrome_trace(doc)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return problems
