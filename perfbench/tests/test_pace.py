"""Pacing: times are scaled by the host's measured speed over their span."""

import os
import threading
import types

import pytest

import reporting
from pace import Pace


def pace_with(samples):
    pace = Pace()
    for t, speed in samples:
        pace.times.append(t)
        pace.speeds.append(speed)
    return pace


def test_factor_is_the_mean_speed_inside_the_span():
    pace = pace_with([(10, 1.0), (20, 0.5), (30, 0.6), (40, 2.0)])
    assert pace.factor(15, 35) == pytest.approx(0.55)
    assert pace.factor(20, 20) == 0.5
    assert pace.factor(0, 100) == pytest.approx(1.025)


def test_factor_falls_back_to_the_nearest_sample():
    pace = pace_with([(10, 1.0), (20, 0.5)])
    assert pace.factor(11, 13) == 1.0
    assert pace.factor(17, 19) == 0.5
    assert pace.factor(50, 60) == 0.5
    assert pace.factor(0, 5) == 1.0
    with pytest.raises(ValueError):
        Pace().factor(0, 1)


def test_sampler_thread_samples_and_stops():
    before = os.sched_getaffinity(0)
    with Pace(every_s=0.001) as pace:
        assert len(os.sched_getaffinity(0)) == 1
        threading.Event().wait(0.05)
    assert not pace._thread.is_alive()
    assert os.sched_getaffinity(0) == before
    assert len(pace.speeds) >= 3
    assert pace.times == sorted(pace.times)
    assert all(speed > 0 for speed in pace.speeds)


def test_end_to_end_metrics_are_paced():
    ms = 1_000_000
    # Host at half the reference pace for the first stretch, full pace after.
    pace = pace_with([(t * ms, 0.5) for t in range(5, 100, 10)]
                     + [(t * ms, 1.0) for t in range(105, 200, 10)])
    loop = types.SimpleNamespace(
        latencies_ns=[40 * ms, 40 * ms, 20 * ms, 20 * ms],
        op_spans=[(0, 40 * ms), (50 * ms, 90 * ms), (100 * ms, 120 * ms), (150 * ms, 170 * ms)],
        stretches=[(0, 100 * ms), (100 * ms, 200 * ms)],
        wall=0.2,
        instructions=1000,
        prefix_counters={"cycles": 7},
    )
    workload = types.SimpleNamespace(name="fake")
    setups = [(0, 40 * ms), (100 * ms, 120 * ms), (150 * ms, 160 * ms)]
    metrics = reporting.end_to_end_metrics(workload, loop, setups, pace, 1.0)
    # 0.1 s at half pace is 0.05 s at the reference pace, plus 0.1 s.
    assert metrics["ops_per_s"]["value"] == pytest.approx(4 / 0.15)
    assert metrics["sim_ips"]["value"] == pytest.approx(1000 / 0.15)
    # Every operation takes 20 ms at the reference pace.
    assert metrics["op_p50_ms"]["value"] == pytest.approx(20)
    assert metrics["op_p90_ms"]["value"] == pytest.approx(20)
    assert metrics["setup_s"]["value"] == pytest.approx(0.02)
