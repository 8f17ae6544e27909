"""Self-time arithmetic of the layer tracer on synthetic nested spans."""

import pytest

import layers
from layers import LayerTracer, _wrap, self_time_by_layer, span_key


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def spend(self, ns):
        self.now += ns


def make_stack():
    """crypto <- sm <- hw <- sm (re-entry), with known work in each."""
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def hash_it():
        clock.spend(70)

    def trap():  # sm, re-entered from hw
        clock.spend(5)
        crypto()
        clock.spend(5)

    def run():  # hw
        clock.spend(100)
        sm_inner()
        clock.spend(100)

    def api():  # sm, entered from the benchmark
        clock.spend(10)
        hw()
        clock.spend(10)
        sm_helper()  # same layer: must pass through, no span
        crypto()

    def helper():
        clock.spend(3)

    crypto = _wrap(tracer, "crypto.sha3", "sha3", hash_it)
    sm_inner = _wrap(tracer, "sm", "trap", trap)
    hw = _wrap(tracer, "hw", "run", run)
    sm_helper = _wrap(tracer, "sm", "helper", helper)
    sm_api = _wrap(tracer, "sm", "api", api)
    return clock, tracer, sm_api


def test_self_times_add_up_to_the_root_span():
    clock, tracer, sm_api = make_stack()
    sm_api()
    totals = tracer.totals()
    self_ns = totals["self_ns"]
    # sm: api 10+10+3 (helper passed through) + trap 5+5 = 33
    assert self_ns == {"sm": 33, "hw": 200, "crypto.sha3": 140}
    assert sum(self_ns.values()) == clock.now == 373
    assert self_time_by_layer(self_ns)["crypto"] == 140
    # api, trap: two sm spans; helper opened none.
    assert totals["calls"] == {"sm": 2, "hw": 1, "crypto.sha3": 2}
    assert "helper" in tracer.by_name and tracer.by_name["helper"] == [0, 0]
    assert tracer.by_name["api"] == [1, 373]
    assert tracer.durations["sm"] == [5 + 70 + 5, 373]
    assert tracer.stack == []


def test_benchmark_spans_are_excluded_from_layers():
    clock, tracer, sm_api = make_stack()
    frame = tracer.begin(layers.BENCH_KEY, "op", clock())
    clock.spend(7)
    sm_api()
    tracer.end(frame, clock())
    by_layer = self_time_by_layer(tracer.totals()["self_ns"])
    assert sum(by_layer.values()) == 373
    assert clock.now - sum(by_layer.values()) == 7  # "other"


def test_span_closed_out_of_order_is_an_error():
    tracer = LayerTracer(clock=FakeClock())
    outer = tracer.begin("sm", "outer", 0)
    tracer.begin("hw", "inner", 0)
    with pytest.raises(RuntimeError):
        tracer.end(outer, 1)


def test_exceptions_still_close_spans():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def boom():
        clock.spend(4)
        raise ValueError("x")

    wrapped = _wrap(tracer, "kernel", "boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.stack == [] and tracer.totals()["self_ns"] == {"kernel": 4}


def test_kept_spans_share_the_operation_trace_id():
    clock, tracer, sm_api = make_stack()
    tracer.keeping = True
    tracer.trace_id = "job-7"
    frame = tracer.begin(layers.BENCH_KEY, "op", clock())
    sm_api()
    tracer.end(frame, clock())
    spans = tracer.span_dicts()
    assert {s["trace_id"] for s in spans} == {"job-7"}
    by_id = {s["span_id"]: s for s in spans}
    root = next(s for s in spans if s["name"] == "op")
    assert root["parent_id"] is None
    for span in spans:
        if span is not root:
            assert span["parent_id"] in by_id


def test_keys():
    assert span_key("repro.crypto.sha3", "sha3_512") == "crypto.sha3"
    assert span_key("repro.crypto.ed25519", "sha512") == "crypto.sha512"
    assert span_key("repro.crypto.ed25519", "ed25519_sign") == "crypto.ed25519"
    assert span_key("repro.sm.boot", "secure_boot") == "boot"
    assert span_key("repro.sm.boot", "measure_sm_image") == "boot.measure_sm_image"
    assert span_key("repro.sm.api", "SecurityMonitor") == "sm"
    assert span_key("repro.system", "build_system") == "boot"
    assert span_key("repro.telemetry.tracer", "Tracer") is None


def test_leaf_functions_are_not_wrapped():
    def leaf(x):
        return x + 1

    def caller(x):
        return leaf(x)

    assert not layers._calls_anything(leaf)
    assert layers._calls_anything(caller)


def test_install_and_undo_restore_the_program():
    from repro.crypto import sha3
    from repro.sm.api import SecurityMonitor

    original_fn = sha3.sha3_256
    original_method = SecurityMonitor.enter_enclave
    tracer = LayerTracer()
    installation = layers.install(tracer)
    try:
        assert sha3.sha3_256 is not original_fn
        assert SecurityMonitor.enter_enclave is not original_method
        traced_digest = sha3.sha3_256(b"abc")
        # One span: the class methods it uses run inside it.
        calls = {key: n for key, n in tracer.totals()["calls"].items() if n}
        assert calls == {"crypto.sha3": 1}
        assert tracer.counters["sha3_bytes"] >= 3
    finally:
        installation.undo()
    assert sha3.sha3_256 is original_fn
    assert SecurityMonitor.enter_enclave is original_method
    assert traced_digest == original_fn(b"abc")
