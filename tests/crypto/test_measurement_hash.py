"""The extend-framed measurement hash: framing and determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_sanctum_system
from repro.crypto.hashing import MeasurementHash
from repro.errors import ApiResult
from repro.hw.core import DOMAIN_UNTRUSTED
from repro.sm.compartments import _Checkpoint
from repro.sm.measurement import EnclaveMeasurement


def _value(ops):
    digest = MeasurementHash()
    for tag, fields in ops:
        digest.extend(tag, *fields)
    return digest.finalize()


def test_deterministic():
    ops = [("load_page", (b"\x01", b"data")), ("create_thread", (b"\x02",))]
    assert _value(ops) == _value(ops)


def test_operation_order_matters():
    a = [("op_a", (b"x",)), ("op_b", (b"y",))]
    b = [("op_b", (b"y",)), ("op_a", (b"x",))]
    assert _value(a) != _value(b)


def test_framing_prevents_tag_field_ambiguity():
    # "ab" + field "c" must differ from "a" + field "bc".
    assert _value([("ab", (b"c",))]) != _value([("a", (b"bc",))])


def test_framing_prevents_field_concatenation_ambiguity():
    assert _value([("op", (b"ab", b"c"))]) != _value([("op", (b"a", b"bc"))])
    assert _value([("op", (b"abc",))]) != _value([("op", (b"ab", b"c"))])


def test_empty_fields_are_significant():
    assert _value([("op", ())]) != _value([("op", (b"",))])


def test_split_operations_differ_from_merged():
    assert _value([("op", (b"a",)), ("op", (b"b",))]) != _value([("op", (b"a", b"b"))])


def test_finalize_is_idempotent_then_locks():
    digest = MeasurementHash()
    digest.extend("op", b"data")
    first = digest.finalize()
    assert digest.finalize() == first
    with pytest.raises(ValueError):
        digest.extend("op", b"more")


def test_digest_size():
    assert len(_value([("x", ())])) == MeasurementHash.DIGEST_SIZE == 64


def test_operation_count_tracks_extends():
    digest = MeasurementHash()
    assert digest.operation_count == 0
    digest.extend("a")
    digest.extend("b", b"f")
    assert digest.operation_count == 2


def test_encode_u64_fixed_width():
    assert MeasurementHash.encode_u64(0) == bytes(8)
    assert MeasurementHash.encode_u64(1) == b"\x01" + bytes(7)
    assert MeasurementHash.encode_u64(2**64 - 1) == b"\xff" * 8
    assert MeasurementHash.encode_u64(2**64) == bytes(8)  # wraps


@given(
    st.lists(
        st.tuples(
            st.text(alphabet="abcdef_", min_size=1, max_size=8),
            st.lists(st.binary(max_size=16), max_size=3),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=40, deadline=None)
def test_distinct_op_lists_distinct_hashes(ops):
    # Any structural perturbation (dropping the last op) changes the hash.
    full = _value([(tag, tuple(fields)) for tag, fields in ops])
    truncated = _value([(tag, tuple(fields)) for tag, fields in ops[:-1]])
    assert full != truncated


def test_in_flight_measurement_survives_checkpoint_deep_copy():
    # The compartment guard deep-copies enclaves mid-load, hash state
    # included; the copy must finalize as if nothing else happened.
    system = build_sanctum_system()
    sm = system.sm
    eid = sm.state.suggest_metadata(4096)
    assert sm.create_enclave(DOMAIN_UNTRUSTED, eid, 0x40000000, 0x100000, 1) is ApiResult.OK
    checkpoint = _Checkpoint(sm)
    live = sm.state.enclaves[eid].measurement_accumulator
    live.extend_page_table(0x40000000, 1)
    expected = EnclaveMeasurement(sm.state.sm_measurement, sm.state.platform_name)
    expected.extend_create(0x40000000, 0x100000, 1)
    saved = checkpoint.enclaves[eid].measurement_accumulator
    assert saved.operation_count == expected.operation_count == live.operation_count - 1
    assert saved.finalize() == expected.finalize() != live.finalize()
