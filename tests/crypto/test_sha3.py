"""SHA-3 / SHAKE: FIPS 202 known answers, and the from-scratch reference
sponge checked differentially against the ``hashlib`` fast path."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.sha3 import (
    SHA3_256,
    SHA3_384,
    SHA3_512,
    SHAKE128,
    SHAKE256,
    ReferenceSponge,
    keccak_f1600,
    sha3_256,
    sha3_384,
    sha3_512,
    shake128,
    shake256,
)

SHA3_SUFFIX, SHAKE_SUFFIX = 0x06, 0x1F

#: Fast-path class -> (rate in bytes, FIPS 202 domain suffix).
INSTANCES = {
    SHA3_256: (136, SHA3_SUFFIX),
    SHA3_384: (104, SHA3_SUFFIX),
    SHA3_512: (72, SHA3_SUFFIX),
    SHAKE128: (168, SHAKE_SUFFIX),
    SHAKE256: (136, SHAKE_SUFFIX),
}
DIGESTS = [SHA3_256, SHA3_384, SHA3_512]
XOFS = [SHAKE128, SHAKE256]


def reference(cls, data=b""):
    """The from-scratch sponge for the instance ``cls`` implements."""
    sponge = ReferenceSponge(*INSTANCES[cls])
    sponge.absorb(data)
    return sponge


def fast_output(cls, data, n=64):
    """The fast path's output: the digest, or ``n`` SHAKE bytes."""
    return cls(data).digest() if cls in DIGESTS else cls(data).read(n)


def reference_output(cls, data, n=64):
    return reference(cls, data).squeeze(cls.digest_size if cls in DIGESTS else n)


# FIPS 202 known-answer vectors (NIST examples).
KNOWN_ANSWERS = [
    (
        SHA3_256,
        b"",
        "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a",
    ),
    (
        SHA3_256,
        b"abc",
        "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532",
    ),
    (
        SHA3_512,
        b"",
        "a69f73cca23a9ac5c8b567dc185a756e97c982164fe25859e0d1dcc1475c80a6"
        "15b2123af1f5f94c11e3e9402c3ac558f500199d95b6d3e301758586281dcd26",
    ),
    (
        SHA3_512,
        b"abc",
        "b751850b1a57168a5693cd924b6b096e08f621827444f70d884f5d0240d2712e"
        "10e116e9192af3c91a7ec57647e3934057340b4cf408d5a56592f8274eec53f0",
    ),
    (
        SHA3_384,
        b"abc",
        "ec01498288516fc926459f58e2c6ad8df9b473cb0fc08c2596da7cf0e49be4b2"
        "98d88cea927ac7f539f1edf228376d25",
    ),
    (
        SHAKE128,
        b"",
        "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26",
    ),
    (
        SHAKE256,
        b"",
        "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f",
    ),
]


@pytest.mark.parametrize("impl", [fast_output, reference_output], ids=["fast", "reference"])
@pytest.mark.parametrize("cls,message,expected", KNOWN_ANSWERS)
def test_fips202_known_answers(impl, cls, message, expected):
    assert impl(cls, message, len(expected) // 2).hex() == expected


def test_one_shot_functions_match_the_classes():
    message = b"sanctorum"
    assert sha3_256(message) == SHA3_256(message).digest()
    assert sha3_384(message) == SHA3_384(message).digest()
    assert sha3_512(message) == SHA3_512(message).digest()
    assert shake128(message, 200) == SHAKE128(message).read(200)
    assert shake256(message, 200) == SHAKE256(message).read(200)


@pytest.mark.parametrize("cls", list(INSTANCES), ids=lambda cls: cls.__name__)
def test_reference_matches_fast_path_at_random_lengths(cls):
    rate, _ = INSTANCES[cls]
    rng = random.Random(rate)
    # Every block boundary up to 4x the rate, then random lengths.
    lengths = [k * rate + d for k in range(5) for d in (-1, 0, 1) if k * rate + d >= 0]
    lengths += [rng.randrange(4 * rate + 1) for _ in range(12)]
    for length in lengths:
        message = rng.randbytes(length)
        assert fast_output(cls, message, 2 * rate + 5) == reference_output(
            cls, message, 2 * rate + 5
        ), length


@pytest.mark.parametrize("cls", list(INSTANCES), ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_incremental_splits_match(cls, data):
    rate, _ = INSTANCES[cls]
    message = data.draw(st.binary(max_size=3 * rate))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(message)), max_size=4)))
    pieces = [message[a:b] for a, b in zip([0] + cuts, cuts + [len(message)])]
    fast, ref = cls(), reference(cls)
    for piece in pieces:
        fast.update(piece)
        ref.absorb(piece)
    n = cls.digest_size if cls in DIGESTS else 100
    assert (fast.digest() if cls in DIGESTS else fast.read(n)) == ref.squeeze(n)


@pytest.mark.parametrize("cls", XOFS, ids=lambda cls: cls.__name__)
def test_shake_reads_stream(cls):
    rate, _ = INSTANCES[cls]
    # read(0), reads inside one block, and reads across rate boundaries.
    sizes = [0, 1, 7, 0, rate - 8, 2, rate, 3 * rate + 1, 0, 5]
    fast, ref = cls(b"seed"), reference(cls, b"seed")
    fast_out = [fast.read(n) for n in sizes]
    ref_out = [ref.squeeze(n) for n in sizes]
    assert fast_out == ref_out
    assert [len(chunk) for chunk in fast_out] == sizes
    assert b"".join(fast_out) == cls(b"seed").read(sum(sizes))


@pytest.mark.parametrize("cls", list(INSTANCES), ids=lambda cls: cls.__name__)
def test_deepcopy_mid_absorb_continues_independently(cls):
    rate, _ = INSTANCES[cls]
    prefix = bytes(range(256))[: rate + 3]  # one full block and a partial one
    fast, ref = cls(prefix), reference(cls, prefix)
    fast_copy, ref_copy = copy.deepcopy(fast), copy.deepcopy(ref)
    fast.update(b"original")
    ref.absorb(b"original")
    fast_copy.update(b"copy")
    ref_copy.absorb(b"copy")
    n = cls.digest_size if cls in DIGESTS else 50

    def out(obj):
        return obj.digest() if cls in DIGESTS else obj.read(n)

    assert out(fast) == ref.squeeze(n) == reference_output(cls, prefix + b"original", n)
    assert out(fast_copy) == ref_copy.squeeze(n) == reference_output(cls, prefix + b"copy", n)


@pytest.mark.parametrize("cls", XOFS, ids=lambda cls: cls.__name__)
def test_deepcopy_mid_squeeze_continues_independently(cls):
    rate, _ = INSTANCES[cls]
    fast, ref = cls(b"squeeze"), reference(cls, b"squeeze")
    assert fast.read(rate - 3) == ref.squeeze(rate - 3)
    fast_copy, ref_copy = copy.deepcopy(fast), copy.deepcopy(ref)
    # The original reads on; each copy resumes from the copy point.
    stream = cls(b"squeeze").read(3 * rate)
    assert fast.read(rate) == ref.squeeze(rate) == stream[rate - 3 : 2 * rate - 3]
    assert fast_copy.read(10) == ref_copy.squeeze(10) == stream[rate - 3 : rate + 7]
    assert fast.read(5) == stream[2 * rate - 3 : 2 * rate + 2]


def test_deepcopy_of_a_finalized_digest_keeps_its_value():
    digest = SHA3_512(b"abc")
    value = digest.digest()
    clone = copy.deepcopy(digest)
    assert clone.digest() == value
    with pytest.raises(ValueError):
        clone.update(b"more")


@pytest.mark.parametrize("cls", DIGESTS, ids=lambda cls: cls.__name__)
def test_digest_is_idempotent_and_locks_updates(cls):
    digest = cls(b"abc")
    first = digest.digest()
    assert digest.digest() == first
    assert digest.hexdigest() == first.hex()
    with pytest.raises(ValueError):
        digest.update(b"more")


@pytest.mark.parametrize("cls", XOFS, ids=lambda cls: cls.__name__)
def test_cannot_absorb_after_squeeze(cls):
    xof = cls(b"data")
    xof.read(0)
    with pytest.raises(ValueError):
        xof.update(b"more")
    ref = reference(cls, b"data")
    ref.squeeze(0)
    with pytest.raises(ValueError):
        ref.absorb(b"more")


@given(st.binary(min_size=1, max_size=200))
@settings(max_examples=30, deadline=None)
def test_bit_change_diffuses(message):
    flipped = bytes([message[0] ^ 1]) + message[1:]
    a, b = sha3_256(message), sha3_256(flipped)
    assert a != b
    # Avalanche: a substantial fraction of output bits differ.
    differing = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
    assert differing > 64


def test_keccak_permutation_shape_and_determinism():
    state = list(range(25))
    out1 = keccak_f1600(state)
    out2 = keccak_f1600(state)
    assert out1 == out2
    assert len(out1) == 25
    assert all(0 <= lane < 2**64 for lane in out1)
    assert state == list(range(25)), "input state must not be mutated"


def test_keccak_rejects_bad_state():
    with pytest.raises(ValueError):
        keccak_f1600([0] * 24)


def test_shake128_differs_from_shake256():
    assert shake128(b"x", 32) != shake256(b"x", 32)
