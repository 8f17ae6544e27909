"""The fast curve kernels against the textbook ones they replace.

``_base_mul`` (precomputed signed radix-16 table), ``_window_mul``
(4-bit window) and the table-based ``x25519`` base multiplication must
give exactly what double-and-add (``_point_mul``) and the Montgomery
ladder give: the same group elements, hence byte-identical public keys,
signatures, X25519 outputs and verify verdicts.
"""

import contextlib
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ed25519 import (
    _BASE_POINT,
    _BASE_TABLE,
    _L,
    _P,
    _base_mul,
    _point_compress,
    _point_equal,
    _point_mul,
    _window_mul,
    ed25519_public_key,
    ed25519_sign,
    ed25519_verify,
)
from repro.crypto.x25519 import _BASE_U, _base_u, _ladder, x25519_base
from repro.errors import CryptoError

from tests.crypto.test_ed25519 import RFC8032_VECTORS

# The package re-exports a function named ``x25519``, which shadows the
# submodule of that name as an attribute of ``repro.crypto``.
ed25519 = importlib.import_module("repro.crypto.ed25519")
x25519 = importlib.import_module("repro.crypto.x25519")


@contextlib.contextmanager
def reference_kernels():
    """Run the public functions on double-and-add and the ladder."""
    saved = (ed25519._base_mul, ed25519._window_mul, x25519._base_u)
    ed25519._base_mul = lambda scalar: _point_mul(scalar, _BASE_POINT)
    ed25519._window_mul = _point_mul
    x25519._base_u = lambda k: _ladder(k, _BASE_U)
    try:
        yield
    finally:
        ed25519._base_mul, ed25519._window_mul, x25519._base_u = saved


def both_paths(fn, *args):
    """``fn(*args)`` on the fast kernels and on the reference ones."""
    fast = fn(*args)
    with reference_kernels():
        reference = fn(*args)
    return fast, reference


def clamp(k: int) -> int:
    return (k & ((1 << 254) - 8)) | (1 << 254)


#: Scalars at the edges of the recoding and of the group: the group
#: order and its neighbours, the clamping extremes, the all-8 digit
#: string, and ones whose radix-16 carry runs into the top digit (15 at
#: 2**251 recodes to -1 there with a carry that makes digit 63 equal 8;
#: recentring the top digit too would lose it).
EDGE_SCALARS = [
    0, 1, 2, 7, 8, 15, 16, 17, 255, 256,
    _L - 1, _L, _L + 1, 2 * _L - 1,
    1 << 252, (1 << 253) - 1,
    1 << 254, clamp(0), clamp((1 << 255) - 1), (1 << 255) - 19, (1 << 255) - 1,
    15 << 251, (15 << 251) | 8, (8 << 248) | (8 << 244), 0x7 << 252,
    sum(8 << (4 * i) for i in range(63)),
    sum(0x8 << (4 * i) for i in range(64)) & ((1 << 255) - 1),
    int("7" + "f" * 63, 16),
    int("78" * 32, 16) >> 1,
]


def test_table_shape():
    assert len(_BASE_TABLE) == 64
    assert all(len(row) == 17 and row[0] is None for row in _BASE_TABLE)
    # Row 0, digit +1 is B itself; digit -1 is -B.
    x, y = _BASE_POINT[0], _BASE_POINT[1]
    assert _BASE_TABLE[0][1] == ((y + x) % _P, (y - x) % _P, 2 * ed25519._D * x * y % _P)
    assert _BASE_TABLE[0][-1] == ((y - x) % _P, (y + x) % _P, (-2 * ed25519._D * x * y) % _P)


@pytest.mark.parametrize("scalar", EDGE_SCALARS, ids=hex)
def test_edge_scalars(scalar):
    expected = _point_mul(scalar, _BASE_POINT)
    assert _point_equal(_base_mul(scalar), expected)
    assert _point_compress(_base_mul(scalar)) == _point_compress(expected)
    point = _point_mul(0xC0FFEE, _BASE_POINT)
    assert _point_equal(_window_mul(scalar, point), _point_mul(scalar, point))
    assert _base_u(scalar) == _ladder(scalar, _BASE_U)


@pytest.mark.parametrize("scalar", [0, _L, 2 * _L, 7 * _L], ids=hex)
def test_x25519_base_is_zero_where_the_ladder_is(scalar):
    # Multiples of the group order land on the identity, u = 0.
    assert _ladder(scalar, _BASE_U) == 0
    assert _base_u(scalar) == 0


@pytest.mark.parametrize("secret,public,message,signature", RFC8032_VECTORS)
def test_rfc8032_vectors_on_both_paths(secret, public, message, signature):
    secret_key, message_bytes = bytes.fromhex(secret), bytes.fromhex(message)
    for path in both_paths(
        lambda: (
            ed25519_public_key(secret_key).hex(),
            ed25519_sign(secret_key, message_bytes).hex(),
            ed25519_verify(bytes.fromhex(public), message_bytes, bytes.fromhex(signature)),
        )
    ):
        assert path == (public, signature, True)


#: RFC 7748 §6.1 key pairs, and §5.2's first iteration (scalar 9 times
#: the base point 9).
RFC7748_BASE_VECTORS = [
    (
        "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
        "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a",
    ),
    (
        "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
        "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
    ),
    (
        (9).to_bytes(32, "little").hex(),
        "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079",
    ),
]


@pytest.mark.parametrize("scalar,public", RFC7748_BASE_VECTORS)
def test_rfc7748_base_vectors_on_both_paths(scalar, public):
    fast, reference = both_paths(x25519_base, bytes.fromhex(scalar))
    assert fast.hex() == reference.hex() == public


def test_rfc7748_shared_secret_from_fast_public_keys():
    (alice, alice_public), (bob, bob_public) = RFC7748_BASE_VECTORS[:2]
    shared = "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
    assert x25519.x25519(bytes.fromhex(alice), x25519_base(bytes.fromhex(bob))).hex() == shared
    assert x25519.x25519(bytes.fromhex(bob), bytes.fromhex(alice_public)).hex() == shared
    assert x25519_base(bytes.fromhex(bob)).hex() == bob_public


@given(st.integers(0, (1 << 255) - 1), st.integers(1, _L - 1))
@settings(max_examples=40, deadline=None)
def test_random_scalars(scalar, point_scalar):
    assert _point_equal(_base_mul(scalar), _point_mul(scalar, _BASE_POINT))
    assert _base_u(scalar) == _ladder(scalar, _BASE_U)
    point = _base_mul(point_scalar)
    assert _point_equal(_window_mul(scalar, point), _point_mul(scalar, point))


@given(st.binary(min_size=32, max_size=32), st.binary(max_size=80))
@settings(max_examples=15, deadline=None)
def test_keys_and_signatures_match_the_reference(secret, message):
    def run():
        public = ed25519_public_key(secret)
        signature = ed25519_sign(secret, message)
        return public, signature, ed25519_verify(public, message, signature), x25519_base(secret)

    fast, reference = both_paths(run)
    assert fast == reference
    assert fast[2] is True


def _bad_encodings():
    """32-byte strings that do not decode to a point: y >= p, and a y
    whose x**2 is not a square."""
    yield (_P).to_bytes(32, "little")
    yield (_P + 5).to_bytes(32, "little")
    yield ((1 << 255) - 1).to_bytes(32, "little")
    y = 2
    while True:
        try:
            ed25519._recover_x(y, 0)
        except CryptoError:
            yield y.to_bytes(32, "little")
            return
        y += 1


def test_verify_verdicts_match_the_reference():
    rng = random.Random(2011)
    secret = bytes(range(32))
    public = ed25519_public_key(secret)
    message = b"attestation report"
    signature = ed25519_sign(secret, message)
    cases = [(public, message, signature), (public, message + b"!", signature)]
    for bit in rng.sample(range(512), 24):
        mutated = bytearray(signature)
        mutated[bit // 8] ^= 1 << (bit % 8)
        cases.append((public, message, bytes(mutated)))
    s = int.from_bytes(signature[32:], "little")
    for bad_s in (_L, _L + 1, s + _L, (1 << 256) - 1):
        cases.append((public, message, signature[:32] + bad_s.to_bytes(32, "little")))
    for bad in _bad_encodings():
        cases.append((bad, message, signature))
        cases.append((public, message, bad + signature[32:]))
    # A public key of small order (the identity) and a wrong-key case.
    cases.append(((1).to_bytes(32, "little"), message, signature))
    cases.append((ed25519_public_key(bytes(32)), message, signature))
    verdicts = [both_paths(ed25519_verify, *case) for case in cases]
    assert all(fast == reference for fast, reference in verdicts)
    assert [fast for fast, _ in verdicts[:2]] == [True, False]
    assert not any(fast for fast, _ in verdicts[2:])
