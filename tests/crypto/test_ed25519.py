"""Ed25519 (and its internal SHA-512): RFC 8032 vectors and properties."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ed25519 import (
    ed25519_generate_keypair,
    ed25519_public_key,
    ed25519_sign,
    ed25519_verify,
    reference_sha512,
    sha512,
)
from repro.errors import CryptoError

# RFC 8032 §7.1 test vectors (secret, public, message, signature).
RFC8032_VECTORS = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
        "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
]


@pytest.mark.parametrize("secret,public,message,signature", RFC8032_VECTORS)
def test_rfc8032_vectors(secret, public, message, signature):
    secret_key = bytes.fromhex(secret)
    message_bytes = bytes.fromhex(message)
    assert ed25519_public_key(secret_key).hex() == public
    assert ed25519_sign(secret_key, message_bytes).hex() == signature
    assert ed25519_verify(bytes.fromhex(public), message_bytes, bytes.fromhex(signature))


SHA512_ABC = (
    "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
    "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
)


@pytest.mark.parametrize("impl", [sha512, reference_sha512], ids=["fast", "reference"])
def test_sha512_fips180_known_answer(impl):
    assert impl(b"abc").hex() == SHA512_ABC


def test_sha512_reference_matches_fast_path():
    lengths = [0, 1, 55, 56, 63, 64, 65, 111, 112, 113, 119, 127, 128, 129, 239, 240, 300]
    rng = random.Random(1804)
    # Random lengths around the 112-byte padding limit and the 128-byte block.
    lengths += [rng.randrange(100, 3 * 128 + 20) for _ in range(40)]
    for length in lengths:
        message = rng.randbytes(length)
        assert reference_sha512(message) == sha512(message) == hashlib.sha512(message).digest()


@given(st.binary(min_size=32, max_size=32), st.binary(max_size=100))
@settings(max_examples=15, deadline=None)
def test_sign_verify_roundtrip(entropy, message):
    secret, public = ed25519_generate_keypair(entropy)
    signature = ed25519_sign(secret, message)
    assert ed25519_verify(public, message, signature)


def test_tampered_message_rejected():
    secret, public = ed25519_generate_keypair(b"\x01" * 32)
    signature = ed25519_sign(secret, b"original")
    assert not ed25519_verify(public, b"Original", signature)


def test_tampered_signature_rejected():
    secret, public = ed25519_generate_keypair(b"\x02" * 32)
    signature = bytearray(ed25519_sign(secret, b"msg"))
    signature[10] ^= 0x40
    assert not ed25519_verify(public, b"msg", bytes(signature))


def test_wrong_public_key_rejected():
    secret, _ = ed25519_generate_keypair(b"\x03" * 32)
    _, other_public = ed25519_generate_keypair(b"\x04" * 32)
    signature = ed25519_sign(secret, b"msg")
    assert not ed25519_verify(other_public, b"msg", signature)


def test_malformed_inputs_rejected_not_crashing():
    _, public = ed25519_generate_keypair(b"\x05" * 32)
    assert not ed25519_verify(public, b"msg", b"short")
    assert not ed25519_verify(b"short", b"msg", bytes(64))
    assert not ed25519_verify(public, b"msg", bytes(64))
    # s >= group order must be rejected (malleability check).
    signature = bytearray(ed25519_sign(b"\x05" * 32, b"msg"))
    signature[32:] = b"\xff" * 32
    assert not ed25519_verify(public, b"msg", bytes(signature))


def test_bad_key_sizes_raise():
    with pytest.raises(CryptoError):
        ed25519_public_key(b"short")
    with pytest.raises(CryptoError):
        ed25519_generate_keypair(b"x" * 31)


def test_signing_is_deterministic():
    secret, _ = ed25519_generate_keypair(b"\x06" * 32)
    assert ed25519_sign(secret, b"m") == ed25519_sign(secret, b"m")
