"""Cryptographic substrate for the Sanctorum reproduction.

Everything here is implemented from scratch on top of the Python
integers-and-bytes layer: Keccak/SHA-3 (the paper's measurement hash,
§VI-A), Ed25519 (attestation signatures), X25519 (remote-attestation
key agreement, Fig. 7 step ①), a SHA-3-based DRBG over the simulated
TRNG, a small certificate format for the SM's PKI, and an AEAD built
from SHAKE for the attested secure channel.

The hash functions are a from-scratch reference with a stdlib fast
path: SHA-3, SHAKE and SHA-512 run on ``hashlib``, while the readable
Keccak-f[1600] sponge and FIPS 180-4 SHA-512 serve as the reference
that ``tests/crypto`` checks them against.  Everything is validated
against published test vectors there.
"""

from repro.crypto.sha3 import (
    SHA3_256,
    SHA3_384,
    SHA3_512,
    SHAKE128,
    SHAKE256,
    keccak_f1600,
    sha3_256,
    sha3_384,
    sha3_512,
    shake128,
    shake256,
)
from repro.crypto.hashing import MeasurementHash
from repro.crypto.ed25519 import (
    ed25519_generate_keypair,
    ed25519_public_key,
    ed25519_sign,
    ed25519_verify,
)
from repro.crypto.x25519 import x25519, x25519_base, x25519_generate_keypair
from repro.crypto.drbg import Sha3Drbg
from repro.crypto.cert import Certificate, verify_chain
from repro.crypto.aead import aead_decrypt, aead_encrypt

__all__ = [
    "SHA3_256",
    "SHA3_384",
    "SHA3_512",
    "SHAKE128",
    "SHAKE256",
    "keccak_f1600",
    "sha3_256",
    "sha3_384",
    "sha3_512",
    "shake128",
    "shake256",
    "MeasurementHash",
    "ed25519_generate_keypair",
    "ed25519_public_key",
    "ed25519_sign",
    "ed25519_verify",
    "x25519",
    "x25519_base",
    "x25519_generate_keypair",
    "Sha3Drbg",
    "Certificate",
    "verify_chain",
    "aead_encrypt",
    "aead_decrypt",
]
