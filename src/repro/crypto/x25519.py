"""X25519 Diffie-Hellman from scratch (RFC 7748).

Fig. 7 step ① of the paper: "a key agreement scheme derives a shared
key for encrypted communication without trust in the system software or
network."  We use X25519 — the Montgomery-ladder scalar multiplication
on Curve25519 — as that key-agreement scheme.

Variable-base multiplication runs the ladder.  The fixed base point
(u = 9) is instead multiplied on edwards25519 with Ed25519's precomputed
table and mapped to u (RFC 7748 §4.1); the ladder is its reference.
Table lookups are indexed by the secret scalar, so host time depends on
it.  The simulated crypto unit charges fixed cycles, and host timing is
not a modelled channel.

Validated against RFC 7748 test vectors in
``tests/crypto/test_x25519.py`` and, for the base point, against the
ladder in ``tests/crypto/test_curve_kernels.py``.
"""

from __future__ import annotations

from repro.crypto.ed25519 import _base_mul, _inv
from repro.errors import CryptoError

_P = 2**255 - 19
_A24 = 121665
_BASE_U = 9


def _decode_scalar(k: bytes) -> int:
    """Clamp and decode a 32-byte scalar (RFC 7748 §5)."""
    if len(k) != 32:
        raise CryptoError(f"X25519 scalar must be 32 bytes, got {len(k)}")
    value = bytearray(k)
    value[0] &= 248
    value[31] &= 127
    value[31] |= 64
    return int.from_bytes(bytes(value), "little")


def _decode_u(u: bytes) -> int:
    """Decode a 32-byte u-coordinate, masking the top bit (RFC 7748 §5)."""
    if len(u) != 32:
        raise CryptoError(f"X25519 u-coordinate must be 32 bytes, got {len(u)}")
    return int.from_bytes(u, "little") & ((1 << 255) - 1)


def _ladder(k: int, u: int) -> int:
    """Montgomery ladder computing the u-coordinate of k*P (RFC 7748 §5)."""
    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0
    for t in reversed(range(255)):
        k_t = (k >> t) & 1
        swap ^= k_t
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t
        a = (x2 + z2) % _P
        aa = a * a % _P
        b = (x2 - z2) % _P
        bb = b * b % _P
        e = (aa - bb) % _P
        c = (x3 + z3) % _P
        d = (x3 - z3) % _P
        da = d * a % _P
        cb = c * b % _P
        x3 = (da + cb) % _P
        x3 = x3 * x3 % _P
        z3 = (da - cb) % _P
        z3 = x1 * z3 * z3 % _P
        x2 = aa * bb % _P
        z2 = e * (aa + _A24 * e) % _P
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    return x2 * _inv(z2) % _P


def x25519(scalar: bytes, u_coordinate: bytes) -> bytes:
    """Compute the X25519 function: scalar * point(u).

    Raises :class:`CryptoError` when the result is the all-zero output,
    which indicates a low-order input point (RFC 7748 §6.1 check).
    """
    k = _decode_scalar(scalar)
    u = _decode_u(u_coordinate)
    result = _ladder(k, u)
    out = result.to_bytes(32, "little")
    if out == bytes(32):
        raise CryptoError("X25519 produced the all-zero output (low-order point)")
    return out


def _base_u(k: int) -> int:
    """The u-coordinate of ``[k]`` base point, from the edwards25519 table.

    Curve25519's base point (u = 9) is the image of edwards25519's B
    under the birational map u = (1 + y) / (1 - y) (RFC 7748 §4.1), so
    ``[k]B`` from the precomputed table maps to the ladder's result:
    u = (Z + Y) / (Z - Y).  The identity (Z = Y) inverts 0 and gives 0,
    as the ladder does.  ``_ladder(k, 9)`` is its reference.
    """
    _, y, z, _ = _base_mul(k)
    return (z + y) * _inv(z - y) % _P


def x25519_base(scalar: bytes) -> bytes:
    """Compute scalar * base-point (u = 9): the public key of ``scalar``."""
    return _base_u(_decode_scalar(scalar)).to_bytes(32, "little")


def x25519_generate_keypair(entropy: bytes) -> tuple[bytes, bytes]:
    """Build a keypair from 32 bytes of entropy; returns (secret, public)."""
    if len(entropy) != 32:
        raise CryptoError(f"need exactly 32 bytes of entropy, got {len(entropy)}")
    return entropy, x25519_base(entropy)
